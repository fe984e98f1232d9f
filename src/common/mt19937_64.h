/**
 * @file
 * MT19937-64 with a branch-free block refill, and the exact integer
 * form of libstdc++'s uniform_real_distribution<double>(0, 1).
 *
 * The simulator draws one uniform per simulated instruction, so the
 * engine is on its hottest path. Mt19937_64 produces exactly the
 * sequence of std::mt19937_64 for every seed (same seeding recurrence,
 * same twist, same tempering); it only refills the 312-word state
 * without the data-dependent branch on the low bit. canonical() maps a
 * raw draw to [0, 1) bit for bit as libstdc++'s
 * generate_canonical<double, 53> does for a 64-bit engine, and
 * CanonicalBelow turns the comparison `canonical(x) < t` into an
 * integer compare on x, computed once per threshold. All three are
 * pinned by tests/common/mt19937_64_test.cpp.
 */

#ifndef EDDIE_COMMON_MT19937_64_H
#define EDDIE_COMMON_MT19937_64_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace eddie::common
{

/** Sequence-identical replacement for std::mt19937_64 (a uniform
 *  random bit generator usable with the <random> distributions). */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type default_seed = 5489u;

    explicit Mt19937_64(result_type seed = default_seed)
    {
        state_[0] = seed;
        for (std::size_t i = 1; i < kN; ++i) {
            const result_type prev = state_[i - 1];
            state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                        result_type(i);
        }
        pos_ = kN;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        if (pos_ == kN)
            refill();
        result_type y = state_[pos_++];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71d67fffeda60000ULL;
        y ^= (y << 37) & 0xfff7eee000000000ULL;
        y ^= y >> 43;
        return y;
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
    static constexpr result_type kUpper = ~result_type(0) << 31;
    static constexpr result_type kLower = ~kUpper;

    static result_type
    twist(result_type hi, result_type lo, result_type far)
    {
        const result_type y = (hi & kUpper) | (lo & kLower);
        return far ^ (y >> 1) ^ ((result_type(0) - (y & 1)) & kMatrixA);
    }

    /** Twists the whole state at once: one straight pass with no
     *  branch on the data. */
    void
    refill()
    {
        std::size_t k = 0;
        for (; k < kN - kM; ++k)
            state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
        for (; k < kN - 1; ++k)
            state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
        state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
        pos_ = 0;
    }

    std::array<result_type, kN> state_;
    std::size_t pos_;
};

/**
 * libstdc++'s uniform_real_distribution<double>(0, 1) of one raw
 * 64-bit draw: double(x) * 2^-64, with the one value that rounds up
 * to 1 clamped to the largest double below 1.
 */
inline double
canonical(std::uint64_t x)
{
    const double u = double(x) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/**
 * The predicate `canonical(x) < t` as an integer compare. canonical()
 * never decreases as x grows, so the draws below @p t are exactly
 * those below one integer bound; the constructor finds it by
 * bisection (64 evaluations), so a threshold costs ~100 ns once and
 * each test afterwards is one compare. Thresholds above the largest
 * canonical value (any t >= 1) count every draw as below; t <= 0 and
 * NaN count none.
 */
class CanonicalBelow
{
  public:
    explicit CanonicalBelow(double t = 0.0)
    {
        const auto below = [t](std::uint64_t x) { return canonical(x) < t; };
        constexpr std::uint64_t kMax = ~std::uint64_t(0);
        if (below(kMax)) {
            all_ = true;
            return;
        }
        if (!below(0))
            return;
        // below(lo) holds and below(hi) does not.
        std::uint64_t lo = 0;
        std::uint64_t hi = kMax;
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (below(mid) ? lo : hi) = mid;
        }
        bound_ = hi;
    }

    bool operator()(std::uint64_t x) const { return all_ || x < bound_; }

  private:
    std::uint64_t bound_ = 0;
    bool all_ = false;
};

} // namespace eddie::common

#endif // EDDIE_COMMON_MT19937_64_H
