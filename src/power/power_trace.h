/**
 * @file
 * Per-cycle energy accumulation sampled into a power trace, mirroring
 * the paper's setup of sampling the simulator-generated power signal
 * every fixed number of cycles.
 */

#ifndef EDDIE_POWER_POWER_TRACE_H
#define EDDIE_POWER_POWER_TRACE_H

#include <cstdint>
#include <vector>

namespace eddie::power
{

/**
 * Accumulates energy deposited at arbitrary cycles into fixed-width
 * sample buckets (power = energy per bucket).
 */
class PowerTrace
{
  public:
    /**
     * @param cycles_per_sample bucket width (paper: 20 cycles)
     * @param clock_hz simulated core clock, for the sample rate
     */
    PowerTrace(std::uint64_t cycles_per_sample, double clock_hz);

    /** Deposits @p energy at absolute @p cycle. Inline: the simulator
     *  makes two or three deposits per instruction. */
    void deposit(std::uint64_t cycle, double energy) { at(cycle) += energy; }

    /** Deposits @p first, then @p second, at @p cycle: the same two
     *  additions in the same order as two deposit() calls, with one
     *  bucket lookup and one store. */
    void
    deposit(std::uint64_t cycle, double first, double second)
    {
        double &s = at(cycle);
        s += first;
        s += second;
    }

    /**
     * Finalizes the trace up to @p end_cycle, adding
     * @p baseline_per_cycle to every cycle.
     */
    void finalize(std::uint64_t end_cycle, double baseline_per_cycle);

    /** Sample rate of the trace in Hz. */
    double sampleRate() const;

    std::uint64_t cyclesPerSample() const { return cycles_per_sample_; }

    /** The samples; valid after finalize(). */
    const std::vector<double> &samples() const { return samples_; }
    std::vector<double> takeSamples() { return std::move(samples_); }

    /** Bucket index of a cycle. */
    std::uint64_t sampleOf(std::uint64_t cycle) const
    {
        return cycle / cycles_per_sample_;
    }

    /**
     * sampleOf() for a cycle stream that mostly stays in one bucket, as
     * the simulator's does: the last bucket is remembered, and a cycle
     * inside it skips the 64-bit divide.
     */
    std::uint64_t
    bucketOf(std::uint64_t cycle)
    {
        if (cycle - bucket_start_ >= cycles_per_sample_) {
            bucket_ = cycle / cycles_per_sample_;
            bucket_start_ = bucket_ * cycles_per_sample_;
        }
        return bucket_;
    }

  private:
    /** The bucket of @p cycle, extending the trace to it. */
    double &
    at(std::uint64_t cycle)
    {
        const std::uint64_t b = bucketOf(cycle);
        if (b >= used_) {
            if (b >= samples_.size())
                grow(b);
            used_ = b + 1;
        }
        return samples_[b];
    }

    /** Zero-extends samples_ past @p bucket, geometrically. */
    void grow(std::uint64_t bucket);

    std::uint64_t cycles_per_sample_;
    double clock_hz_;
    /** Buckets [0, used_) are the trace; the rest is zeroed headroom,
     *  cut off by finalize(). */
    std::vector<double> samples_;
    std::uint64_t used_ = 0;
    /** bucketOf() memo: the last bucket and its first cycle. */
    std::uint64_t bucket_ = 0;
    std::uint64_t bucket_start_ = 0;
};

} // namespace eddie::power

#endif // EDDIE_POWER_POWER_TRACE_H
