#include "core.h"

#include <algorithm>
#include <cassert>
#include <random>
#include <stdexcept>
#include <type_traits>

#include "common/mt19937_64.h"
#include "power/power_trace.h"

namespace eddie::cpu
{

namespace
{

using prog::Instr;
using prog::kBoundary;
using prog::kNoRegion;
using prog::Opcode;

/**
 * Tracks per-cycle issue-slot occupancy in a sliding window so the
 * out-of-order model can place instructions in already-partially-used
 * cycles without unbounded memory.
 */
class SlotTracker
{
  public:
    /** Window length in cycles; a power of two, so a cycle's slot is
     *  a mask, not a 64-bit divide. */
    static constexpr std::uint64_t kSpan = 8192;

    explicit SlotTracker(std::size_t width) : width_(width), cnt_(kSpan, 0)
    {
    }

    /** Earliest cycle >= min_cycle with a free slot; claims it. */
    std::uint64_t
    alloc(std::uint64_t min_cycle)
    {
        std::uint64_t c = std::max(min_cycle, base_);
        if (c - base_ >= kSpan)
            advance(c - kSpan + 1);
        while (cnt_[c & kMask] >= width_) {
            ++c;
            if (c - base_ >= kSpan)
                advance(c - kSpan + 1);
        }
        ++cnt_[c & kMask];
        return c;
    }

  private:
    static constexpr std::uint64_t kMask = kSpan - 1;

    void
    advance(std::uint64_t new_base)
    {
        // Clear slots that fall out of the window.
        const std::uint64_t steps = std::min<std::uint64_t>(
            new_base - base_, kSpan);
        for (std::uint64_t i = 0; i < steps; ++i)
            cnt_[(base_ + i) & kMask] = 0;
        base_ = new_base;
    }

    std::size_t width_;
    std::uint64_t base_ = 0;
    std::vector<std::uint16_t> cnt_;
};

/**
 * SlotTracker for an in-order core, reduced to the one slot that can
 * still take an instruction. In-order issue cycles never decrease, so
 * every cycle before the last issue is closed to later instructions
 * and every cycle after it is empty; alloc() returns what
 * SlotTracker::alloc() returns for the same calls.
 */
class InOrderSlots
{
  public:
    explicit InOrderSlots(std::size_t width) : width_(width) {}

    /** Earliest cycle >= min_cycle with a free slot; claims it.
     *  @p min_cycle is never below the last cycle returned. */
    std::uint64_t
    alloc(std::uint64_t min_cycle)
    {
        assert(min_cycle >= cycle_);
        if (min_cycle == cycle_ && count_ < width_) {
            ++count_;
        } else {
            cycle_ = min_cycle == cycle_ ? min_cycle + 1 : min_cycle;
            count_ = 1;
        }
        return cycle_;
    }

  private:
    std::size_t width_;
    std::uint64_t cycle_ = 0;
    /** Same width as SlotTracker's counters, so it wraps alike. */
    std::uint16_t count_ = 0;
};

/** The simulated ISA's 64-bit two's-complement arithmetic, which wraps
 *  on overflow: computed unsigned, where C++ defines the wrap. */
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) + std::uint64_t(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) - std::uint64_t(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) * std::uint64_t(b));
}

/** Division with the ISA's edge cases: a zero divisor yields 0, and
 *  INT64_MIN / -1 wraps like the other operations. */
std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    return b == -1 ? wrapSub(0, a) : a / b;
}

/** Sentinel for "no instruction issued in this sample bucket yet". */
constexpr std::int64_t kUnmarked = -2;
/** Sentinel for "instruction outside any loop region". */
constexpr std::int64_t kNonLoop = -1;

/**
 * Per-run execution engine; all mutable state lives here. The timing
 * model is a template parameter so the per-instruction path carries
 * no branch on it.
 */
template <bool kOutOfOrder>
class Runner
{
  public:
    Runner(const CoreConfig &cfg, const power::EnergyParams &eparams,
           const prog::Program &program, const prog::RegionGraph &regions,
           const MemoryImage &image, const InjectionPlan &plan,
           std::uint64_t seed)
        : cfg_(cfg),
          program_(program),
          regions_(regions),
          plan_(plan),
          energy_(eparams, cfg.l1.size_bytes, cfg.l2.size_bytes,
                  cfg.pipeline_depth),
          caches_(cfg.l1, cfg.l2),
          pred_(12),
          slots_(cfg.issue_width),
          trace_(cfg.cycles_per_sample, cfg.clock_hz),
          rng_(seed),
          mem_(cfg.memory_words, 0)
    {
        for (const auto &[addr, words] : image) {
            if (addr + words.size() > mem_.size())
                throw std::out_of_range("Core: memory image too large");
            std::copy(words.begin(), words.end(),
                      mem_.begin() + std::ptrdiff_t(addr));
        }
        commit_ring_.assign(std::max<std::size_t>(cfg.rob_size, 1), 0);

        // Effective structural-hazard jitter (see CoreConfig).
        // Dynamically scheduled cores have more un-modeled schedule
        // nondeterminism than in-order pipelines; the *per-parameter*
        // effects (e.g. deeper pipelines -> more misprediction
        // variance) arise naturally from the timing model itself, so
        // the synthetic part is a flat style-dependent factor.
        const double scale = kOutOfOrder ? 1.5 : 0.25;
        jitter_prob_ = std::min(cfg_.schedule_jitter * scale, 0.9);

        for (const auto &li : plan_.loops) {
            if (li.loop_region >= regions_.num_loops)
                throw std::out_of_range("Core: bad injected loop region");
            const auto hot =
                regions_.regions[li.loop_region].hot_header_instr;
            if (hot >= program_.code.size())
                continue; // never a target execution continues at
            loop_inj_.resize(program_.code.size());
            loop_inj_[hot] = {&li.ops,
                              common::CanonicalBelow(li.contamination)};
        }
        burst_fired_.assign(plan_.bursts.size(), false);
        burst_count_.assign(plan_.bursts.size(), 0);

        // Injected off-chip accesses stride a large region placed in
        // the top half of memory.
        inj_miss_base_ = cfg_.memory_words / 2;
        inj_miss_span_ = std::min<std::uint64_t>(cfg_.memory_words / 4,
                                                 std::uint64_t(1) << 19);
        inj_hit_addr_ = cfg_.memory_words / 2 - 64;

        // OS interrupt model.
        kernel_base_ = cfg_.memory_words * 3 / 4;
        if (cfg_.os_irq_rate_hz > 0.0) {
            irq_interval_ = std::uint64_t(cfg_.clock_hz /
                                          cfg_.os_irq_rate_hz);
            scheduleNextIrq(0);
        }
    }

    RunResult run();

  private:
    // --- timing ----------------------------------------------------
    std::uint64_t
    jitter()
    {
        // Epoch-correlated: redraw the instantaneous delay
        // probability in [0, 2 * mean] every epoch so timing wanders
        // slowly (DVFS/thermal/contention), not just white noise.
        // The per-instruction test is `coin() < p` in integer form,
        // exact and one compare (common/mt19937_64.h).
        if (jitter_countdown_ == 0) {
            jitter_countdown_ = cfg_.jitter_epoch_instrs;
            cur_jitter_ = common::CanonicalBelow(jitter_prob_ * 2.0 *
                                                 coin());
        }
        --jitter_countdown_;
        return cur_jitter_(rng_()) ? 1 : 0;
    }

    /** One uniform in [0, 1), as std::uniform_real_distribution. */
    double coin() { return common::canonical(rng_()); }

    struct Issue
    {
        std::uint64_t issue = 0;
        std::uint64_t complete = 0;
    };

    /** Places one instruction in the schedule. */
    Issue
    issueOp(std::uint64_t ready, std::size_t latency)
    {
        Issue r;
        std::uint64_t min_cycle;
        if (kOutOfOrder) {
            const std::uint64_t rob_free = commit_ring_[ring_pos_];
            min_cycle = std::max({fetch_ready_, ready, rob_free});
        } else {
            min_cycle = std::max({fetch_ready_, ready, prev_issue_});
        }
        r.issue = slots_.alloc(min_cycle + jitter());
        r.complete = r.issue + latency;
        if (kOutOfOrder) {
            // In-order commit with issue-width commit bandwidth.
            std::uint64_t commit = std::max(r.complete + 1,
                                            last_commit_);
            if (commit == last_commit_) {
                if (++commits_in_cycle_ > cfg_.issue_width) {
                    ++commit;
                    commits_in_cycle_ = 1;
                }
            } else {
                commits_in_cycle_ = 1;
            }
            last_commit_ = commit;
            commit_ring_[ring_pos_] = commit;
            if (++ring_pos_ == commit_ring_.size())
                ring_pos_ = 0;
        } else {
            prev_issue_ = r.issue;
        }
        end_cycle_ = std::max(end_cycle_, r.complete);
        return r;
    }

    /** Load-to-use latency of an access serviced at @p lvl. */
    std::size_t
    levelLatency(MemLevel lvl) const
    {
        switch (lvl) {
          case MemLevel::L1: return cfg_.l1_latency;
          case MemLevel::L2: return cfg_.l2_latency;
          case MemLevel::Dram: return cfg_.dram_latency;
        }
        return cfg_.l1_latency;
    }

    /** Deposits the energy of an access serviced at @p lvl. */
    void
    depositMem(MemLevel lvl, std::uint64_t at_cycle)
    {
        deposit(at_cycle, power::Event::L1Access);
        if (lvl == MemLevel::L2 || lvl == MemLevel::Dram)
            deposit(at_cycle + cfg_.l1_latency, power::Event::L2Access);
        if (lvl == MemLevel::Dram)
            deposit(at_cycle + cfg_.l2_latency, power::Event::DramAccess);
    }

    /** Memory access: cache lookup + energy; returns load latency. */
    std::size_t
    memAccess(std::uint64_t word_addr, std::uint64_t at_cycle)
    {
        const std::uint64_t byte_addr = word_addr << 3;
        const MemLevel lvl = caches_.access(byte_addr);
        depositMem(lvl, at_cycle);
        return levelLatency(lvl);
    }

    /** Partial in-order stall when a store misses: the store buffer
     *  absorbs some, but sustained misses back-pressure the pipe. */
    void
    storeMissStall(std::size_t lat, std::uint64_t issue)
    {
        if (!kOutOfOrder && lat > cfg_.l1_latency)
            fetch_ready_ = std::max(fetch_ready_, issue + lat / 2);
    }

    void
    deposit(std::uint64_t cycle, power::Event e)
    {
        trace_.deposit(cycle, energy_.eventEnergy(e));
    }

    /** Deposits @p first, then @p second, at one cycle. */
    void
    deposit(std::uint64_t cycle, power::Event first, power::Event second)
    {
        trace_.deposit(cycle, energy_.eventEnergy(first),
                       energy_.eventEnergy(second));
    }

    // --- annotations ------------------------------------------------
    /** Extends the annotations past @p bucket. They grow
     *  geometrically; the headroom holds the same fill values that
     *  run() pads the annotations with to the trace length. */
    void
    ensureAnnot(std::uint64_t bucket)
    {
        if (bucket >= loop_mark_.size()) {
            const std::size_t n = std::max<std::size_t>(
                bucket + 1, 2 * loop_mark_.size());
            loop_mark_.resize(n, kUnmarked);
            injected_.resize(n, 0);
        }
    }

    void
    markRegion(std::uint64_t cycle, std::size_t loop_region)
    {
        const std::uint64_t b = trace_.bucketOf(cycle);
        ensureAnnot(b);
        loop_mark_[b] = loop_region == kNoRegion ?
            kNonLoop : std::int64_t(loop_region);
    }

    void
    markInjected(std::uint64_t cycle)
    {
        const std::uint64_t b = trace_.sampleOf(cycle);
        ensureAnnot(b);
        injected_[b] = 1;
    }

    /** Marks every sample bucket an injected op occupies, including
     *  the cycles it stalls the pipeline. */
    void
    markInjectedRange(std::uint64_t from_cycle, std::uint64_t to_cycle)
    {
        const std::uint64_t b0 = trace_.sampleOf(from_cycle);
        const std::uint64_t b1 = trace_.sampleOf(to_cycle);
        ensureAnnot(b1);
        for (std::uint64_t b = b0; b <= b1; ++b)
            injected_[b] = 1;
    }

    // --- injection ---------------------------------------------------
    void
    injectOps(const std::vector<InjectedOp> &ops)
    {
        for (const InjectedOp op : ops) {
            Issue is;
            switch (op) {
              case InjectedOp::Add:
                is = issueOp(0, 1);
                deposit(is.issue, power::Event::IssueBase,
                        power::Event::AluOp);
                break;
              case InjectedOp::Mul:
                is = issueOp(0, cfg_.mul_latency);
                deposit(is.issue, power::Event::IssueBase,
                        power::Event::MulOp);
                break;
              case InjectedOp::StoreHit:
                is = issueOp(0, 1);
                deposit(is.issue, power::Event::IssueBase);
                memAccess(inj_hit_addr_, is.issue);
                break;
              case InjectedOp::StoreMiss:
              case InjectedOp::Load: {
                const std::uint64_t addr = inj_miss_base_ +
                    (inj_miss_cursor_ % inj_miss_span_);
                inj_miss_cursor_ += 8; // one cache line per access
                // Look up first (outcome is time-independent) so the
                // issue can carry the right latency.
                const MemLevel lvl = caches_.access(addr << 3);
                const std::size_t lat = levelLatency(lvl);
                is = issueOp(0, op == InjectedOp::Load ? lat : 1);
                deposit(is.issue, power::Event::IssueBase);
                depositMem(lvl, is.issue);
                if (op == InjectedOp::Load && !kOutOfOrder &&
                    lat > cfg_.l1_latency) {
                    fetch_ready_ = std::max(fetch_ready_, is.complete);
                }
                if (op == InjectedOp::StoreMiss)
                    storeMissStall(lat, is.issue);
                break;
              }
            }
            markInjectedRange(is.issue, is.complete);
            ++injected_ops_;
        }
    }

    // --- OS interrupts ------------------------------------------------
    void
    scheduleNextIrq(std::uint64_t from_cycle)
    {
        // +-50 % interval jitter, like a busy little OS.
        std::uniform_real_distribution<double> jitter_dist(0.5, 1.5);
        next_irq_cycle_ = from_cycle +
            std::uint64_t(double(irq_interval_) * jitter_dist(rng_));
    }

    /** Runs a kernel-ish burst of work: ALU ops plus strided kernel
     *  memory traffic that pollutes the caches. */
    void
    fireInterrupt()
    {
        std::uniform_real_distribution<double> len_dist(0.5, 1.5);
        const auto ops =
            std::size_t(double(cfg_.os_irq_ops) * len_dist(rng_));
        std::uint64_t last = 0;
        for (std::size_t k = 0; k < ops; ++k) {
            Issue is;
            if (k % 3 == 2) {
                const std::uint64_t addr = kernel_base_ +
                    (kernel_cursor_ % (std::uint64_t(1) << 15));
                kernel_cursor_ += 8;
                const MemLevel lvl = caches_.access(addr << 3);
                is = issueOp(0, levelLatency(lvl));
                deposit(is.issue, power::Event::IssueBase);
                depositMem(lvl, is.issue);
            } else {
                is = issueOp(0, 1);
                deposit(is.issue, power::Event::IssueBase,
                        power::Event::AluOp);
            }
            last = is.complete;
        }
        // Context-switch overhead.
        deposit(last, power::Event::PipelineFlush);
        fetch_ready_ = std::max(fetch_ready_, last);
        scheduleNextIrq(last);
    }

    void
    maybeFireBursts(bool entering_loop, std::size_t loop)
    {
        for (std::size_t i = 0; i < plan_.bursts.size(); ++i) {
            if (burst_fired_[i])
                continue;
            const BurstInjection &b = plan_.bursts[i];
            if (b.trigger_region >= regions_.regions.size())
                continue;
            const prog::Region &r = regions_.regions[b.trigger_region];
            bool triggers = false;
            if (r.kind == prog::Region::Kind::Loop) {
                triggers = entering_loop && r.loop == loop;
            } else {
                // Transition region: fire when its source loop exits.
                triggers = !entering_loop && r.from_loop == loop;
            }
            if (!triggers)
                continue;
            if (++burst_count_[i] < b.occurrence)
                continue;
            burst_fired_[i] = true;
            fireBurst(b);
        }
    }

    void
    fireBurst(const BurstInjection &b)
    {
        if (b.body.empty())
            return;
        std::uint64_t done = 0;
        while (done < b.total_ops) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(b.body.size(),
                                        b.total_ops - done);
            std::vector<InjectedOp> ops(b.body.begin(),
                                        b.body.begin() +
                                            std::ptrdiff_t(chunk));
            injectOps(ops);
            done += chunk;
        }
    }

    // --- region resolution -------------------------------------------
    /** Fills out.region from the marks; consumes loop_mark_. */
    void resolveRegions(RunResult &out);

    // --- members -----------------------------------------------------
    const CoreConfig &cfg_;
    const prog::Program &program_;
    const prog::RegionGraph &regions_;
    const InjectionPlan &plan_;
    power::EnergyModel energy_;
    CacheHierarchy caches_;
    BranchPredictor pred_;
    std::conditional_t<kOutOfOrder, SlotTracker, InOrderSlots> slots_;
    power::PowerTrace trace_;
    /** Sequence-identical to std::mt19937_64, so every draw, and the
     *  trace, matches the std engine's. */
    common::Mt19937_64 rng_;

    std::vector<std::int64_t> mem_;
    std::int64_t regs_[prog::kNumRegs] = {};
    std::uint64_t reg_ready_[prog::kNumRegs] = {};

    std::uint64_t fetch_ready_ = 0;
    std::uint64_t prev_issue_ = 0;
    std::uint64_t last_commit_ = 0;
    std::size_t commits_in_cycle_ = 0;
    std::vector<std::uint64_t> commit_ring_;
    /** Slot of the current instruction in commit_ring_ (the
     *  instruction count modulo the ROB size). */
    std::size_t ring_pos_ = 0;
    std::uint64_t end_cycle_ = 0;
    double jitter_prob_ = 0.0;
    common::CanonicalBelow cur_jitter_;
    std::size_t jitter_countdown_ = 0;

    std::vector<std::int64_t> loop_mark_;
    std::vector<std::uint8_t> injected_;
    std::uint64_t injected_ops_ = 0;

    /** Loop injection keyed by the instruction index of its hot
     *  header: the payload, and its contamination rate as a draw
     *  threshold. Empty without loop injections. */
    struct LoopSlot
    {
        const std::vector<InjectedOp> *ops = nullptr;
        common::CanonicalBelow contaminated;
    };
    std::vector<LoopSlot> loop_inj_;
    std::vector<std::uint8_t> burst_fired_;
    std::vector<std::size_t> burst_count_;
    std::uint64_t inj_miss_base_ = 0;
    std::uint64_t inj_miss_span_ = 1;
    std::uint64_t inj_miss_cursor_ = 0;
    std::uint64_t inj_hit_addr_ = 0;

    std::uint64_t irq_interval_ = 0;
    std::uint64_t next_irq_cycle_ = std::uint64_t(-1);
    std::uint64_t kernel_base_ = 0;
    std::uint64_t kernel_cursor_ = 0;
};

template <bool kOutOfOrder>
RunResult
Runner<kOutOfOrder>::run()
{
    const auto &code = program_.code;
    if (code.empty())
        throw std::invalid_argument("Core: empty program");

    std::size_t pc = 0;
    std::size_t cur_loop = kNoRegion;
    std::uint64_t retired = 0;
    bool halted = false;

    const std::uint64_t addr_mask = cfg_.memory_words - 1;

    while (!halted && retired < cfg_.max_instructions) {
        const Instr &in = code[pc];
        const std::size_t loop_region = regions_.loopRegionOf(pc);

        // Coarse region tracking for burst triggers.
        if (loop_region != cur_loop) {
            if (cur_loop != kNoRegion)
                maybeFireBursts(false, cur_loop);
            if (loop_region != kNoRegion)
                maybeFireBursts(true, loop_region);
            cur_loop = loop_region;
        }

        std::size_t next_pc = pc + 1;
        Issue is;

        switch (in.op) {
          case Opcode::Nop:
            is = issueOp(0, 1);
            deposit(is.issue, power::Event::IssueBase);
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Shl:
          case Opcode::Shr: {
            const std::uint64_t ready = std::max(reg_ready_[in.rs1],
                                                 reg_ready_[in.rs2]);
            is = issueOp(ready, 1);
            deposit(is.issue, power::Event::IssueBase, power::Event::AluOp);
            const std::int64_t a = regs_[in.rs1];
            const std::int64_t b = regs_[in.rs2];
            std::int64_t v = 0;
            switch (in.op) {
              case Opcode::Add: v = wrapAdd(a, b); break;
              case Opcode::Sub: v = wrapSub(a, b); break;
              case Opcode::And: v = a & b; break;
              case Opcode::Or: v = a | b; break;
              case Opcode::Xor: v = a ^ b; break;
              case Opcode::Shl: v = std::int64_t(std::uint64_t(a)
                                                 << (b & 63)); break;
              case Opcode::Shr: v = std::int64_t(std::uint64_t(a)
                                                 >> (b & 63)); break;
              default: break;
            }
            regs_[in.rd] = v;
            reg_ready_[in.rd] = is.complete;
            break;
          }
          case Opcode::Mul:
          case Opcode::Div: {
            const std::uint64_t ready = std::max(reg_ready_[in.rs1],
                                                 reg_ready_[in.rs2]);
            const bool mul = in.op == Opcode::Mul;
            is = issueOp(ready, mul ? cfg_.mul_latency : cfg_.div_latency);
            deposit(is.issue, power::Event::IssueBase,
                    mul ? power::Event::MulOp : power::Event::DivOp);
            const std::int64_t a = regs_[in.rs1];
            const std::int64_t b = regs_[in.rs2];
            regs_[in.rd] = mul ? wrapMul(a, b) : wrapDiv(a, b);
            reg_ready_[in.rd] = is.complete;
            break;
          }
          case Opcode::Addi: {
            is = issueOp(reg_ready_[in.rs1], 1);
            deposit(is.issue, power::Event::IssueBase, power::Event::AluOp);
            regs_[in.rd] = wrapAdd(regs_[in.rs1], in.imm);
            reg_ready_[in.rd] = is.complete;
            break;
          }
          case Opcode::Li: {
            is = issueOp(0, 1);
            deposit(is.issue, power::Event::IssueBase, power::Event::AluOp);
            regs_[in.rd] = in.imm;
            reg_ready_[in.rd] = is.complete;
            break;
          }
          case Opcode::Ld: {
            const std::uint64_t addr =
                std::uint64_t(wrapAdd(regs_[in.rs1], in.imm)) & addr_mask;
            is = issueOp(reg_ready_[in.rs1], 1);
            const std::size_t lat = memAccess(addr, is.issue);
            is.complete = is.issue + lat;
            end_cycle_ = std::max(end_cycle_, is.complete);
            deposit(is.issue, power::Event::IssueBase);
            regs_[in.rd] = mem_[addr];
            reg_ready_[in.rd] = is.complete;
            // Blocking cache on in-order cores.
            if (!kOutOfOrder && lat > cfg_.l1_latency)
                fetch_ready_ = std::max(fetch_ready_, is.complete);
            break;
          }
          case Opcode::St: {
            const std::uint64_t addr =
                std::uint64_t(wrapAdd(regs_[in.rs1], in.imm)) & addr_mask;
            const std::uint64_t ready = std::max(reg_ready_[in.rs1],
                                                 reg_ready_[in.rs2]);
            is = issueOp(ready, 1);
            deposit(is.issue, power::Event::IssueBase);
            const std::size_t lat = memAccess(addr, is.issue);
            storeMissStall(lat, is.issue);
            mem_[addr] = regs_[in.rs2];
            break;
          }
          case Opcode::Jmp: {
            is = issueOp(0, 1);
            deposit(is.issue, power::Event::IssueBase, power::Event::BranchOp);
            next_pc = std::size_t(in.imm);
            break;
          }
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge: {
            const std::uint64_t ready = std::max(reg_ready_[in.rs1],
                                                 reg_ready_[in.rs2]);
            is = issueOp(ready, 1);
            deposit(is.issue, power::Event::IssueBase, power::Event::BranchOp);
            const std::int64_t a = regs_[in.rs1];
            const std::int64_t b = regs_[in.rs2];
            bool taken = false;
            switch (in.op) {
              case Opcode::Beq: taken = a == b; break;
              case Opcode::Bne: taken = a != b; break;
              case Opcode::Blt: taken = a < b; break;
              case Opcode::Bge: taken = a >= b; break;
              default: break;
            }
            const bool correct = pred_.update(pc, taken);
            if (!correct) {
                fetch_ready_ = std::max(fetch_ready_,
                                        is.complete +
                                            cfg_.pipeline_depth);
                deposit(is.complete, power::Event::PipelineFlush);
            }
            if (taken)
                next_pc = std::size_t(in.imm);
            break;
          }
          case Opcode::Halt:
            is = issueOp(0, 1);
            deposit(is.issue, power::Event::IssueBase);
            halted = true;
            break;
        }

        markRegion(is.issue, loop_region);
        ++retired;

        if (is.issue >= next_irq_cycle_)
            fireInterrupt();

        // Loop-body injection at iteration boundaries: a control
        // transfer landing on the nest's hot header.
        if (!halted && next_pc != pc + 1 && next_pc < loop_inj_.size()) {
            const LoopSlot &slot = loop_inj_[next_pc];
            if (slot.ops != nullptr && slot.contaminated(rng_()))
                injectOps(*slot.ops);
        }

        pc = next_pc;
        if (pc >= code.size())
            halted = true;
    }

    trace_.finalize(end_cycle_, energy_.baselinePerCycle());

    RunResult out;
    out.sample_rate = trace_.sampleRate();
    out.power = trace_.takeSamples();
    resolveRegions(out);
    out.injected = std::move(injected_);
    out.injected.resize(out.power.size(), 0);

    out.final_regs.assign(regs_, regs_ + prog::kNumRegs);
    if (cfg_.snapshot_words > 0) {
        const std::size_t n_snap = std::min<std::size_t>(
            cfg_.snapshot_words, mem_.size());
        out.memory.assign(mem_.begin(),
                          mem_.begin() + std::ptrdiff_t(n_snap));
    }

    out.stats.instructions = retired;
    out.stats.injected_ops = injected_ops_;
    out.stats.cycles = end_cycle_;
    out.stats.l1_hits = caches_.l1().hits();
    out.stats.l1_misses = caches_.l1().misses();
    out.stats.l2_hits = caches_.l2().hits();
    out.stats.l2_misses = caches_.l2().misses();
    out.stats.branches = pred_.lookups();
    out.stats.mispredicts = pred_.mispredicts();
    return out;
}

template <bool kOutOfOrder>
void
Runner<kOutOfOrder>::resolveRegions(RunResult &out)
{
    const std::size_t n = out.power.size();
    std::vector<std::int64_t> &marks = loop_mark_;
    marks.resize(n, kUnmarked);

    // Fill sample gaps with the preceding mark.
    std::int64_t prev = kNonLoop;
    for (auto &m : marks) {
        if (m == kUnmarked)
            m = prev;
        else
            prev = m;
    }

    // Turn non-loop runs into transition regions.
    out.region.assign(n, kNoRegion);
    std::size_t i = 0;
    std::size_t prev_loop = kBoundary;
    while (i < n) {
        if (marks[i] >= 0) {
            const auto loop = std::size_t(marks[i]);
            out.region[i] = loop; // loop region ids equal loop index
            prev_loop = loop;
            ++i;
            continue;
        }
        // Non-loop run [i, j).
        std::size_t j = i;
        while (j < n && marks[j] < 0)
            ++j;
        const std::size_t next_loop =
            j < n ? std::size_t(marks[j]) : kBoundary;
        const std::size_t trans = regions_.transitionId(prev_loop,
                                                        next_loop);
        for (std::size_t k = i; k < j; ++k)
            out.region[k] = trans;
        i = j;
    }
}

} // namespace

Core::Core(const CoreConfig &config, const power::EnergyParams &energy)
    : config_(config), energy_params_(energy)
{
    if (config_.issue_width == 0)
        throw std::invalid_argument("Core: issue width must be > 0");
    if ((config_.memory_words & (config_.memory_words - 1)) != 0)
        throw std::invalid_argument("Core: memory_words must be pow2");
}

RunResult
Core::run(const prog::Program &program, const prog::RegionGraph &regions,
          const MemoryImage &image, const InjectionPlan &plan,
          std::uint64_t seed)
{
    if (config_.out_of_order) {
        Runner<true> runner(config_, energy_params_, program, regions,
                            image, plan, seed);
        return runner.run();
    }
    Runner<false> runner(config_, energy_params_, program, regions, image,
                         plan, seed);
    return runner.run();
}

} // namespace eddie::cpu
