/**
 * @file
 * Activity-event energy model (WATTCH/CACTI-style role).
 *
 * Converts microarchitectural events into energy. Only the *time
 * structure* of the resulting power trace matters to EDDIE; absolute
 * values are in arbitrary nanojoule-like units. Cache access energy
 * grows with the square root of capacity, the usual CACTI first-order
 * behaviour.
 */

#ifndef EDDIE_POWER_ENERGY_MODEL_H
#define EDDIE_POWER_ENERGY_MODEL_H

#include <array>
#include <cstddef>

namespace eddie::power
{

/** Event kinds that consume dynamic energy. */
enum class Event
{
    IssueBase,   ///< fetch/decode/issue overhead of any instruction
    AluOp,       ///< simple integer ALU operation
    MulOp,       ///< integer multiply
    DivOp,       ///< integer divide
    BranchOp,    ///< branch resolution + predictor access
    L1Access,    ///< L1 data cache access (hit or start of miss)
    L2Access,    ///< L2 access on an L1 miss
    DramAccess,  ///< DRAM access on an L2 miss
    PipelineFlush, ///< branch misprediction recovery
};

/** Number of Event kinds. */
inline constexpr std::size_t kNumEvents =
    std::size_t(Event::PipelineFlush) + 1;

/** Energy model parameters. */
struct EnergyParams
{
    double issue_base = 0.10;
    double alu = 0.08;
    double mul = 0.30;
    double div = 0.80;
    double branch = 0.06;
    /** L1 access energy at the reference 32 KB capacity. */
    double l1_ref = 0.20;
    /** L2 access energy at the reference 256 KB capacity. */
    double l2_ref = 0.90;
    double dram = 6.0;
    double flush_per_stage = 0.15;
    /** Static + clock-tree energy per cycle. */
    double baseline_per_cycle = 0.35;
};

/** Computes per-event energies for a concrete configuration, once, into
 *  a table the simulator reads on every deposit. */
class EnergyModel
{
  public:
    /**
     * @param params base energies
     * @param l1_bytes L1 capacity (scales L1Access energy)
     * @param l2_bytes L2 capacity (scales L2Access energy)
     * @param pipeline_depth scales PipelineFlush energy
     */
    EnergyModel(const EnergyParams &params, std::size_t l1_bytes,
                std::size_t l2_bytes, std::size_t pipeline_depth);

    /** Dynamic energy of one event occurrence. */
    double eventEnergy(Event e) const { return energy_[std::size_t(e)]; }

    /** Static energy consumed every cycle regardless of activity. */
    double baselinePerCycle() const { return baseline_per_cycle_; }

  private:
    std::array<double, kNumEvents> energy_;
    double baseline_per_cycle_;
};

} // namespace eddie::power

#endif // EDDIE_POWER_ENERGY_MODEL_H
