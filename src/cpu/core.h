/**
 * @file
 * The simulated core: combined functional execution and analytical
 * timing model (in-order or out-of-order), producing a power trace
 * with ground-truth region and injection annotations.
 *
 * Plays the role of both the A13-OLinuXino board and the SESC
 * simulator of the paper (see DESIGN.md substitution table).
 */

#ifndef EDDIE_CPU_CORE_H
#define EDDIE_CPU_CORE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "branch_pred.h"
#include "cache.h"
#include "config.h"
#include "injection.h"
#include "power/energy_model.h"
#include "prog/program.h"
#include "prog/regions.h"
#include "run_result.h"

namespace eddie::cpu
{

/** Initial memory contents: (word address, words) segments. */
using MemoryImage =
    std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>>;

/**
 * Executes programs under a configurable timing model.
 *
 * A Core is reusable; every run() starts from cold caches, a reset
 * predictor, and a fresh memory image.
 */
class Core
{
  public:
    explicit Core(const CoreConfig &config,
                  const power::EnergyParams &energy = power::EnergyParams());

    /**
     * Runs @p program to Halt (or the instruction cap).
     *
     * @param regions region analysis of @p program (for ground-truth
     *        labels and injection triggers)
     * @param image initial memory contents
     * @param plan dynamic-stream injection plan (may be empty)
     * @param seed seed for timing jitter and injection randomness
     */
    RunResult run(const prog::Program &program,
                  const prog::RegionGraph &regions,
                  const MemoryImage &image,
                  const InjectionPlan &plan = InjectionPlan(),
                  std::uint64_t seed = 1);

    const CoreConfig &config() const { return config_; }

  private:
    CoreConfig config_;
    power::EnergyParams energy_params_;
};

} // namespace eddie::cpu

#endif // EDDIE_CPU_CORE_H
