/**
 * @file
 * The pipeline flags several tools share: --em and --snr pick the
 * signal path, and --scale, --seed, --target, --inject, --payload and
 * --contamination describe one captured run.
 */

#ifndef EDDIE_TOOLS_RUN_FLAGS_H
#define EDDIE_TOOLS_RUN_FLAGS_H

#include <cstdint>
#include <string>

#include "core/pipeline.h"
#include "inject/scenarios.h"
#include "tool_util.h"

namespace eddie::tools
{

/** --em: the EM baseband path at --snr dB (30 by default), with OS
 *  interrupts at 1 kHz; without it @p cfg keeps the power path. */
inline void
applyEmFlags(const Args &args, core::PipelineConfig &cfg)
{
    if (!args.has("em"))
        return;
    cfg.path = core::SignalPath::EmBaseband;
    cfg.channel.snr_db = args.getDouble("snr", 30.0);
    cfg.core.os_irq_rate_hz = 1000.0;
}

/** One run of a workload: what to simulate and how to contaminate it. */
struct CapturedRun
{
    workloads::Workload workload;
    std::uint64_t seed = 42;
    cpu::InjectionPlan plan;
};

/**
 * Workload @p name at --scale, with --seed (42 by default) and the
 * --inject plan: `loop` (a --payload-instruction payload, 8 by
 * default, at --contamination) or `burst` (--payload ops, 476,000 by
 * default), after loop --target (the workload's default target loop
 * by default). Any other kind is a UsageError.
 */
inline CapturedRun
capturedRun(const Args &args, const std::string &name)
{
    CapturedRun run{
        workloads::makeWorkload(name, args.getDouble("scale", 1.0)),
        std::uint64_t(args.getLong("seed", 42)), {}};
    const std::size_t target =
        args.has("target") ? args.getCount("target", 0)
                           : inject::defaultTargetLoop(run.workload);
    const std::string kind = args.get("inject");
    if (kind == "loop")
        run.plan = inject::loopPayload(
            target, args.getCount("payload", 8),
            args.getDouble("contamination", 1.0), run.seed);
    else if (kind == "burst")
        run.plan = inject::burstOfSize(
            run.workload, target,
            std::uint64_t(args.getCount("payload", 476'000)), 1,
            run.seed);
    else if (!kind.empty())
        throw UsageError("--inject: unknown kind '" + kind +
                         "' (loop or burst)");
    return run;
}

} // namespace eddie::tools

#endif // EDDIE_TOOLS_RUN_FLAGS_H
