/**
 * @file
 * eddie_capture — simulate one run of a workload and record the
 * sampled signal (with ground-truth annotations) to a capture file
 * for offline analysis with eddie_analyze.
 *
 *   eddie_capture <workload> <capture-file>
 *       [--scale S] [--seed N]
 *       [--inject loop|burst] [--payload N] [--contamination R]
 *       [--target REGION] [--sts]
 *
 * --sts writes the extracted STS window stream ("EDDIESTS") instead
 * of the raw sampled signal — the input format of eddie_replay's
 * --capture and serve::StsFileSource.
 */

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "core/capture_io.h"
#include "core/errors.h"
#include "core/pipeline.h"
#include "inject/scenarios.h"
#include "tool_util.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"scale", "seed", "inject", "payload",
                      "contamination", "target", "sts"});
    if (args.positional().size() != 2) {
        std::fprintf(stderr,
                     "usage: eddie_capture <workload> <capture-file> "
                     "[--scale S] [--seed N]\n"
                     "       [--inject loop|burst] [--payload N] "
                     "[--contamination R] [--target REGION] "
                     "[--sts]\n");
        return 2;
    }
    auto workload = workloads::makeWorkload(
        args.positional()[0], args.getDouble("scale", 1.0));
    const auto seed = std::uint64_t(args.getLong("seed", 42));
    const auto target = args.has("target") ?
        args.getCount("target", 0) :
        inject::defaultTargetLoop(workload);

    cpu::InjectionPlan plan;
    const std::string inject = args.get("inject");
    if (inject == "loop") {
        plan = inject::loopPayload(
            target, args.getCount("payload", 8),
            args.getDouble("contamination", 1.0), seed);
    } else if (inject == "burst") {
        plan = inject::burstOfSize(
            workload, target,
            std::uint64_t(args.getCount("payload", 476'000)), 1, seed);
    } else if (!inject.empty()) {
        std::fprintf(stderr, "unknown --inject kind '%s'\n",
                     inject.c_str());
        return 2;
    }

    core::PipelineConfig cfg;
    core::Pipeline pipe(std::move(workload), cfg);
    if (args.has("sts")) {
        const auto stream = pipe.captureRunShared(seed, plan);
        errno = 0;
        std::ofstream os(args.positional()[1], std::ios::binary);
        if (!os)
            throw core::ioErrorErrno("sts stream: open for write",
                                     args.positional()[1]);
        core::saveStsStream(*stream, os);
        os.flush();
        if (!os)
            throw core::ioErrorErrno("sts stream: write",
                                     args.positional()[1]);
        std::printf("captured %zu STS windows -> %s\n", stream->size(),
                    args.positional()[1].c_str());
        return 0;
    }
    const auto rr = pipe.simulate(seed, plan);
    core::saveCaptureFile(rr, args.positional()[1]);
    std::printf("captured %zu samples at %.1f MS/s (%llu "
                "instructions, %llu injected ops) -> %s\n",
                rr.power.size(), rr.sample_rate / 1e6,
                static_cast<unsigned long long>(rr.stats.instructions),
                static_cast<unsigned long long>(rr.stats.injected_ops),
                args.positional()[1].c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_capture",
                                 [&] { return run(argc, argv); });
}
