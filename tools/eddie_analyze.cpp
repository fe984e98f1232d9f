/**
 * @file
 * eddie_analyze — run EDDIE's monitor over a recorded capture file
 * against a trained model, entirely offline.
 *
 *   eddie_analyze <model-file> <capture-file> <workload>
 *       [--scale S] [--em] [--snr DB]
 *
 * The workload (and scale) are needed only for the region state
 * machine; the signal itself comes from the capture.
 */

#include <cstdio>
#include <fstream>

#include "core/capture_io.h"
#include "run_flags.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"scale", "em", "snr"});
    if (args.positional().size() != 3) {
        std::fprintf(stderr,
                     "usage: eddie_analyze <model-file> "
                     "<capture-file> <workload> [--scale S] [--em] "
                     "[--snr DB]\n");
        return 2;
    }
    const auto model = core::loadModelFile(args.positional()[0]);
    const auto capture = core::loadCaptureFile(args.positional()[1]);

    core::PipelineConfig cfg;
    tools::applyEmFlags(args, cfg);
    core::Pipeline pipe(
        workloads::makeWorkload(args.positional()[2],
                                args.getDouble("scale", 1.0)),
        cfg);

    const auto stream = pipe.toSts(capture);
    core::Monitor mon(model, cfg.monitor);
    for (const auto &sts : stream)
        mon.step(sts);
    const auto metrics = core::scoreRun(stream, mon.records(),
                                        mon.reports(), model);

    std::printf("capture: %zu samples (%.1f ms) -> %zu STS windows\n",
                capture.power.size(),
                1e3 * double(capture.power.size()) /
                    capture.sample_rate,
                stream.size());
    std::printf("anomaly reports: %zu\n", mon.reports().size());
    for (std::size_t i = 0; i < mon.reports().size() && i < 10; ++i) {
        const auto &r = mon.reports()[i];
        std::printf("  t=%8.3f ms while tracking %s\n", r.time * 1e3,
                    model.regions[r.region].name.c_str());
    }
    if (mon.reports().size() > 10)
        std::printf("  ... and %zu more\n", mon.reports().size() - 10);
    if (metrics.injected_groups > 0) {
        std::printf("injected windows: %zu, reported: %zu\n",
                    metrics.injected_groups, metrics.true_positives);
        if (metrics.detection_latency >= 0.0) {
            std::printf("detection latency: %.2f ms\n",
                        metrics.detection_latency * 1e3);
        }
    }
    return mon.reports().empty() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_analyze",
                                 [&] { return run(argc, argv); });
}
