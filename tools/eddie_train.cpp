/**
 * @file
 * eddie_train — characterize a workload's normal execution and save
 * the trained model.
 *
 *   eddie_train <workload> <model-file>
 *       [--scale S] [--runs N] [--em] [--snr DB] [--alpha A]
 *       [--threads T]
 *
 * The model file is an EDDIEARC archive holding one binary model
 * segment. eddie_monitor, eddie_inspect, eddie_analyze and
 * eddie_serve read it through core::loadModelFile(), which never
 * writes to it.
 */

#include <cstdio>

#include "common/thread_pool.h"
#include "run_flags.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"scale", "runs", "em", "snr", "alpha", "threads"});
    if (args.positional().size() != 2) {
        std::fprintf(stderr,
                     "usage: eddie_train <workload> <model-file> "
                     "[--scale S] [--runs N] [--em] [--snr DB] "
                     "[--alpha A] [--threads T]\n"
                     "  --threads 0 (default) uses all hardware "
                     "threads; any value yields the same model\n"
                     "  workloads:");
        for (const auto &n : workloads::workloadNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    const auto &name = args.positional()[0];
    const auto &out_path = args.positional()[1];

    core::PipelineConfig cfg;
    cfg.train_runs = args.getCount("runs", 8);
    cfg.trainer.alpha = args.getDouble("alpha", 0.01);
    cfg.threads = args.getCount("threads", 0);
    tools::applyEmFlags(args, cfg);

    core::Pipeline pipe(
        workloads::makeWorkload(name, args.getDouble("scale", 1.0)),
        cfg);
    std::printf("training '%s' on %zu runs (%s path, %zu threads)...\n",
                name.c_str(), cfg.train_runs,
                args.has("em") ? "EM" : "power",
                common::ThreadPool::resolveThreads(cfg.threads));
    core::TrainingDiagnostics diag;
    const auto model = pipe.trainModel(&diag);

    std::size_t trained = 0;
    for (const auto &r : model.regions)
        trained += r.trained;
    std::printf("trained %zu of %zu regions\n", trained,
                model.regions.size());

    core::saveModelFile(model, out_path);
    std::printf("model written to %s\n", out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_train",
                                 [&] { return run(argc, argv); });
}
