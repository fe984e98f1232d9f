/**
 * @file
 * eddie_inspect — print a human-readable summary of a trained model.
 *
 *   eddie_inspect <model-file> [--histogram REGION]
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/model.h"
#include "tool_util.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"histogram"});
    if (args.positional().size() != 1) {
        std::fprintf(stderr, "usage: eddie_inspect <model-file> "
                             "[--histogram REGION]\n");
        return 2;
    }
    const auto model = core::loadModelFile(args.positional()[0]);

    std::printf("EDDIE model: %zu regions (%zu loop regions), "
                "alpha=%.3g, entry=%s\n",
                model.regions.size(), model.num_loops, model.alpha,
                model.entry_region < model.regions.size() ?
                    model.regions[model.entry_region].name.c_str() :
                    "?");
    std::printf("%-14s %8s %7s %6s %9s %10s\n", "region", "trained",
                "peaks", "n", "ref/rank", "successors");
    for (const auto &r : model.regions) {
        std::string succs;
        for (auto s : r.succs) {
            succs += model.regions[s].name;
            succs += ' ';
        }
        std::printf("%-14s %8s %7zu %6zu %9zu %s\n", r.name.c_str(),
                    r.trained ? "yes" : "no", r.num_peaks, r.group_n,
                    r.ref.empty() ? 0 : r.ref[0].size(),
                    succs.c_str());
    }

    if (args.has("histogram")) {
        const std::size_t idx = args.getCount("histogram", 0);
        if (idx >= model.regions.size() ||
            !model.regions[idx].trained) {
            std::fprintf(stderr, "region %zu not trained\n", idx);
            return 1;
        }
        const auto &ref = model.regions[idx].ref[0];
        std::printf("\nstrongest-peak distribution of %s:\n",
                    model.regions[idx].name.c_str());
        const double lo = ref.front(), hi = ref.back();
        const int bins = 20;
        std::vector<int> hist(bins, 0);
        for (double v : ref) {
            const int b = int((v - lo) / (hi - lo + 1e-9) * bins);
            ++hist[std::clamp(b, 0, bins - 1)];
        }
        int peak = 1;
        for (int c : hist)
            peak = std::max(peak, c);
        for (int b = 0; b < bins; ++b) {
            std::printf("%10.0f kHz |",
                        (lo + (hi - lo) * (b + 0.5) / bins) / 1e3);
            for (int s = 0; s < hist[b] * 50 / peak; ++s)
                std::putchar('#');
            std::putchar('\n');
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_inspect",
                                 [&] { return run(argc, argv); });
}
