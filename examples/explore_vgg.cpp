/**
 * @file
 * Design-space explorer (the paper's Section V tool): enumerate every
 * way to partition a network's stages into fused pyramids and print
 * the storage/transfer trade-off with its Pareto front.
 *
 * Usage:
 *   explore_vgg [alexnet | vgg <num_convs> | vgge | googlenet]
 *               [--all-points]
 *               [--precision fp32|fp16|int8]
 *               [--space chain|looptree] [--tile-heights H1,H2,...]
 *               [--budget N] [--exact-only] [--pareto-json FILE]
 *
 * Defaults to the paper's VGGNet-E five-conv prefix. --precision
 * re-prices every partition at that element size (fp16 halves, int8
 * quarters all storage/transfer bytes), re-deriving the Pareto front
 * for a quantized deployment.
 *
 * Every mode runs the schedule-space sweep engine (src/dse). The
 * default table is its Chain space on the Figure 7 axes. --space
 * prints the latency/energy/buffer surface instead: "chain" over the
 * paper's partition space, "looptree" over the enlarged space
 * (multi-row tiles from --tile-heights, per-boundary
 * retain-vs-recompute, independent-tile and uniform-stride
 * dataflows). --pareto-json writes both surfaces as
 * JSON (schema flcnn-pareto-v1) and implies --space chain when no
 * space was chosen.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "dse/sweep.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

using namespace flcnn;

namespace {

std::vector<int>
parseTileHeights(const char *arg)
{
    std::vector<int> tiles;
    std::string cur;
    for (const char *p = arg;; p++) {
        if (*p == ',' || *p == '\0') {
            if (cur.empty())
                fatal("--tile-heights: empty entry in '%s'", arg);
            tiles.push_back(parseIntArgI("tile height", cur.c_str(), 1,
                                         dse::kMaxTileH));
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    return tiles;
}

void
printSweep(const Network &net, const dse::SweepOptions &opt,
           const dse::SweepResult &res)
{
    std::printf("%s sweep: %lld points in %.3f s (%.0f points/s), "
                "frontier %zu, chain front %zu\n\n",
                dse::spaceName(res.space),
                static_cast<long long>(res.pointsVisited), res.seconds,
                res.seconds > 0.0
                    ? static_cast<double>(res.pointsVisited) / res.seconds
                    : 0.0,
                res.front.size(), res.chainFront.size());

    Table t({"schedule", "buffer KB", "transfer MB", "extra ops",
             "latency Mcyc", "energy mJ", "exact"});
    for (const dse::SweepPoint &p : res.front) {
        t.addRow({dse::scheduleStr(net, p.schedule),
                  fmtF(toKiB(p.cost.bufferBytes()), 1),
                  fmtF(toMiB(p.cost.transferBytes), 2),
                  formatScaled(static_cast<double>(p.cost.extraOps)),
                  fmtF(static_cast<double>(p.cost.latencyCycles) / 1e6,
                       2),
                  fmtF(static_cast<double>(p.cost.energyPj) / 1e9, 2),
                  p.cost.exact() ? "" : "approx"});
    }
    t.print();
    (void)opt;
}

} // namespace

int
main(int argc, char **argv)
{
    bool all_points = false;
    std::string which = "vgg";
    int convs = 5;
    Precision dtype = Precision::Fp32;
    bool use_sweep = false;
    dse::SweepOptions sopt;
    std::string json_path;
    for (int a = 1; a < argc; a++) {
        if (std::strcmp(argv[a], "--all-points") == 0) {
            all_points = true;
        } else if (std::strcmp(argv[a], "--precision") == 0) {
            dtype = precisionFromName(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--space") == 0) {
            const char *v = argValue(argc, argv, &a);
            if (std::strcmp(v, "chain") == 0)
                sopt.space = dse::Space::Chain;
            else if (std::strcmp(v, "looptree") == 0)
                sopt.space = dse::Space::LoopTree;
            else
                fatal("--space must be 'chain' or 'looptree', got '%s'",
                      v);
            use_sweep = true;
        } else if (std::strcmp(argv[a], "--tile-heights") == 0) {
            sopt.tileHeights = parseTileHeights(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--budget") == 0) {
            sopt.pointBudget = parseIntArg(
                "point budget", argValue(argc, argv, &a), 1, INT64_MAX);
        } else if (std::strcmp(argv[a], "--exact-only") == 0) {
            // Drop the approximate independent-tile dataflow: every
            // surfaced point then executes/prices without zero-padded
            // halos.
            sopt.independentTiles = false;
        } else if (std::strcmp(argv[a], "--pareto-json") == 0) {
            json_path = argValue(argc, argv, &a);
            use_sweep = true;
        } else if (std::strcmp(argv[a], "alexnet") == 0) {
            which = "alexnet";
        } else if (std::strcmp(argv[a], "googlenet") == 0) {
            which = "googlenet";
        } else if (std::strcmp(argv[a], "vgge") == 0) {
            which = "vgge";  // all 21 fusable stages: the 2^20 space
        } else if (std::strcmp(argv[a], "vgg") == 0) {
            which = "vgg";
            if (a + 1 < argc && argv[a + 1][0] != '-')
                convs = parseIntArgI("vgg conv count", argv[++a], 1, 16);
        } else {
            fatal("unknown argument '%s'", argv[a]);
        }
    }

    Network net = which == "alexnet" ? alexnet()
                  : which == "googlenet" ? googlenetStem()
                  : which == "vgge" ? vggE()
                                    : vggEPrefix(convs);
    std::printf("exploring %s (%s): %zu fusable stages, %lld "
                "partitions\n\n",
                net.name().c_str(), precisionName(dtype),
                net.stages().size(),
                static_cast<long long>(countPartitions(
                    static_cast<int>(net.stages().size()))));

    sopt.cost.withRecompute = true;
    sopt.cost.dtype = dtype;
    const dse::SweepResult res = runSweep(net, sopt);
    if (use_sweep) {
        printSweep(net, sopt, res);
        if (!json_path.empty()) {
            std::FILE *f = std::fopen(json_path.c_str(), "w");
            if (!f)
                fatal("cannot write '%s'", json_path.c_str());
            dse::writeParetoJson(f, net, sopt, res);
            std::fclose(f);
            std::printf("\nPareto surfaces written to %s\n",
                        json_path.c_str());
        }
        return 0;
    }

    Table t({"partition", "storage KB", "transfer MB",
             "recompute-alt extra ops", "pareto"});
    for (const auto &p : res.points) {
        bool on_front = false;
        for (const auto &f : res.legacyFront) {
            if (f.partition == p.partition) {
                on_front = true;
                break;
            }
        }
        if (!all_points && !on_front)
            continue;
        t.addRow({partitionStr(p.partition),
                  fmtF(toKiB(p.storageBytes), 1),
                  fmtF(toMiB(p.transferBytes), 2),
                  formatScaled(static_cast<double>(p.extraOps)),
                  on_front ? "*" : ""});
    }
    t.print();

    const int64_t lbl = layerByLayerTransferBytes(net) / 4 *
                        precisionElemBytes(dtype);
    const int64_t best = res.legacyFront.back().transferBytes;
    std::printf("\nlayer-by-layer: %s; best fusion: %s "
                "(%.1fx less DRAM traffic)\n",
                formatBytes(lbl).c_str(), formatBytes(best).c_str(),
                static_cast<double>(lbl) / static_cast<double>(best));
    if (!all_points)
        std::printf("(showing Pareto-optimal rows; --all-points for "
                    "the full scatter)\n");
    return 0;
}
