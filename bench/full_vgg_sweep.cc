/**
 * @file
 * Extension experiment — the full VGGNet-E design space.
 *
 * The paper sweeps the first five conv stages (64 partitions) and notes
 * its Torch tool explores "even the large VGGNet-E network ... in just
 * a few minutes on a single CPU core". Here we sweep ALL 21 conv/pool
 * stages of VGG-19 — 2^20 = 1,048,576 partitions — with the
 * closed-form storage model, with and without on-chip weight residency
 * in the cost, and time it.
 *
 * The sweep itself is the library's: dse::runSweep's Chain space
 * prices each contiguous stage range once through the shared
 * GroupCostCache (the per-(first,last) table this bench used to build
 * privately) and walks the million partitions over per-thread mask
 * ranges.
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "dse/sweep.hh"
#include "nn/zoo.hh"

using namespace flcnn;

namespace {

struct SweepResult
{
    std::vector<DesignPoint> front;
    double seconds = 0.0;
    int64_t points = 0;
};

SweepResult
sweep(const Network &net, bool with_weights)
{
    auto t0 = std::chrono::steady_clock::now();
    dse::SweepOptions opt;
    opt.cost.exactStorage = false;  // closed form: 2^20 points in seconds
    opt.cost.includeWeightStorage = with_weights;
    dse::SweepResult ex = dse::runSweep(net, opt);
    SweepResult res;
    res.points = static_cast<int64_t>(ex.points.size());
    res.front = std::move(ex.legacyFront);
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;  // 0 = FLCNN_THREADS or hardware concurrency
    for (int a = 1; a < argc; a++) {
        if (std::strcmp(argv[a], "--threads") == 0)
            threads = parseIntArgI("--threads",
                                   argValue(argc, argv, &a), 1, 1 << 20);
        else
            fatal("unknown argument '%s'", argv[a]);
    }
    ThreadPool::setGlobalThreads(threads);

    std::printf("== Extension: full VGGNet-E design space (all 21 "
                "stages) ==\n\n");
    Network net = vggE();
    std::printf("network: %s, %zu fusable stages, %lld partitions, "
                "%d threads\n\n",
                net.name().c_str(), net.stages().size(),
                static_cast<long long>(countPartitions(
                    static_cast<int>(net.stages().size()))),
                ThreadPool::global().numThreads());

    SweepResult plain = sweep(net, false);
    std::printf("reuse-buffer cost only: %lld partitions in %.1f s, "
                "%zu Pareto-optimal\n",
                static_cast<long long>(plain.points), plain.seconds,
                plain.front.size());
    Table t({"partition (first rows)", "storage", "transfer"});
    size_t shown = 0;
    for (const auto &p : plain.front) {
        if (shown++ >= 10) {
            t.addRow({"...", "...", "..."});
            break;
        }
        t.addRow({partitionStr(p.partition),
                  formatBytes(p.storageBytes),
                  formatBytes(p.transferBytes)});
    }
    t.print();
    std::printf("\nfull fusion of all 21 stages: %s storage for %s "
                "transferred\n(the paper's Section III-C: ~1.4 MB to "
                "fuse everything)\n\n",
                formatBytes(plain.front.back().storageBytes).c_str(),
                formatBytes(plain.front.back().transferBytes).c_str());

    SweepResult weighted = sweep(net, true);
    const DesignPoint *pick =
        bestUnderStorage(weighted.front, 2 * 1024 * 1024);
    std::printf("with on-chip weights priced in (%lld partitions in "
                "%.1f s):\n",
                static_cast<long long>(weighted.points),
                weighted.seconds);
    if (pick) {
        std::printf("  best design under a 2 MB budget: %s -> %s "
                    "transferred\n  (fuses the early feature-map-heavy "
                    "stages, leaves the weight-heavy tail\n   "
                    "layer-by-layer — the paper's guidance, derived "
                    "from the full space)\n",
                    partitionStr(pick->partition).c_str(),
                    formatBytes(pick->transferBytes).c_str());
    }
    return 0;
}
