/**
 * @file
 * Experiments E3/E4 — Figure 7: the storage-vs-transfer trade-off space
 * of all fusion partitions for AlexNet (128 points) and the VGGNet-E
 * five-conv prefix (64 points), with the Pareto front and the paper's
 * named points:
 *
 *   A: layer-by-layer, 0 storage, ~86 MB transferred;
 *   B: ~118 KB storage, ~25 MB transferred;
 *   C: full fusion, ~362 KB storage, 3.6 MB transferred (24x less).
 */

#include <cstdio>

#include "common/table.hh"
#include "common/units.hh"
#include "dse/sweep.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

using namespace flcnn;

namespace {

void
sweep(const Network &net, const char *title)
{
    std::printf("== Figure 7: %s ==\n", title);
    const dse::SweepResult res = dse::runSweep(net, {});
    std::printf("%zu partitions evaluated, %zu Pareto-optimal\n\n",
                res.points.size(), res.legacyFront.size());

    Table t({"partition", "storage KB", "transfer MB"});
    for (const auto &p : res.legacyFront) {
        t.addRow({partitionStr(p.partition),
                  fmtF(toKiB(p.storageBytes), 1),
                  fmtF(toMiB(p.transferBytes), 2)});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    sweep(alexnet(), "(a) AlexNet, 8 stages, 128 partitions");
    Network vgg = vggEPrefix(5);
    sweep(vgg, "(b) VGGNet-E first 5 convs + 2 pools, 64 partitions");

    // The paper's named points on the VGG plot.
    const dse::SweepResult res = dse::runSweep(vgg, {});
    int64_t a_transfer = layerByLayerTransferBytes(vgg);
    const DesignPoint *b = bestUnderStorage(res.legacyFront, 120 * 1024);
    const DesignPoint &c = res.legacyFront.back();

    std::printf("named points (paper values in parentheses):\n");
    std::printf("  A: storage 0, transfer %.1f MB   (0, 86 MB)\n",
                toMiB(a_transfer));
    if (b) {
        std::printf("  B: storage %.0f KB, transfer %.1f MB   "
                    "(118 KB, 25 MB)  partition %s\n",
                    toKiB(b->storageBytes), toMiB(b->transferBytes),
                    partitionStr(b->partition).c_str());
    }
    std::printf("  C: storage %.0f KB, transfer %.2f MB   "
                "(362 KB, 3.6 MB)  partition %s\n",
                toKiB(c.storageBytes), toMiB(c.transferBytes),
                partitionStr(c.partition).c_str());
    std::printf("  A->C DRAM traffic reduction: %.1fx (paper: 24x)\n",
                static_cast<double>(a_transfer) /
                    static_cast<double>(c.transferBytes));
    std::printf("\nnote: our front also contains conv+pool merges at "
                "zero storage cost\n(e.g. the first front row above); "
                "the paper itself observes pooling fusion\nis free and "
                "plots A as the strictly layer-by-layer extreme.\n");
    return 0;
}
