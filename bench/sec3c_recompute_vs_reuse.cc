/**
 * @file
 * Experiment E2 — Section III-C: recomputing vs. storing intermediate
 * values.
 *
 * Paper reference points:
 *  - AlexNet, first two conv layers fused: recompute costs ~678 million
 *    extra multiplications and additions; reuse costs 55.86 KB.
 *  - VGGNet-E, all conv/pool stages fused: recompute costs ~470 billion
 *    extra operations (~9.6x increase); reuse costs ~1.4 MB.
 *
 * We report both the paper's pairwise-overlap estimate and the exact
 * cost of evaluating independent 1x1-tip pyramids (what a literal
 * recompute implementation — FusedExecutor under Halo::Recompute —
 * performs).
 */

#include <cstdio>

#include "common/table.hh"
#include "common/units.hh"
#include "fusion/plan.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"

using namespace flcnn;

namespace {

void
report(const char *name, const Network &net, int first, int last,
       const char *paper_extra, const char *paper_storage)
{
    int64_t base = rangeOpCount(net, first, last).multAdds();
    int64_t pairwise = pairwiseRecomputeExtraMultAdds(net, first, last);
    int64_t exact = recomputeExtraMultAdds(net, first, last);
    int64_t storage = reuseStorageBytesExact(net, first, last);

    std::printf("-- %s --\n", name);
    Table t({"quantity", "ours", "paper"});
    t.addRow({"baseline mult-adds", formatScaled((double)base), "-"});
    t.addRow({"recompute extra (pairwise model)",
              formatScaled((double)pairwise), paper_extra});
    t.addRow({"recompute extra (exact, 1x1-tip pyramids)",
              formatScaled((double)exact), "-"});
    t.addRow({"overall increase (pairwise)",
              fmtF(1.0 + (double)pairwise / (double)base, 2) + "x",
              "-"});
    t.addRow({"reuse storage instead", formatBytes(storage),
              paper_storage});
    t.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("== Section III-C: recompute vs. reuse ==\n\n");

    Network alex = alexnetFusedPrefix();
    report("AlexNet, conv1+pool1+conv2 fused", alex, 0,
           alex.numLayers() - 1, "678 M", "55.86 KB");

    Network vgg5 = vggEPrefix(5);
    report("VGGNet-E, first five conv stages fused", vgg5, 0,
           vgg5.numLayers() - 1, "-", "362 KB");

    Network vgg = vggE();
    int last = vgg.stages().back().last;
    int64_t base = rangeOpCount(vgg, 0, last).multAdds();
    int64_t pairwise = pairwiseRecomputeExtraMultAdds(vgg, 0, last);
    int64_t storage = reuseStorageBytesClosedForm(vgg, 0, last);
    std::printf("-- VGGNet-E, all %zu conv/pool stages fused --\n",
                vgg.stages().size());
    Table t({"quantity", "ours", "paper"});
    t.addRow({"baseline mult-adds", formatScaled((double)base), "-"});
    t.addRow({"recompute extra (pairwise model)",
              formatScaled((double)pairwise), "470 B"});
    t.addRow({"overall increase",
              fmtF(1.0 + (double)pairwise / (double)base, 2) + "x",
              "9.6x"});
    t.addRow({"reuse storage instead", formatBytes(storage), "1.4 MB"});
    t.print();

    std::printf(
        "\nconclusion (paper's): for vision CNNs the recompute model "
        "costs billions of\nextra operations where the reuse model "
        "costs kilobytes; the rest of the\nsystem therefore uses the "
        "reuse strategy.\n");
    return 0;
}
