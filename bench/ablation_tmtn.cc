/**
 * @file
 * Experiment E9 — ablations of the design choices DESIGN.md calls out:
 *
 *  1. (Tm, Tn) unroll sweep for the baseline engine (Figure 5 /
 *     Listing 1 cycle formula) at a fixed DSP budget: why the joint
 *     optimum is chosen.
 *  2. Tip-size ablation for the fused design: wider pyramid tips trade
 *     recompute-model arithmetic against buffer capacity (Section
 *     III-C's knob), while the reuse model is tip-invariant in ops.
 *  3. Baseline spatial tile size vs. halo re-read traffic.
 */

#include <cstdio>

#include "common/table.hh"
#include "common/units.hh"
#include "dse/sweep.hh"
#include "fusion/plan.hh"
#include "model/baseline.hh"
#include "model/recompute.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"

using namespace flcnn;

int
main()
{
    Network net = vggEPrefix(5);

    std::printf("== Ablation 1: baseline (Tm, Tn) under a 2880-DSP "
                "budget (VGG-5) ==\n");
    Table t1({"Tm", "Tn", "DSP", "total kcycles"});
    for (auto [tm, tn] : {std::pair{576, 1}, {288, 2}, {192, 3},
                          {144, 4}, {96, 6}, {72, 8}, {64, 9},
                          {32, 18}, {18, 32}, {9, 64}, {1, 576}}) {
        int64_t cycles = 0;
        for (int i : net.convLayers()) {
            const LayerSpec &s = net.layer(i);
            const Shape &in = net.inShape(i);
            const Shape &out = net.outShape(i);
            cycles += s.groups * convCycles(s.outChannels / s.groups,
                                            in.c / s.groups, out.h,
                                            out.w, s.kernel, tm, tn);
        }
        t1.addRow({fmtI(tm), fmtI(tn), fmtI(tm * tn * 5),
                   fmtF(static_cast<double>(cycles) / 1e3, 0)});
    }
    t1.print();
    BaselineConfig best = optimizeBaseline(net, 2880);
    std::printf("joint optimum: (Tm, Tn) = (%d, %d) -> %lld kcycles "
                "(paper baseline: 10,951)\n\n",
                best.tm, best.tn,
                static_cast<long long>(
                    evaluateBaseline(net, best).totalCycles / 1000));

    std::printf("== Ablation 2: pyramid tip size (VGG-5 fusion) ==\n");
    Table t2({"tip", "pyramids", "reuse buf KB", "working buf KB",
              "recompute-model extra ops"});
    int64_t ref_ops =
        rangeOpCount(net, 0, net.numLayers() - 1).multAdds();
    for (int tip : {1, 2, 4, 7, 14, 28, 56}) {
        TilePlan plan(net, 0, net.numLayers() - 1, tip, tip);
        OpCount rec = recomputeOpsForPlan(net, plan);
        t2.addRow({fmtI(tip), fmtI(plan.numPyramids()),
                   fmtF(toKiB(plan.reuseBufferBytes()), 0),
                   fmtF(toKiB(plan.workingBufferBytes()), 0),
                   formatScaled(static_cast<double>(rec.multAdds() -
                                                    ref_ops))});
    }
    t2.print();
    std::printf("(the reuse model's arithmetic is tip-invariant: always "
                "%s mult-adds)\n\n",
                formatScaled(static_cast<double>(ref_ops)).c_str());

    std::printf("== Ablation 3: baseline spatial tile vs. halo "
                "traffic (VGG-5, Tm=64, Tn=9) ==\n");
    Table t3({"tile", "fmap MB/input", "vs whole-plane"});
    BaselineConfig cfg{64, 9, 0, 0};
    int64_t weights =
        net.weightBytesInRange(0, net.numLayers() - 1);
    int64_t whole = evaluateBaseline(net, cfg).totalBytes - weights;
    for (int tile : {0, 112, 56, 28, 16, 8, 4}) {
        cfg.tr = cfg.tc = tile;
        int64_t bytes = evaluateBaseline(net, cfg).totalBytes - weights;
        t3.addRow({tile == 0 ? "whole" : fmtI(tile),
                   fmtF(toMiB(bytes), 1),
                   fmtF(static_cast<double>(bytes) /
                            static_cast<double>(whole),
                        2) +
                       "x"});
    }
    t3.print();
    std::printf("(the paper's 77.14 MB baseline corresponds to "
                "buffer-sized ~16x16 tiles)\n");

    std::printf("\n== Ablation 4: why fusion targets the *early* "
                "layers (VGG-8 prefix) ==\n");
    // Price on-chip weight residency into the storage axis: deep
    // stages carry MBs of weights, so the best transfer-per-storage
    // designs fuse the feature-map-heavy early stages.
    Network net8 = vggEPrefix(8);
    dse::SweepOptions plain;
    plain.cost.exactStorage = false;
    dse::SweepOptions weighted = plain;
    weighted.cost.includeWeightStorage = true;
    const dse::SweepResult pa = dse::runSweep(net8, plain);
    const dse::SweepResult pb = dse::runSweep(net8, weighted);
    Table t4({"model", "full-fusion storage", "front size",
              "best transfer <=1MB storage"});
    auto summarize = [&](const char *label, const dse::SweepResult &r,
                         Table &t) {
        const DesignPoint *pick = bestUnderStorage(r.legacyFront,
                                                   1024 * 1024);
        t.addRow({label,
                  formatBytes(r.points.front().storageBytes),
                  fmtI(static_cast<int64_t>(r.legacyFront.size())),
                  pick ? formatBytes(pick->transferBytes)
                       : std::string("-")});
    };
    summarize("reuse buffers only", pa, t4);
    summarize("+ on-chip weights", pb, t4);
    t4.print();
    std::printf("(with weights priced in, a 1 MB budget favors fusing "
                "early stages and\nleaving the weight-heavy deep "
                "stages layer-by-layer — the paper's Section II-B\n"
                "motivation, quantified)\n");
    return 0;
}
