/**
 * @file
 * End-to-end fused inference: run a synthetic image through the
 * fused-layer accelerator model and the baseline accelerator model,
 * verify bit-identical outputs, and report what each design costs.
 *
 * Usage:
 *   fused_inference [alexnet | vgg <num_convs>] [--fps N] [--threads N]
 *                   [--precision fp32|fp16|int8] [--tune] [--fast-math]
 *                   [--metrics-json FILE] [--trace-json FILE]
 *
 * With --precision fp16 or int8, the host-side executors additionally
 * run the fused range in that mode: the reference and every fused
 * executor must agree bit-exactly within the mode, and the deviation
 * from the fp32 reference plus the per-dtype weight/activation
 * footprint are reported.
 *
 * --tune autotunes every conv layer of the range first (winners
 * persist to the per-machine tune cache; a warm cache reports
 * "0 newly tuned") and prints the chosen solver + config per layer.
 * --fast-math additionally runs the fp32 fused executors through the
 * opt-in FMA tier and checks them against the always-exact reference
 * under the tier's ULP-bounded contract, reporting the measured
 * worst-case ULP distance.
 *
 * Defaults to the paper's headline configuration (VGG-E, 5 convs) and
 * FLCNN_THREADS (or all hardware threads) for the host-side executors.
 * --metrics-json writes the per-layer/per-stage breakdown of both runs
 * (schema flcnn-metrics-v1); --trace-json writes a Chrome trace of the
 * fused run for chrome://tracing / ui.perfetto.dev.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/baseline_accel.hh"
#include "common/argparse.hh"
#include "sim/throughput.hh"
#include "sim/trace.hh"
#include "accel/fused_accel.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "fusion/fusion_plan.hh"
#include "kernels/conv_kernels.hh"
#include "nn/autotune_net.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tune/autotune.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/timeline.hh"
#include "tensor/compare.hh"

using namespace flcnn;

namespace {

/** One fused engine's output of layers [0, last]. */
struct EngineOutput
{
    const char *name;
    Tensor out;
};

/** Layers [0, last] of @p net on @p image through a compiled plan on
 *  each fused engine (2x2 tips where the engine takes a tip), under
 *  @p opt's precision and math tier. */
std::vector<EngineOutput>
runFusedEngines(const Network &net, const NetworkWeights &weights,
                int last, const Tensor &image, PlanCompileOptions opt)
{
    std::vector<EngineOutput> outs;
    for (PlanEngine e : {PlanEngine::Fused, PlanEngine::LineBuffer,
                         PlanEngine::Recompute}) {
        FusionPlan plan(net, weights);
        plan.addRange(0, last);
        opt.engine = e;
        opt.tip = 2;
        if (plan.compile(opt) != CompileStatus::Ok)
            fatal("%s plan: %s", planEngineName(e),
                  plan.diagnostic().c_str());
        outs.push_back({planEngineName(e), plan.execute(image)});
    }
    return outs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string which = "vgg";
    int convs = 5;
    double fps = 50.0;
    Precision precision = Precision::Fp32;
    bool do_tune = false, fast_math = false;
    std::string metrics_path, trace_path;
    for (int a = 1; a < argc; a++) {
        if (std::strcmp(argv[a], "alexnet") == 0) {
            which = "alexnet";
        } else if (std::strcmp(argv[a], "vgg") == 0) {
            which = "vgg";
            if (a + 1 < argc && argv[a + 1][0] != '-')
                convs = parseIntArgI("vgg conv count", argv[++a], 1, 16);
        } else if (std::strcmp(argv[a], "--precision") == 0) {
            precision = precisionFromName(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--fps") == 0) {
            fps = parseFloatArg("--fps", argValue(argc, argv, &a), 1e-6,
                                1e9);
        } else if (std::strcmp(argv[a], "--threads") == 0) {
            ThreadPool::setGlobalThreads(parseIntArgI(
                "--threads", argValue(argc, argv, &a), 1, 1 << 20));
        } else if (std::strcmp(argv[a], "--metrics-json") == 0) {
            metrics_path = argValue(argc, argv, &a);
        } else if (std::strcmp(argv[a], "--trace-json") == 0) {
            trace_path = argValue(argc, argv, &a);
        } else if (std::strcmp(argv[a], "--tune") == 0) {
            do_tune = true;
        } else if (std::strcmp(argv[a], "--fast-math") == 0) {
            fast_math = true;
        } else {
            fatal("unknown argument '%s'", argv[a]);
        }
    }
    const bool want_obs = !metrics_path.empty() || !trace_path.empty();

    Network net =
        which == "alexnet" ? alexnetFusedPrefix() : vggEPrefix(convs);
    const int last = net.stages().back().last;
    std::printf("network: %s (fusing layers 0..%d, %d host threads)\n",
                net.name().c_str(), last,
                ThreadPool::global().numThreads());

    Rng rng(7);
    NetworkWeights weights(net, rng);
    Tensor image(net.inputShape());
    image.fillRandom(rng);

    if (do_tune) {
        const bool fm = fast_math && precision == Precision::Fp32;
        AutotuneSummary sum = autotuneQueries(
            convQueriesForRange(net, 0, last, precision, fm));
        std::printf("autotune: %d newly tuned, %d cached\n", sum.tuned,
                    sum.cached);
        for (int li = 0; li <= last; li++) {
            if (net.layer(li).kind != LayerKind::Conv)
                continue;
            const ConvQuery q = convLayerQuery(net, li, precision, fm);
            const ConvPlan plan = planConv(q);
            std::printf("  layer %2d %-14s -> %-12s mr=%d seg=%d "
                        "grain=%d%s\n",
                        li, net.layer(li).name.c_str(),
                        plan.solver.c_str(), plan.cfg.mrCap,
                        plan.cfg.segW, plan.cfg.grain,
                        plan.tuned ? "" : " (default)");
        }
    }

    // Size both designs like the paper's Virtex-7 budgets.
    int dsp_budget = which == "alexnet" ? 2240 : 2880;
    BaselineConfig bcfg = optimizeBaseline(net, dsp_budget);
    bcfg.tr = bcfg.tc = 16;
    BaselineAccelerator baseline(net, weights, bcfg);
    MetricsRegistry breg;
    if (want_obs)
        baseline.setMetrics(&breg);
    AccelStats bs;
    Tensor bout = baseline.run(image, &bs);

    FusedPipelineConfig fcfg =
        balanceFusedPipeline(net, 0, last, dsp_budget + 110);
    FusedAccelerator fused(net, weights, 0, last, fcfg);
    MetricsRegistry freg;
    TraceRecorder rec(/*keep_log=*/!trace_path.empty());
    std::unique_ptr<ThreadPoolTraceScope> pool;
    if (want_obs)
        fused.setMetrics(&freg);
    if (!trace_path.empty()) {
        fused.setTraceSink(rec.sink());
        pool.reset(new ThreadPoolTraceScope());
    }
    AccelStats fs;
    Tensor fout = fused.run(image, &fs);

    CompareResult cmp = compareTensors(bout, fout);
    std::printf("outputs: %s\n\n", cmp.str().c_str());

    Table t({"metric", "fused", "baseline"});
    t.addRow({"DRAM read", formatBytes(fs.dramReadBytes),
              formatBytes(bs.dramReadBytes)});
    t.addRow({"DRAM written", formatBytes(fs.dramWriteBytes),
              formatBytes(bs.dramWriteBytes)});
    t.addRow({"compute cycles", formatCount(fs.computeCycles),
              formatCount(bs.computeCycles)});
    t.addRow({"makespan cycles", formatCount(fs.makespanCycles),
              formatCount(bs.makespanCycles)});
    t.addRow({"DSP48E1", fmtI(fs.dsp), fmtI(bs.dsp)});
    t.addRow({"BRAM18K", fmtI(fs.bram), fmtI(bs.bram)});
    t.addRow({"on-chip buffers", formatBytes(fs.bufferBytes),
              formatBytes(bs.bufferBytes)});
    t.print();

    // Footnote 4 of the paper: transfer volume -> bandwidth at a
    // target frame rate.
    std::printf("\nDRAM bandwidth needed at %.0f images/s: fused "
                "%.2f GB/s, baseline %.2f GB/s\n",
                fps,
                DramModel::requiredBandwidth(fs.totalDramBytes(), fps) /
                    1e9,
                DramModel::requiredBandwidth(bs.totalDramBytes(), fps) /
                    1e9);

    // Steady-state throughput of the fused pipeline at a Virtex-7
    // class 100 MHz clock.
    Throughput tp = analyzeThroughput(fused.schedule(), 100e6,
                                      fs.totalDramBytes());
    std::printf("fused pipeline at 100 MHz: %.1f images/s steady "
                "state (%.1f ms latency),\nsustained DRAM %.2f GB/s\n",
                tp.imagesPerSecond, tp.latencySeconds * 1e3,
                tp.dramBytesPerSecond / 1e9);

    const std::string label =
        "fused_inference " + which +
        (which == "vgg" ? " " + std::to_string(convs) : "");
    if (!metrics_path.empty()) {
        MetricsReport rep(label);
        rep.addRun("baseline", bs, breg);
        rep.addRun("fused", fs, freg);
        if (rep.writeFile(metrics_path))
            std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        if (writeFusedTraceFile(trace_path, label, fused.schedule(),
                                fused.stageNames(), &freg, &rec,
                                pool.get(), accelStatsArgs(fs)))
            std::printf("wrote trace to %s (open in ui.perfetto.dev)\n",
                        trace_path.c_str());
    }

    // Quantized host-side run: calibrate, evaluate the fused range in
    // the requested mode on the reference and every fused executor
    // (which must agree bit-exactly within the mode), and report the
    // deviation from fp32 plus the per-dtype footprint.
    bool prec_ok = true;
    if (precision != Precision::Fp32) {
        std::printf("\n== %s host executors ==\n",
                    precisionName(precision));
        NetPrecision prec =
            NetPrecision::calibrate(net, weights, precision);
        Tensor ref32 = runRange(net, weights, image, 0, last);
        Tensor refp =
            runRange(net, weights, image, 0, last, &prec);

        PlanCompileOptions opt;
        opt.precision = &prec;
        for (const EngineOutput &e :
             runFusedEngines(net, weights, last, image, opt)) {
            const bool same = tensorsEqual(refp, e.out);
            std::printf("%-10s vs %s reference: %s\n", e.name,
                        precisionName(precision),
                        same ? "bit-exact" : "MISMATCH");
            prec_ok = prec_ok && same;
        }
        CompareResult dev = compareTensors(ref32, refp, 1.0, 0.0);
        std::printf("deviation from fp32 reference: max abs %.3e, "
                    "max rel %.3e\n",
                    dev.maxAbsDiff, dev.maxRelDiff);

        int64_t welems = 0, aelems = 0;
        for (int li = 0; li <= last; li++) {
            const LayerSpec &spec = net.layer(li);
            if (spec.kind == LayerKind::Conv) {
                const FilterBank &fb = weights.bank(net.convSlot(li));
                welems += static_cast<int64_t>(fb.numFilters()) *
                          fb.numChannels() * fb.kernel() * fb.kernel();
                aelems += net.inShape(li).elems();
            }
        }
        Table pt({"dtype", "conv weights", "conv activations"});
        for (Precision p :
             {Precision::Fp32, Precision::Fp16, Precision::Int8}) {
            const int64_t eb = precisionElemBytes(p);
            pt.addRow({precisionName(p), formatBytes(welems * eb),
                       formatBytes(aelems * eb)});
        }
        pt.print();
    }

    // Opt-in fast-math tier: run the fp32 fused executors through the
    // FMA kernels and hold them to the tier's accuracy contract. The
    // deviation is a bounded-ULP reordering of each pixel's taps, so
    // the gate is a generous relative tolerance plus the measured
    // worst-case ULP distance for the log (strict per-kernel ULP
    // bounds live in the kernel-level differential tests).
    bool fm_ok = true;
    if (fast_math && precision == Precision::Fp32) {
        std::printf("\n== fast-math host executors (%s) ==\n",
                    convFmaEnabled() ? "FMA kernels active"
                                     : "FMA unavailable, exact tier");
        Tensor ref = runRange(net, weights, image, 0, last);

        PlanCompileOptions opt;
        opt.fastMath = true;
        for (const EngineOutput &e :
             runFusedEngines(net, weights, last, image, opt)) {
            CompareResult fm = compareTensors(ref, e.out, 5e-3, 5e-4);
            const int64_t ulp = maxUlpDistance(ref, e.out);
            std::printf("%-10s vs exact reference: %s, max ULP %lld\n",
                        e.name, fm.match ? "within bound" : "OUT OF BOUND",
                        static_cast<long long>(ulp));
            fm_ok = fm_ok && fm.match;
        }
    } else if (fast_math) {
        std::printf("\n--fast-math ignored: %s mode always runs the "
                    "exact tier\n",
                    precisionName(precision));
    }
    return cmp.match && prec_ok && fm_ok ? 0 : 1;
}
