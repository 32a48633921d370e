/**
 * @file
 * Cross-module integration: the full designer workflow (explore → pick
 * → execute → verify), cross-checks between independent execution
 * paths (pyramid executor at 1x1 and full-width tips, emitted HLS,
 * tiled baseline), and zoo networks exercised end to end at reduced
 * scale.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>

#include "accel/baseline_accel.hh"
#include "accel/fused_accel.hh"
#include "common/thread_pool.hh"
#include "dse/sweep.hh"
#include "hls/emitter.hh"
#include "model/transfer.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "sim/trace.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

TEST(EndToEnd, ExploreThenExecuteTheParetoFront)
{
    // Designer flow: sweep the space, then actually run every
    // Pareto-optimal partition and confirm the model's transfer
    // numbers are what the executors move.
    Network net("e2e", Shape{3, 24, 24});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addConvBlock("c2", 6, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c3", 8, 3, 1, 1);

    Rng wrng(81);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(82);
    input.fillRandom(irng);
    Tensor ref = runRange(net, weights, input, 0,
                          net.stages().back().last);

    const dse::SweepResult res = dse::runSweep(net, {});
    ASSERT_GE(res.legacyFront.size(), 2u);
    for (const DesignPoint &p : res.legacyFront) {
        FusionPlan plan(net, weights);
        ASSERT_EQ(dse::compileSchedule(
                      plan, dse::chainSchedule(p.partition), {}),
                  CompileStatus::Ok);
        RunStats stats;
        Tensor out = plan.execute(input, &stats);
        EXPECT_TRUE(tensorsEqual(ref, out))
            << partitionStr(p.partition);
        EXPECT_EQ(stats.loadedBytes + stats.storedBytes, p.transferBytes)
            << partitionStr(p.partition);
    }
}

TEST(EndToEnd, FourIndependentExecutionPathsAgree)
{
    // Reference, pyramid-fused (1x1 tips, and the line buffer's
    // full-width tips) and tiled-baseline are structurally different
    // evaluations of the same network; all must agree bit-exactly.
    Rng rng(83);
    for (int trial = 0; trial < 8; trial++) {
        Network net = randomFusableNet(rng);
        if (net.convLayers().empty())
            continue;
        int last = net.numLayers() - 1;
        Rng wrng(trial + 900);
        NetworkWeights weights(net, wrng);
        Tensor input(net.inputShape());
        Rng irng(trial + 1900);
        input.fillRandom(irng);

        Tensor ref = runRange(net, weights, input, 0, last);
        FusedExecutor fx(net, weights, TilePlan(net, 0, last));
        FusedExecutor lb(net, weights,
                         TilePlan(net, 0, last, 4, net.outShape(last).w));
        BaselineAccelerator base(net, weights,
                                 BaselineConfig{2, 2, 5, 5});

        EXPECT_TRUE(tensorsEqual(ref, fx.run(input))) << net.str();
        EXPECT_TRUE(tensorsEqual(ref, lb.run(input))) << net.str();
        // The baseline accelerator covers the fusable stage prefix.
        int prefix_last = net.stages().back().last;
        Tensor pref = runRange(net, weights, input, 0, prefix_last);
        EXPECT_TRUE(tensorsEqual(pref, base.run(input))) << net.str();
    }
}

TEST(EndToEnd, EmittedHlsAgreesWithFusedAccelerator)
{
    // The generated HLS source is a fifth, externally-compiled
    // execution path.
    Network net("e2ehls", Shape{3, 16, 16});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 5, 3, 1, 1);
    const int last = net.numLayers() - 1;

    Rng wrng(84);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(85);
    input.fillRandom(irng);

    FusedExecutor fx(net, weights, TilePlan(net, 0, last));
    Tensor fused = fx.run(input);

    std::string dir = ::testing::TempDir() + "flcnn_e2e_hls";
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    std::ofstream(dir + "/accel.cc") << emitFusedHls(net, 0, last, {});
    auto arena = packWeightsForHls(net, weights, 0, last);
    {
        std::ofstream f(dir + "/input.bin", std::ios::binary);
        f.write(reinterpret_cast<const char *>(input.data()),
                static_cast<std::streamsize>(input.elems() * 4));
        std::ofstream g(dir + "/weights.bin", std::ios::binary);
        g.write(reinterpret_cast<const char *>(arena.data()),
                static_cast<std::streamsize>(arena.size() * 4));
    }
    ASSERT_EQ(std::system(("c++ -O2 -std=c++17 -DFLCNN_HLS_TESTBENCH '" +
                           dir + "/accel.cc' -o '" + dir + "/accel'")
                              .c_str()),
              0);
    ASSERT_EQ(std::system(("cd '" + dir + "' && ./accel").c_str()), 0);

    Tensor out(net.outShape(last));
    std::ifstream f(dir + "/output.bin", std::ios::binary);
    f.read(reinterpret_cast<char *>(out.data()),
           static_cast<std::streamsize>(out.elems() * 4));
    ASSERT_EQ(f.gcount(), static_cast<std::streamsize>(out.elems() * 4));
    EXPECT_TRUE(tensorsEqual(fused, out));
}

TEST(EndToEnd, GoogLeNetStemFusesCorrectly)
{
    // Large-stride 7x7 conv, overlapping pools, and a 1x1 reduce in
    // one pyramid (reduced spatial scale to keep the test fast).
    Network net("stem", Shape{3, 56, 56});
    net.add(LayerSpec::padding("conv1_pad", 3));
    net.add(LayerSpec::conv("conv1", 8, 7, 2));
    net.add(LayerSpec::relu("relu1"));
    net.add(LayerSpec::padding("pool1_pad", 1));
    net.addMaxPool("pool1", 3, 2);
    net.add(LayerSpec::conv("conv2_reduce", 8, 1, 1));
    net.add(LayerSpec::relu("relu2r"));
    net.addConvBlock("conv2", 12, 3, 1, 1);
    const int last = net.numLayers() - 1;

    Rng wrng(86);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(87);
    input.fillRandom(irng);

    Tensor ref = runRange(net, weights, input, 0, last);
    FusedExecutor fx(net, weights, TilePlan(net, 0, last));
    fx.setTrackCoverage(true);
    Tensor out = fx.run(input);
    EXPECT_TRUE(tensorsEqual(ref, out));
    EXPECT_EQ(fx.coverageReport(), "");
}

TEST(EndToEnd, AlexNetWithLrnAndClassifierRuns)
{
    // The full zoo network including the layers fusion excludes; the
    // reference must still evaluate it end to end (reduced width via
    // the grouped option off to keep runtime sane is not possible for
    // AlexNet's fixed input, so just check shapes through the FC tail
    // on a a spatially-reduced clone).
    Network net("alex-cls", Shape{3, 67, 67});
    net.add(LayerSpec::conv("conv1", 8, 11, 4));
    net.add(LayerSpec::relu("relu1"));
    net.add(LayerSpec::lrn("lrn1"));
    net.addMaxPool("pool1", 3, 2);
    net.add(LayerSpec::fullyConnected("fc", 10));

    Rng wrng(88);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(89);
    input.fillRandom(irng);
    Tensor out = runNetwork(net, weights, input);
    EXPECT_EQ(out.shape(), (Shape{10, 1, 1}));

    // The fusable prefix (everything before the FC) still fuses.
    const auto &stages = net.stages();
    ASSERT_EQ(stages.size(), 2u);
    Tensor pref = runRange(net, weights, input, 0, stages.back().last);
    FusedExecutor fx(net, weights,
                     TilePlan(net, 0, stages.back().last));
    EXPECT_TRUE(tensorsEqual(pref, fx.run(input)));
}

/** Restores the global pool width when a test returns or fails. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(int n) { ThreadPool::setGlobalThreads(n); }
    ~ThreadCountGuard() { ThreadPool::setGlobalThreads(0); }
};

/** Every RunStats total must equal its registry counter summed over
 *  every scope of the same run. */
void
expectStatsMatchRegistry(const RunStats &s, const MetricsRegistry &reg)
{
    EXPECT_EQ(reg.sumCounters("dram_read_bytes"), s.loadedBytes);
    EXPECT_EQ(reg.sumCounters("dram_write_bytes"), s.storedBytes);
    EXPECT_EQ(reg.sumCounters("pyramids"), s.pyramids);
    EXPECT_EQ(reg.sumCounters("mults"), s.ops.mults);
    EXPECT_EQ(reg.sumCounters("adds"), s.ops.adds);
    EXPECT_EQ(reg.sumCounters("compares"), s.ops.compares);
}

TEST(Observability, ExecutorMetricSumsMatchRunStats)
{
    // The registry's per-layer breakdown must reproduce the flat run
    // statistics bit-exactly on every engine and at every thread
    // count, since the tallies live outside the parallel regions.
    Network net("obs1", Shape{3, 24, 24});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);

    Rng wrng(95);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(96);
    input.fillRandom(irng);
    const int last = net.numLayers() - 1;
    const int stages = static_cast<int>(net.stages().size());

    // Each runner runs one engine with @p reg attached, plus the checks
    // only that engine owes.
    using Runner = std::function<void(MetricsRegistry &, RunStats &)>;
    const std::pair<const char *, Runner> engines[] = {
        {"fused",
         [&](MetricsRegistry &reg, RunStats &s) {
             // The trace sink must agree with the counted stats too.
             FusedExecutor x(net, weights, TilePlan(net, 0, last));
             TraceRecorder rec(false);
             x.setMetrics(&reg);
             x.setTraceSink(rec.sink());
             x.run(input, &s);
             EXPECT_EQ(rec.readBytes(), s.loadedBytes);
             EXPECT_EQ(rec.writeBytes(), s.storedBytes);
         }},
        {"linebuffer",
         [&](MetricsRegistry &reg, RunStats &s) {
             FusedExecutor x(net, weights,
                             TilePlan(net, 0, last, 4,
                                      net.outShape(last).w));
             x.setMetrics(&reg);
             x.run(input, &s);
             // A ReLU fused into its conv must still be counted once,
             // in its own scope, and the run total must be the
             // reference's (ops attributed at the tally sites).
             OpCount want;
             for (int l = 0; l <= last; l++) {
                 const LayerSpec &spec = net.layer(l);
                 want += layerOpCount(spec, net.inShape(l));
                 if (spec.kind != LayerKind::ReLU)
                     continue;
                 const Shape &sh = net.outShape(l);
                 EXPECT_EQ(reg.counter(MetricsRegistry::layerScope(
                                           l, spec.name),
                                       "compares"),
                           static_cast<int64_t>(sh.c) * sh.h * sh.w)
                     << spec.name;
             }
             EXPECT_EQ(s.ops.mults, want.mults);
             EXPECT_EQ(s.ops.adds, want.adds);
             EXPECT_EQ(s.ops.compares, want.compares);
         }},
        {"recompute",
         [&](MetricsRegistry &reg, RunStats &s) {
             FusedExecutor x(net, weights, TilePlan(net, 0, last),
                             FusedExecutor::Halo::Recompute);
             x.setMetrics(&reg);
             x.run(input, &s);
         }},
        {"partition",
         [&](MetricsRegistry &reg, RunStats &s) {
             FusionPlan x(net, weights);
             ASSERT_EQ(dse::compileSchedule(
                           x, dse::chainSchedule(Partition{
                                  StageGroup{0, 0}, StageGroup{1, stages - 1}}),
                           {}),
                       CompileStatus::Ok);
             x.setMetrics(&reg);
             x.execute(input, &s);
         }},
    };

    for (int threads : {1, 2, 8}) {
        ThreadCountGuard guard(threads);
        for (const auto &[name, run] : engines) {
            SCOPED_TRACE(std::string(name) +
                         " threads=" + std::to_string(threads));
            MetricsRegistry reg;
            RunStats s;
            run(reg, s);
            expectStatsMatchRegistry(s, reg);
        }
    }
}

TEST(Observability, AcceleratorMetricSumsMatchAccelStats)
{
    // Accelerator models add the weight stream and schedule cycles on
    // top of the executor's feature-map traffic; one registry must
    // still sum to the AccelStats totals with no double counting.
    Network net("obs2", Shape{3, 24, 24});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);

    Rng wrng(97);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(98);
    input.fillRandom(irng);
    const int last = net.numLayers() - 1;

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadCountGuard guard(threads);

        BaselineAccelerator base(net, weights,
                                 BaselineConfig{2, 2, 8, 8});
        MetricsRegistry breg;
        base.setMetrics(&breg);
        AccelStats bs;
        base.run(input, &bs);
        EXPECT_EQ(breg.sumCounters("dram_read_bytes"),
                  bs.dramReadBytes);
        EXPECT_EQ(breg.sumCounters("dram_write_bytes"),
                  bs.dramWriteBytes);
        EXPECT_EQ(breg.sumCounters("compute_cycles"),
                  bs.computeCycles);

        FusedPipelineConfig fcfg =
            balanceFusedPipeline(net, 0, last, 100);
        FusedAccelerator fused(net, weights, 0, last, fcfg);
        MetricsRegistry areg;
        fused.setMetrics(&areg);
        AccelStats as;
        fused.run(input, &as);
        EXPECT_EQ(areg.sumCounters("dram_read_bytes"),
                  as.dramReadBytes);
        EXPECT_EQ(areg.sumCounters("dram_write_bytes"),
                  as.dramWriteBytes);
        EXPECT_EQ(areg.sumCounters("compute_cycles"),
                  as.computeCycles);
        EXPECT_EQ(areg.counter("", "makespan_cycles"),
                  as.makespanCycles);
    }
}

TEST(Observability, PartitionExecutorScopesMetricsByGroup)
{
    Network net("obs3", Shape{3, 24, 24});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);

    Rng wrng(99);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(100);
    input.fillRandom(irng);

    // Two groups: the first stage alone, then everything after it.
    const auto &stages = net.stages();
    ASSERT_GE(stages.size(), 2u);
    Partition part{StageGroup{0, 0},
                   StageGroup{1, static_cast<int>(stages.size()) - 1}};
    FusionPlan plan(net, weights);
    ASSERT_EQ(dse::compileSchedule(plan, dse::chainSchedule(part), {}),
              CompileStatus::Ok);
    MetricsRegistry reg;
    plan.setMetrics(&reg);
    RunStats stats;
    plan.execute(input, &stats);

    expectStatsMatchRegistry(stats, reg);
    bool saw_g0 = false, saw_g1 = false;
    for (const std::string &scope : reg.scopes()) {
        if (scope.rfind("group:0:", 0) == 0)
            saw_g0 = true;
        if (scope.rfind("group:1:", 0) == 0)
            saw_g1 = true;
        EXPECT_TRUE(scope.rfind("group:", 0) == 0)
            << "unprefixed scope: " << scope;
    }
    EXPECT_TRUE(saw_g0);
    EXPECT_TRUE(saw_g1);
}

TEST(EndToEnd, AdvisorPickIsExecutable)
{
    // partition_advisor's logic: best front point under a budget must
    // be runnable and meet its own numbers.
    Network net("adv", Shape{3, 20, 20});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 8, 3, 1, 1);

    const dse::SweepResult res = dse::runSweep(net, {});
    const DesignPoint *pick = bestUnderStorage(res.legacyFront, 4 * 1024);
    ASSERT_NE(pick, nullptr);

    Rng wrng(90);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(91);
    input.fillRandom(irng);
    FusionPlan plan(net, weights);
    ASSERT_EQ(dse::compileSchedule(
                  plan, dse::chainSchedule(pick->partition), {}),
              CompileStatus::Ok);
    RunStats stats;
    Tensor out = plan.execute(input, &stats);
    Tensor ref = runRange(net, weights, input, 0,
                          net.stages().back().last);
    EXPECT_TRUE(tensorsEqual(ref, out));
    EXPECT_EQ(stats.loadedBytes + stats.storedBytes, pick->transferBytes);
}

} // namespace
} // namespace flcnn
