/**
 * @file
 * FusedExecutor correctness: bit-exact equivalence with the
 * layer-by-layer reference across hand-built and random networks, exact
 * single-computation coverage, and stats consistency with the plan
 * (DESIGN.md invariants 1, 3, 4); the same for the line-buffer preset,
 * whose tips span the whole output width.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "fusion/fused_executor.hh"
#include "fusion/plan.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

void
expectFusedMatchesReference(const Network &net, int first, int last,
                            int tip_h, int tip_w, uint64_t seed)
{
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(first));
    Rng irng(seed ^ 0xabcdef);
    input.fillRandom(irng);

    Tensor ref = runRange(net, weights, input, first, last);

    TilePlan plan(net, first, last, tip_h, tip_w);
    FusedExecutor exec(net, weights, std::move(plan));
    exec.setTrackCoverage(true);
    RunStats stats;
    Tensor fused = exec.run(input, &stats);

    CompareResult cmp = compareTensors(ref, fused);
    EXPECT_TRUE(cmp.match)
        << net.name() << " layers [" << first << "," << last << "] tip "
        << tip_h << "x" << tip_w << ": " << cmp.str();
    EXPECT_EQ(exec.coverageReport(), "")
        << net.name() << " layers [" << first << "," << last << "]";

    // Stats consistency with the plan's analytic accounting.
    EXPECT_EQ(stats.loadedBytes, exec.plan().inputBytesLoaded());
    EXPECT_EQ(stats.storedBytes, exec.plan().outputBytesStored());
    EXPECT_EQ(stats.pyramids, exec.plan().numPyramids());
    EXPECT_EQ(stats.reuseBytes, exec.plan().reuseBufferBytes());
}

/** Tips of @p rows group-output rows across the whole output width:
 *  the line-buffer preset's tiling at any row count. */
TilePlan
fullWidthPlan(const Network &net, int first, int last, int rows)
{
    return TilePlan(net, first, last, rows, net.outShape(last).w);
}

void
expectFullWidthMatches(const Network &net, int first, int last,
                       uint64_t seed, int rows = 4)
{
    expectFusedMatchesReference(net, first, last, rows,
                                net.outShape(last).w, seed);
}

TEST(FusedExecutor, TwoConvNoPadTip1)
{
    // The paper's Figure 3 example: two 3x3 stride-1 convolutions over a
    // 7x7 input, 1x1 tip (one output pixel per pyramid).
    expectFusedMatchesReference(tinyNet(), 0, 1, 1, 1, 7);
}

TEST(FusedExecutor, TwoConvNoPadWideTip)
{
    expectFusedMatchesReference(tinyNet(), 0, 1, 3, 2, 8);
}

TEST(FusedExecutor, TipLargerThanOutput)
{
    // A tip covering the whole output degenerates to a single pyramid.
    expectFusedMatchesReference(tinyNet(), 0, 1, 16, 16, 9);
}

TEST(FusedExecutor, SingleLayerGroup)
{
    expectFusedMatchesReference(tinyNet(), 0, 0, 1, 1, 10);
    expectFusedMatchesReference(tinyNet(), 1, 1, 2, 2, 11);
}

TEST(FusedExecutor, ConvPoolConv)
{
    Network net("cpc", Shape{2, 20, 20});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::pool("p1", 2, 2));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    expectFusedMatchesReference(net, 0, 2, 1, 1, 12);
    expectFusedMatchesReference(net, 0, 2, 2, 3, 13);
}

TEST(FusedExecutor, OverlappingPool)
{
    // 3x3 stride-2 pooling (AlexNet style) has K - S = 1 overlap.
    Network net("ovp", Shape{3, 19, 19});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::pool("p1", 3, 2));
    net.add(LayerSpec::conv("c2", 5, 3, 1));
    expectFusedMatchesReference(net, 0, 3, 1, 1, 14);
}

TEST(FusedExecutor, PaddedConvs)
{
    Network net("padded", Shape{2, 12, 12});
    net.add(LayerSpec::padding("pad1", 1));
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::padding("pad2", 1));
    net.add(LayerSpec::conv("c2", 4, 3, 1));
    net.add(LayerSpec::relu("r2"));
    expectFusedMatchesReference(net, 0, 5, 1, 1, 15);
    expectFusedMatchesReference(net, 0, 5, 4, 4, 16);
}

TEST(FusedExecutor, StridedConv)
{
    Network net("strided", Shape{3, 23, 23});
    net.add(LayerSpec::conv("c1", 6, 5, 2));
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::conv("c2", 4, 3, 1));
    expectFusedMatchesReference(net, 0, 2, 1, 1, 17);
}

TEST(FusedExecutor, GroupedConv)
{
    Network net("grouped", Shape{4, 14, 14});
    net.add(LayerSpec::conv("c1", 6, 3, 1, 2));
    net.add(LayerSpec::conv("c2", 4, 3, 1, 2));
    expectFusedMatchesReference(net, 0, 1, 1, 1, 18);
}

TEST(FusedExecutor, LrnInsidePyramid)
{
    // The paper notes normalization integrates trivially as one more
    // pipeline stage; verify the executor agrees.
    Network net("lrn", Shape{6, 12, 12});
    net.add(LayerSpec::conv("c1", 6, 3, 1));
    net.add(LayerSpec::lrn("n1"));
    net.add(LayerSpec::conv("c2", 4, 3, 1));
    // LRN reassociates nothing; still exact.
    expectFusedMatchesReference(net, 0, 2, 1, 1, 19);
}

TEST(FusedExecutor, GroupStartsWithPool)
{
    Network net("poolfirst", Shape{3, 16, 16});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::pool("p1", 2, 2));
    net.add(LayerSpec::conv("c2", 5, 3, 1));
    // Fuse only [pool, conv]: the group head is a pooling layer.
    expectFusedMatchesReference(net, 1, 2, 1, 1, 20);
}

TEST(FusedExecutor, GroupStartsWithPad)
{
    Network net("padfirst", Shape{3, 10, 10});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::padding("pad", 2));
    net.add(LayerSpec::conv("c2", 5, 3, 1));
    expectFusedMatchesReference(net, 1, 2, 1, 1, 21);
}

TEST(FusedExecutor, GroupEndsWithPool)
{
    Network net("poollast", Shape{3, 18, 18});
    net.add(LayerSpec::conv("c1", 4, 5, 1));
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::pool("p1", 2, 2));
    expectFusedMatchesReference(net, 0, 2, 1, 1, 22);
    expectFusedMatchesReference(net, 0, 2, 3, 3, 23);
}

TEST(FusedExecutor, KernelOneConv)
{
    // GoogLeNet-style 1x1 convolutions: zero overlap everywhere.
    Network net("k1", Shape{4, 9, 9});
    net.add(LayerSpec::conv("c1", 8, 1, 1));
    net.add(LayerSpec::conv("c2", 4, 3, 1));
    net.add(LayerSpec::conv("c3", 2, 1, 1));
    expectFusedMatchesReference(net, 0, 2, 1, 1, 24);
}

TEST(FusedExecutor, NonDividingShapes)
{
    // (in - k) % s != 0 leaves unused tail rows/columns.
    Network net("ragged", Shape{2, 17, 13});
    net.add(LayerSpec::conv("c1", 3, 4, 3));
    net.add(LayerSpec::conv("c2", 2, 2, 1));
    expectFusedMatchesReference(net, 0, 1, 1, 1, 25);
    expectFusedMatchesReference(net, 0, 1, 2, 2, 26);
}

TEST(FusedExecutor, AvgPool)
{
    Network net("avg", Shape{3, 14, 14});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::pool("p1", 3, 2, PoolMode::Avg));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    expectFusedMatchesReference(net, 0, 2, 1, 1, 27);
}

TEST(FusedExecutor, AlexNetFusedPrefixSmallInput)
{
    // The paper's AlexNet fused group (conv1+pool1+conv2 with pad and
    // ReLU), shrunk spatially to keep the test fast but preserving all
    // kernel/stride/pad parameters.
    Network net("alex2-small", Shape{3, 59, 59});
    net.add(LayerSpec::conv("conv1", 8, 11, 4));
    net.add(LayerSpec::relu("relu1"));
    net.addMaxPool("pool1", 3, 2);
    net.add(LayerSpec::padding("conv2_pad", 2));
    net.add(LayerSpec::conv("conv2", 12, 5, 1, 2));
    net.add(LayerSpec::relu("relu2"));
    expectFusedMatchesReference(net, 0, 5, 1, 1, 28);
}

TEST(FusedExecutor, VggStylePrefixSmallInput)
{
    // VGG-style: two padded 3x3 convs, 2x2/s2 pool, two more convs —
    // the shape of the paper's five-conv fusion at reduced width.
    Network net("vgg-small", Shape{3, 36, 36});
    net.addConvBlock("c11", 4, 3, 1, 1);
    net.addConvBlock("c12", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c21", 6, 3, 1, 1);
    net.addConvBlock("c22", 6, 3, 1, 1);
    net.addMaxPool("p2", 2, 2);
    net.addConvBlock("c31", 8, 3, 1, 1);
    expectFusedMatchesReference(net, 0, net.numLayers() - 1, 1, 1, 29);
}

TEST(FusedExecutor, InteriorGroup)
{
    // Fusing a group that neither starts at the network input nor ends
    // at its output.
    Network net("interior", Shape{3, 24, 24});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::conv("c2", 5, 3, 1));
    net.add(LayerSpec::pool("p1", 2, 2));
    net.add(LayerSpec::conv("c3", 6, 3, 1));
    net.add(LayerSpec::conv("c4", 2, 3, 1));

    Rng wrng(77);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(78);
    input.fillRandom(irng);

    // Reference through layer 0, then fused [1..3], then reference 4.
    Tensor l0 = runRange(net, weights, input, 0, 0);
    Tensor ref = runRange(net, weights, l0, 1, 3);

    FusedExecutor exec(net, weights, TilePlan(net, 1, 3, 1, 1));
    Tensor fused = exec.run(l0);
    EXPECT_TRUE(tensorsEqual(ref, fused));
}

/** RAII: run a scope at a fixed global thread count, then restore the
 *  default so other tests are unaffected. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

/** One fusion group of the thread-count matrix below. */
struct ThreadCase
{
    std::string what;
    Network net;
    int first, last, tip_h, tip_w;
};

std::vector<ThreadCase>
threadCases()
{
    std::vector<ThreadCase> cases;
    {
        Network net("vgg-threads", Shape{3, 36, 36});
        net.addConvBlock("c11", 5, 3, 1, 1);
        net.addConvBlock("c12", 4, 3, 1, 1);
        net.addMaxPool("p1", 2, 2);
        net.addConvBlock("c21", 6, 3, 1, 1);
        cases.push_back({"vgg tip 4", net, 0, net.numLayers() - 1, 4, 4});
        // A tip dividing neither H nor W: the last row and column are
        // narrow, and padding clip stalls layers (isActiveX/Y) there.
        cases.push_back(
            {"vgg tip 5x7", net, 0, net.numLayers() - 1, 5, 7});
    }
    cases.push_back({"tip larger than output", tinyNet(), 0, 1, 16, 16});
    {
        Network net("padfirst", Shape{3, 14, 13});
        net.add(LayerSpec::conv("c1", 4, 3, 1));
        net.add(LayerSpec::padding("pad", 2));
        net.add(LayerSpec::conv("c2", 5, 3, 1));
        net.add(LayerSpec::relu("r2"));
        net.add(LayerSpec::pool("p2", 3, 2, PoolMode::Avg));
        cases.push_back({"group starts with pad", net, 1, 4, 2, 2});
    }
    {
        Network net("lrn", Shape{6, 15, 15});
        net.add(LayerSpec::conv("c1", 6, 3, 1));
        net.add(LayerSpec::lrn("n1"));
        net.add(LayerSpec::conv("c2", 4, 3, 1));
        cases.push_back({"lrn inside the pyramid", net, 0, 2, 2, 3});
    }
    {
        Network net("pointwise-tail", Shape{3, 20, 20});
        net.addConvBlock("c1", 4, 3, 1, 1);
        net.addMaxPool("p1", 2, 2);
        net.add(LayerSpec::conv("c2", 5, 3, 1));
        net.add(LayerSpec::relu("r2"));
        cases.push_back({"pointwise tail", net, 0, net.numLayers() - 1, 2,
                         2});
    }
    {
        // AlexNet's fused prefix (11x11 stride-4 conv1, overlapping
        // pool, padded grouped conv2) at a reduced input size.
        Network net("alex-prefix", Shape{3, 67, 67});
        net.add(LayerSpec::conv("conv1", 8, 11, 4));
        net.add(LayerSpec::relu("relu1"));
        net.addMaxPool("pool1", 3, 2);
        net.add(LayerSpec::padding("conv2_pad", 2));
        net.add(LayerSpec::conv("conv2", 12, 5, 1, 2));
        net.add(LayerSpec::relu("relu2"));
        cases.push_back({"alexnet prefix", net, 0, 5, 1, 2});
    }
    return cases;
}

bool
sameRunStats(const RunStats &a, const RunStats &b)
{
    return a.loadedBytes == b.loadedBytes &&
           a.storedBytes == b.storedBytes &&
           a.reuseBytes == b.reuseBytes &&
           a.workingBytes == b.workingBytes && a.pyramids == b.pyramids &&
           a.ops == b.ops;
}

TEST(FusedExecutor, BitExactAcrossThreadCounts)
{
    // The pyramid executor runs a wavefront over pyramid rows, one lane
    // per pool thread. Every row-to-row hand-off goes through the
    // retained BT strip, so the output, the RunStats and the coverage
    // (every value computed exactly once) must not depend on the pool
    // width — bitwise, against a serial reference, in every precision.
    // Under Halo::Recompute the lanes share nothing and never wait; the
    // same holds, with coverage checking the output only.
    using Halo = FusedExecutor::Halo;
    for (const ThreadCase &tc : threadCases()) {
        const Network &net = tc.net;
        Rng wrng(91);
        NetworkWeights weights(net, wrng);
        Tensor image(net.inputShape());
        Rng irng(92);
        image.fillRandom(irng);
        for (Precision mode :
             {Precision::Fp32, Precision::Fp16, Precision::Int8}) {
            const NetPrecision prec =
                NetPrecision::calibrate(net, weights, mode);
            Tensor input, ref;
            {
                ScopedThreads serial(1);
                input = tc.first == 0 ? image
                                      : runRange(net, weights, image, 0,
                                                 tc.first - 1);
                ref = runRange(net, weights, input, tc.first, tc.last,
                               &prec);
            }
            for (Halo halo : {Halo::Retain, Halo::Recompute}) {
                RunStats serial_stats;
                for (int threads : {1, 2, 3, 8}) {
                    ScopedThreads scope(threads);
                    FusedExecutor exec(net, weights,
                                       TilePlan(net, tc.first, tc.last,
                                                tc.tip_h, tc.tip_w),
                                       halo);
                    exec.setPrecision(&prec);
                    exec.setTrackCoverage(true);
                    RunStats stats;
                    Tensor fused = exec.run(input, &stats);
                    const std::string where =
                        tc.what + " " + precisionName(mode) +
                        (halo == Halo::Retain ? " retain" : " recompute") +
                        " threads=" + std::to_string(threads);
                    CompareResult cmp = compareTensors(ref, fused);
                    ASSERT_TRUE(cmp.match) << where << ": " << cmp.str();
                    EXPECT_EQ(exec.coverageReport(), "") << where;
                    if (threads == 1)
                        serial_stats = stats;
                    EXPECT_TRUE(sameRunStats(stats, serial_stats))
                        << where;
                    EXPECT_EQ(stats.pyramids, exec.plan().numPyramids())
                        << where;
                    if (halo == Halo::Retain) {
                        EXPECT_EQ(stats.loadedBytes,
                                  exec.plan().inputBytesLoaded())
                            << where;
                    }
                }
            }
        }
    }
}

TEST(FusedExecutor, OneParallelRegionPerImage)
{
    // The wavefront enters the pool once per image: one top-level
    // parallelFor with one chunk per lane, the kernels running inline
    // inside the lanes. Recompute lanes, which never wait, too.
    Network net("vgg-regions", Shape{3, 24, 24});
    net.addConvBlock("c11", 4, 3, 1, 1);
    net.addConvBlock("c12", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    Rng wrng(5);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(6);
    input.fillRandom(irng);
    for (FusedExecutor::Halo halo :
         {FusedExecutor::Halo::Retain, FusedExecutor::Halo::Recompute}) {
        for (int threads : {2, 3}) {
            ScopedThreads scope(threads);
            FusedExecutor exec(net, weights,
                               TilePlan(net, 0, net.numLayers() - 1, 2, 2),
                               halo);
            std::atomic<int> regions{0}, chunks{0};
            ThreadPool::setChunkObserver(
                [&](int tid, int64_t, int64_t, double, double) {
                    if (tid == 0)
                        regions++;
                    chunks++;
                });
            exec.run(input);
            ThreadPool::setChunkObserver(nullptr);
            const std::string where =
                std::string(halo == FusedExecutor::Halo::Retain
                                ? "retain"
                                : "recompute") +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(regions.load(), 1) << where;
            EXPECT_EQ(chunks.load(), threads) << where;
        }
    }
}

/** A Retain plan over one pyramid column (@p plan), run at every
 *  thread count of @p threads: each run is one parallel region with one
 *  chunk per lane, and matches the one-thread run and runRange bit for
 *  bit, with the same RunStats and no element computed twice. */
void
expectLanesMatchOneThread(const Network &net, const NetworkWeights &weights,
                          const TilePlan &plan, const NetPrecision *prec,
                          const std::vector<int> &threads, int repeats,
                          const std::string &what)
{
    ASSERT_EQ(plan.numPyramidCols(), 1) << what;
    const int last = plan.lastLayer();
    Tensor input(net.inputShape());
    Rng irng(6);
    input.fillRandom(irng);
    Tensor ref, serial;
    RunStats serial_stats;
    {
        ScopedThreads scope(1);
        ref = runRange(net, weights, input, 0, last, prec);
        FusedExecutor exec(net, weights, plan);
        exec.setPrecision(prec);
        serial = exec.run(input, &serial_stats);
    }
    ASSERT_TRUE(tensorsEqual(ref, serial)) << what;
    for (int t : threads) {
        ScopedThreads scope(t);
        FusedExecutor exec(net, weights, plan);
        exec.setPrecision(prec);
        exec.setTrackCoverage(true);
        const int lanes = std::min(t, plan.numPyramidRows());
        for (int rep = 0; rep < repeats; rep++) {
            const std::string where = what + " threads=" +
                                      std::to_string(t) + " run " +
                                      std::to_string(rep);
            std::atomic<int> regions{0}, chunks{0};
            ThreadPool::setChunkObserver(
                [&](int tid, int64_t, int64_t, double, double) {
                    if (tid == 0)
                        regions++;
                    chunks++;
                });
            RunStats stats;
            const Tensor out = exec.run(input, &stats);
            ThreadPool::setChunkObserver(nullptr);
            EXPECT_EQ(regions.load(), 1) << where;
            EXPECT_EQ(chunks.load(), lanes) << where;
            EXPECT_TRUE(tensorsEqual(serial, out)) << where;
            EXPECT_TRUE(sameRunStats(stats, serial_stats)) << where;
            EXPECT_EQ(exec.coverageReport(), "") << where;
        }
    }
}

TEST(FusedExecutor, LanesOnASingleRetainedColumn)
{
    // A Retain plan with one pyramid column (the line-buffer preset, a
    // compiled schedule group) runs min(pool, rows) lanes, like every
    // other plan: row r runs layer li once row r - 1 is done with that
    // layer, so successive rows overlap layer by layer, with the
    // kernels inline in the lanes.
    Network net("vgg-lanes", Shape{3, 64, 64});
    net.addConvBlock("c11", 4, 3, 1, 1);
    net.addConvBlock("c12", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    const int last = net.numLayers() - 1;
    Rng wrng(5);
    NetworkWeights weights(net, wrng);
    // The preset's 4 rows, and a schedule group's height that divides
    // nothing (dse::compileSchedule lowers a group to the same form).
    expectLanesMatchOneThread(net, weights, fullWidthPlan(net, 0, last, 4),
                              nullptr, {2, 8}, 1, "line buffer");
    expectLanesMatchOneThread(net, weights, fullWidthPlan(net, 0, last, 3),
                              nullptr, {2, 8}, 1, "schedule tileH 3");
}

TEST(FusedExecutor, SingleColumnHandOffStress)
{
    // One-row tips over a tall, narrow plane: 48 pyramid rows, so the
    // lanes hand off every layer of every row, repeatedly, in fp32 and
    // int8.
    Network net("tall", Shape{3, 98, 18});
    net.addConvBlock("c11", 5, 3, 1, 1);
    net.add(LayerSpec::conv("c12", 4, 3, 1));
    net.add(LayerSpec::relu("r12"));
    net.addMaxPool("p1", 2, 2);
    const int last = net.numLayers() - 1;
    Rng wrng(9);
    NetworkWeights weights(net, wrng);
    const TilePlan plan = fullWidthPlan(net, 0, last, 1);
    ASSERT_EQ(plan.numPyramidRows(), 48);
    expectLanesMatchOneThread(net, weights, plan, nullptr, {2, 3, 8}, 4,
                              "fp32");
    const NetPrecision int8 =
        NetPrecision::calibrate(net, weights, Precision::Int8);
    expectLanesMatchOneThread(net, weights, plan, &int8, {2, 3, 8}, 4,
                              "int8");
}

// The LineBufferExecutor suite keeps the name of the row-streaming
// engine it first covered; PlanEngine::LineBuffer now compiles to
// FusedExecutor over full-width tips, and these run that tiling.

TEST(LineBufferExecutor, TwoConv)
{
    expectFullWidthMatches(tinyNet(), 0, 1, 41);
}

TEST(LineBufferExecutor, PadConvReluPoolStack)
{
    Network net("stack", Shape{3, 22, 22});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 5, 3, 1, 2);
    expectFullWidthMatches(net, 0, net.numLayers() - 1, 42);
}

TEST(LineBufferExecutor, StridedAndGrouped)
{
    Network net("sg", Shape{4, 25, 25});
    net.add(LayerSpec::conv("c1", 6, 5, 2, 2));
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::conv("c2", 4, 3, 1));
    expectFullWidthMatches(net, 0, 2, 43);
}

TEST(LineBufferExecutor, LrnStage)
{
    Network net("lrn", Shape{6, 12, 12});
    net.add(LayerSpec::conv("c1", 6, 3, 1));
    net.add(LayerSpec::lrn("n1"));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    expectFullWidthMatches(net, 0, 2, 44);
}

TEST(LineBufferExecutor, AvgPool)
{
    Network net("avg", Shape{2, 15, 15});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::pool("p1", 3, 2, PoolMode::Avg));
    expectFullWidthMatches(net, 0, 1, 45);
}

TEST(LineBufferExecutor, BufferBytesAreKRowsPerWindowedLayer)
{
    // One pyramid column: no BL, and per windowed layer a BT strip of
    // the K - S rows the next band re-reads, across the input width.
    Network net("bytes", Shape{3, 18, 18});
    net.add(LayerSpec::conv("c1", 4, 3, 1));  // BT 2 rows x 18 x 3ch
    net.add(LayerSpec::pool("p1", 2, 2));     // K = S: no BT
    Rng rng(1);
    NetworkWeights weights(net, rng);
    FusedExecutor exec(net, weights, fullWidthPlan(net, 0, 1, 1));
    Tensor input(net.inputShape());
    RunStats stats;
    exec.run(input, &stats);
    EXPECT_EQ(exec.plan().reuseBufferBytes(), 3LL * 2 * 18 * 4);
    EXPECT_EQ(stats.reuseBytes, exec.plan().reuseBufferBytes());
    EXPECT_EQ(stats.workingBytes, exec.plan().workingBufferBytes());
}

TEST(LineBufferExecutor, AgreesWithPyramidExecutor)
{
    Network net("agree", Shape{3, 21, 21});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);
    const int last = net.numLayers() - 1;

    Rng wrng(46);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(47);
    input.fillRandom(irng);

    FusedExecutor lb(net, weights, fullWidthPlan(net, 0, last, 4));
    FusedExecutor py(net, weights, TilePlan(net, 0, last, 1, 1));
    Tensor a = lb.run(input);
    Tensor b = py.run(input);
    EXPECT_TRUE(tensorsEqual(a, b));
}

TEST(LineBufferExecutor, RowBlockingStaysExact)
{
    Network net("blk", Shape{3, 23, 23});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 6, 3, 1, 1);
    for (int rows : {1, 2, 3, 4, 7, 32})
        expectFullWidthMatches(net, 0, net.numLayers() - 1, 48, rows);
}

TEST(LineBufferExecutor, RowBlockingStridedAndRagged)
{
    Network net("blkrag", Shape{2, 29, 25});
    net.add(LayerSpec::conv("c1", 4, 5, 2));
    net.add(LayerSpec::conv("c2", 3, 2, 1));
    for (int rows : {2, 3, 5})
        expectFullWidthMatches(net, 0, 1, 49, rows);
}

TEST(LineBufferExecutor, RowBlockingGrowsBuffers)
{
    // Taller tips grow the tile, (rows - 1) * S + K input rows, not
    // the BT strip of K - S rows.
    Network net("blkbuf", Shape{3, 18, 18});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    Rng rng(1);
    NetworkWeights weights(net, rng);
    Tensor input(net.inputShape());
    for (int rows : {1, 4}) {
        FusedExecutor exec(net, weights, fullWidthPlan(net, 0, 0, rows));
        EXPECT_EQ(exec.plan().geom(0).maxTileH, rows + 2) << rows;
        EXPECT_EQ(exec.plan().reuseBufferBytes(), 3LL * 2 * 18 * 4) << rows;
        RunStats stats;
        exec.run(input, &stats);
        EXPECT_EQ(stats.reuseBytes, exec.plan().reuseBufferBytes());
    }
}

TEST(LineBufferPreset, DifferentialSweepBitExactAcrossThreadCounts)
{
    // The determinism contract of the thread pool, proven end to end:
    // a Pad -> Conv -> ReLU -> LRN -> Pool chain over the full
    // stride / kernel / row-block grid produces outputs bit-identical
    // to the single-threaded reference at every thread count.
    const int hw = ThreadPool::defaultThreads();
    uint64_t seed = 0;
    for (int stride : {1, 2, 4}) {
        for (int kernel : {1, 3, 5, 7, 11}) {
            for (int rows : {1, 2, 3}) {
                seed++;
                Network net("diff" + std::to_string(seed),
                            Shape{3, 46, 43});
                net.add(LayerSpec::padding("pad", 1));
                net.add(LayerSpec::conv("conv", 5, kernel, stride));
                net.add(LayerSpec::relu("relu"));
                net.add(LayerSpec::lrn("lrn"));
                net.add(LayerSpec::pool("pool", 2, 2,
                                        seed % 2 ? PoolMode::Max
                                                 : PoolMode::Avg));
                const int last = net.numLayers() - 1;

                Rng wrng(seed * 7919 + 1);
                NetworkWeights weights(net, wrng);
                Tensor input(net.inputShape());
                Rng irng(seed * 104729 + 2);
                input.fillRandom(irng);

                Tensor ref;
                {
                    ScopedThreads serial(1);
                    ref = runRange(net, weights, input, 0, last);
                }
                for (int threads : {1, 2, 4, hw}) {
                    ScopedThreads scope(threads);
                    FusedExecutor exec(net, weights,
                                       fullWidthPlan(net, 0, last, rows));
                    Tensor out = exec.run(input);
                    CompareResult cmp = compareTensors(ref, out);
                    ASSERT_TRUE(cmp.match)
                        << "stride=" << stride << " kernel=" << kernel
                        << " rows=" << rows << " threads=" << threads
                        << ": " << cmp.str();
                }
            }
        }
    }
}

TEST(LineBufferPreset, PadFeedingWindowedLayersAtRowBlockFour)
{
    // Both Pads feed a windowed layer. At four rows per pyramid the
    // padded rows of one band split between the BT strip and the fresh
    // rows of the next, and every top/bottom pad row lands in a tile
    // row an interior row used before (and vice versa). Run twice to
    // catch pad columns that do not stay zero across runs.
    Network net("padring", Shape{3, 20, 17});
    net.add(LayerSpec::padding("pad1", 2));
    net.add(LayerSpec::conv("c1", 4, 5, 1));  // in 3 x 24 x 21
    net.add(LayerSpec::relu("r1"));
    net.add(LayerSpec::padding("pad2", 1));
    net.add(LayerSpec::pool("p1", 3, 2));     // in 4 x 22 x 19
    const int last = net.numLayers() - 1;
    Rng wrng(50);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(51);
    input.fillRandom(irng);

    Tensor ref;
    {
        ScopedThreads serial(1);
        ref = runRange(net, weights, input, 0, last);
    }
    for (int threads : {1, 2, 4, ThreadPool::defaultThreads()}) {
        ScopedThreads scope(threads);
        FusedExecutor exec(net, weights, fullWidthPlan(net, 0, last, 4));
        for (int rep = 0; rep < 2; rep++) {
            RunStats stats;
            Tensor out = exec.run(input, &stats);
            ASSERT_TRUE(tensorsEqual(ref, out))
                << "threads=" << threads << " run " << rep;
            EXPECT_EQ(stats.loadedBytes, net.inShape(0).bytes());
            EXPECT_EQ(stats.storedBytes, net.outShape(last).bytes());
            EXPECT_EQ(stats.reuseBytes, exec.plan().reuseBufferBytes());
        }
        // BT strips of K - S rows: conv 5 - 1 = 4, pool 3 - 2 = 1.
        EXPECT_EQ(exec.plan().reuseBufferBytes(),
                  (3LL * 4 * 21 + 4LL * 1 * 19) * 4);
    }
}

/** The draw of @p seed over [0, last] with @p tip_h x @p tip_w tips in
 *  every precision (int8 calibrated), under both halos and on one and
 *  three threads: bit-exact against runRange in that precision. */
void
expectEveryPrecisionMatches(const Network &net, int last, int tip_h,
                            int tip_w, uint64_t seed)
{
    using Halo = FusedExecutor::Halo;
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(seed ^ 0xabcdef);
    input.fillRandom(irng);
    for (Precision mode :
         {Precision::Fp32, Precision::Fp16, Precision::Int8}) {
        const NetPrecision prec =
            NetPrecision::calibrate(net, weights, mode);
        Tensor ref;
        {
            ScopedThreads serial(1);
            ref = runRange(net, weights, input, 0, last, &prec);
        }
        for (Halo halo : {Halo::Retain, Halo::Recompute}) {
            for (int threads : {1, 3}) {
                ScopedThreads scope(threads);
                FusedExecutor exec(net, weights,
                                   TilePlan(net, 0, last, tip_h, tip_w),
                                   halo);
                exec.setPrecision(&prec);
                CompareResult cmp = compareTensors(ref, exec.run(input));
                ASSERT_TRUE(cmp.match)
                    << net.str() << "tip " << tip_h << "x" << tip_w << " "
                    << precisionName(mode)
                    << (halo == Halo::Retain ? " retain" : " recompute")
                    << " threads=" << threads << ": " << cmp.str();
            }
        }
    }
}

class FusedExecutorRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedExecutorRandom, MatchesReferenceOnRandomNetworks)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 7919 + 13);
    Network net = randomFusableNet(rng);
    const int last = net.numLayers() - 1;

    // Random tip size as well: tips up to 8 give fresh tile widths of
    // 1-16 pixels with ragged tails, which the conv kernels group
    // across rows in every row-group shape.
    int tip_h = rng.range(1, 8);
    int tip_w = rng.range(1, 8);
    expectFusedMatchesReference(net, 0, last, tip_h, tip_w, seed);
    expectEveryPrecisionMatches(net, last, tip_h, tip_w, seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedExecutorRandom,
                         ::testing::Range(0, 60));

/** The line-buffer preset's tip shape, full width at 1-5 rows, on
 *  random networks. */
class LineBufferRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(LineBufferRandom, MatchesReferenceOnRandomNetworks)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 271 + 3);
    Network net = randomFusableNet(rng);
    const int last = net.numLayers() - 1;
    const int rows = rng.range(1, 5);
    expectFullWidthMatches(net, 0, last, seed, rows);
    expectEveryPrecisionMatches(net, last, rows, net.outShape(last).w,
                                seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LineBufferRandom, ::testing::Range(0, 30));

class FusedExecutorRandomSubrange : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedExecutorRandomSubrange, MatchesReferenceOnRandomSubranges)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 104729 + 7);
    Network net = randomFusableNet(rng);

    // Pick a random fusable stage-aligned subrange.
    const auto &stages = net.stages();
    if (stages.empty())
        GTEST_SKIP() << "degenerate random network";
    int s0 = rng.range(0, static_cast<int>(stages.size()) - 1);
    int s1 = rng.range(s0, static_cast<int>(stages.size()) - 1);
    int first = stages[static_cast<size_t>(s0)].first;
    int last = stages[static_cast<size_t>(s1)].last;

    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(seed ^ 0x5555);
    input.fillRandom(irng);

    Tensor head = (first == 0)
                      ? input
                      : runRange(net, weights, input, 0, first - 1);
    Tensor ref = runRange(net, weights, head, first, last);

    FusedExecutor exec(net, weights, TilePlan(net, first, last, 1, 1));
    exec.setTrackCoverage(true);
    Tensor fused = exec.run(head);
    CompareResult cmp = compareTensors(ref, fused);
    EXPECT_TRUE(cmp.match) << net.str() << "range [" << first << ","
                           << last << "]: " << cmp.str();
    EXPECT_EQ(exec.coverageReport(), "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedExecutorRandomSubrange,
                         ::testing::Range(0, 40));

} // namespace
} // namespace flcnn
