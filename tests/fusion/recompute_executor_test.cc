/**
 * @file
 * The recompute strategy (FusedExecutor under Halo::Recompute):
 * functional equivalence with the reference, the DRAM traffic, pyramid
 * count and work it tallies, and the recompute-vs-reuse arithmetic
 * relationship the paper's Section III-C analysis rests on (DESIGN.md
 * invariant 7).
 *
 * The pinned counts are those of the standalone recompute walker that
 * preceded the Halo argument, on the same geometries: folding the
 * strategy into the pyramid engine changed none of them.
 */

#include <gtest/gtest.h>

#include "fusion/fused_executor.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

struct RunResult
{
    Tensor out;
    RunStats stats;
};

/** Bytes loaded, bytes stored, pyramids, and the op tally. */
struct Pinned
{
    int64_t loaded, stored, pyramids;
    OpCount ops;
};

RunResult
runRecompute(const Network &net, int first, int last, uint64_t seed,
             int tip_h = 1, int tip_w = 1)
{
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(first));
    Rng irng(seed ^ 0x77);
    input.fillRandom(irng);

    FusedExecutor exec(net, weights,
                       TilePlan(net, first, last, tip_h, tip_w),
                       FusedExecutor::Halo::Recompute);
    exec.setTrackCoverage(true);
    RunResult res{Tensor{}, {}};
    res.out = exec.run(input, &res.stats);
    EXPECT_EQ(exec.coverageReport(), "") << net.name();
    EXPECT_EQ(res.stats.reuseBytes, 0) << net.name();

    Tensor ref = runRange(net, weights, input, first, last);
    CompareResult cmp = compareTensors(ref, res.out);
    EXPECT_TRUE(cmp.match) << net.name() << ": " << cmp.str();
    return res;
}

void
expectPinned(const RunStats &s, const Pinned &want)
{
    EXPECT_EQ(s.loadedBytes, want.loaded);
    EXPECT_EQ(s.storedBytes, want.stored);
    EXPECT_EQ(s.pyramids, want.pyramids);
    EXPECT_EQ(s.ops, want.ops);
}

TEST(RecomputeExecutor, MatchesReferenceTwoConv)
{
    RunResult res = runRecompute(tinyNet(), 0, 1, 31);
    expectPinned(res.stats, {1800, 144, 9, {5346, 5346, 0}});
}

TEST(RecomputeExecutor, MatchesReferenceWithPadPoolRelu)
{
    Network net("mix", Shape{3, 20, 20});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 5, 3, 1, 1);
    RunResult res = runRecompute(net, 0, net.numLayers() - 1, 32);
    expectPinned(res.stats, {62208, 2000, 100, {356688, 356688, 25588}});
}

TEST(RecomputeExecutor, MatchesReferenceWithLrn)
{
    Network net("lrn", Shape{6, 10, 10});
    net.add(LayerSpec::conv("c1", 6, 3, 1));
    net.add(LayerSpec::lrn("n1"));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    RunResult res = runRecompute(net, 0, 2, 33);
    expectPinned(res.stats, {21600, 432, 36, {122472, 120528, 0}});
}

TEST(RecomputeExecutor, GroupStartsWithPad)
{
    // A Pad heading the group loads only the in-plane part of its
    // output span, once per pyramid.
    Network net("padfirst", Shape{3, 14, 13});
    net.add(LayerSpec::conv("c1", 4, 3, 1));
    net.add(LayerSpec::padding("pad", 2));
    net.add(LayerSpec::conv("c2", 5, 3, 1));
    net.add(LayerSpec::relu("r2"));
    net.add(LayerSpec::pool("p2", 3, 2, PoolMode::Avg));
    expectPinned(runRecompute(net, 1, 4, 37, 1, 1).stats,
                 {11232, 720, 36, {58320, 59940, 1620}});
    expectPinned(runRecompute(net, 1, 4, 37, 2, 2).stats,
                 {4896, 720, 9, {40500, 42120, 1125}});
    expectPinned(runRecompute(net, 1, 4, 37, 3, 5).stats,
                 {3360, 720, 4, {35280, 36900, 980}});
}

TEST(RecomputeExecutor, ArithmeticBlowupVsReuse)
{
    // Fusing two 3x3/s1 convs with a 1x1 tip recomputes each
    // intermediate point for every pyramid whose base contains it
    // (up to K*K = 9 times); total mult-adds must far exceed the
    // reference while the reuse executor performs exactly the
    // reference amount.
    Network net("blowup", Shape{2, 16, 16});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 3, 3, 1));

    OpCount ref_ops = rangeOpCount(net, 0, 1);
    RunResult rec = runRecompute(net, 0, 1, 34);
    expectPinned(rec.stats, {28800, 1728, 144, {81648, 81648, 0}});

    Rng wrng(34);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(34 ^ 0x77);
    input.fillRandom(irng);
    FusedExecutor fused(net, weights, TilePlan(net, 0, 1, 1, 1));
    RunStats fstats;
    fused.run(input, &fstats);

    // The reuse model performs the baseline work exactly (paper:
    // "the amount of computation performed by the reuse-model
    // fused-layer accelerator and the baseline accelerator are
    // identical").
    EXPECT_EQ(fstats.ops.mults, ref_ops.mults);
    EXPECT_EQ(fstats.ops.adds, ref_ops.adds);

    // The recompute model repeats layer-1 work; interior points are
    // computed 9 times.
    EXPECT_GT(rec.stats.ops.multAdds(), 3 * ref_ops.multAdds());
    EXPECT_LT(rec.stats.ops.multAdds(), 10 * ref_ops.multAdds());
}

TEST(RecomputeExecutor, WiderTipReducesRecomputation)
{
    Network net("tip", Shape{2, 20, 20});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 3, 3, 1));

    RunResult tip1 = runRecompute(net, 0, 1, 35, 1, 1);
    RunResult tip4 = runRecompute(net, 0, 1, 35, 4, 4);
    expectPinned(tip1.stats, {51200, 3072, 256, {145152, 145152, 0}});
    expectPinned(tip4.stats, {8192, 3072, 16, {51840, 51840, 0}});
    EXPECT_LT(tip4.stats.ops.multAdds(), tip1.stats.ops.multAdds());
}

TEST(RecomputeExecutor, ReloadsOverlappingInput)
{
    // Recompute re-reads the base-tile overlap from DRAM; reuse loads
    // each input element exactly once.
    Network net("reload", Shape{2, 14, 14});
    net.add(LayerSpec::conv("c1", 3, 3, 1));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    RunResult rec = runRecompute(net, 0, 1, 36);
    expectPinned(rec.stats, {20000, 1200, 100, {56700, 56700, 0}});
    EXPECT_GT(rec.stats.loadedBytes, net.inputShape().bytes());

    TilePlan plan(net, 0, 1, 1, 1);
    EXPECT_EQ(plan.inputBytesLoaded(), net.inputShape().bytes());
}

class RecomputeRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(RecomputeRandom, MatchesReferenceOnRandomNetworks)
{
    // Bytes loaded, bytes stored and pyramids per seed.
    static const int64_t kPinned[][3] = {
        {62208, 10816, 676}, {147456, 800, 100}, {7200, 256, 16},
        {37632, 256, 16},    {3364, 144, 36},    {22188, 600, 25},
        {146016, 576, 36},   {50000, 256, 16},   {42320, 1728, 144},
        {5780, 144, 36},     {12696, 8, 1},      {55488, 3920, 196},
        {157464, 676, 169},  {120000, 1600, 400}, {28800, 2000, 100},
        {82944, 768, 64},    {43264, 300, 25},   {6400, 48, 4},
        {33708, 392, 49},    {605520, 3872, 484}, {56448, 720, 36},
        {5292, 16, 4},       {60552, 800, 100},  {55296, 320, 16},
        {82944, 5120, 256},
    };
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 31337 + 5);
    Network net = randomFusableNet(rng);
    RunResult res = runRecompute(net, 0, net.numLayers() - 1, seed);
    EXPECT_EQ(res.stats.loadedBytes, kPinned[seed][0]);
    EXPECT_EQ(res.stats.storedBytes, kPinned[seed][1]);
    EXPECT_EQ(res.stats.pyramids, kPinned[seed][2]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecomputeRandom, ::testing::Range(0, 25));

} // namespace
} // namespace flcnn
