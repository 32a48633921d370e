/**
 * @file
 * RecomputeExecutor: functional equivalence with the reference, and the
 * recompute-vs-reuse arithmetic relationship the paper's Section III-C
 * analysis rests on (DESIGN.md invariant 7).
 */

#include <gtest/gtest.h>

#include "fusion/fused_executor.hh"
#include "fusion/recompute_executor.hh"
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

RunResult
runRecompute(const Network &net, int first, int last, uint64_t seed,
             int tip = 1)
{
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(first));
    Rng irng(seed ^ 0x77);
    input.fillRandom(irng);

    RecomputeExecutor exec(net, weights, TilePlan(net, first, last, tip,
                                                  tip));
    RunResult res{Tensor{}, {}};
    res.out = exec.run(input, &res.stats);

    Tensor ref = runRange(net, weights, input, first, last);
    CompareResult cmp = compareTensors(ref, res.out);
    EXPECT_TRUE(cmp.match) << net.name() << ": " << cmp.str();
    return res;
}

TEST(RecomputeExecutor, MatchesReferenceTwoConv)
{
    runRecompute(tinyNet(), 0, 1, 31);
}

TEST(RecomputeExecutor, MatchesReferenceWithPadPoolRelu)
{
    Network net("mix", Shape{3, 20, 20});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c2", 5, 3, 1, 1);
    runRecompute(net, 0, net.numLayers() - 1, 32);
}

TEST(RecomputeExecutor, MatchesReferenceWithLrn)
{
    Network net("lrn", Shape{6, 10, 10});
    net.add(LayerSpec::conv("c1", 6, 3, 1));
    net.add(LayerSpec::lrn("n1"));
    net.add(LayerSpec::conv("c2", 3, 3, 1));
    runRecompute(net, 0, 2, 33);
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

    RunResult tip1 = runRecompute(net, 0, 1, 35, 1);
    RunResult tip4 = runRecompute(net, 0, 1, 35, 4);
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
    EXPECT_GT(rec.stats.loadedBytes, net.inputShape().bytes());

    TilePlan plan(net, 0, 1, 1, 1);
    EXPECT_EQ(plan.inputBytesLoaded(), net.inputShape().bytes());
}

class RecomputeRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(RecomputeRandom, MatchesReferenceOnRandomNetworks)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 31337 + 5);
    Network net = randomFusableNet(rng);
    runRecompute(net, 0, net.numLayers() - 1, seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecomputeRandom, ::testing::Range(0, 25));

} // namespace
} // namespace flcnn
