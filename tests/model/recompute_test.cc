/** @file Recompute-model costs vs. the executor and the paper. */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "fusion/fused_executor.hh"
#include "model/recompute.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace {

TEST(Recompute, AnalyticModelMatchesExecutorExactly)
{
    // DESIGN.md invariant 7: recomputeOpsForPlan must equal what the
    // pyramid engine actually tallies under Halo::Recompute.
    Rng rng(2024);
    for (int trial = 0; trial < 12; trial++) {
        Network net = randomFusableNet(rng);
        int last = net.numLayers() - 1;
        TilePlan plan(net, 0, last, 1, 1);
        OpCount analytic = recomputeOpsForPlan(net, plan);

        Rng wrng(trial);
        NetworkWeights w(net, wrng);
        Tensor in(net.inputShape());
        Rng irng(trial + 77);
        in.fillRandom(irng);
        FusedExecutor exec(net, w, TilePlan(net, 0, last, 1, 1),
                           FusedExecutor::Halo::Recompute);
        RunStats stats;
        exec.run(in, &stats);
        EXPECT_EQ(analytic, stats.ops) << net.str();
    }
}

TEST(Recompute, AnalyticModelMatchesExecutorWithWideTips)
{
    Rng rng(11);
    Network net = randomFusableNet(rng);
    int last = net.numLayers() - 1;
    for (int tip : {1, 2, 3}) {
        TilePlan plan(net, 0, last, tip, tip);
        OpCount analytic = recomputeOpsForPlan(net, plan);
        Rng wrng(5);
        NetworkWeights w(net, wrng);
        Tensor in(net.inputShape());
        Rng irng(6);
        in.fillRandom(irng);
        FusedExecutor exec(net, w, TilePlan(net, 0, last, tip, tip),
                           FusedExecutor::Halo::Recompute);
        RunStats stats;
        exec.run(in, &stats);
        EXPECT_EQ(analytic, stats.ops) << "tip " << tip;
    }
}

TEST(Recompute, ExtraOpsAreNonNegativeAndZeroForSingleLayer)
{
    Network net = tinyNet();
    EXPECT_EQ(recomputeExtraMultAdds(net, 0, 0), 0);
    EXPECT_GT(recomputeExtraMultAdds(net, 0, 1), 0);
}

TEST(Recompute, PairwiseAlexNetFuse2NearPaper678M)
{
    // Section III-C: "an extra 678 million multiplications and
    // additions" for AlexNet's first two conv layers. Our pairwise
    // model prices conv1's outputs at ceil(3/2)^2 = 4 uses under
    // pool1: 632M — within 7% of the paper.
    Network net = alexnetFusedPrefix();
    int64_t extra =
        pairwiseRecomputeExtraMultAdds(net, 0, net.numLayers() - 1);
    EXPECT_GT(extra, 550e6);
    EXPECT_LT(extra, 750e6);
}

TEST(Recompute, PairwiseVggAllLayersIsHundredsOfBillions)
{
    // Section III-C: fusing all of VGGNet-E's conv/pool stages costs
    // ~470 billion extra operations (a ~9.6x increase). Our pairwise
    // model lands at the same order with the same ~9x structure for
    // conv-fed convolutions (each point reused K^2/S^2 = 9 times).
    Network net = vggE();
    int last = net.stages().back().last;
    int64_t extra = pairwiseRecomputeExtraMultAdds(net, 0, last);
    EXPECT_GT(extra, 100e9);
    EXPECT_LT(extra, 700e9);

    int64_t base = rangeOpCount(net, 0, last).multAdds();
    double ratio = static_cast<double>(extra) / static_cast<double>(base);
    // Conv-fed convs are recomputed 8 extra times; pool-fed ones not.
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 9.5);
}

TEST(Recompute, ReuseVsRecomputeAsymmetry)
{
    // The core Section III-C conclusion: for CNNs the recompute model
    // costs billions of operations where reuse costs kilobytes.
    Network net = vggEPrefix(5);
    int last = net.numLayers() - 1;
    int64_t extra = pairwiseRecomputeExtraMultAdds(net, 0, last);
    int64_t base = rangeOpCount(net, 0, last).multAdds();
    EXPECT_GT(extra, base);  // more than doubles the arithmetic
}

TEST(Recompute, PartitionAccumulatesOverGroups)
{
    Network net = vggEPrefix(3);
    int stages = static_cast<int>(net.stages().size());
    Partition full = fullFusionPartition(stages);
    Partition singles = singletonPartition(stages);
    EXPECT_EQ(partitionPairwiseRecomputeExtraMultAdds(net, singles), 0);
    EXPECT_GT(partitionPairwiseRecomputeExtraMultAdds(net, full), 0);
}

TEST(Recompute, PoolFedConsumersAreFree)
{
    // A 2x2/s2 pool consuming a conv costs nothing to recompute
    // pairwise (ceil(2/2)^2 = 1 use).
    Network net("cp", Shape{4, 16, 16});
    net.add(LayerSpec::conv("c", 4, 3, 1));
    net.add(LayerSpec::pool("p", 2, 2));
    EXPECT_EQ(pairwiseRecomputeExtraMultAdds(net, 0, 1), 0);
}

TEST(Recompute, ConvFedConsumersPayKOverSSquared)
{
    // Two 3x3/s1 convs: layer-1 points are used 9 times; extra = 8x
    // the cost of producing each interior point.
    Network net("cc", Shape{2, 10, 10});
    net.add(LayerSpec::conv("c1", 3, 3, 1));  // out 3x8x8
    net.add(LayerSpec::conv("c2", 2, 3, 1));
    int64_t per_point = 2LL * 2 * 9;          // 2 ch x 9 taps, mult+add
    int64_t expect = 3LL * 8 * 8 * (9 - 1) * per_point;
    EXPECT_EQ(pairwiseRecomputeExtraMultAdds(net, 0, 1), expect);
}

} // namespace
} // namespace flcnn
