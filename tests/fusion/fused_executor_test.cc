/**
 * @file
 * FusedExecutor correctness: bit-exact equivalence with the
 * layer-by-layer reference across hand-built and random networks, exact
 * single-computation coverage, and stats consistency with the plan
 * (DESIGN.md invariants 1, 3, 4).
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "fusion/fused_executor.hh"
#include "fusion/plan.hh"
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

TEST(FusedExecutor, BitExactAcrossThreadCounts)
{
    // The pyramid executor threads each window's conv and pool stages
    // across filter blocks and rows; disjoint writes plus the blocked
    // kernel's private accumulators make the output invariant to the
    // pool width — bitwise, against a serial reference.
    Network net("vgg-threads", Shape{3, 36, 36});
    net.addConvBlock("c11", 5, 3, 1, 1);
    net.addConvBlock("c12", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c21", 6, 3, 1, 1);

    Rng wrng(91);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(92);
    input.fillRandom(irng);

    Tensor ref;
    {
        ScopedThreads serial(1);
        ref = runRange(net, weights, input, 0, net.numLayers() - 1);
    }
    for (int threads : {1, 2, 8}) {
        ScopedThreads scope(threads);
        FusedExecutor exec(
            net, weights,
            TilePlan(net, 0, net.numLayers() - 1, 4, 4));
        Tensor fused = exec.run(input);
        CompareResult cmp = compareTensors(ref, fused);
        ASSERT_TRUE(cmp.match)
            << "threads=" << threads << ": " << cmp.str();
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

    // Random tip size as well.
    int tip_h = rng.range(1, 4);
    int tip_w = rng.range(1, 4);
    expectFusedMatchesReference(net, 0, last, tip_h, tip_w, seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedExecutorRandom,
                         ::testing::Range(0, 60));

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
