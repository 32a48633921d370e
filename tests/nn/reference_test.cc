/** @file Reference executor: hand-computed golden values and op counts. */

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

TEST(Reference, ConvIdentityKernel)
{
    // 1x1 kernel with weight 1 and zero bias copies the input channel.
    Network net("id", Shape{1, 4, 4});
    net.add(LayerSpec::conv("c", 1, 1, 1));
    NetworkWeights w(net);
    w.bank(0).w(0, 0, 0, 0) = 1.0f;

    Tensor in(1, 4, 4);
    in.fillIota();
    Tensor out = runRange(net, w, in, 0, 0);
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 4; x++)
            EXPECT_EQ(out(0, y, x), in(0, y, x));
}

TEST(Reference, ConvHandComputed3x3)
{
    // All-ones 3x3 kernel on an all-ones 2-channel input sums 18 values
    // plus a bias of 0.5.
    Network net("sum", Shape{2, 5, 5});
    net.add(LayerSpec::conv("c", 1, 3, 1));
    NetworkWeights w(net);
    for (int n = 0; n < 2; n++)
        for (int i = 0; i < 3; i++)
            for (int j = 0; j < 3; j++)
                w.bank(0).w(0, n, i, j) = 1.0f;
    w.bank(0).bias(0) = 0.5f;

    Tensor in(2, 5, 5);
    in.fill(1.0f);
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_EQ(out.shape(), (Shape{1, 3, 3}));
    for (int y = 0; y < 3; y++)
        for (int x = 0; x < 3; x++)
            EXPECT_FLOAT_EQ(out(0, y, x), 18.5f);
}

TEST(Reference, ConvStrideSelectsCorrectWindows)
{
    Network net("s", Shape{1, 5, 5});
    net.add(LayerSpec::conv("c", 1, 1, 2));
    NetworkWeights w(net);
    w.bank(0).w(0, 0, 0, 0) = 1.0f;
    Tensor in(1, 5, 5);
    in.fillIota(10.0f);
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_EQ(out.shape(), (Shape{1, 3, 3}));
    EXPECT_EQ(out(0, 1, 2), in(0, 2, 4));
}

TEST(Reference, GroupedConvSeesOnlyItsGroup)
{
    // Two groups: filters 0..1 read channel 0..0? No: in.c=2, groups=2,
    // so filter group 0 reads channel 0 and group 1 reads channel 1.
    Network net("g", Shape{2, 3, 3});
    net.add(LayerSpec::conv("c", 2, 3, 1, 2));
    NetworkWeights w(net);
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++) {
            w.bank(0).w(0, 0, i, j) = 1.0f;
            w.bank(0).w(1, 0, i, j) = 1.0f;
        }
    Tensor in(2, 3, 3);
    for (int y = 0; y < 3; y++)
        for (int x = 0; x < 3; x++) {
            in(0, y, x) = 1.0f;
            in(1, y, x) = 10.0f;
        }
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 9.0f);    // sums channel 0 only
    EXPECT_FLOAT_EQ(out(1, 0, 0), 90.0f);   // sums channel 1 only
}

TEST(Reference, MaxPoolPicksMaximum)
{
    Network net("p", Shape{1, 4, 4});
    net.add(LayerSpec::pool("p", 2, 2));
    NetworkWeights w(net);
    Tensor in(1, 4, 4);
    in(0, 0, 0) = -5.0f;
    in(0, 0, 1) = 3.0f;
    in(0, 1, 0) = 2.0f;
    in(0, 1, 1) = -7.0f;
    in(0, 2, 2) = -1.0f;
    in(0, 2, 3) = -2.0f;
    in(0, 3, 2) = -3.0f;
    in(0, 3, 3) = -4.0f;
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 3.0f);
    // All-negative window: max pooling must not clamp at zero.
    EXPECT_FLOAT_EQ(out(0, 1, 1), -1.0f);
}

TEST(Reference, AvgPoolAverages)
{
    Network net("p", Shape{1, 2, 2});
    net.add(LayerSpec::pool("p", 2, 2, PoolMode::Avg));
    NetworkWeights w(net);
    Tensor in(1, 2, 2);
    in(0, 0, 0) = 1.0f;
    in(0, 0, 1) = 2.0f;
    in(0, 1, 0) = 3.0f;
    in(0, 1, 1) = 6.0f;
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 3.0f);
}

TEST(Reference, ReluClampsNegatives)
{
    Network net("r", Shape{1, 1, 3});
    net.add(LayerSpec::relu("r"));
    NetworkWeights w(net);
    Tensor in(1, 1, 3);
    in(0, 0, 0) = -2.0f;
    in(0, 0, 1) = 0.0f;
    in(0, 0, 2) = 5.0f;
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_EQ(out(0, 0, 0), 0.0f);
    EXPECT_EQ(out(0, 0, 1), 0.0f);
    EXPECT_EQ(out(0, 0, 2), 5.0f);
}

TEST(Reference, PadSurroundsWithZeros)
{
    Network net("p", Shape{1, 2, 2});
    net.add(LayerSpec::padding("p", 1));
    NetworkWeights w(net);
    Tensor in(1, 2, 2);
    in.fill(4.0f);
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_EQ(out.shape(), (Shape{1, 4, 4}));
    EXPECT_EQ(out(0, 0, 0), 0.0f);
    EXPECT_EQ(out(0, 0, 3), 0.0f);
    EXPECT_EQ(out(0, 3, 3), 0.0f);
    EXPECT_EQ(out(0, 1, 1), 4.0f);
    EXPECT_EQ(out(0, 2, 2), 4.0f);
}

TEST(Reference, FullyConnectedDotProduct)
{
    Network net("f", Shape{1, 1, 3});
    net.add(LayerSpec::fullyConnected("f", 2));
    NetworkWeights w(net);
    DenseWeights &dw = w.dense(0);
    dw.w = {1.0f, 2.0f, 3.0f, -1.0f, 0.0f, 1.0f};
    dw.bias = {0.5f, -0.5f};
    Tensor in(1, 1, 3);
    in(0, 0, 0) = 1.0f;
    in(0, 0, 1) = 1.0f;
    in(0, 0, 2) = 2.0f;
    Tensor out = runRange(net, w, in, 0, 0);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 0.5f + 1 + 2 + 6);
    EXPECT_FLOAT_EQ(out(1, 0, 0), -0.5f - 1 + 0 + 2);
}

TEST(Reference, LrnPreservesSignAndShrinksMagnitude)
{
    Network net("n", Shape{8, 2, 2});
    net.add(LayerSpec::lrn("n"));
    NetworkWeights w(net);
    Tensor in(8, 2, 2);
    Rng rng(3);
    in.fillRandom(rng, -2.0f, 2.0f);
    Tensor out = runRange(net, w, in, 0, 0);
    for (int c = 0; c < 8; c++) {
        for (int y = 0; y < 2; y++) {
            for (int x = 0; x < 2; x++) {
                float a = in(c, y, x), b = out(c, y, x);
                EXPECT_LE(std::abs(b), std::abs(a) + 1e-6f);
                EXPECT_GE(a * b, 0.0f);
            }
        }
    }
}

TEST(Reference, MeasuredOpsEqualAnalyticOps)
{
    // DESIGN.md invariant 7 groundwork: the analytic layerOpCount must
    // match what the executor actually tallies.
    Rng rng(99);
    for (int trial = 0; trial < 10; trial++) {
        Network net = randomFusableNet(rng);
        Rng wrng(trial);
        NetworkWeights w(net, wrng);
        Tensor in(net.inputShape());
        Rng irng(trial + 100);
        in.fillRandom(irng);

        OpCount measured;
        runRange(net, w, in, 0, net.numLayers() - 1, &measured);
        OpCount analytic = rangeOpCount(net, 0, net.numLayers() - 1);
        EXPECT_EQ(measured, analytic) << net.str();
    }
}

TEST(Reference, AlexNetConvOpCounts)
{
    // conv1 of AlexNet: 55*55*96 outputs, 11*11*3 taps each.
    Network net = alexnet(ZooOptions{.grouped = false});
    OpCount c1 = layerOpCount(net.layer(0), net.inShape(0));
    EXPECT_EQ(c1.mults, 55LL * 55 * 96 * 121 * 3);
    EXPECT_EQ(c1.adds, c1.mults);
}

TEST(Reference, GroupedConvHalvesOps)
{
    Network a("a", Shape{4, 8, 8});
    a.add(LayerSpec::conv("c", 4, 3, 1, 1));
    Network b("b", Shape{4, 8, 8});
    b.add(LayerSpec::conv("c", 4, 3, 1, 2));
    EXPECT_EQ(layerOpCount(a.layer(0), a.inShape(0)).mults,
              2 * layerOpCount(b.layer(0), b.inShape(0)).mults);
}

TEST(ReferenceDeath, MissingWeightsPanics)
{
    LayerSpec c = LayerSpec::conv("c", 1, 1, 1);
    Tensor in(1, 2, 2);
    EXPECT_DEATH(runLayer(c, in, nullptr, nullptr, nullptr),
                 "filter bank");
}


// ---------------------------------------------------------------------
// DAG evaluation: runJoin / runGraph / runNetwork routing
// ---------------------------------------------------------------------

TEST(ReferenceGraph, RunGraphMatchesManualResidualComposition)
{
    Network net = residualBlock();
    Rng wrng(7);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(8);
    in.fillRandom(irng);

    // Hand-compose: trunk path [0, 4], then the Add join over
    // {trunk, input} in edge order, then the output ReLU.
    Tensor trunk = runRange(net, w, in, 0, 4);
    Tensor sum = runJoin(net.layer(5), {&trunk, &in}, nullptr);
    Tensor expect = runLayer(net.layer(6), sum, nullptr, nullptr,
                             nullptr);

    Tensor got = runGraph(net, w, in);
    EXPECT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < got.elems(); i++)
        ASSERT_EQ(got.data()[i], expect.data()[i]) << "elem " << i;
}

TEST(ReferenceGraph, RunGraphMatchesManualInceptionComposition)
{
    Network net = inceptionJoin();
    Rng wrng(11);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(12);
    in.fillRandom(irng);

    Tensor stem = runRange(net, w, in, 0, 0);
    Tensor b1 = runRange(net, w, stem, 1, 2);
    Tensor b3 = runRange(net, w, stem, 3, 5);
    Tensor expect = runJoin(net.layer(6), {&b1, &b3}, nullptr);

    Tensor got = runGraph(net, w, in);
    ASSERT_EQ(got.shape(), (Shape{10, 12, 12}));
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < got.elems(); i++)
        ASSERT_EQ(got.data()[i], expect.data()[i]) << "elem " << i;
}

TEST(ReferenceGraph, RunJoinAddSumsInEdgeOrder)
{
    LayerSpec add = LayerSpec::eltwiseAdd("a");
    Tensor a(1, 2, 2), b(1, 2, 2), c(1, 2, 2);
    a.fill(1.0f);
    b.fill(2.0f);
    c.fill(4.0f);
    OpCount ops;
    Tensor out = runJoin(add, {&a, &b, &c}, &ops);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 7.0f);
    EXPECT_FLOAT_EQ(out(0, 1, 1), 7.0f);
    // (nins - 1) adds per element.
    EXPECT_EQ(ops.adds, 2 * out.elems());
}

TEST(ReferenceGraph, RunJoinConcatStacksChannelBlocks)
{
    LayerSpec cat = LayerSpec::depthConcat("c");
    Tensor a(2, 2, 2), b(3, 2, 2);
    a.fill(1.0f);
    b.fill(2.0f);
    Tensor out = runJoin(cat, {&a, &b}, nullptr);
    ASSERT_EQ(out.shape(), (Shape{5, 2, 2}));
    EXPECT_FLOAT_EQ(out(0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out(1, 1, 1), 1.0f);
    EXPECT_FLOAT_EQ(out(2, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out(4, 1, 1), 2.0f);
}

TEST(ReferenceGraph, RunGraphOnChainEqualsRunRange)
{
    Network net = tinyNet();
    Rng wrng(21);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(22);
    in.fillRandom(irng);

    Tensor ranged = runRange(net, w, in, 0, net.numLayers() - 1);
    Tensor graphed = runGraph(net, w, in);
    ASSERT_EQ(graphed.shape(), ranged.shape());
    for (int64_t i = 0; i < graphed.elems(); i++)
        ASSERT_EQ(graphed.data()[i], ranged.data()[i]);
}

TEST(ReferenceGraph, RunNetworkRoutesChainAndGraph)
{
    // Chain: runNetwork must be bit-identical to runRange.
    Network chain = tinyNet();
    Rng r1(31);
    NetworkWeights wc(chain, r1);
    Tensor cin(chain.inputShape());
    Rng r2(32);
    cin.fillRandom(r2);
    Tensor via_net = runNetwork(chain, wc, cin);
    Tensor via_range = runRange(chain, wc, cin, 0,
                                chain.numLayers() - 1);
    for (int64_t i = 0; i < via_net.elems(); i++)
        ASSERT_EQ(via_net.data()[i], via_range.data()[i]);

    // DAG: runNetwork must be bit-identical to runGraph.
    Network dag = residualBlock();
    Rng r3(33);
    NetworkWeights wd(dag, r3);
    Tensor din(dag.inputShape());
    Rng r4(34);
    din.fillRandom(r4);
    Tensor g1 = runNetwork(dag, wd, din);
    Tensor g2 = runGraph(dag, wd, din);
    for (int64_t i = 0; i < g1.elems(); i++)
        ASSERT_EQ(g1.data()[i], g2.data()[i]);
}

TEST(ReferenceGraph, RunRangeOnOneAndTwoNodeGraphs)
{
    // Regression for the chain-only predecessor sweep: ranges at the
    // very front of a graph have no layer i-1 to implicitly index.
    Network one("one", Shape{2, 5, 5});
    one.add(LayerSpec::conv("c", 3, 3, 1));
    Rng r1(41);
    NetworkWeights w1(one, r1);
    Tensor in1(one.inputShape());
    Rng r2(42);
    in1.fillRandom(r2);
    Tensor o1 = runRange(one, w1, in1, 0, 0);
    EXPECT_EQ(o1.shape(), one.outputShape());

    Network two("two", Shape{2, 5, 5});
    two.add(LayerSpec::conv("c", 3, 3, 1));
    two.add(LayerSpec::relu("r"));
    Rng r3(43);
    NetworkWeights w2(two, r3);
    Tensor o2 = runRange(two, w2, in1, 0, 1);
    EXPECT_EQ(o2.shape(), two.outputShape());
    // And the suffix [1, 1] alone, whose predecessor is layer 0.
    Tensor mid = runRange(two, w2, in1, 0, 0);
    Tensor o3 = runRange(two, w2, mid, 1, 1);
    for (int64_t i = 0; i < o2.elems(); i++)
        ASSERT_EQ(o2.data()[i], o3.data()[i]);
}

TEST(ReferenceGraphDeath, RunLayerRejectsJoins)
{
    LayerSpec add = LayerSpec::eltwiseAdd("a");
    Tensor in(1, 2, 2);
    EXPECT_DEATH(runLayer(add, in, nullptr, nullptr, nullptr),
                 "runGraph");
}

TEST(ReferenceGraphDeath, RunRangeRejectsNonPathRanges)
{
    Network net = residualBlock();
    Rng rng(51);
    NetworkWeights w(net, rng);
    Tensor in(net.inputShape());
    EXPECT_DEATH(runRange(net, w, in, 0, net.numLayers() - 1),
                 "path-shaped");
}

TEST(Reference, OutputIsThreadCountInvariant)
{
    // runRange is parallelized too; its output, every fused engine's
    // golden value, must not depend on the pool width either.
    Network net("refinv", Shape{3, 30, 30});
    net.addConvBlock("c1", 6, 3, 1, 1);
    net.addMaxPool("p1", 3, 2);
    net.addConvBlock("c2", 4, 5, 1, 2);
    const int last = net.numLayers() - 1;
    Rng wrng(77);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(78);
    input.fillRandom(irng);

    ThreadPool::setGlobalThreads(1);
    const Tensor ref = runRange(net, weights, input, 0, last);
    for (int threads : {2, 3, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_TRUE(tensorsEqual(ref, runRange(net, weights, input, 0,
                                               last)))
            << "threads=" << threads;
    }
    ThreadPool::setGlobalThreads(0);
}

} // namespace
} // namespace flcnn
