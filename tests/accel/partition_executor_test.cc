/**
 * @file
 * PartitionExecutor: Figure 4 multi-pyramid evaluation — functional
 * equivalence and measured-vs-model traffic across whole partitions.
 */

#include <gtest/gtest.h>

#include "accel/partition_executor.hh"
#include "common/thread_pool.hh"
#include "model/transfer.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

Network
smallVggish()
{
    Network net("pvgg", Shape{3, 24, 24});
    net.addConvBlock("c1", 4, 3, 1, 1);
    net.addConvBlock("c2", 4, 3, 1, 1);
    net.addMaxPool("p1", 2, 2);
    net.addConvBlock("c3", 6, 3, 1, 1);
    return net;
}

void
runPartition(const Network &net, const Partition &p, uint64_t seed,
             RunStats *stats_out = nullptr, MetricsRegistry *reg = nullptr)
{
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(seed ^ 0xdead);
    input.fillRandom(irng);

    PartitionExecutor exec(net, weights, p);
    exec.setMetrics(reg);
    RunStats stats;
    Tensor out = exec.run(input, &stats);

    Tensor ref = runRange(net, weights, input, 0,
                          net.stages().back().last);
    CompareResult cmp = compareTensors(ref, out);
    EXPECT_TRUE(cmp.match)
        << partitionStr(p) << ": " << cmp.str();
    if (stats_out)
        *stats_out = stats;
}

TEST(PartitionExecutor, EveryPartitionMatchesReference)
{
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    for (const Partition &p : enumeratePartitions(stages))
        runPartition(net, p, 51);
}

TEST(PartitionExecutor, MeasuredTrafficEqualsFigure7Model)
{
    // DESIGN.md invariant 3 at partition scope: on exactly-dividing
    // geometry the measured DRAM traffic equals the exploration-tool
    // transfer model for every partition.
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    for (const Partition &p : enumeratePartitions(stages)) {
        RunStats stats;
        runPartition(net, p, 52, &stats);
        EXPECT_EQ(stats.loadedBytes + stats.storedBytes,
                  partitionTransferBytes(net, p))
            << partitionStr(p);
    }
}

TEST(PartitionExecutor, SingletonsMeanLayerByLayer)
{
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    RunStats stats;
    MetricsRegistry reg;
    runPartition(net, singletonPartition(stages), 53, &stats, &reg);
    EXPECT_EQ(stats.loadedBytes + stats.storedBytes,
              layerByLayerTransferBytes(net));
    // Each group's "group:<g>:" scope reports its own reads (a
    // singleton group reads its stage's input plane), and the groups'
    // reads sum to the run's total.
    int64_t sum = 0;
    for (int g = 0; g < stages; g++) {
        const std::string prefix = MetricsRegistry::groupPrefix(g);
        int64_t reads = 0;
        for (const Metric &m : reg.items())
            if (m.name == "dram_read_bytes" && m.scope.rfind(prefix, 0) == 0)
                reads += m.count;
        const Stage &st = net.stages()[static_cast<size_t>(g)];
        EXPECT_EQ(reads, net.inShape(st.first).bytes()) << "group " << g;
        sum += reads;
    }
    EXPECT_EQ(sum, stats.loadedBytes);
}

TEST(PartitionExecutor, FullFusionMovesOnlyEndpoints)
{
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    RunStats stats;
    runPartition(net, fullFusionPartition(stages), 54, &stats);
    EXPECT_EQ(stats.loadedBytes, net.inputShape().bytes());
    EXPECT_EQ(stats.storedBytes, net.outputShape().bytes());
}

TEST(PartitionExecutor, ArithmeticIsPartitionInvariant)
{
    // The reuse model computes the baseline arithmetic regardless of
    // partitioning.
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    RunStats a, b;
    runPartition(net, singletonPartition(stages), 55, &a);
    runPartition(net, fullFusionPartition(stages), 55, &b);
    EXPECT_EQ(a.ops.mults, b.ops.mults);
    EXPECT_EQ(a.ops.adds, b.ops.adds);
}

TEST(PartitionExecutor, WiderTipsStayCorrect)
{
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    Rng wrng(56);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(57);
    input.fillRandom(irng);
    Tensor ref = runRange(net, weights, input, 0,
                          net.stages().back().last);
    for (int tip : {2, 3, 5}) {
        PartitionExecutor exec(net, weights,
                               partitionFromSizes({2, 2}, stages), tip);
        Tensor out = exec.run(input);
        EXPECT_TRUE(tensorsEqual(ref, out)) << "tip " << tip;
    }
}

/** RAII: run a scope at a fixed global thread count, then restore the
 *  default so other tests are unaffected. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

TEST(PartitionExecutor, BitExactAcrossThreadCounts)
{
    // Every pyramid delegates to the threaded FusedExecutor; the whole
    // partition's output must be invariant to the pool width, bitwise,
    // against a serial reference.
    Network net = smallVggish();
    int stages = static_cast<int>(net.stages().size());
    Rng wrng(59);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(60);
    input.fillRandom(irng);

    Tensor ref;
    {
        ScopedThreads serial(1);
        ref = runRange(net, weights, input, 0,
                       net.stages().back().last);
    }
    for (int threads : {1, 2, 8}) {
        ScopedThreads scope(threads);
        for (const Partition &p :
             {singletonPartition(stages), fullFusionPartition(stages)}) {
            PartitionExecutor exec(net, weights, p);
            Tensor out = exec.run(input);
            ASSERT_TRUE(tensorsEqual(ref, out))
                << partitionStr(p) << " threads=" << threads;
        }
    }
}

TEST(PartitionExecutorDeath, InvalidPartitionIsFatal)
{
    Network net = smallVggish();
    Rng rng(58);
    NetworkWeights weights(net, rng);
    Partition bad{StageGroup{0, 0}};
    EXPECT_EXIT(PartitionExecutor(net, weights, bad),
                ::testing::ExitedWithCode(1), "invalid partition");
}

class PartitionExecutorRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(PartitionExecutorRandom, RandomNetsRandomPartitions)
{
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 433 + 7);
    Network net = randomFusableNet(rng);
    int stages = static_cast<int>(net.stages().size());
    if (stages == 0)
        GTEST_SKIP();
    auto all = enumeratePartitions(stages);
    const Partition &p =
        all[static_cast<size_t>(rng.rangeI64(0,
                                             static_cast<int64_t>(
                                                 all.size()) -
                                                 1))];
    runPartition(net, p, seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionExecutorRandom,
                         ::testing::Range(0, 20));

} // namespace
} // namespace flcnn
