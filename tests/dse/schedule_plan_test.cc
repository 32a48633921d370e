/**
 * @file
 * Multi-group FusionPlans compiled from a Schedule: Figure 4
 * multi-pyramid evaluation — functional equivalence and measured-vs-
 * model traffic across whole partitions and random schedules.
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "dse/pricer.hh"
#include "dse/schedule.hh"
#include "model/transfer.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace dse {
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

/** Compile @p s onto a fresh plan over @p net, run it on @p input, and
 *  return the output (asserting the compile succeeded). */
Tensor
runSchedule(const Network &net, const NetworkWeights &weights,
            const Tensor &input, const Schedule &s,
            RunStats *stats = nullptr, MetricsRegistry *reg = nullptr,
            const NetPrecision *prec = nullptr)
{
    FusionPlan plan(net, weights);
    PlanCompileOptions opt;
    opt.precision = prec;
    EXPECT_EQ(compileSchedule(plan, s, opt), CompileStatus::Ok)
        << plan.diagnostic();
    plan.setMetrics(reg);
    return plan.execute(input, stats);
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

    Tensor out = runSchedule(net, weights, input, chainSchedule(p),
                             stats_out, reg);

    Tensor ref = runRange(net, weights, input, 0,
                          net.stages().back().last);
    CompareResult cmp = compareTensors(ref, out);
    EXPECT_TRUE(cmp.match)
        << partitionStr(p) << ": " << cmp.str();
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
    for (int tile_h : {2, 3, 5}) {
        Schedule s = chainSchedule(partitionFromSizes({2, 2}, stages));
        for (GroupSchedule &g : s.groups)
            g.tileH = tile_h;
        Tensor out = runSchedule(net, weights, input, s);
        EXPECT_TRUE(tensorsEqual(ref, out)) << "tileH " << tile_h;
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
            Tensor out =
                runSchedule(net, weights, input, chainSchedule(p));
            ASSERT_TRUE(tensorsEqual(ref, out))
                << partitionStr(p) << " threads=" << threads;
        }
    }
}

TEST(PartitionExecutor, InvalidPartitionIsRejected)
{
    // A typed rejection carrying the reason, counted and never fatal.
    Network net = smallVggish();
    NetworkWeights weights(net);
    MetricsRegistry reg;
    PlanCompileOptions opt;
    opt.metrics = &reg;
    FusionPlan plan(net, weights);
    Schedule bad = chainSchedule(Partition{StageGroup{0, 0}});
    EXPECT_EQ(compileSchedule(plan, bad, opt),
              CompileStatus::UnsupportedSchedule);
    EXPECT_NE(plan.diagnostic().find(validateSchedule(net, bad)),
              std::string::npos);
    EXPECT_EQ(reg.counter("plan", "compile_rejected"), 1);
    EXPECT_FALSE(plan.compiled());
}

class PartitionExecutorRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(PartitionExecutorRandom, RandomNetsRandomPartitions)
{
    // A random schedule (random cuts, each group's tile height anywhere
    // in [1, output height]) runs bit-exactly against the reference in
    // fp32 and int8 at every pool width. Its bytes and mults / adds
    // equal the pricer's and the reference's where every window tiles
    // its plane, and are at most them elsewhere (DESIGN.md §5
    // invariant 3: the models count whole planes).
    const uint64_t seed = static_cast<uint64_t>(GetParam());
    Rng rng(seed * 433 + 7);
    Network net = randomFusableNet(rng);
    int stages = static_cast<int>(net.stages().size());
    if (stages == 0)
        GTEST_SKIP();
    auto all = enumeratePartitions(stages);
    Schedule s = chainSchedule(all[static_cast<size_t>(
        rng.rangeI64(0, static_cast<int64_t>(all.size()) - 1))]);
    for (GroupSchedule &g : s.groups) {
        const int ll = net.stages()[static_cast<size_t>(g.lastStage)].last;
        g.tileH = static_cast<int>(rng.rangeI64(1, net.outShape(ll).h));
    }

    const int last = net.stages().back().last;
    Rng wrng(seed);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(seed ^ 0xdead);
    input.fillRandom(irng);
    OpCount want;
    bool exact = true;
    for (int l = 0; l <= last; l++) {
        const LayerSpec &sp = net.layer(l);
        const Shape &in = net.inShape(l);
        want += layerOpCount(sp, in);
        if (sp.windowed())
            exact = exact && (in.h - sp.kernel) % sp.stride == 0 &&
                    (in.w - sp.kernel) % sp.stride == 0;
    }
    const int64_t priced = SchedulePricer(net).price(s).transferBytes;
    auto within = [exact](int64_t got, int64_t bound) {
        EXPECT_TRUE(exact ? got == bound : got <= bound)
            << got << " against " << bound;
    };

    for (Precision mode : {Precision::Fp32, Precision::Int8}) {
        const NetPrecision prec =
            NetPrecision::calibrate(net, weights, mode);
        const Tensor ref = runRange(net, weights, input, 0, last, &prec);
        for (int threads : {1, 2, 8}) {
            ScopedThreads scope(threads);
            SCOPED_TRACE(scheduleStr(net, s) + " " +
                         precisionName(mode) + " threads=" +
                         std::to_string(threads));
            RunStats st;
            Tensor out =
                runSchedule(net, weights, input, s, &st, nullptr, &prec);
            EXPECT_TRUE(tensorsEqual(ref, out));
            within(st.loadedBytes + st.storedBytes, priced);
            within(st.ops.mults, want.mults);
            within(st.ops.adds, want.adds);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionExecutorRandom,
                         ::testing::Range(0, 20));

} // namespace
} // namespace dse
} // namespace flcnn
