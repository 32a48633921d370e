/**
 * @file
 * GroupCostCache: every table cell equals a direct model evaluation,
 * and the cached exploration sweep reproduces a brute-force
 * per-partition pricing point for point.
 */

#include <gtest/gtest.h>

#include "dse/sweep.hh"
#include "model/group_cost.hh"
#include "model/recompute.hh"
#include "model/storage.hh"
#include "model/transfer.hh"
#include "nn/zoo.hh"

namespace flcnn {
namespace {

TEST(GroupCostCache, CellsEqualDirectModelCalls)
{
    Network net = vggEPrefix(4);
    const int stages = static_cast<int>(net.stages().size());
    for (bool exact : {true, false}) {
        GroupCostOptions opt;
        opt.exactStorage = exact;
        opt.withRecompute = true;
        GroupCostCache cache(net, opt);
        ASSERT_EQ(cache.numStages(), stages);
        for (int a = 0; a < stages; a++) {
            for (int b = a; b < stages; b++) {
                const StageGroup g{a, b};
                EXPECT_EQ(cache.storageBytes(a, b),
                          groupReuseStorageBytes(net, g, exact))
                    << a << ".." << b;
                EXPECT_EQ(cache.transferBytes(a, b),
                          groupTransferBytes(net, g))
                    << a << ".." << b;
                int64_t extra = 0;
                if (g.size() > 1) {
                    int fl, ll;
                    groupLayerRange(net, g, fl, ll);
                    extra = pairwiseRecomputeExtraMultAdds(net, fl, ll);
                }
                EXPECT_EQ(cache.extraOps(a, b), extra) << a << ".." << b;
            }
        }
    }
}

TEST(GroupCostCache, WeightResidencyAddsOnlyToMultiStageGroups)
{
    Network net = vggEPrefix(4);
    GroupCostOptions plain;
    plain.exactStorage = false;
    GroupCostOptions weighted = plain;
    weighted.includeWeightStorage = true;
    GroupCostCache a(net, plain), b(net, weighted);
    for (int first = 0; first < a.numStages(); first++) {
        for (int last = first; last < a.numStages(); last++) {
            if (first == last) {
                EXPECT_EQ(a.storageBytes(first, last),
                          b.storageBytes(first, last));
            } else {
                int fl, ll;
                groupLayerRange(net, StageGroup{first, last}, fl, ll);
                EXPECT_EQ(b.storageBytes(first, last) -
                              a.storageBytes(first, last),
                          net.weightBytesInRange(fl, ll));
            }
        }
    }
}

TEST(GroupCostCache, PricePartitionEqualsDirectPartitionModels)
{
    Network net = alexnet();
    GroupCostOptions opt;
    opt.withRecompute = true;
    GroupCostCache cache(net, opt);
    const int stages = cache.numStages();
    for (const Partition &p : enumeratePartitions(stages)) {
        DesignPoint d;
        cache.price(p, d);
        EXPECT_EQ(d.storageBytes,
                  partitionReuseStorageBytes(net, p, true));
        EXPECT_EQ(d.transferBytes, partitionTransferBytes(net, p));
        EXPECT_EQ(d.extraOps,
                  partitionPairwiseRecomputeExtraMultAdds(net, p));
    }
}

TEST(GroupCostCache, ExplorerMatchesBruteForceSweep)
{
    // The cached, mask-tree explorer (runSweep's Chain space) must
    // reproduce the obvious implementation — enumerate every
    // partition, price it with the models directly, take the Pareto
    // front — in enumeration order.
    Network net = vggEPrefix(5);
    for (bool weights : {false, true}) {
        dse::SweepOptions opt;
        opt.cost.exactStorage = false;
        opt.cost.includeWeightStorage = weights;
        opt.cost.withRecompute = true;
        const dse::SweepResult res = dse::runSweep(net, opt);

        const int stages = static_cast<int>(net.stages().size());
        std::vector<Partition> all = enumeratePartitions(stages);
        ASSERT_EQ(res.points.size(), all.size());
        std::vector<DesignPoint> brute;
        for (size_t i = 0; i < all.size(); i++) {
            DesignPoint d;
            d.partition = all[i];
            d.storageBytes =
                partitionReuseStorageBytes(net, all[i], false);
            if (weights) {
                for (const StageGroup &g : all[i]) {
                    if (g.size() == 1)
                        continue;
                    int fl, ll;
                    groupLayerRange(net, g, fl, ll);
                    d.storageBytes += net.weightBytesInRange(fl, ll);
                }
            }
            d.transferBytes = partitionTransferBytes(net, all[i]);
            d.extraOps =
                partitionPairwiseRecomputeExtraMultAdds(net, all[i]);
            EXPECT_EQ(res.points[i].partition, all[i]) << i;
            EXPECT_EQ(res.points[i].storageBytes, d.storageBytes) << i;
            EXPECT_EQ(res.points[i].transferBytes, d.transferBytes) << i;
            EXPECT_EQ(res.points[i].extraOps, d.extraOps) << i;
            brute.push_back(std::move(d));
        }

        std::vector<DesignPoint> front = paretoFront(std::move(brute));
        ASSERT_EQ(res.legacyFront.size(), front.size());
        for (size_t i = 0; i < front.size(); i++) {
            const DesignPoint &got = res.legacyFront[i];
            EXPECT_EQ(got.partition, front[i].partition) << i;
            EXPECT_EQ(got.storageBytes, front[i].storageBytes);
            EXPECT_EQ(got.transferBytes, front[i].transferBytes);
        }
    }
}

TEST(GroupCostCache, DtypeScalesStorageAndTransferNotOps)
{
    // Every byte count in the model is elems * 4; a narrower element
    // type rescales storage and transfer exactly (int8 / 4, fp16 / 2)
    // and leaves the recompute mult-adds untouched.
    Network net = vggEPrefix(4);
    GroupCostOptions f32opt;
    f32opt.withRecompute = true;
    GroupCostOptions i8opt = f32opt, f16opt = f32opt;
    i8opt.dtype = Precision::Int8;
    f16opt.dtype = Precision::Fp16;
    GroupCostCache f32(net, f32opt), i8(net, i8opt), f16(net, f16opt);
    for (int a = 0; a < f32.numStages(); a++) {
        for (int b = a; b < f32.numStages(); b++) {
            EXPECT_EQ(i8.storageBytes(a, b), f32.storageBytes(a, b) / 4)
                << a << ".." << b;
            EXPECT_EQ(i8.transferBytes(a, b),
                      f32.transferBytes(a, b) / 4);
            EXPECT_EQ(f16.storageBytes(a, b),
                      f32.storageBytes(a, b) / 2);
            EXPECT_EQ(f16.transferBytes(a, b),
                      f32.transferBytes(a, b) / 2);
            EXPECT_EQ(i8.extraOps(a, b), f32.extraOps(a, b));
            EXPECT_EQ(f16.extraOps(a, b), f32.extraOps(a, b));
        }
    }
}

TEST(Explorer, DtypeThreadsThroughExploration)
{
    // The explorer re-prices the whole space per dtype: every design
    // point's byte costs shrink by the element width, so the int8
    // sweep is the fp32 sweep scaled — same partitions, same ops.
    Network net = vggEPrefix(4);
    dse::SweepOptions f32opt;
    dse::SweepOptions i8opt;
    i8opt.cost.dtype = Precision::Int8;
    const dse::SweepResult f32 = dse::runSweep(net, f32opt);
    const dse::SweepResult i8 = dse::runSweep(net, i8opt);
    ASSERT_EQ(i8.points.size(), f32.points.size());
    for (size_t i = 0; i < f32.points.size(); i++) {
        EXPECT_EQ(i8.points[i].partition, f32.points[i].partition);
        EXPECT_EQ(i8.points[i].storageBytes,
                  f32.points[i].storageBytes / 4)
            << i;
        EXPECT_EQ(i8.points[i].transferBytes,
                  f32.points[i].transferBytes / 4)
            << i;
        EXPECT_EQ(i8.points[i].extraOps, f32.points[i].extraOps);
    }
}


TEST(GroupCost, PlanCellPricesLikeTheStageGroup)
{
    // A path-shaped fusion plan spanning whole stages reads the exact
    // table entry the equivalent StageGroup reads — plan-based and
    // range-based pipelines price bit-identically.
    Network net = vggEPrefix(5);
    NetworkWeights w(net);
    GroupCostCache cache(net);
    const int stages = cache.numStages();
    ASSERT_GE(stages, 2);
    for (int a = 0; a < stages; a++) {
        for (int b = a; b < stages; b++) {
            FusionPlan plan(net, w);
            plan.addRange(net.stages()[static_cast<size_t>(a)].first,
                          net.stages()[static_cast<size_t>(b)].last);
            const GroupCostCache::Cell &pc = cache.planCell(net, plan);
            const GroupCostCache::Cell &gc = cache.cell(a, b);
            EXPECT_EQ(&pc, &gc) << a << ".." << b;
        }
    }
}

TEST(GroupCost, PlanCellWorksOnACompiledPlan)
{
    Network net = alexnetFusedPrefix();
    Rng rng(3);
    NetworkWeights w(net, rng);
    GroupCostCache cache(net);
    FusionPlan plan(net, w);
    plan.addRange(net.stages().front().first,
                  net.stages().back().last);
    PlanCompileOptions opt;
    opt.engine = PlanEngine::LineBuffer;
    ASSERT_EQ(plan.compile(opt), CompileStatus::Ok)
        << plan.diagnostic();
    const GroupCostCache::Cell &c = cache.planCell(net, plan);
    EXPECT_EQ(&c, &cache.cell(0, cache.numStages() - 1));
}

TEST(GroupCostDeath, PlanCellRejectsStageMisalignedPlans)
{
    Network net = vggEPrefix(5);
    NetworkWeights w(net);
    GroupCostCache cache(net);
    const Stage &s0 = net.stages().front();
    ASSERT_GT(s0.last, s0.first);  // conv block: pad + conv + relu
    FusionPlan plan(net, w);
    plan.addRange(s0.first, s0.last - 1);  // stops mid-stage
    EXPECT_DEATH((void)cache.planCell(net, plan),
                 "does not span whole stages");
}

} // namespace
} // namespace flcnn
