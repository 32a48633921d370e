/**
 * @file
 * Sweep engine: the Chain space (the paper's Section V explorer)
 * against an independent brute-force oracle and pinned Figure 7 /
 * VGG-E values, the LoopTree surface's dominance over the chain
 * front, executor spot checks of priced schedules, neighbors, and the
 * JSON emitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/units.hh"
#include "dse/sweep.hh"
#include "model/transfer.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace dse {
namespace {

/** A Chain-space sweep of @p net under @p cost. */
SweepResult
chainSweep(const Network &net, const GroupCostOptions &cost = {})
{
    SweepOptions opt;
    opt.space = Space::Chain;
    opt.cost = cost;
    return runSweep(net, opt);
}

/**
 * The explorer in its plainest form, as the oracle for the mask-tree
 * walk: every forEachPartition partition in order, priced group by
 * group through GroupCostCache::price (Figure 7 axes) and
 * SchedulePricer::price (surface axes), with both Pareto fronts taken
 * over the whole list. The sweep must match it bit for bit.
 */
void
expectChainMatchesOracle(const Network &net, bool with_recompute,
                         Precision dtype)
{
    SCOPED_TRACE(net.name() + " " + precisionName(dtype) +
                 (with_recompute ? " +recompute" : ""));
    GroupCostOptions cost;
    cost.withRecompute = with_recompute;
    cost.dtype = dtype;
    const SweepResult swept = chainSweep(net, cost);

    const GroupCostCache cache(net, cost);
    SchedulePricer pricer(net, cost);
    std::vector<DesignPoint> oracle;
    std::vector<ParetoPoint3> axes;
    forEachPartition(static_cast<int>(net.stages().size()),
                     [&](const Partition &p) {
                         DesignPoint d;
                         cache.price(p, d);
                         d.partition = p;
                         oracle.push_back(std::move(d));
                         const ScheduleCost c =
                             pricer.price(chainSchedule(p));
                         axes.push_back(ParetoPoint3{
                             c.latencyCycles, c.energyPj,
                             c.bufferBytes()});
                     });

    ASSERT_EQ(swept.points.size(), oracle.size());
    EXPECT_EQ(swept.pointsVisited, static_cast<int64_t>(oracle.size()));
    for (size_t i = 0; i < oracle.size(); i++) {
        EXPECT_EQ(swept.points[i].partition, oracle[i].partition) << i;
        EXPECT_EQ(swept.points[i].storageBytes, oracle[i].storageBytes)
            << i;
        EXPECT_EQ(swept.points[i].transferBytes,
                  oracle[i].transferBytes) << i;
        EXPECT_EQ(swept.points[i].extraOps, oracle[i].extraOps) << i;
    }

    // The Figure 7 front, both as design points and fully priced.
    const std::vector<DesignPoint> front = paretoFront(oracle);
    ASSERT_EQ(swept.legacyFront.size(), front.size());
    ASSERT_EQ(swept.chainFront.size(), front.size());
    for (size_t i = 0; i < front.size(); i++) {
        EXPECT_EQ(swept.legacyFront[i].partition, front[i].partition);
        EXPECT_EQ(swept.legacyFront[i].storageBytes,
                  front[i].storageBytes) << "front " << i;
        EXPECT_EQ(swept.legacyFront[i].transferBytes,
                  front[i].transferBytes) << "front " << i;
        EXPECT_EQ(schedulePartition(swept.chainFront[i].schedule),
                  front[i].partition);
        EXPECT_EQ(swept.chainFront[i].cost.storageBytes,
                  front[i].storageBytes);
        EXPECT_EQ(swept.chainFront[i].cost.transferBytes,
                  front[i].transferBytes);
    }

    // The latency/energy/buffer surface.
    const std::vector<size_t> surface = paretoFrontIndices3(axes);
    ASSERT_EQ(swept.front.size(), surface.size());
    for (size_t i = 0; i < surface.size(); i++) {
        const Partition &p = oracle[surface[i]].partition;
        EXPECT_EQ(schedulePartition(swept.front[i].schedule), p);
        const ScheduleCost c = pricer.price(chainSchedule(p));
        EXPECT_EQ(swept.front[i].cost.latencyCycles, c.latencyCycles);
        EXPECT_EQ(swept.front[i].cost.energyPj, c.energyPj);
        EXPECT_EQ(swept.front[i].cost.bufferBytes(), c.bufferBytes());
        EXPECT_EQ(swept.front[i].cost.extraOps, c.extraOps);
    }
}

/** Each cost-model variant the oracle check covers. */
void
expectChainMatchesOracleAllModes(const Network &net)
{
    for (Precision dtype : {Precision::Fp32, Precision::Int8})
        for (bool with_recompute : {false, true})
            expectChainMatchesOracle(net, with_recompute, dtype);
}

TEST(Sweep, ChainBitIdenticalToExplorerAlexNet)
{
    expectChainMatchesOracleAllModes(alexnet());
}

TEST(Sweep, ChainBitIdenticalToExplorerVggFive)
{
    expectChainMatchesOracleAllModes(vggEPrefix(5));
}

TEST(Sweep, ChainBitIdenticalToExplorerVggE13Stages)
{
    Network net = vggEPrefix(10);
    ASSERT_EQ(net.stages().size(), 13u);
    expectChainMatchesOracle(net, false, Precision::Fp32);
    expectChainMatchesOracle(net, true, Precision::Int8);
}

TEST(Sweep, ChainPinsVggEFronts)
{
    // All 2^20 partitions of the full VGG-E, under both storage models,
    // pinned to the byte.
    Network net = vggE();
    const SweepResult exact = chainSweep(net);
    EXPECT_EQ(exact.points.size(), size_t{1} << 20);
    ASSERT_EQ(exact.legacyFront.size(), 31u);
    EXPECT_EQ(exact.legacyFront.front().storageBytes, 0);
    EXPECT_EQ(exact.legacyFront.front().transferBytes, 82'589'696);
    EXPECT_EQ(exact.legacyFront.back().storageBytes, 2'151'936);
    EXPECT_EQ(exact.legacyFront.back().transferBytes, 702'464);

    GroupCostOptions closed;
    closed.exactStorage = false;
    const SweepResult approx = chainSweep(net, closed);
    ASSERT_EQ(approx.legacyFront.size(), 33u);
    EXPECT_EQ(approx.legacyFront.back().storageBytes, 2'572'288);
    EXPECT_EQ(approx.legacyFront.back().transferBytes, 702'464);
}

TEST(Sweep, ChainSurfaceIsParetoAndCoversAllPoints)
{
    SweepOptions opt;
    SweepResult res = runSweep(vggEPrefix(5), opt);
    ASSERT_GE(res.front.size(), 3u);
    for (size_t a = 0; a < res.front.size(); a++) {
        const ScheduleCost &ca = res.front[a].cost;
        for (size_t b = 0; b < res.front.size(); b++) {
            if (a == b)
                continue;
            const ScheduleCost &cb = res.front[b].cost;
            // Mutual non-domination (strict).
            EXPECT_FALSE(ca.latencyCycles <= cb.latencyCycles &&
                         ca.energyPj <= cb.energyPj &&
                         ca.bufferBytes() <= cb.bufferBytes() &&
                         (ca.latencyCycles < cb.latencyCycles ||
                          ca.energyPj < cb.energyPj ||
                          ca.bufferBytes() < cb.bufferBytes()));
        }
    }
}

/** Every chain-front point must be weakly dominated by some surfaced
 *  point — the "dominates or matches" guarantee. */
void
expectFrontCoversChain(const SweepResult &res)
{
    for (const SweepPoint &c : res.chainFront) {
        bool covered = false;
        for (const SweepPoint &f : res.front) {
            if (f.cost.latencyCycles <= c.cost.latencyCycles &&
                f.cost.energyPj <= c.cost.energyPj &&
                f.cost.bufferBytes() <= c.cost.bufferBytes()) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered)
            << "chain point uncovered: "
            << c.cost.latencyCycles << " cyc, " << c.cost.energyPj
            << " pJ, " << c.cost.bufferBytes() << " B";
    }
}

TEST(Sweep, LoopTreeDominatesOrMatchesChainFront)
{
    Network net = vggEPrefix(5);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 200'000;
    SweepResult res = runSweep(net, opt);
    EXPECT_GT(res.pointsVisited, 0);
    EXPECT_GT(res.frontierCapUsed, 0);
    ASSERT_GE(res.front.size(), 3u);
    expectFrontCoversChain(res);
    // Ascending-latency order.
    for (size_t i = 1; i < res.front.size(); i++)
        EXPECT_GE(res.front[i].cost.latencyCycles,
                  res.front[i - 1].cost.latencyCycles);
    // The chain front is exact and sorted by ascending storage.
    for (size_t i = 1; i < res.chainFront.size(); i++)
        EXPECT_GT(res.chainFront[i].cost.storageBytes,
                  res.chainFront[i - 1].cost.storageBytes);
}

TEST(Sweep, LoopTreeChainFrontMatchesLegacyValues)
{
    // The capped DP never touches the chain front's exactness: its
    // (storage, transfer) values must equal the Chain space's
    // enumerated front exactly.
    Network net = vggEPrefix(5);
    const SweepResult chain = chainSweep(net);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 50'000;
    SweepResult res = runSweep(net, opt);
    ASSERT_EQ(res.chainFront.size(), chain.legacyFront.size());
    for (size_t i = 0; i < chain.legacyFront.size(); i++) {
        EXPECT_EQ(res.chainFront[i].cost.storageBytes,
                  chain.legacyFront[i].storageBytes) << "front " << i;
        EXPECT_EQ(res.chainFront[i].cost.transferBytes,
                  chain.legacyFront[i].transferBytes) << "front " << i;
    }
}

TEST(Sweep, RespectsPointBudgetOrder)
{
    Network net = vggEPrefix(5);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 10'000;
    SweepResult res = runSweep(net, opt);
    // The cap derivation bounds DP combinations near the budget; allow
    // the exact (uncapped) chain DP's small additive term.
    EXPECT_LT(res.pointsVisited, 4 * opt.pointBudget);
    ASSERT_GE(res.front.size(), 3u);
    expectFrontCoversChain(res);
}

TEST(Sweep, ExecutorSpotChecksPricedMultiRowSchedule)
{
    // A retained multi-row-tile schedule the sweep prices must run on
    // the host executors bit-identically to the reference.
    Network net = vggEPrefix(3);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({2, stages - 2},
                                                  stages));
    s.groups[0].tileH = 3;
    s.groups[1].tileH = 2;

    SchedulePricer pricer(net);
    ScheduleCost cost = pricer.price(s);
    EXPECT_GT(cost.bufferBytes(), 0);
    EXPECT_TRUE(cost.exact());

    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inShape(0));
    Rng irng(7 ^ 0xbeef);
    input.fillRandom(irng);
    Tensor ref = runRange(net, weights, input, 0, net.numLayers() - 1);
    FusionPlan plan(net, weights);
    ASSERT_EQ(compileSchedule(plan, s, {}), CompileStatus::Ok);
    Tensor out = plan.execute(input);
    CompareResult cmp = compareTensors(ref, out);
    EXPECT_TRUE(cmp.match) << cmp.str();
}

TEST(Sweep, NonPyramidSchedulesAreNotExecutable)
{
    Network net = vggEPrefix(3);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({2, stages - 2},
                                                  stages));
    NetworkWeights weights(net);
    FusionPlan plan(net, weights);
    s.groups[0].flow = Dataflow::Independent;
    EXPECT_EQ(compileSchedule(plan, s, {}),
              CompileStatus::UnsupportedSchedule);
    EXPECT_NE(plan.diagnostic().find("independent"), std::string::npos);
    s.groups[0].flow = Dataflow::Pyramid;
    s.groups[0].retainMask = ~2u;  // recompute a meaningful boundary
    EXPECT_EQ(compileSchedule(plan, s, {}),
              CompileStatus::UnsupportedSchedule);
    EXPECT_NE(plan.diagnostic().find("recomputed"), std::string::npos);
}

TEST(Sweep, NeighborsAreValidDedupedAndLocal)
{
    Network net = vggEPrefix(5);
    const int stages = static_cast<int>(net.stages().size());
    Schedule s = chainSchedule(partitionFromSizes({3, 2, 2}, stages));
    SweepOptions opt;
    std::vector<Schedule> ns = neighborSchedules(net, s, opt);
    ASSERT_FALSE(ns.empty());
    bool saw_tile = false;
    std::vector<uint64_t> hashes;
    for (const Schedule &n : ns) {
        EXPECT_EQ(validateSchedule(net, n), "");
        // Neighbors keep the stage partition or change nothing else.
        EXPECT_EQ(schedulePartition(n), schedulePartition(s));
        for (const GroupSchedule &g : n.groups)
            saw_tile = saw_tile || g.tileH != 1;
        hashes.push_back(scheduleHash(net, n));
        EXPECT_NE(hashes.back(), scheduleHash(net, s));
    }
    EXPECT_TRUE(saw_tile);
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()),
              hashes.end());
}

TEST(Sweep, WritesParetoJson)
{
    Network net = vggEPrefix(3);
    SweepOptions opt;
    opt.space = Space::LoopTree;
    opt.pointBudget = 20'000;
    SweepResult res = runSweep(net, opt);

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    writeParetoJson(f, net, opt, res);
    std::fseek(f, 0, SEEK_SET);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    EXPECT_NE(text.find("\"schema\": \"flcnn-pareto-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"space\": \"looptree\""), std::string::npos);
    EXPECT_NE(text.find("\"frontier\""), std::string::npos);
    EXPECT_NE(text.find("\"chain_front\""), std::string::npos);
    EXPECT_NE(text.find("\"latency_cycles\""), std::string::npos);
}

// The paper's Section V explorer cases, on the Chain space. The
// VGG-five Figure 7 points are pinned to the byte next to the paper's
// values.

TEST(Explorer, VggPrefixSweepsAll64Points)
{
    const SweepResult res = chainSweep(vggEPrefix(5));
    EXPECT_EQ(res.points.size(), 64u);
    EXPECT_EQ(res.legacyFront.size(), 7u);
}

TEST(Explorer, AlexNetSweepsAll128Points)
{
    EXPECT_EQ(chainSweep(alexnet()).points.size(), 128u);
}

TEST(Explorer, VggFrontEndsAtPointC)
{
    // The minimum-transfer extreme is full fusion: 3.64 MB at ~362 KB.
    const SweepResult res = chainSweep(vggEPrefix(5));
    const DesignPoint &c = res.legacyFront.back();
    EXPECT_EQ(c.partition.size(), 1u);
    EXPECT_NEAR(toMiB(c.transferBytes), 3.64, 0.02);
    EXPECT_NEAR(toKiB(c.storageBytes), 362.0, 8.0);
    EXPECT_EQ(c.storageBytes, 370'176);
    EXPECT_EQ(c.transferBytes, 3'813'376);
}

TEST(Explorer, PointBIsOnTheFront)
{
    // 118 KB / 25 MB: the designer's mid-range trade-off.
    const SweepResult res = chainSweep(vggEPrefix(5));
    const DesignPoint *b = bestUnderStorage(res.legacyFront, 120 * 1024);
    ASSERT_NE(b, nullptr);
    EXPECT_NEAR(toKiB(b->storageBytes), 118.0, 5.0);
    EXPECT_NEAR(toMiB(b->transferBytes), 25.0, 0.5);
    EXPECT_EQ(b->storageBytes, 117'760);
    EXPECT_EQ(b->transferBytes, 26'292'224);
    EXPECT_EQ(partitionStr(b->partition), "(3, 1, 2, 1)");
}

TEST(Explorer, LayerByLayerPointAIn86MBRange)
{
    // Point A is the all-singleton partition at zero storage.
    const SweepResult res = chainSweep(vggEPrefix(5));
    int found = 0;
    for (const DesignPoint &p : res.points) {
        if (p.partition.size() == 7) {
            EXPECT_EQ(p.storageBytes, 0);
            EXPECT_NEAR(toMiB(p.transferBytes), 86.3, 0.5);
            EXPECT_EQ(p.transferBytes, 90'517'504);
            found++;
        }
    }
    EXPECT_EQ(found, 1);
}

TEST(Explorer, FrontIsMutuallyNonDominating)
{
    const SweepResult res = chainSweep(alexnet());
    for (const DesignPoint &a : res.legacyFront)
        for (const DesignPoint &b : res.legacyFront)
            EXPECT_FALSE(a.dominates(b));
}

TEST(Explorer, EveryPointCoveredByFront)
{
    // No point may dominate a front member.
    const SweepResult res = chainSweep(vggEPrefix(4));
    for (const DesignPoint &p : res.points)
        for (const DesignPoint &f : res.legacyFront)
            EXPECT_FALSE(p.dominates(f));
}

TEST(Explorer, ClosedFormSweepAgreesOnVgg)
{
    Network net = vggEPrefix(5);
    GroupCostOptions fast;
    fast.exactStorage = false;
    const SweepResult exact = chainSweep(net);
    const SweepResult approx = chainSweep(net, fast);
    ASSERT_EQ(exact.points.size(), approx.points.size());
    for (size_t i = 0; i < exact.points.size(); i++) {
        EXPECT_EQ(exact.points[i].transferBytes,
                  approx.points[i].transferBytes);
        double e = static_cast<double>(exact.points[i].storageBytes);
        double a = static_cast<double>(approx.points[i].storageBytes);
        if (e > 0) {
            EXPECT_NEAR(a / e, 1.0, 0.15) << i;
        }
    }
}

TEST(Explorer, RecomputeOptionPricesPoints)
{
    GroupCostOptions opt;
    opt.withRecompute = true;
    const SweepResult res = chainSweep(vggEPrefix(3), opt);
    bool any_positive = false;
    for (const DesignPoint &p : res.points)
        any_positive |= (p.extraOps > 0);
    EXPECT_TRUE(any_positive);
}

TEST(Explorer, WeightStorageShiftsTheFrontAwayFromDeepFusion)
{
    // With weight residency priced in, fusing weight-heavy deep stages
    // costs megabytes of storage; the front's full-fusion extreme gets
    // much more expensive while shallow points are barely affected.
    Network net = vggEPrefix(8);
    GroupCostOptions plain;
    plain.exactStorage = false;
    GroupCostOptions weighted = plain;
    weighted.includeWeightStorage = true;

    const SweepResult a = chainSweep(net, plain);
    const SweepResult b = chainSweep(net, weighted);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); i++) {
        EXPECT_GE(b.points[i].storageBytes, a.points[i].storageBytes);
        EXPECT_EQ(b.points[i].transferBytes, a.points[i].transferBytes);
    }
    // Full fusion of 8 convs carries >5 MB of weights on chip.
    int64_t delta = b.points[0].storageBytes - a.points[0].storageBytes;
    EXPECT_GT(delta, 5LL * 1024 * 1024);
    // Singleton partitions carry nothing extra.
    EXPECT_EQ(a.points.back().storageBytes,
              b.points.back().storageBytes);
}

TEST(Explorer, GoogLeNetStemExploresCleanly)
{
    Network net = googlenetStem();
    const SweepResult res = chainSweep(net);
    EXPECT_EQ(res.points.size(),
              static_cast<size_t>(
                  countPartitions(static_cast<int>(net.stages().size()))));
    EXPECT_GE(res.legacyFront.size(), 2u);
    // Full fusion still transfers the least.
    EXPECT_EQ(res.legacyFront.back().partition.size(), 1u);
}

TEST(Explorer, TransferReductionIs24xOnVggPrefix)
{
    // "This design transfers only 3.6MB per image, a 24x reduction in
    // DRAM traffic" (relative to the 86 MB layer-by-layer point).
    Network net = vggEPrefix(5);
    const SweepResult res = chainSweep(net);
    double a = static_cast<double>(layerByLayerTransferBytes(net));
    double c = static_cast<double>(res.legacyFront.back().transferBytes);
    EXPECT_NEAR(a / c, 24.0, 1.0);
}

} // namespace
} // namespace dse
} // namespace flcnn
