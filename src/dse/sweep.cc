#include "dse/sweep.hh"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "common/thread_pool.hh"
#include "tensor/precision.hh"

namespace flcnn {
namespace dse {

const char *
spaceName(Space s)
{
    switch (s) {
      case Space::Chain:
        return "chain";
      case Space::LoopTree:
        return "looptree";
    }
    panic("unknown sweep space %d", static_cast<int>(s));
}

namespace {

/** Sanitized candidate tile heights: validated, deduplicated, sorted,
 *  with 1 always present so the chain subspace stays reachable. */
std::vector<int>
sanitizedTileHeights(const SweepOptions &opt)
{
    std::vector<int> tiles = opt.tileHeights;
    tiles.push_back(1);
    for (int t : tiles) {
        if (t < 1 || t > kMaxTileH)
            fatal("tile height %d outside [1, %d]", t, kMaxTileH);
    }
    std::sort(tiles.begin(), tiles.end());
    tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
    return tiles;
}

/** True when every windowed layer of stages [a, b] shares one stride
 *  (the USEFUSE applicability condition). */
bool
uniformStrideOk(const Network &net, int a, int b)
{
    int fl, ll;
    groupLayerRange(net, StageGroup{a, b}, fl, ll);
    int stride = 0;
    for (int i = fl; i <= ll; i++) {
        const LayerSpec &spec = net.layer(i);
        if (!spec.windowed())
            continue;
        if (stride == 0)
            stride = spec.stride;
        else if (spec.stride != stride)
            return false;
    }
    return true;
}

/** The surface axes of a cost, in the front's sort order. */
ParetoPoint3
surfaceAxes(const ScheduleCost &c)
{
    return ParetoPoint3{c.latencyCycles, c.energyPj, c.bufferBytes()};
}

/** All priced variants of fusing stages [a, b] in the LoopTree space.
 *  Per tile height: the all-retain pyramid, a greedy retain-mask
 *  ladder (boundaries recomputed in ascending ops-per-saved-byte
 *  order — the convex sequence of the per-boundary trade), and the
 *  alternative dataflows where applicable. */
std::vector<std::pair<GroupSchedule, ScheduleCost>>
groupVariants(SchedulePricer &pricer, int a, int b,
              const std::vector<int> &tiles, const SweepOptions &opt)
{
    const Network &net = pricer.network();
    std::vector<std::pair<GroupSchedule, ScheduleCost>> vars;
    const bool multi = b > a;
    const bool us_ok =
        opt.uniformStride && multi && uniformStrideOk(net, a, b);
    for (int t : tiles) {
        GroupSchedule base{a, b, t, Dataflow::Pyramid, ~0u};
        const ScheduleCost base_cost = pricer.priceGroup(base);
        vars.emplace_back(base, base_cost);

        if (opt.perLayerRecompute && multi) {
            const uint32_t meaningful = meaningfulRetainBits(net, base);
            struct Bit
            {
                int k;
                int64_t ops;    // recompute cost of flipping this bit
                int64_t bytes;  // retained bytes the flip frees
            };
            std::vector<Bit> bits;
            for (int k = 0; k < 32; k++) {
                if (!((meaningful >> k) & 1u))
                    continue;
                GroupSchedule one = base;
                one.retainMask = ~0u & ~(uint32_t{1} << k);
                const ScheduleCost oc = pricer.priceGroup(one);
                bits.push_back(Bit{k, oc.extraOps,
                                   base_cost.storageBytes -
                                       oc.storageBytes});
            }
            // Cheapest recompute per saved byte first (integer
            // cross-multiplied ratio; bit index breaks ties).
            std::sort(bits.begin(), bits.end(),
                      [](const Bit &x, const Bit &y) {
                          const __int128 lhs =
                              static_cast<__int128>(x.ops) * y.bytes;
                          const __int128 rhs =
                              static_cast<__int128>(y.ops) * x.bytes;
                          if (lhs != rhs)
                              return lhs < rhs;
                          return x.k < y.k;
                      });
            uint32_t mask = ~0u;
            for (const Bit &bit : bits) {
                mask &= ~(uint32_t{1} << bit.k);
                GroupSchedule g = base;
                g.retainMask = mask;
                vars.emplace_back(g, pricer.priceGroup(g));
            }
        }
        if (opt.independentTiles && multi) {
            GroupSchedule g{a, b, t, Dataflow::Independent, ~0u};
            vars.emplace_back(g, pricer.priceGroup(g));
        }
        if (us_ok) {
            GroupSchedule g{a, b, t, Dataflow::UniformStride, ~0u};
            vars.emplace_back(g, pricer.priceGroup(g));
        }
    }
    return vars;
}

/** Keep at most @p cap members of an already-Pareto, already-sorted
 *  frontier, evenly spaced so both extremes and the middle survive. */
template <typename T>
void
truncateEvenly(std::vector<T> &front, int cap)
{
    const size_t n = front.size();
    if (cap <= 0 || n <= static_cast<size_t>(cap))
        return;
    std::vector<T> kept;
    kept.reserve(static_cast<size_t>(cap));
    for (int i = 0; i < cap; i++) {
        const size_t at =
            (static_cast<size_t>(i) * (n - 1)) /
            static_cast<size_t>(cap - 1);
        if (kept.empty() || at != (static_cast<size_t>(i - 1) * (n - 1)) /
                                      static_cast<size_t>(cap - 1))
            kept.push_back(std::move(front[at]));
    }
    front = std::move(kept);
}

/**
 * Chain-space enumeration over a contiguous cut-mask range.
 *
 * Cut bit s separates stages s and s+1, so masks sharing their high
 * bits form contiguous ranges and agree on every group above the
 * lowest decided cut. Walking the bits from the highest down and
 * carrying the cost sums of the groups completed so far makes each of
 * the 2^(l-1) partitions O(1) amortized: the per-group table lookups
 * happen once per tree edge, not once per leaf below it. Two sums ride
 * down the tree, the GroupCostCache cells (the Figure 7 axes) and the
 * fully priced ScheduleCost (the surface axes). All sums are integers
 * and each leaf writes only its own mask's slots, so parallel [lo, hi)
 * chunks reproduce the serial enumeration bit for bit.
 */
struct ChainWalk
{
    const GroupCostCache &cache;
    const std::vector<ScheduleCost> &cost3;  //!< stages x stages
    int stages;
    std::vector<DesignPoint> &points;
    std::vector<ParetoPoint3> &axes;
    int64_t lo, hi;
    // Groups completed on the current path, highest stage range first.
    StageGroup done[32];
    int num_done = 0;

    const ScheduleCost &
    full(int a, int b) const
    {
        return cost3[static_cast<size_t>(a) * stages + b];
    }

    void
    emit(int64_t mask, const GroupCostCache::Cell &sum, ScheduleCost cost,
         int open_end)
    {
        DesignPoint &d = points[static_cast<size_t>(mask)];
        const GroupCostCache::Cell &c = cache.cell(0, open_end);
        d.storageBytes = sum.storage + c.storage;
        d.transferBytes = sum.transfer + c.transfer;
        d.extraOps = sum.extra + c.extra;
        d.partition.resize(static_cast<size_t>(num_done) + 1);
        d.partition[0] = StageGroup{0, open_end};
        for (int i = 0; i < num_done; i++)  // reverse: lowest range first
            d.partition[static_cast<size_t>(i) + 1] =
                done[num_done - 1 - i];
        cost += full(0, open_end);
        axes[static_cast<size_t>(mask)] = surfaceAxes(cost);
    }

    void
    walk(int bit, int64_t prefix, const GroupCostCache::Cell &sum,
         const ScheduleCost &cost, int open_end)
    {
        if (bit < 0) {
            if (prefix >= lo && prefix < hi)
                emit(prefix, sum, cost, open_end);
            return;
        }
        const int64_t span = int64_t{1} << bit;
        if (prefix < hi && prefix + span > lo)  // bit clear: no cut
            walk(bit - 1, prefix, sum, cost, open_end);
        const int64_t p1 = prefix + span;  // bit set: cut after stage bit
        if (p1 < hi && p1 + span > lo) {
            const GroupCostCache::Cell &c = cache.cell(bit + 1, open_end);
            const GroupCostCache::Cell next{sum.storage + c.storage,
                                            sum.transfer + c.transfer,
                                            sum.extra + c.extra};
            ScheduleCost next_cost = cost;
            next_cost += full(bit + 1, open_end);
            done[num_done++] = StageGroup{bit + 1, open_end};
            walk(bit - 1, p1, next, next_cost, bit);
            num_done--;
        }
    }
};

/** Chain-space sweep: the paper's 2^(l-1) partitions with their
 *  Figure 7 costs, plus the full-axis surface. */
void
runChainSweep(const Network &net, SchedulePricer &pricer,
              SweepResult &res)
{
    const int stages = static_cast<int>(net.stages().size());

    // Pre-price every stage range's full cost vector serially (the
    // pricer is not thread-safe); the parallel walk below then only
    // sums plain structs.
    std::vector<ScheduleCost> cost3(
        static_cast<size_t>(stages) * static_cast<size_t>(stages));
    for (int a = 0; a < stages; a++)
        for (int b = a; b < stages; b++)
            cost3[static_cast<size_t>(a) * stages + b] = pricer.priceGroup(
                GroupSchedule{a, b, 1, Dataflow::Pyramid, ~0u});

    // Each point lands at its cut-mask index, so the result order, and
    // every Pareto tie-break downstream, matches a serial
    // forEachPartition sweep at any thread count.
    const int64_t count = countPartitions(stages);
    res.points.resize(static_cast<size_t>(count));
    std::vector<ParetoPoint3> axes(static_cast<size_t>(count));
    parallelFor(
        0, count,
        [&](int64_t lo, int64_t hi) {
            ChainWalk w{pricer.chainCache(), cost3, stages, res.points,
                        axes, lo, hi, {}, 0};
            w.walk(stages - 2, 0, {}, {}, stages - 1);
        },
        /*grain=*/512);
    res.pointsVisited = count;

    // Index-based front extraction: only the handful of surviving
    // points get copied, not all 2^(l-1).
    for (size_t i : paretoFrontIndices(res.points))
        res.legacyFront.push_back(res.points[i]);

    auto fullCost = [&](const Partition &p) {
        ScheduleCost full;
        for (const StageGroup &g : p)
            full += cost3[static_cast<size_t>(g.firstStage) * stages +
                          g.lastStage];
        return full;
    };
    for (const DesignPoint &d : res.legacyFront)
        res.chainFront.push_back(
            SweepPoint{chainSchedule(d.partition), fullCost(d.partition)});
    for (size_t i : paretoFrontIndices3(axes)) {
        const Partition &p = res.points[i].partition;
        res.front.push_back(SweepPoint{chainSchedule(p), fullCost(p)});
    }
}

/** LoopTree-space sweep: budget-capped prefix DP over priced group
 *  variants, with the exact chain front merged into the final pool. */
void
runLoopTreeSweep(const Network &net, const SweepOptions &opt,
                 SchedulePricer &pricer, SweepResult &res)
{
    const int stages = static_cast<int>(net.stages().size());
    const std::vector<int> tiles = sanitizedTileHeights(opt);

    // Variant tables per stage range.
    std::vector<std::vector<std::pair<GroupSchedule, ScheduleCost>>> vars(
        static_cast<size_t>(stages) * static_cast<size_t>(stages));
    int64_t transitions = 0;
    for (int a = 0; a < stages; a++) {
        for (int b = a; b < stages; b++) {
            auto &v = vars[static_cast<size_t>(a) * stages + b];
            v = groupVariants(pricer, a, b, tiles, opt);
            transitions += static_cast<int64_t>(v.size());
        }
    }

    const int cap =
        opt.frontierCap > 0
            ? opt.frontierCap
            : static_cast<int>(std::clamp<int64_t>(
                  opt.pointBudget / std::max<int64_t>(1, transitions), 4,
                  4096));
    res.frontierCapUsed = cap;

    // F[j]: pruned frontier of schedules covering stages [0, j).
    struct Cand
    {
        Schedule sched;
        ScheduleCost cost;
    };
    std::vector<std::vector<Cand>> F(static_cast<size_t>(stages) + 1);
    F[0].push_back(Cand{});
    struct PoolEntry
    {
        ScheduleCost cost;
        int i;     // prefix length extended from
        int base;  // index into F[i]
        int var;   // index into vars[i][j - 1]
    };
    for (int j = 1; j <= stages; j++) {
        std::vector<PoolEntry> pool;
        for (int i = 0; i < j; i++) {
            const auto &v =
                vars[static_cast<size_t>(i) * stages + (j - 1)];
            for (size_t bi = 0; bi < F[static_cast<size_t>(i)].size();
                 bi++) {
                const Cand &base = F[static_cast<size_t>(i)][bi];
                for (size_t vi = 0; vi < v.size(); vi++) {
                    ScheduleCost c = base.cost;
                    c += v[vi].second;
                    pool.push_back(PoolEntry{c, i, static_cast<int>(bi),
                                             static_cast<int>(vi)});
                }
            }
        }
        res.pointsVisited += static_cast<int64_t>(pool.size());

        std::vector<ParetoPoint3> axes;
        axes.reserve(pool.size());
        for (const PoolEntry &e : pool)
            axes.push_back(surfaceAxes(e.cost));
        std::vector<size_t> keep = paretoFrontIndices3(axes);
        truncateEvenly(keep, cap);

        auto &out = F[static_cast<size_t>(j)];
        out.reserve(keep.size());
        for (size_t idx : keep) {
            const PoolEntry &e = pool[idx];
            Cand c;
            c.sched =
                F[static_cast<size_t>(e.i)][static_cast<size_t>(e.base)]
                    .sched;
            c.sched.groups.push_back(
                vars[static_cast<size_t>(e.i) * stages + (j - 1)]
                    [static_cast<size_t>(e.var)]
                        .first);
            c.cost = e.cost;
            out.push_back(std::move(c));
        }
    }

    // Exact chain front by the same prefix DP on the 2-objective
    // (storage, transfer) axes — additive costs make the prefix-front
    // recursion exact, so the values reproduce the Chain space's
    // front without enumerating 2^(l-1) points.
    const GroupCostCache &cache = pricer.chainCache();
    struct ChainCand
    {
        Partition part;
        int64_t storage = 0;
        int64_t transfer = 0;
    };
    std::vector<std::vector<ChainCand>> G(static_cast<size_t>(stages) +
                                          1);
    G[0].push_back(ChainCand{});
    for (int j = 1; j <= stages; j++) {
        std::vector<ChainCand> pool;
        for (int i = 0; i < j; i++) {
            const GroupCostCache::Cell &cell = cache.cell(i, j - 1);
            for (const ChainCand &base : G[static_cast<size_t>(i)]) {
                ChainCand c = base;
                c.part.push_back(StageGroup{i, j - 1});
                c.storage += cell.storage;
                c.transfer += cell.transfer;
                pool.push_back(std::move(c));
            }
        }
        res.pointsVisited += static_cast<int64_t>(pool.size());
        std::vector<DesignPoint> pts(pool.size());
        for (size_t i = 0; i < pool.size(); i++) {
            pts[i].storageBytes = pool[i].storage;
            pts[i].transferBytes = pool[i].transfer;
        }
        for (size_t i : paretoFrontIndices(pts))
            G[static_cast<size_t>(j)].push_back(std::move(pool[i]));
    }
    for (const ChainCand &c : G[static_cast<size_t>(stages)]) {
        Schedule s = chainSchedule(c.part);
        ScheduleCost full;
        for (const GroupSchedule &g : s.groups)
            full += pricer.priceGroup(g);
        res.chainFront.push_back(SweepPoint{std::move(s), full});
    }

    // Final surface: the DP frontier merged with the chain front, so
    // the result dominates or matches the chain-only frontier by
    // construction.
    std::vector<SweepPoint> finalPool;
    for (Cand &c : F[static_cast<size_t>(stages)])
        finalPool.push_back(
            SweepPoint{std::move(c.sched), c.cost});
    for (const SweepPoint &p : res.chainFront)
        finalPool.push_back(p);
    std::vector<ParetoPoint3> axes;
    axes.reserve(finalPool.size());
    for (const SweepPoint &p : finalPool)
        axes.push_back(surfaceAxes(p.cost));
    for (size_t i : paretoFrontIndices3(axes))
        res.front.push_back(std::move(finalPool[i]));
}

} // namespace

SweepResult
runSweep(const Network &net, const SweepOptions &opt)
{
    const int stages = static_cast<int>(net.stages().size());
    FLCNN_ASSERT(stages >= 1 && stages <= 30,
                 "stage count out of sweepable range");

    const auto t0 = std::chrono::steady_clock::now();
    SweepResult res;
    res.space = opt.space;
    SchedulePricer pricer(net, opt.cost, opt.machine);
    if (opt.space == Space::Chain)
        runChainSweep(net, pricer, res);
    else
        runLoopTreeSweep(net, opt, pricer, res);
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return res;
}

std::vector<Schedule>
neighborSchedules(const Network &net, const Schedule &s,
                  const SweepOptions &opt)
{
    const std::vector<int> tiles = sanitizedTileHeights(opt);
    std::vector<Schedule> out;
    std::unordered_set<uint64_t> seen;
    seen.insert(scheduleHash(net, s));
    auto push = [&](Schedule n) {
        n = canonicalSchedule(net, std::move(n));
        if (!validateSchedule(net, n).empty())
            return;
        if (seen.insert(scheduleHash(net, n)).second)
            out.push_back(std::move(n));
    };

    for (size_t gi = 0; gi < s.groups.size(); gi++) {
        const GroupSchedule &g = s.groups[gi];
        // Adjacent tile heights.
        const auto at =
            std::lower_bound(tiles.begin(), tiles.end(), g.tileH);
        if (at != tiles.begin()) {
            Schedule n = s;
            n.groups[gi].tileH = *std::prev(at);
            push(std::move(n));
        }
        if (at != tiles.end() && std::next(at) != tiles.end()) {
            Schedule n = s;
            n.groups[gi].tileH = *std::next(at);
            push(std::move(n));
        }
        // Alternative dataflows.
        if (g.size() > 1) {
            for (Dataflow f : {Dataflow::Pyramid, Dataflow::Independent,
                               Dataflow::UniformStride}) {
                if (f == g.flow)
                    continue;
                if (f == Dataflow::Independent && !opt.independentTiles)
                    continue;
                if (f == Dataflow::UniformStride &&
                    (!opt.uniformStride ||
                     !uniformStrideOk(net, g.firstStage, g.lastStage)))
                    continue;
                Schedule n = s;
                n.groups[gi].flow = f;
                n.groups[gi].retainMask = ~0u;
                push(std::move(n));
            }
        }
        // Single retain-bit flips.
        if (opt.perLayerRecompute && g.flow == Dataflow::Pyramid) {
            const uint32_t meaningful = meaningfulRetainBits(net, g);
            for (int k = 0; k < 32; k++) {
                if (!((meaningful >> k) & 1u))
                    continue;
                Schedule n = s;
                n.groups[gi].retainMask ^= uint32_t{1} << k;
                push(std::move(n));
            }
        }
    }
    return out;
}

namespace {

void
writePoint(std::FILE *f, const Network &net, const SweepPoint &p,
           const char *indent, bool last)
{
    const ScheduleCost &c = p.cost;
    std::fprintf(
        f,
        "%s{\"schedule\": \"%s\", \"storage_bytes\": %lld, "
        "\"working_bytes\": %lld, \"buffer_bytes\": %lld, "
        "\"transfer_bytes\": %lld, \"extra_ops\": %lld, "
        "\"latency_cycles\": %lld, \"energy_pj\": %lld, "
        "\"exact\": %s}%s\n",
        indent, scheduleStr(net, p.schedule).c_str(),
        static_cast<long long>(c.storageBytes),
        static_cast<long long>(c.workingBytes),
        static_cast<long long>(c.bufferBytes()),
        static_cast<long long>(c.transferBytes),
        static_cast<long long>(c.extraOps),
        static_cast<long long>(c.latencyCycles),
        static_cast<long long>(c.energyPj),
        c.exact() ? "true" : "false", last ? "" : ",");
}

} // namespace

void
writeParetoJson(std::FILE *f, const Network &net, const SweepOptions &opt,
                const SweepResult &res)
{
    const double pps =
        res.seconds > 0.0
            ? static_cast<double>(res.pointsVisited) / res.seconds
            : 0.0;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"flcnn-pareto-v1\",\n");
    std::fprintf(f, "  \"net\": \"%s\",\n", net.name().c_str());
    std::fprintf(f, "  \"space\": \"%s\",\n", spaceName(res.space));
    std::fprintf(f, "  \"precision\": \"%s\",\n",
                 precisionName(opt.cost.dtype));
    std::fprintf(f, "  \"stages\": %zu,\n", net.stages().size());
    std::fprintf(f, "  \"points_visited\": %lld,\n",
                 static_cast<long long>(res.pointsVisited));
    std::fprintf(f, "  \"seconds\": %.6f,\n", res.seconds);
    std::fprintf(f, "  \"points_per_sec\": %.1f,\n", pps);
    std::fprintf(f, "  \"frontier_cap\": %d,\n", res.frontierCapUsed);
    std::fprintf(f, "  \"frontier_size\": %zu,\n", res.front.size());
    std::fprintf(f, "  \"frontier\": [\n");
    for (size_t i = 0; i < res.front.size(); i++)
        writePoint(f, net, res.front[i], "    ",
                   i + 1 == res.front.size());
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"chain_front\": [\n");
    for (size_t i = 0; i < res.chainFront.size(); i++)
        writePoint(f, net, res.chainFront[i], "    ",
                   i + 1 == res.chainFront.size());
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
}

} // namespace dse
} // namespace flcnn
