/**
 * @file
 * Sweep engine over the tiling-schedule space.
 *
 * Two spaces:
 *
 *  - **Chain** is the paper's Section V tool: it enumerates all 2^(l-1)
 *    partitions of the stage chain by a walk over the cut-mask tree
 *    that carries the GroupCostCache cell sums (the Figure 7 storage /
 *    transfer / recompute axes) and the fully priced ScheduleCost sum
 *    down each edge. Every point lands at its cut-mask index, the
 *    forEachPartition order, at any thread count. The 2-objective
 *    front is the Figure 7 frontier; the full latency/energy/buffer
 *    axes give the 3-objective surface.
 *
 *  - **LoopTree** explores the enlarged space (tile heights, per-layer
 *    retain-vs-recompute, Independent and UniformStride dataflows)
 *    with a prefix dynamic program: F[j] = the pruned frontier of
 *    schedules covering stages [0, j). Costs are additive over groups,
 *    so extending a frontier member with a priced group variant is
 *    exact; pruning keeps each prefix's 3-objective front, truncated
 *    to a cap derived from the point budget so million-point sweeps
 *    stay interactive. The chain subspace's exact 2-objective front is
 *    swept separately (same prefix DP, no cap — exact for additive
 *    costs) and merged into the final pool, so the emitted surface
 *    dominates or matches the chain-only frontier by construction.
 */

#ifndef FLCNN_DSE_SWEEP_HH
#define FLCNN_DSE_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <vector>

#include "dse/pricer.hh"
#include "dse/schedule.hh"
#include "model/pareto.hh"

namespace flcnn {
namespace dse {

/** Which schedule space to sweep. */
enum class Space
{
    Chain,     //!< the paper's partitions (the Figure 7 space)
    LoopTree,  //!< tiles + per-layer recompute + alternative dataflows
};

const char *spaceName(Space s);

/** Sweep configuration. */
struct SweepOptions
{
    Space space = Space::Chain;

    /** Candidate pyramid tile heights (LoopTree space). Deduplicated
     *  and sorted; must contain 1 or include it implicitly (it is
     *  added when missing so the chain subspace stays reachable). */
    std::vector<int> tileHeights = {1, 2, 4, 8};

    /** Enumerate per-boundary retain-vs-recompute masks (LoopTree). */
    bool perLayerRecompute = true;

    /** Offer Block-Convolution independent tiles (LoopTree). */
    bool independentTiles = true;

    /** Offer USEFUSE uniform-stride dataflow where strides allow. */
    bool uniformStride = true;

    /** Approximate cap on priced candidate combinations in the
     *  LoopTree DP; the per-prefix frontier cap is derived from it. */
    int64_t pointBudget = 1'000'000;

    /** Explicit per-prefix frontier cap; 0 derives it from the
     *  budget. */
    int frontierCap = 0;

    /** Cost-model switches: storage model, weight residency,
     *  recompute pricing and element type (see GroupCostOptions). */
    GroupCostOptions cost;

    /** Latency-model knobs. */
    MachineModel machine;
};

/** One surfaced design. */
struct SweepPoint
{
    Schedule schedule;
    ScheduleCost cost;
};

/** Result of one sweep. */
struct SweepResult
{
    Space space = Space::Chain;
    int64_t pointsVisited = 0;  //!< priced candidates (all passes)
    double seconds = 0.0;       //!< wall time of the sweep proper
    int frontierCapUsed = 0;    //!< LoopTree per-prefix cap (0 in Chain)

    /** The latency/energy/buffer Pareto surface, ascending latency. */
    std::vector<SweepPoint> front;

    /** The chain subspace's exact storage/transfer front, fully
     *  priced — the paper's Figure 7 frontier on the new axes. */
    std::vector<SweepPoint> chainFront;

    /** Chain space only: the full enumeration in cut-mask order and
     *  its 2-objective (storage, transfer) front, ascending storage:
     *  front() is Figure 7's point A, back() the minimum-transfer
     *  point. */
    std::vector<DesignPoint> points;
    std::vector<DesignPoint> legacyFront;
};

/** Run a sweep over @p net's fusable stages. */
SweepResult runSweep(const Network &net, const SweepOptions &opt);

/**
 * Single-change neighbors of @p s inside the option'd space: per
 * group, adjacent tile heights, alternative dataflows, and one
 * meaningful retain-bit flip. Canonicalized and deduplicated; the
 * local-search companion to SchedulePricer::repriceGroup().
 */
std::vector<Schedule> neighborSchedules(const Network &net,
                                        const Schedule &s,
                                        const SweepOptions &opt);

/**
 * Write the sweep's Pareto surfaces as JSON (schema
 * "flcnn-pareto-v1"): run metadata, the 3-objective frontier, and the
 * chain front, each point carrying every cost axis plus its schedule
 * string and exactness flag.
 */
void writeParetoJson(std::FILE *f, const Network &net,
                     const SweepOptions &opt, const SweepResult &res);

} // namespace dse
} // namespace flcnn

#endif // FLCNN_DSE_SWEEP_HH
