/**
 * @file
 * Tiling-schedule IR for the LoopTree-class design-space explorer.
 *
 * The paper's explorer (runSweep's Chain space, dse/sweep.hh) decides
 * one thing per design: where to cut the stage chain into fused
 * groups, with one global reuse-vs-recompute story. LoopTree (PAPERS.md) shows the real
 * space is richer; this IR captures the enlarged space while staying a
 * strict superset of the chain space:
 *
 *  - per group, a **tile height**: pyramids whose tip is tileH output
 *    rows instead of the paper's 1-row caterpillar step;
 *  - per group, a **dataflow**: the paper's halo-carrying Pyramid,
 *    Block-Convolution-style Independent tiles whose halos are
 *    zero-padded instead of communicated (approximate at the tile
 *    seams), or USEFUSE's uniform-stride output-stationary variant
 *    (row-halo-only storage; requires one stride across the group);
 *  - per *layer boundary* inside a Pyramid group, a retain-vs-recompute
 *    bit: keep the halo in BL/BT reuse buffers, or re-derive it from
 *    the producer (the paper's recompute model, applied per boundary
 *    instead of all-or-nothing).
 *
 * A Schedule whose every group is {tileH = 1, Pyramid, all-retain} is
 * exactly a chain Partition, and the pricer guarantees it prices
 * bit-identically to its GroupCostCache cells.
 */

#ifndef FLCNN_DSE_SCHEDULE_HH
#define FLCNN_DSE_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fusion/fusion_plan.hh"
#include "model/partition.hh"
#include "nn/network.hh"

namespace flcnn {
namespace dse {

/** How a group's tiles relate to their neighbors. */
enum class Dataflow : uint8_t
{
    /** The paper's pyramid: halos carried between tiles through BL/BT
     *  reuse buffers (or recomputed, per the retain mask). Exact. */
    Pyramid = 0,

    /** Block Convolution (PAPERS.md): every tile is independent, halos
     *  are zero-padded away. No inter-tile storage or recompute, but
     *  tile-seam outputs differ from the reference — approximate. */
    Independent = 1,

    /** USEFUSE (PAPERS.md): uniform-stride output-stationary dataflow.
     *  Only row (BT) halos are kept — the column (BL) state rides the
     *  output-stationary accumulators — and intermediate rows stream
     *  through the MAC array once instead of bouncing through SRAM.
     *  Requires every windowed layer in the group to share one stride.
     *  Exact. */
    UniformStride = 2,
};

/** Lower-case display name ("pyramid", "independent", "uniform"). */
const char *dataflowName(Dataflow f);

/** One fused group's schedule. */
struct GroupSchedule
{
    int firstStage = 0;
    int lastStage = 0;

    /** Output rows per pyramid tip tile (1 = the paper's row step). */
    int tileH = 1;

    Dataflow flow = Dataflow::Pyramid;

    /**
     * Bit k = the k-th windowed layer of the group's layer range keeps
     * its halo in reuse buffers; a clear bit recomputes it from the
     * producer instead. Bits that cannot change the design's cost —
     * the first windowed layer (its halo spans the group *input*,
     * which is loaded, never computed), overlap-free windows, and all
     * bits under non-Pyramid dataflows — are forced to 1 by
     * canonicalization. Defaults to all-retain, the paper's model.
     */
    uint32_t retainMask = ~0u;

    int size() const { return lastStage - firstStage + 1; }

    friend bool
    operator==(const GroupSchedule &a, const GroupSchedule &b)
    {
        return a.firstStage == b.firstStage && a.lastStage == b.lastStage &&
               a.tileH == b.tileH && a.flow == b.flow &&
               a.retainMask == b.retainMask;
    }
};

/** A complete candidate: ordered, contiguous, exhaustive groups. */
struct Schedule
{
    std::vector<GroupSchedule> groups;

    friend bool
    operator==(const Schedule &a, const Schedule &b)
    {
        return a.groups == b.groups;
    }
};

/** Largest tile height the IR admits (TilePlan geometry stays exact
 *  well past any plane height in the zoo). */
constexpr int kMaxTileH = 4096;

/**
 * Validate @p s against @p net: groups must cover the fusable stages
 * contiguously and exhaustively, tile heights must lie in
 * [1, kMaxTileH], and UniformStride groups must have one common stride
 * across their windowed layers. Returns an error message, or the empty
 * string when valid.
 */
std::string validateSchedule(const Network &net, const Schedule &s);

/**
 * Mask of retain bits that can change a Pyramid group's cost: windowed
 * layers beyond the first whose window overlaps (kernel > stride) or
 * whose in-group producer performs priced arithmetic. Everything else
 * is forced to "retain" by canonicalization.
 */
uint32_t meaningfulRetainBits(const Network &net, const GroupSchedule &g);

/**
 * Canonical form of @p s (which must validate): moot retain bits set,
 * non-Pyramid retain masks saturated, and single-stage groups pinned
 * to the Pyramid dataflow (the alternatives are indistinguishable
 * there). Two schedules describing the same design canonicalize — and
 * therefore hash — identically.
 */
Schedule canonicalSchedule(const Network &net, Schedule s);

/** FNV-1a hash of the canonical form of @p s. */
uint64_t scheduleHash(const Network &net, const Schedule &s);

/** Lift a chain partition into the IR: every group {tileH = 1,
 *  Pyramid, all-retain}. */
Schedule chainSchedule(const Partition &p);

/** True when @p s lies in the chain subspace (the paper's partition
 *  space): 1-row pyramid tiles, all halos retained. */
bool isChainRestricted(const Network &net, const Schedule &s);

/** The stage partition @p s induces (tile and dataflow info dropped). */
Partition schedulePartition(const Schedule &s);

/**
 * Render as extended paper notation: group sizes, with ":t<h>" for
 * multi-row tiles, ":ind"/":us" for non-Pyramid dataflows, and
 * ":r<mask>" (hex) naming recomputed boundaries — e.g.
 * "(3:t4, 2:r6, 1)".
 */
std::string scheduleStr(const Network &net, const Schedule &s);

/**
 * Why @p s cannot be executed by the host executors, or the empty
 * string when it can: every group must be a Pyramid retaining all its
 * meaningful halos (any tile height: full-width tiles of tileH rows
 * realize it). Invalid schedules return the validation error.
 */
std::string scheduleExecutableReason(const Network &net,
                                     const Schedule &s);

/**
 * Lower @p s onto @p plan (declaring its layers if it has no ops): one
 * FusedExecutor per group, singletons included, over tiles of tileH rows
 * x the output width, halos retained, @p opt for the rest. Returns
 * UnsupportedSchedule, with scheduleExecutableReason() as diagnostic(),
 * or compile()'s status; a compiled plan matches nn::runRange bit-exactly.
 */
CompileStatus compileSchedule(FusionPlan &plan, const Schedule &s,
                              const PlanCompileOptions &opt);

} // namespace dse
} // namespace flcnn

#endif // FLCNN_DSE_SCHEDULE_HH
