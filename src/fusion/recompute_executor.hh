/**
 * @file
 * RecomputeExecutor: the paper's *recompute* strategy (Section III-C).
 *
 * Each pyramid is evaluated completely independently: every layer
 * computes its entire input-tile-to-output-tile transformation from
 * scratch, recomputing the intermediate values that overlap with
 * neighboring pyramids instead of caching them. No reuse buffers exist;
 * the cost is redundant arithmetic (and redundant re-loading of the
 * overlapping first-layer input), which this executor measures so the
 * analytic recompute model can be validated against it (DESIGN.md
 * invariant 7).
 */

#ifndef FLCNN_FUSION_RECOMPUTE_EXECUTOR_HH
#define FLCNN_FUSION_RECOMPUTE_EXECUTOR_HH

#include <vector>

#include "fusion/plan.hh"
#include "kernels/conv_layer.hh"
#include "kernels/weight_pack.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/weights.hh"
#include "obs/metrics.hh"
#include "tune/solver.hh"

namespace flcnn {

/** Functional fused-layer executor under the recompute strategy. */
class RecomputeExecutor
{
  public:
    RecomputeExecutor(const Network &net, const NetworkWeights &weights,
                      TilePlan plan);

    /** Evaluate the fusion group on @p input. */
    Tensor run(const Tensor &input, RunStats *stats = nullptr);

    /** As run(), but write the group output into @p out (shape must
     *  equal plan().groupOutput()). Every output element is stored by
     *  some pyramid, so @p out need not be zero-filled — on the
     *  serving hot path it is an arena-backed view and this call
     *  performs no output allocation. */
    void runInto(const Tensor &input, Tensor *out,
                 RunStats *stats = nullptr);

    const TilePlan &plan() const { return tplan; }

    /**
     * Run subsequent pyramids under @p prec's precision mode: conv
     * source tiles are staged into the mode's compute format and the
     * mode's kernels produce the output tile (kernels/conv_layer.hh).
     * Results are bit-identical to the precision reference. Pass
     * nullptr for plain fp32. The state must outlive the executor.
     */
    void
    setPrecision(const NetPrecision *prec)
    {
        precision = prec;
        plannedRev = -1;
    }

    /**
     * Opt in to the fast-math conv tier (tune/solver.hh) for
     * subsequent fp32 runs: FMA kernels, ULP-bounded rather than
     * bit-identical. Off by default; int8/fp16 modes stay exact.
     */
    void
    setFastMath(bool enable)
    {
        fastMath = enable;
        plannedRev = -1;
    }

    /** Record per-fused-layer breakdowns of subsequent runs into @p m
     *  (same scopes and names as FusedExecutor::setMetrics). Pass
     *  nullptr to detach. */
    void setMetrics(MetricsRegistry *m) { metrics = m; }

  private:
    void computeLayer(int li, int r, int c, const Tensor &input);

    const Network &net;
    const NetworkWeights &weights;
    TilePlan tplan;

    /** tiles[li]: output tile of fused layer li for the current pyramid,
     *  anchored at (outY[r].begin, outX[c].begin). tiles[-1] conceptually
     *  is the loaded input tile, stored in inTile. */
    std::vector<Tensor> tiles;
    std::vector<Span> tileY, tileX;
    std::vector<ConvStage> stages;  //!< staged conv inputs (non-fp32)
    std::vector<ConvPlan> plans;    //!< conv plans, refreshed per run
    Tensor inTile;
    Span inTileY, inTileX;
    RunStats curStats;
    WeightPackCache packCache;  //!< per-fused-layer packed conv banks
    const NetPrecision *precision = nullptr;
    bool fastMath = false;
    MetricsRegistry *metrics = nullptr;
    int64_t lastPackHits = 0;
    int64_t lastPackMisses = 0;
    int64_t plannedRev = -1;  //!< TuneCache revision of `plans`
                              //!< (-1 = never planned)
};

} // namespace flcnn

#endif // FLCNN_FUSION_RECOMPUTE_EXECUTOR_HH
