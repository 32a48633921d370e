/**
 * @file
 * Arithmetic cost of the recompute model (Section III-C).
 *
 * Two models:
 *
 *  1. recomputeOpsForPlan(): the exact operation count of evaluating a
 *     fusion plan with no reuse buffers (every pyramid recomputes its
 *     whole slice at every level). This matches the measured tally of
 *     FusedExecutor under Halo::Recompute identically (DESIGN.md
 *     invariant 7): per layer,
 *     ops = (sum of output-span heights) * (sum of output-span widths)
 *           * channels * per-point cost.
 *
 *  2. pairwiseRecomputeExtraOps(): the paper's simpler pairwise-overlap
 *     estimate — each intermediate point feeding a K x K / stride-S
 *     consumer is used by ceil(K/S)^2 pyramids and recomputed for each
 *     use. This is what produces the "678 million extra operations for
 *     AlexNet's first two layers" style numbers in Section III-C.
 */

#ifndef FLCNN_MODEL_RECOMPUTE_HH
#define FLCNN_MODEL_RECOMPUTE_HH

#include "common/opcount.hh"
#include "fusion/plan.hh"
#include "model/partition.hh"
#include "nn/network.hh"

namespace flcnn {

/** Exact operation count of evaluating @p plan under the recompute
 *  strategy (no reuse buffers). */
OpCount recomputeOpsForPlan(const Network &net, const TilePlan &plan);

/** Extra mult-adds of the recompute strategy over the baseline for the
 *  group (exact model): recompute ops minus the reference ops. */
int64_t recomputeExtraMultAdds(const Network &net, int first_layer,
                               int last_layer);

/**
 * The paper's pairwise estimate of extra mult-adds for a fused group:
 * every produced intermediate point consumed by a windowed layer inside
 * the group is recomputed (ceil(K/S))^2 - 1 extra times at its direct
 * production cost.
 */
int64_t pairwiseRecomputeExtraMultAdds(const Network &net, int first_layer,
                                       int last_layer);

/** Per-point mult-add cost of the layer that produced plane values
 *  (conv and LRN produce; pool/relu/pad cost no mult-adds). The
 *  per-boundary building block of the pairwise model, exposed for the
 *  schedule pricer's per-layer retain-vs-recompute choice. */
int64_t producerPointMultAdds(const Network &net, int layer_idx);

/**
 * Nearest value-producing layer feeding windowed layer @p w from
 * inside [@p first_layer, w), walking back through Pad and pointwise
 * companions (stopping at LRN, which produces new values); -1 when the
 * halo comes from the group input. The other half of the pairwise
 * model's boundary walk, shared with the schedule pricer so both
 * price the same producer.
 */
int recomputeProducerLayer(const Network &net, int first_layer, int w);

/** Pairwise extra mult-adds summed over a partition's groups. */
int64_t partitionPairwiseRecomputeExtraMultAdds(const Network &net,
                                                const Partition &p);

} // namespace flcnn

#endif // FLCNN_MODEL_RECOMPUTE_HH
