/**
 * @file
 * Executor bridge: run the subset of schedules the host-side fused
 * executors realize, for spot differential validation of priced
 * designs.
 *
 * The IR's tile height is a pyramid tip of tileH group-output rows
 * across the whole output width: a retained multi-row Pyramid
 * schedule maps group-by-group onto FusedExecutor(TilePlan(first,
 * last, tileH, outW)) under Halo::Retain, and a singleton group is
 * plain layer-by-layer evaluation. Recomputed boundaries, Independent
 * tiles, and the UniformStride dataflow are priced but not executable
 * here, and the query below says why. FusedExecutor does run a group
 * that recomputes every boundary (Halo::Recompute), but not the IR's
 * per-boundary retain bits, so this bridge does not map such schedules
 * onto it.
 */

#ifndef FLCNN_DSE_EXEC_HH
#define FLCNN_DSE_EXEC_HH

#include <string>

#include "dse/schedule.hh"
#include "nn/weights.hh"
#include "tensor/tensor.hh"

namespace flcnn {
namespace dse {

/**
 * Why @p s cannot be executed by the host executors, or the empty
 * string when it can: every group must be a Pyramid retaining all its
 * meaningful halos (any tile height: full-width tiles of tileH rows
 * realize it).
 * Invalid schedules return the validation error.
 */
std::string scheduleExecutableReason(const Network &net,
                                     const Schedule &s);

/**
 * Execute @p s on @p input: each multi-stage group runs through a
 * FusedExecutor over full-width tiles of tileH rows, each singleton
 * group runs layer by layer, groups chained in order. Bit-identical to
 * nn::runRange over the whole layer range — the differential check for
 * priced schedules. Panics if scheduleExecutableReason() is non-empty.
 */
Tensor executeSchedule(const Network &net, const NetworkWeights &weights,
                       const Tensor &input, const Schedule &s);

} // namespace dse
} // namespace flcnn

#endif // FLCNN_DSE_EXEC_HH
