/**
 * @file
 * Reference (layer-by-layer) executors.
 *
 * These produce the golden outputs all fused executors and accelerator
 * models are verified against. The per-output-point helpers (convPoint,
 * poolPoint) define the library's *canonical summation order* — bias
 * first, then channels, then kernel rows, then kernel columns — and are
 * shared with the fusion executors so that results compare bit-exactly
 * (DESIGN.md invariant 1).
 */

#ifndef FLCNN_NN_REFERENCE_HH
#define FLCNN_NN_REFERENCE_HH

#include "common/opcount.hh"
#include "nn/network.hh"
#include "nn/precision.hh"
#include "nn/weights.hh"
#include "tensor/tensor.hh"

namespace flcnn {

class WeightPackCache;

/**
 * One convolution output value whose receptive field's top-left corner
 * is at (y0, x0) of @p in, in canonical summation order. Callers with
 * output coordinates pass y0 = y * stride (the reference executor), or
 * tile-local offsets (the fused executors).
 *
 * @param in      the (already padded) input feature maps
 * @param fb      filter bank (M x N/groups x K x K)
 * @param groups  channel groups (1 = dense convolution)
 * @param total_m total output channels (to derive the group of @p m)
 * @param ops     optional operation tally
 */
float convPoint(const Tensor &in, const FilterBank &fb, int m, int y0,
                int x0, int groups, int total_m, OpCount *ops);

/** One pooling output value over the window with top-left (y0, x0). */
float poolPoint(const Tensor &in, int c, int y0, int x0, int kernel,
                PoolMode mode, OpCount *ops);

/** Execute a single layer on @p in, producing a fresh output tensor.
 *  @p bank must be non-null for Conv layers, @p dw for FC layers.
 *  Multi-input kinds (Add, Concat) panic — use runJoin(). */
Tensor runLayer(const LayerSpec &spec, const Tensor &in,
                const FilterBank *bank, const DenseWeights *dw,
                OpCount *ops);

/** Execute a multi-input join layer (Add, Concat) over its predecessor
 *  outputs, in edge order (which fixes Add's summation order and
 *  Concat's channel order). */
Tensor runJoin(const LayerSpec &spec,
               const std::vector<const Tensor *> &ins, OpCount *ops);

/**
 * Execute layers [first, last] of @p net on @p in, layer by layer,
 * materializing every intermediate tensor (the conventional evaluation
 * strategy the paper's baseline accelerator implements). The range must
 * be a path (Network::isPathRange): each layer's sole predecessor is
 * queried explicitly, so joins and branch-outs are rejected up front
 * instead of silently reading the wrong intermediate.
 */
Tensor runRange(const Network &net, const NetworkWeights &weights,
                const Tensor &in, int first_layer, int last_layer,
                OpCount *ops = nullptr);

/**
 * runRange() under a precision mode: conv layers stage their inputs
 * and run the mode's kernels (kernels/conv_layer.hh), every other
 * layer computes in fp32 as always. A null @p prec (or Fp32 mode)
 * is exactly the plain fp32 path. This is the golden producer for the
 * precision differential tests: fused executors at the same precision
 * must match it bit for bit. Each conv packs its bank per call, unless
 * @p packs is given: then the packs resolve through it, keyed by
 * network layer index, and a call after the first packs nothing.
 */
Tensor runRange(const Network &net, const NetworkWeights &weights,
                const Tensor &in, int first_layer, int last_layer,
                const NetPrecision *prec, OpCount *ops = nullptr,
                WeightPackCache *packs = nullptr);

/** Resolve into @p packs every pack runRange() over [first, last] in
 *  @p prec's mode asks @p packs for, without computing anything. */
void prepackRange(const Network &net, const NetworkWeights &weights,
                  int first_layer, int last_layer, const NetPrecision *prec,
                  WeightPackCache &packs);

/**
 * Execute an arbitrary network DAG on @p in: evaluate every node in
 * topological order, keeping each intermediate alive until its last
 * consumer, joining Add/Concat nodes over their predecessor outputs.
 * On a chain this computes exactly what runRange(0, n-1) computes.
 */
Tensor runGraph(const Network &net, const NetworkWeights &weights,
                const Tensor &in, OpCount *ops = nullptr);

/** Execute the entire network: runRange() on a chain, runGraph()
 *  otherwise. */
Tensor runNetwork(const Network &net, const NetworkWeights &weights,
                  const Tensor &in, OpCount *ops = nullptr);

/**
 * Analytic operation count for one layer given its input shape, matching
 * what runLayer() tallies (used to validate the analytic models).
 */
OpCount layerOpCount(const LayerSpec &spec, const Shape &in);

/** Analytic operation count for layers [first, last]. */
OpCount rangeOpCount(const Network &net, int first_layer, int last_layer);

} // namespace flcnn

#endif // FLCNN_NN_REFERENCE_HH
