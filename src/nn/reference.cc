#include "nn/reference.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_layer.hh"
#include "kernels/pool.hh"
#include "kernels/relu.hh"
#include "kernels/weight_pack.hh"
#include "nn/autotune_net.hh"

namespace flcnn {

float
convPoint(const Tensor &in, const FilterBank &fb, int m, int y0, int x0,
          int groups, int total_m, OpCount *ops)
{
    const int n_per_group = fb.numChannels();
    const int m_per_group = total_m / groups;
    const int group = m / m_per_group;
    const int n_base = group * n_per_group;
    const int k = fb.kernel();

    float acc = fb.bias(m);
    for (int n = 0; n < n_per_group; n++) {
        for (int i = 0; i < k; i++) {
            // Row-contiguous accumulation (vectorizable): identical
            // summation order to the naive triple loop.
            const float *wrow = fb.wRow(m, n, i);
            const float *irow = in.rowPtr(n_base + n, y0 + i, x0);
            for (int j = 0; j < k; j++)
                acc += wrow[j] * irow[j];
        }
    }
    if (ops) {
        int64_t taps = static_cast<int64_t>(n_per_group) * k * k;
        ops->mults += taps;
        // The paper counts one addition per multiplication, with the
        // layer's bias folded into the tally (Section III-C's "9N
        // multiplications and additions (including the layer's bias)").
        ops->adds += taps;
    }
    return acc;
}

float
poolPoint(const Tensor &in, int c, int y0, int x0, int kernel,
          PoolMode mode, OpCount *ops)
{
    float acc = (mode == PoolMode::Max) ? in(c, y0, x0) : 0.0f;
    for (int i = 0; i < kernel; i++) {
        for (int j = 0; j < kernel; j++) {
            float v = in(c, y0 + i, x0 + j);
            if (mode == PoolMode::Max)
                acc = std::max(acc, v);
            else
                acc += v;
        }
    }
    if (mode == PoolMode::Avg)
        acc /= static_cast<float>(kernel * kernel);
    if (ops) {
        int64_t win = static_cast<int64_t>(kernel) * kernel;
        if (mode == PoolMode::Max)
            ops->compares += win;
        else
            ops->adds += win;
    }
    return acc;
}

namespace {

/** Per-call packs of a conv resolved without a WeightPackCache. */
struct OwnPacks
{
    std::optional<PackedWeights> fp32;
    std::optional<PackedWeightsF16> f16;
    std::optional<PackedWeightsI8> i8;
};

/**
 * The conv @p spec over an @p in input in @p prec's mode (fp32 when
 * null) as runConvRows() runs it. The reference is the golden baseline
 * every executor is compared against, so it always plans exact (never
 * fast-math); the tune cache can still pick bit-invariant configs for
 * it. The packed weights come from @p packs under @p key when a cache
 * is given (a compiled Reference plan's, so a warm run packs nothing),
 * else they are built into @p own: one pass over the bank, next to the
 * out_h * out_w passes of compute.
 */
ConvLayerRun
resolveConv(const LayerSpec &spec, const Shape &in, const FilterBank &fb,
            const NetPrecision *prec, int slot, int key,
            WeightPackCache *packs, OwnPacks &own)
{
    const Precision mode = prec ? prec->mode() : Precision::Fp32;
    const ConvPlan plan = planConv(convLayerQuery(spec, in, mode, false));
    ConvLayerRun layer;
    layer.bk = plan.bk;
    layer.bkI8 = plan.bkI8;
    layer.grain = plan.cfg.grain;
    const int cap = plan.cfg.mrCap;
    if (mode == Precision::Int8) {
        const std::vector<float> &ws = prec->weightScales(slot);
        layer.act = prec->actQuant(slot);
        layer.pwI8 = packs ? &packs->getI8(key, fb, spec.groups, ws,
                                           prec->scaleId(), cap)
                           : &own.i8.emplace(fb, spec.groups, ws, cap);
    } else if (mode == Precision::Fp16) {
        layer.pwF16 = packs ? &packs->getF16(key, fb, spec.groups, cap)
                            : &own.f16.emplace(fb, spec.groups, cap);
    } else {
        layer.pw = packs ? &packs->get(key, fb, spec.groups, 0, cap)
                         : &own.fp32.emplace(fb, spec.groups, 0, cap);
    }
    return layer;
}

/** One conv layer, the whole output through runConvRows(); op counts
 *  are tallied analytically. */
Tensor
runConv(const LayerSpec &spec, const Tensor &in, const FilterBank &fb,
        const NetPrecision *prec, int slot, int key,
        WeightPackCache *packs, OpCount *ops)
{
    OwnPacks own;
    const ConvLayerRun layer =
        resolveConv(spec, in.shape(), fb, prec, slot, key, packs, own);
    const Shape out_shape = spec.outShape(in.shape());
    Tensor out(out_shape);
    ConvStage stage;
    runConvRows(layer, in, 0, 0, out_shape.h, out_shape.w, out.data(),
                static_cast<int64_t>(out_shape.h) * out_shape.w,
                out_shape.w, stage);
    if (ops) {
        int64_t taps = static_cast<int64_t>(fb.numChannels()) *
                       fb.kernel() * fb.kernel();
        ops->mults += taps * out_shape.elems();
        ops->adds += taps * out_shape.elems();
    }
    return out;
}

Tensor
runPool(const LayerSpec &spec, const Tensor &in, OpCount *ops)
{
    Shape out_shape = spec.outShape(in.shape());
    Tensor out(out_shape);
    FLCNN_ASSERT(spec.kernel <= kMaxPoolKernel,
                 "pool kernel exceeds the row table");
    parallelFor(
        0, static_cast<int64_t>(out_shape.c) * out_shape.h,
        [&](int64_t lo, int64_t hi) {
            const float *rows[kMaxPoolKernel];
            for (int64_t w = lo; w < hi; w++) {
                const int c = static_cast<int>(w / out_shape.h);
                const int y = static_cast<int>(w % out_shape.h);
                for (int i = 0; i < spec.kernel; i++)
                    rows[i] = in.rowPtr(c, y * spec.stride + i);
                poolRow(&out(c, y, 0), out_shape.w, rows, spec.kernel,
                        spec.stride, spec.poolMode == PoolMode::Max);
            }
        },
        /*grain=*/2);
    if (ops) {
        int64_t win = static_cast<int64_t>(spec.kernel) * spec.kernel;
        if (spec.poolMode == PoolMode::Max)
            ops->compares += win * out_shape.elems();
        else
            ops->adds += win * out_shape.elems();
    }
    return out;
}

/** out = ReLU(in), one channel plane per reluRows() row; @p out may
 *  be @p in (in place). */
void
reluInto(const Tensor &in, Tensor &out, OpCount *ops)
{
    const Shape &s = in.shape();
    const int plane = s.h * s.w;
    parallelFor(
        0, s.c,
        [&](int64_t clo, int64_t chi) {
            reluRows(&out(static_cast<int>(clo), 0, 0), plane,
                     in.rowPtr(static_cast<int>(clo), 0), plane,
                     static_cast<int>(chi - clo), plane);
        },
        /*grain=*/4);
    if (ops)
        ops->compares += s.elems();
}

Tensor
runRelu(const Tensor &in, OpCount *ops)
{
    Tensor out(in.shape());
    reluInto(in, out, ops);
    return out;
}

/** Copy every input row into the zero-filled padded plane, one
 *  (channel, row) per work item. */
Tensor
runPad(const LayerSpec &spec, const Tensor &in)
{
    const Shape &s = in.shape();
    const int p = spec.pad;
    Tensor out(s.c, s.h + 2 * p, s.w + 2 * p);
    parallelFor(
        0, static_cast<int64_t>(s.c) * s.h,
        [&](int64_t lo, int64_t hi) {
            for (int64_t w = lo; w < hi; w++) {
                const int c = static_cast<int>(w / s.h);
                const int y = static_cast<int>(w % s.h);
                std::memcpy(&out(c, y + p, p), in.rowPtr(c, y),
                            static_cast<size_t>(s.w) * sizeof(float));
            }
        },
        /*grain=*/16);
    return out;
}

Tensor
runLrn(const LayerSpec &spec, const Tensor &in, OpCount *ops)
{
    const Shape &s = in.shape();
    Tensor out(s);
    const int half = spec.lrnSize / 2;
    parallelFor(
        0, s.c,
        [&](int64_t clo, int64_t chi) {
            for (int c = static_cast<int>(clo); c < chi; c++) {
                for (int y = 0; y < s.h; y++) {
                    for (int x = 0; x < s.w; x++) {
                        float sum = 0.0f;
                        int lo = std::max(0, c - half);
                        int hi = std::min(s.c - 1, c + half);
                        for (int j = lo; j <= hi; j++) {
                            float v = in(j, y, x);
                            sum += v * v;
                        }
                        float denom = std::pow(
                            2.0f +
                                static_cast<float>(spec.lrnAlpha) * sum,
                            static_cast<float>(spec.lrnBeta));
                        out(c, y, x) = in(c, y, x) / denom;
                    }
                }
            }
        },
        /*grain=*/2);
    if (ops) {
        // The per-point tally depends only on the channel index.
        for (int c = 0; c < s.c; c++) {
            int lo = std::max(0, c - half);
            int hi = std::min(s.c - 1, c + half);
            int64_t pts = static_cast<int64_t>(s.h) * s.w;
            ops->mults += ((hi - lo + 1) + 2) * pts;
            ops->adds += ((hi - lo + 1) + 1) * pts;
        }
    }
    return out;
}

Tensor
runFc(const LayerSpec &spec, const Tensor &in, const DenseWeights &dw,
      OpCount *ops)
{
    FLCNN_ASSERT(in.elems() == dw.inElems, "fc input size mismatch");
    Tensor out(spec.outChannels, 1, 1);
    const float *flat = in.data();
    parallelFor(0, spec.outChannels, [&](int64_t ulo, int64_t uhi) {
        for (int u = static_cast<int>(ulo); u < uhi; u++) {
            float acc = dw.bias[static_cast<size_t>(u)];
            const float *row = dw.w.data() +
                               static_cast<size_t>(u) * dw.inElems;
            for (int64_t e = 0; e < dw.inElems; e++)
                acc += row[e] * flat[e];
            out(u, 0, 0) = acc;
        }
    });
    if (ops) {
        ops->mults += spec.outChannels * dw.inElems;
        ops->adds += spec.outChannels * dw.inElems;
    }
    return out;
}

} // namespace

Tensor
runLayer(const LayerSpec &spec, const Tensor &in, const FilterBank *bank,
         const DenseWeights *dw, OpCount *ops)
{
    switch (spec.kind) {
      case LayerKind::Conv:
        FLCNN_ASSERT(bank != nullptr, "conv layer needs a filter bank");
        return runConv(spec, in, *bank, nullptr, 0, 0, nullptr, ops);
      case LayerKind::Pool:
        return runPool(spec, in, ops);
      case LayerKind::ReLU:
        return runRelu(in, ops);
      case LayerKind::Pad:
        return runPad(spec, in);
      case LayerKind::LRN:
        return runLrn(spec, in, ops);
      case LayerKind::FullyConnected:
        FLCNN_ASSERT(dw != nullptr, "fc layer needs dense weights");
        return runFc(spec, in, *dw, ops);
      case LayerKind::Add:
      case LayerKind::Concat:
        panic("layer '%s' (%s) joins several inputs; evaluate it with "
              "runGraph(), not runLayer()",
              spec.name.c_str(), layerKindName(spec.kind));
    }
    panic("unhandled layer kind");
}

Tensor
runJoin(const LayerSpec &spec, const std::vector<const Tensor *> &ins,
        OpCount *ops)
{
    FLCNN_ASSERT(!ins.empty(), "join layer needs input tensors");
    std::vector<Shape> shapes;
    shapes.reserve(ins.size());
    for (const Tensor *t : ins)
        shapes.push_back(t->shape());
    Shape out_shape = spec.outShapeMulti(shapes);
    Tensor out(out_shape);
    if (spec.kind == LayerKind::Add) {
        const Shape &s = out_shape;
        parallelFor(
            0, s.c,
            [&](int64_t clo, int64_t chi) {
                for (int c = static_cast<int>(clo); c < chi; c++) {
                    for (int y = 0; y < s.h; y++) {
                        for (int x = 0; x < s.w; x++) {
                            // Edge order defines the summation order
                            // (bit-exactness contract, DESIGN.md).
                            float acc = (*ins[0])(c, y, x);
                            for (size_t e = 1; e < ins.size(); e++)
                                acc += (*ins[e])(c, y, x);
                            out(c, y, x) = acc;
                        }
                    }
                }
            },
            /*grain=*/4);
        if (ops) {
            ops->adds += static_cast<int64_t>(ins.size() - 1) *
                         out_shape.elems();
        }
        return out;
    }
    FLCNN_ASSERT(spec.kind == LayerKind::Concat,
                 "runJoin handles Add and Concat only");
    int c_base = 0;
    for (const Tensor *t : ins) {
        const Shape &s = t->shape();
        for (int c = 0; c < s.c; c++)
            for (int y = 0; y < s.h; y++)
                for (int x = 0; x < s.w; x++)
                    out(c_base + c, y, x) = (*t)(c, y, x);
        c_base += s.c;
    }
    return out;
}

Tensor
runRange(const Network &net, const NetworkWeights &weights, const Tensor &in,
         int first_layer, int last_layer, OpCount *ops)
{
    return runRange(net, weights, in, first_layer, last_layer, nullptr, ops);
}

Tensor
runRange(const Network &net, const NetworkWeights &weights, const Tensor &in,
         int first_layer, int last_layer, const NetPrecision *prec,
         OpCount *ops, WeightPackCache *packs)
{
    FLCNN_ASSERT(first_layer >= 0 && last_layer < net.numLayers() &&
                     first_layer <= last_layer,
                 "invalid layer range");
    FLCNN_ASSERT(net.isPathRange(first_layer, last_layer),
                 "runRange needs a path-shaped layer range (joins and "
                 "branch-outs take runGraph)");
    FLCNN_ASSERT(in.shape() == net.inShape(first_layer),
                 "input shape does not match the first layer");

    Tensor cur = in;
    int fc_slot = 0;
    for (int i = 0; i < first_layer; i++) {
        if (net.layer(i).kind == LayerKind::FullyConnected)
            fc_slot++;
    }
    for (int i = first_layer; i <= last_layer; i++) {
        // `cur` holds the output of this layer's sole predecessor:
        // guaranteed by the isPathRange check above, asserted here
        // rather than assumed from index adjacency.
        FLCNN_ASSERT(i == first_layer || net.soleInput(i) == i - 1,
                     "path range invariant violated");
        const LayerSpec &spec = net.layer(i);
        if (spec.kind == LayerKind::Conv) {
            const int slot = net.convSlot(i);
            cur = runConv(spec, cur, weights.bank(slot), prec, slot, i,
                          packs, ops);
            continue;
        }
        if (spec.kind == LayerKind::ReLU) {
            // `cur` is this function's own copy: clamp it in place.
            reluInto(cur, cur, ops);
            continue;
        }
        const DenseWeights *dw = nullptr;
        if (spec.kind == LayerKind::FullyConnected)
            dw = &weights.dense(fc_slot++);
        cur = runLayer(spec, cur, nullptr, dw, ops);
    }
    return cur;
}

void
prepackRange(const Network &net, const NetworkWeights &weights,
             int first_layer, int last_layer, const NetPrecision *prec,
             WeightPackCache &packs)
{
    for (int i = first_layer; i <= last_layer; i++) {
        if (net.layer(i).kind != LayerKind::Conv)
            continue;
        const int slot = net.convSlot(i);
        OwnPacks unused;
        (void)resolveConv(net.layer(i), net.inShape(i), weights.bank(slot),
                          prec, slot, i, &packs, unused);
    }
}

Tensor
runGraph(const Network &net, const NetworkWeights &weights, const Tensor &in,
         OpCount *ops)
{
    FLCNN_ASSERT(net.numLayers() > 0, "cannot run an empty network");
    FLCNN_ASSERT(in.shape() == net.inputShape(),
                 "input shape does not match the network");

    // Evaluate in topological order (= insertion order), dropping each
    // intermediate after its last consumer so peak footprint matches a
    // conventional scheduler's. FC slots are assigned in node order,
    // consistent with runRange.
    std::vector<Tensor> outs(static_cast<size_t>(net.numLayers()));
    std::vector<int> remaining(static_cast<size_t>(net.numLayers()), 0);
    for (int i = 0; i < net.numLayers(); i++) {
        for (int p : net.predecessors(i)) {
            if (p != kInputNode)
                remaining[static_cast<size_t>(p)]++;
        }
    }
    int fc_slot = 0;
    for (int i = 0; i < net.numLayers(); i++) {
        const LayerSpec &spec = net.layer(i);
        const std::vector<int> &p = net.predecessors(i);
        if (spec.multiInput()) {
            std::vector<const Tensor *> srcs;
            srcs.reserve(p.size());
            for (int e : p)
                srcs.push_back(e == kInputNode
                                   ? &in
                                   : &outs[static_cast<size_t>(e)]);
            outs[static_cast<size_t>(i)] = runJoin(spec, srcs, ops);
        } else {
            const Tensor &src =
                p.front() == kInputNode
                    ? in
                    : outs[static_cast<size_t>(p.front())];
            const FilterBank *bank = nullptr;
            const DenseWeights *dw = nullptr;
            if (spec.kind == LayerKind::Conv)
                bank = &weights.bank(net.convSlot(i));
            if (spec.kind == LayerKind::FullyConnected)
                dw = &weights.dense(fc_slot++);
            outs[static_cast<size_t>(i)] = runLayer(spec, src, bank, dw, ops);
        }
        for (int e : p) {
            if (e == kInputNode)
                continue;
            if (--remaining[static_cast<size_t>(e)] == 0 &&
                e != net.numLayers() - 1) {
                outs[static_cast<size_t>(e)] = Tensor();
            }
        }
    }
    return outs.back();
}

Tensor
runNetwork(const Network &net, const NetworkWeights &weights,
           const Tensor &in, OpCount *ops)
{
    if (net.isChain())
        return runRange(net, weights, in, 0, net.numLayers() - 1, ops);
    return runGraph(net, weights, in, ops);
}

OpCount
layerOpCount(const LayerSpec &spec, const Shape &in)
{
    OpCount ops;
    if (spec.kind == LayerKind::Add) {
        // Two-input form (in = the shared edge shape): one add per
        // output element per extra edge. Wider joins tally through
        // runJoin's OpCount parameter.
        ops.adds = in.elems();
        return ops;
    }
    if (spec.kind == LayerKind::Concat)
        return ops;  // pure data movement
    Shape out = spec.outShape(in);
    switch (spec.kind) {
      case LayerKind::Conv: {
        int64_t taps = static_cast<int64_t>(in.c / spec.groups) *
                       spec.kernel * spec.kernel;
        int64_t points = out.elems();
        ops.mults = points * taps;
        ops.adds = points * taps;
        break;
      }
      case LayerKind::Pool: {
        int64_t win = static_cast<int64_t>(spec.kernel) * spec.kernel;
        if (spec.poolMode == PoolMode::Max)
            ops.compares = out.elems() * win;
        else
            ops.adds = out.elems() * win;
        break;
      }
      case LayerKind::ReLU:
        ops.compares = out.elems();
        break;
      case LayerKind::Pad:
        break;
      case LayerKind::LRN: {
        // Interior points see the full window; edge channels see less.
        const int half = spec.lrnSize / 2;
        for (int c = 0; c < in.c; c++) {
            int lo = std::max(0, c - half);
            int hi = std::min(in.c - 1, c + half);
            int64_t span = hi - lo + 1;
            int64_t pts = static_cast<int64_t>(in.h) * in.w;
            ops.mults += pts * (span + 2);
            ops.adds += pts * (span + 1);
        }
        break;
      }
      case LayerKind::FullyConnected:
        ops.mults = static_cast<int64_t>(spec.outChannels) * in.elems();
        ops.adds = ops.mults;
        break;
      case LayerKind::Add:
      case LayerKind::Concat:
        break;  // handled before the switch
    }
    return ops;
}

OpCount
rangeOpCount(const Network &net, int first_layer, int last_layer)
{
    OpCount total;
    for (int i = first_layer; i <= last_layer; i++)
        total += layerOpCount(net.layer(i), net.inShape(i));
    return total;
}

} // namespace flcnn
