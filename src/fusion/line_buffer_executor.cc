#include "fusion/line_buffer_executor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/pool.hh"
#include "kernels/relu.hh"
#include "nn/autotune_net.hh"
#include "obs/metrics.hh"
#include "tune/tune_cache.hh"

namespace flcnn {

LineBufferExecutor::LineBufferExecutor(const Network &network,
                                       const NetworkWeights &w,
                                       int first_layer, int last_layer,
                                       int row_block)
    : net(network), weights(w), first(first_layer), last(last_layer),
      rowBlock(row_block)
{
    FLCNN_ASSERT(first >= 0 && last < net.numLayers() && first <= last,
                 "fusion range out of bounds");
    FLCNN_ASSERT(rowBlock >= 1, "row block must be positive");
    const int n = last - first + 1;
    states.resize(static_cast<size_t>(n));
    for (int li = 0; li < n; li++) {
        const LayerSpec &spec = net.layer(first + li);
        FLCNN_ASSERT(spec.fusable(), "range contains a non-fusable layer");
        const Shape &in = net.inShape(first + li);
        const Shape &out = net.outShape(first + li);
        LayerState &st = states[static_cast<size_t>(li)];
        const LayerSpec *next =
            li + 1 < n ? &net.layer(first + li + 1) : nullptr;
        // A conv directly followed by a fused ReLU clamps its rows in
        // its own work items (drain); the ReLU then forwards the row.
        st.reluEpilogue = spec.kind == LayerKind::Conv && next &&
                          next->kind == LayerKind::ReLU;
        // A Pad feeding a windowed layer writes into that layer's ring.
        st.padIntoRing =
            spec.kind == LayerKind::Pad && next && next->windowed();
        if (spec.windowed()) {
            st.ringRows =
                (rowBlock - 1) * spec.stride + spec.kernel;
            st.ring = Tensor(in.c, st.ringRows, in.w);
            st.blockBuf.assign(static_cast<size_t>(rowBlock) * out.c *
                                   out.w,
                               0.0f);
        }
        st.rowBuf.assign(static_cast<size_t>(out.c) * out.w, 0.0f);
    }
}

int64_t
LineBufferExecutor::bufferBytes() const
{
    int64_t bytes = 0;
    for (const auto &st : states) {
        if (st.ringRows > 0)
            bytes += st.ring.shape().bytes();
    }
    return bytes;
}

void
LineBufferExecutor::drain(int li, Tensor &output)
{
    LayerState &st = states[static_cast<size_t>(li)];
    const LayerSpec &spec = net.layer(first + li);
    const Shape &in = net.inShape(first + li);
    const Shape &out = net.outShape(first + li);
    const int k = spec.kernel, s = spec.stride, cap = st.ringRows;
    const int64_t row_elems = static_cast<int64_t>(out.c) * out.w;

    for (;;) {
        int max_by_input =
            st.rowsIn >= k ? (st.rowsIn - k) / s + 1 : 0;
        int avail = std::min(out.h, max_by_input) - st.nextOut;
        if (avail <= 0)
            break;
        // Batch full blocks; flush a partial block only once this
        // layer's input is complete (amortizes weight re-streaming;
        // see the row_block constructor comment).
        int batch;
        if (avail >= rowBlock)
            batch = rowBlock;
        else if (st.rowsIn >= in.h)
            batch = avail;
        else
            break;

        const int oy0 = st.nextOut;
        if (spec.kind == LayerKind::Conv) {
            const FilterBank &fb =
                weights.bank(net.convSlot(first + li));
            const int n_per_group = fb.numChannels();
            FLCNN_ASSERT(k <= kMaxConvKernel,
                         "conv kernel exceeds the strip row table");
            const Precision mode =
                precision ? precision->mode() : Precision::Fp32;
            const bool relu = st.reluEpilogue;
            // Each (filter-block, b) pair owns a disjoint set of output
            // row segments; the blocked kernel keeps every (filter,
            // pixel) accumulator private in the (bias, n, i, j) order,
            // so the result is bit-identical at every thread count; a
            // following ReLU clamps those rows in the same work item.
            // The ring's modular row mapping goes through the kernel's
            // row-offset / row-index table. Non-fp32 modes keep a
            // staged shadow of the ring, refreshed incrementally: only
            // the ring rows (re)written since the previous staging are
            // re-converted, so each source row is quantized exactly
            // once per image.
            if (mode == Precision::Int8) {
                const int slot = net.convSlot(first + li);
                const ActQuant &act = precision->actQuant(slot);
                st.stage.configure(mode, in.c, cap, in.w);
                const int fresh =
                    std::min(st.rowsIn - st.stagedIn, cap);
                for (int y = st.rowsIn - fresh; y < st.rowsIn;) {
                    const int rr = y % cap;
                    const int len =
                        std::min(st.rowsIn - y, cap - rr);
                    stageConvInputI8(st.stage, st.ring, act, rr,
                                     rr + len);
                    y += len;
                }
                st.stagedIn = st.rowsIn;
                const ConvBlockKernelI8 &bk = st.plan.bkI8;
                const PackedWeightsI8 &pw = packCache.getI8(
                    first + li, fb, spec.groups, precision->weightScales(slot),
                    precision->scaleId(), st.plan.cfg.mrCap);
                const int nb = pw.numBlocks();
                parallelFor(
                    0, static_cast<int64_t>(nb) * batch,
                    [&](int64_t lo, int64_t hi) {
                        int row_idx[kMaxConvKernel];
                        for (int64_t w = lo; w < hi; w++) {
                            const int bi = static_cast<int>(w / batch);
                            const int b = static_cast<int>(w % batch);
                            const int oy = oy0 + b;
                            for (int i = 0; i < k; i++)
                                row_idx[i] = (oy * s + i) % cap;
                            float *dst =
                                st.blockBuf.data() +
                                static_cast<size_t>(b) * row_elems +
                                static_cast<size_t>(pw.block(bi).m0) *
                                    out.w;
                            convBlockRowI8(bk, pw, bi, dst, out.w,
                                           out.w, st.stage, row_idx, 0,
                                           act);
                            if (relu)
                                reluRows(dst, out.w, pw.block(bi).lanes,
                                         out.w);
                        }
                    },
                    st.plan.cfg.grain);
            } else if (mode == Precision::Fp16) {
                st.stage.configure(mode, in.c, cap, in.w);
                const int fresh =
                    std::min(st.rowsIn - st.stagedIn, cap);
                for (int y = st.rowsIn - fresh; y < st.rowsIn;) {
                    const int rr = y % cap;
                    const int len =
                        std::min(st.rowsIn - y, cap - rr);
                    stageConvInputF16(st.stage, st.ring, rr, rr + len);
                    y += len;
                }
                st.stagedIn = st.rowsIn;
                const ConvBlockKernel &bk = st.plan.bk;
                const PackedWeightsF16 &pw = packCache.getF16(
                    first + li, fb, spec.groups, st.plan.cfg.mrCap);
                const int nb = pw.numBlocks();
                parallelFor(
                    0, static_cast<int64_t>(nb) * batch,
                    [&](int64_t lo, int64_t hi) {
                        int row_idx[kMaxConvKernel];
                        for (int64_t w = lo; w < hi; w++) {
                            const int bi = static_cast<int>(w / batch);
                            const int b = static_cast<int>(w % batch);
                            const int oy = oy0 + b;
                            for (int i = 0; i < k; i++)
                                row_idx[i] = (oy * s + i) % cap;
                            float *dst =
                                st.blockBuf.data() +
                                static_cast<size_t>(b) * row_elems +
                                static_cast<size_t>(pw.block(bi).m0) *
                                    out.w;
                            convBlockRowF16(bk, pw, bi, dst, out.w,
                                            out.w, st.stage, row_idx,
                                            0);
                            if (relu)
                                reluRows(dst, out.w, pw.block(bi).lanes,
                                         out.w);
                        }
                    },
                    st.plan.cfg.grain);
            } else {
            const ConvBlockKernel &bk = st.plan.bk;
            const PackedWeights &pw = packCache.get(
                first + li, fb, spec.groups, 0, st.plan.cfg.mrCap);
            const int nb = pw.numBlocks();
            const int64_t ring_ch_stride =
                static_cast<int64_t>(cap) * in.w;
            parallelFor(
                0, static_cast<int64_t>(nb) * batch,
                [&](int64_t lo, int64_t hi) {
                    int64_t row_off[kMaxConvKernel];
                    for (int64_t w = lo; w < hi; w++) {
                        const int bi = static_cast<int>(w / batch);
                        const int b = static_cast<int>(w % batch);
                        const PackedBlock &blk = pw.block(bi);
                        const int oy = oy0 + b;
                        for (int i = 0; i < k; i++) {
                            row_off[i] =
                                static_cast<int64_t>((oy * s + i) % cap) *
                                in.w;
                        }
                        float *dst = st.blockBuf.data() +
                                     static_cast<size_t>(b) * row_elems +
                                     static_cast<size_t>(blk.m0) * out.w;
                        for (int f = 0; f < blk.lanes; f++) {
                            const float bias = pw.bias(blk.m0 + f);
                            float *d = dst + static_cast<size_t>(f) *
                                                 out.w;
                            for (int ox = 0; ox < out.w; ox++)
                                d[ox] = bias;
                        }
                        bk.run(blk.lanes, dst, out.w, out.w,
                               st.ring.rowPtr(pw.nBase(bi), 0, 0),
                               ring_ch_stride, row_off, pw.panel(bi),
                               n_per_group);
                        if (relu)
                            reluRows(dst, out.w, blk.lanes, out.w);
                    }
                },
                st.plan.cfg.grain);
            }
            int64_t taps = static_cast<int64_t>(n_per_group) * k * k;
            curStats.ops.mults += taps * row_elems * batch;
            curStats.ops.adds += taps * row_elems * batch;
            if (metrics) {
                layerOps[static_cast<size_t>(li)].mults +=
                    taps * row_elems * batch;
                layerOps[static_cast<size_t>(li)].adds +=
                    taps * row_elems * batch;
            }
        } else {
            // Disjoint (b, ch) output rows, each one poolRow() over the
            // K ring rows of its window (poolPoint()'s fold order).
            FLCNN_ASSERT(k <= kMaxPoolKernel,
                         "pool kernel exceeds the row table");
            parallelFor(
                0, static_cast<int64_t>(batch) * out.c,
                [&](int64_t lo, int64_t hi) {
                    const float *rows[kMaxPoolKernel];
                    for (int64_t w = lo; w < hi; w++) {
                        const int b = static_cast<int>(w / out.c);
                        const int ch = static_cast<int>(w % out.c);
                        const int oy = oy0 + b;
                        for (int i = 0; i < k; i++)
                            rows[i] = st.ring.rowPtr(
                                ch, (oy * s + i) % cap, 0);
                        poolRow(st.blockBuf.data() +
                                    static_cast<size_t>(b) * row_elems +
                                    static_cast<size_t>(ch) * out.w,
                                out.w, rows, k, s,
                                spec.poolMode == PoolMode::Max);
                    }
                },
                /*grain=*/2);
            int64_t win =
                static_cast<int64_t>(k) * k * row_elems * batch;
            if (spec.poolMode == PoolMode::Max)
                curStats.ops.compares += win;
            else
                curStats.ops.adds += win;
            if (metrics) {
                OpCount &lo_ = layerOps[static_cast<size_t>(li)];
                if (spec.poolMode == PoolMode::Max)
                    lo_.compares += win;
                else
                    lo_.adds += win;
            }
        }

        st.nextOut += batch;
        for (int b = 0; b < batch; b++) {
            pushRow(li + 1, oy0 + b,
                    st.blockBuf.data() +
                        static_cast<size_t>(b) * row_elems,
                    output);
        }
    }
}

void
LineBufferExecutor::pushRow(int li, int y, const float *row_data,
                            Tensor &output)
{
    const int n = last - first + 1;
    if (li == n) {
        const Shape &out = output.shape();
        for (int ch = 0; ch < out.c; ch++) {
            const float *src =
                row_data + static_cast<size_t>(ch) * out.w;
            std::copy(src, src + out.w, &output(ch, y, 0));
        }
        curStats.storedBytes += static_cast<int64_t>(out.c) * out.w * 4;
        return;
    }

    LayerState &st = states[static_cast<size_t>(li)];
    const LayerSpec &spec = net.layer(first + li);
    const Shape &in = net.inShape(first + li);
    const Shape &out = net.outShape(first + li);

    switch (spec.kind) {
      case LayerKind::Conv:
      case LayerKind::Pool: {
        const int slot = y % st.ringRows;
        for (int ch = 0; ch < in.c; ch++) {
            const float *src =
                row_data + static_cast<size_t>(ch) * in.w;
            std::copy(src, src + in.w, &st.ring(ch, slot, 0));
        }
        st.rowsIn = y + 1;
        drain(li, output);
        break;
      }
      case LayerKind::Pad: {
        // Emits padded row oy: the source row's channels at column
        // offset p, or zeros for a top/bottom pad row (src == nullptr).
        // Only the interior is written. The left/right pad columns of
        // the destination (rowBuf, or the next layer's ring when it is
        // windowed) start zeroed and nothing ever writes a nonzero
        // value into them, so they stay zero across rows and runs.
        const int p = spec.pad;
        LayerState *ring_st =
            st.padIntoRing ? &states[static_cast<size_t>(li + 1)] : nullptr;
        auto emit = [&](int oy, const float *src) {
            for (int ch = 0; ch < in.c; ch++) {
                float *d = ring_st
                               ? &ring_st->ring(ch, oy % ring_st->ringRows, p)
                               : st.rowBuf.data() +
                                     static_cast<size_t>(ch) * out.w + p;
                if (src) {
                    const float *s = src + static_cast<size_t>(ch) * in.w;
                    std::copy(s, s + in.w, d);
                } else {
                    std::fill(d, d + in.w, 0.0f);
                }
            }
            if (ring_st) {
                ring_st->rowsIn = oy + 1;
                drain(li + 1, output);
            } else {
                pushRow(li + 1, oy, st.rowBuf.data(), output);
            }
        };
        if (y == 0) {
            for (int oy = 0; oy < p; oy++)
                emit(oy, nullptr);
        }
        emit(y + p, row_data);
        if (y == in.h - 1) {
            for (int oy = in.h + p; oy < in.h + 2 * p; oy++)
                emit(oy, nullptr);
        }
        break;
      }
      case LayerKind::ReLU: {
        const int64_t elems = static_cast<int64_t>(in.c) * in.w;
        curStats.ops.compares += elems;
        if (metrics)
            layerOps[static_cast<size_t>(li)].compares += elems;
        if (li > 0 && states[static_cast<size_t>(li - 1)].reluEpilogue) {
            // The conv already clamped this row in its work items.
            pushRow(li + 1, y, row_data, output);
        } else {
            reluRows(st.rowBuf.data(), 0, row_data, 0, 1,
                     static_cast<int>(elems));
            pushRow(li + 1, y, st.rowBuf.data(), output);
        }
        break;
      }
      case LayerKind::LRN: {
        const int half = spec.lrnSize / 2;
        const OpCount ops0 = curStats.ops;
        for (int x = 0; x < in.w; x++) {
            for (int ch = 0; ch < in.c; ch++) {
                float sum = 0.0f;
                int lo = std::max(0, ch - half);
                int hi = std::min(in.c - 1, ch + half);
                for (int j = lo; j <= hi; j++) {
                    float v = row_data[static_cast<size_t>(j) * in.w + x];
                    sum += v * v;
                }
                float denom = std::pow(
                    2.0f + static_cast<float>(spec.lrnAlpha) * sum,
                    static_cast<float>(spec.lrnBeta));
                st.rowBuf[static_cast<size_t>(ch) * in.w + x] =
                    row_data[static_cast<size_t>(ch) * in.w + x] / denom;
                curStats.ops.mults += (hi - lo + 1) + 2;
                curStats.ops.adds += (hi - lo + 1) + 1;
            }
        }
        if (metrics)
            layerOps[static_cast<size_t>(li)] += curStats.ops - ops0;
        pushRow(li + 1, y, st.rowBuf.data(), output);
        break;
      }
      default:
        panic("non-fusable layer in a line-buffer pipeline");
    }
}

Tensor
LineBufferExecutor::run(const Tensor &input, RunStats *stats)
{
    Tensor output(net.outShape(last));
    runInto(input, &output, stats);
    return output;
}

void
LineBufferExecutor::runInto(const Tensor &input, Tensor *out,
                            RunStats *stats)
{
    FLCNN_ASSERT(input.shape() == net.inShape(first),
                 "input shape does not match the fused range");
    FLCNN_ASSERT(out != nullptr && out->shape() == net.outShape(last),
                 "output shape does not match the fused range");
    Tensor &output = *out;
    curStats = RunStats{};
    curStats.reuseBytes = bufferBytes();
    const Precision runMode =
        precision ? precision->mode() : Precision::Fp32;
    // Re-plan only when the tune cache changed (planner lookups build
    // shape-key strings — a heap allocation the steady-state serving
    // path must not pay).
    const int64_t tuneRev = TuneCache::global().revision();
    const bool replan = tuneRev != plannedRev;
    plannedRev = tuneRev;
    for (size_t i = 0; i < states.size(); i++) {
        LayerState &st = states[i];
        st.rowsIn = 0;
        st.nextOut = 0;
        st.stagedIn = 0;
        const int layer = first + static_cast<int>(i);
        if (replan && net.layer(layer).kind == LayerKind::Conv) {
            st.plan = planConv(convLayerQuery(
                net, layer, runMode,
                fastMath && runMode == Precision::Fp32));
        }
    }
    double t_run0 = 0.0;
    if (metrics) {
        layerOps.assign(states.size(), OpCount{});
        t_run0 = std::chrono::duration<double>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
    }

    const Shape &in = input.shape();
    if (inputRow.size() < static_cast<size_t>(in.c) * in.w)
        inputRow.resize(static_cast<size_t>(in.c) * in.w);
    float *row = inputRow.data();
    for (int y = 0; y < in.h; y++) {
        for (int ch = 0; ch < in.c; ch++) {
            const float *src = input.rowPtr(ch, y, 0);
            std::copy(src, src + in.w,
                      row + static_cast<size_t>(ch) * in.w);
        }
        curStats.loadedBytes += static_cast<int64_t>(in.c) * in.w * 4;
        pushRow(0, y, row, output);
    }

    if (metrics) {
        const int n = last - first + 1;
        for (int li = 0; li < n; li++) {
            const size_t i = static_cast<size_t>(li);
            const std::string scope = MetricsRegistry::layerScope(
                li, net.layer(first + li).name);
            metrics->addCounter(scope, "dram_read_bytes",
                                li == 0 ? curStats.loadedBytes : 0);
            metrics->addCounter(scope, "dram_write_bytes",
                                li == n - 1 ? curStats.storedBytes : 0);
            metrics->addCounter(scope, "mults", layerOps[i].mults);
            metrics->addCounter(scope, "adds", layerOps[i].adds);
            metrics->addCounter(scope, "compares",
                                layerOps[i].compares);
            metrics->setGauge(
                scope, "ring_bytes",
                states[i].ringRows > 0
                    ? static_cast<double>(states[i].ring.shape().bytes())
                    : 0.0);
        }
        metrics->addGauge(
            "", "wall_seconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                    .count() -
                t_run0);
        metrics->addCounter("", "pack_hits",
                            packCache.hits() - lastPackHits);
        metrics->addCounter("", "pack_misses",
                            packCache.misses() - lastPackMisses);
        lastPackHits = packCache.hits();
        lastPackMisses = packCache.misses();
    }

    if (stats)
        *stats = curStats;
}

} // namespace flcnn
