#include "fusion/fused_executor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/relu.hh"
#include "nn/autotune_net.hh"
#include "obs/metrics.hh"
#include "tune/tune_cache.hh"

namespace flcnn {

namespace {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

FusedExecutor::FusedExecutor(const Network &network,
                             const NetworkWeights &w, TilePlan plan)
    : net(network), weights(w), tplan(std::move(plan))
{
    int n = tplan.numFusedLayers();
    states.resize(static_cast<size_t>(n));
    for (int li = 0; li < n; li++) {
        const LayerGeom &g = tplan.geom(li);
        const LayerSpec &spec = net.layer(g.layerIdx);
        LayerState &st = states[static_cast<size_t>(li)];

        if (g.windowed) {
            st.tile = Tensor(g.inPlane.c, std::max(1, g.maxTileH),
                             std::max(1, g.maxTileW));
            if (g.overlapX > 0)
                st.bl = Tensor(g.inPlane.c, std::max(1, g.maxTileH),
                               g.overlapX);
            if (g.overlapY > 0)
                st.bt = Tensor(g.inPlane.c, g.overlapY, g.inPlane.w);
        }

        bool owns_fresh = g.windowed || spec.kind == LayerKind::Pad ||
                          li == 0;
        if (owns_fresh) {
            st.fresh = Tensor(g.outPlane.c, std::max(1, g.maxFreshOutH),
                              std::max(1, g.maxFreshOutW));
            st.freshOwner = li;
        }

        // A conv directly followed by a fused ReLU clamps its own fresh
        // rows inside its parallel work items (computeWindowed); the
        // ReLU step then only tallies its compares.
        st.reluEpilogue =
            spec.kind == LayerKind::Conv && li + 1 < n &&
            net.layer(tplan.geom(li + 1).layerIdx).kind == LayerKind::ReLU;
        if (spec.kind == LayerKind::LRN)
            st.lrnCol.resize(static_cast<size_t>(g.outPlane.c));
    }
}

void
FusedExecutor::copyRect(const Tensor &src, Span src_y, Span src_x,
                        Tensor &dst, Span dst_y, Span dst_x, Span rect_y,
                        Span rect_x)
{
    if (rect_y.empty() || rect_x.empty())
        return;
    FLCNN_ASSERT(src.shape().c == dst.shape().c,
                 "rect copy across differing channel counts");
    // One row segment at a time, in an inline loop: BL strips are only
    // the overlap (2 floats for a 3x3 conv) wide and most tile rows are
    // under 40, where a memmove call per row costs more than the copy.
    const int w = rect_x.width();
    for (int ch = 0; ch < src.shape().c; ch++) {
        for (int gy = rect_y.begin; gy < rect_y.end; gy++) {
            const float *from = src.rowPtr(ch, gy - src_y.begin,
                                           rect_x.begin - src_x.begin);
            float *to =
                &dst(ch, gy - dst_y.begin, rect_x.begin - dst_x.begin);
            for (int t = 0; t < w; t++)
                to[t] = from[t];
        }
    }
}

FusedExecutor::LayerState &
FusedExecutor::producerState(int li)
{
    FLCNN_ASSERT(li > 0, "the first fused layer has no producer");
    LayerState &prev = states[static_cast<size_t>(li - 1)];
    FLCNN_ASSERT(prev.freshOwner >= 0, "producer owns no fresh buffer");
    return states[static_cast<size_t>(prev.freshOwner)];
}

void
FusedExecutor::assembleTile(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    LayerState &st = states[static_cast<size_t>(li)];

    Span ty = g.inY[static_cast<size_t>(r)];
    Span tx = g.inX[static_cast<size_t>(c)];
    Span fy = g.freshInY(r);
    Span fx = g.freshInX(c);
    st.tileY = ty;
    st.tileX = tx;

    // Top strip [ty.begin, fy.begin) x full tile width, from BT.
    Span top{ty.begin, fy.begin};
    if (!top.empty()) {
        FLCNN_ASSERT(st.bt.elems() > 0, "top overlap without a BT buffer");
        FLCNN_ASSERT(tx.begin >= st.btWatermark,
                     "BT read raced ahead of the safe-write watermark");
        FLCNN_ASSERT(top.begin >= st.btBaseOld,
                     "BT read below the retained strip");
        copyRect(st.bt, Span{st.btBaseOld, st.btBaseOld}, Span{0, 0},
                 st.tile, ty, tx, top, tx);
    }

    // Left strip [fy.begin, ty.end) x [tx.begin, fx.begin), from BL.
    Span left{tx.begin, fx.begin};
    Span body{fy.begin, ty.end};
    if (!left.empty() && !body.empty()) {
        FLCNN_ASSERT(st.bl.elems() > 0, "left overlap without a BL buffer");
        copyRect(st.bl, st.blY, st.blX, st.tile, ty, tx, body, left);
    }

    // Fresh corner [fy.begin, ty.end) x [fx.begin, tx.end).
    if (!fy.empty() && !fx.empty()) {
        if (li == 0) {
            copyRect(*groupInput, Span{0, 0}, Span{0, 0}, st.tile, ty, tx,
                     fy, fx);
            curStats.loadedBytes += static_cast<int64_t>(fy.width()) *
                                    fx.width() * g.inPlane.c * 4;
            if (traceSink) {
                for (int ch = 0; ch < g.inPlane.c; ch++)
                    for (int gy = fy.begin; gy < fy.end; gy++)
                        trace(false,
                              traceInputBase +
                                  static_cast<uint64_t>(groupInput->idx(
                                      ch, gy, fx.begin)) * 4,
                              static_cast<int64_t>(fx.width()) * 4);
            }
        } else {
            // The producer delivers the full-span diff; the tile only
            // needs the part inside the compute span (they differ only
            // in degenerate K < S geometries).
            LayerState &prod = producerState(li);
            FLCNN_ASSERT(prod.freshY.begin <= fy.begin &&
                             prod.freshY.end >= fy.end &&
                             prod.freshX.begin <= fx.begin &&
                             prod.freshX.end >= fx.end,
                         "producer fresh rect does not cover consumer");
            copyRect(prod.fresh, prod.freshY, prod.freshX, st.tile, ty, tx,
                     fy, fx);
        }
    }
}

void
FusedExecutor::saveReuse(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    LayerState &st = states[static_cast<size_t>(li)];
    Span ty = g.inY[static_cast<size_t>(r)];
    Span tx = g.inX[static_cast<size_t>(c)];

    // BL: columns the next *active* pyramid in this row re-reads.
    int next_bx = g.nextBeginX[static_cast<size_t>(c)];
    if (next_bx >= 0 && g.overlapX > 0) {
        Span keep{std::max(next_bx, tx.begin), tx.end};
        if (!keep.empty()) {
            st.blY = ty;
            st.blX = keep;
            copyRect(st.tile, ty, tx, st.bl, ty, keep, ty, keep);
        } else {
            st.blX = Span{0, 0};
        }
    }

    // BT: bottom rows for the next active pyramid row, written only up
    // to the next active pyramid's left edge (safe-write; see file
    // comment).
    if (g.nextBeginY[static_cast<size_t>(r)] >= 0 && g.overlapY > 0) {
        Span keep_rows{std::max(st.btBaseNew, ty.begin), ty.end};
        int write_end =
            (next_bx >= 0) ? std::min(next_bx, tx.end) : tx.end;
        Span write_cols{std::max(tx.begin, st.btWatermark), write_end};
        if (!keep_rows.empty() && !write_cols.empty()) {
            copyRect(st.tile, ty, tx, st.bt,
                     Span{st.btBaseNew, st.btBaseNew}, Span{0, 0},
                     keep_rows, write_cols);
        }
        st.btWatermark = std::max(st.btWatermark, write_cols.end);
    }
}

void
FusedExecutor::computeWindowed(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LayerState &st = states[static_cast<size_t>(li)];

    Span oy = g.freshOutY(r);
    Span ox = g.freshOutX(c);
    st.freshY = oy;
    st.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    const int s = spec.stride;
    if (spec.kind == LayerKind::Conv) {
        const FilterBank &fb = weights.bank(net.convSlot(g.layerIdx));
        const int n_per_group = fb.numChannels();
        const int64_t plane = static_cast<int64_t>(st.fresh.shape().h) *
                              st.fresh.shape().w;
        const int x0 = ox.begin * s - st.tileX.begin;
        const Precision mode =
            precision ? precision->mode() : Precision::Fp32;
        const bool relu = st.reluEpilogue;
        // One (filter-block, row) strip per work item: disjoint fresh
        // writes across filter blocks and rows, and the blocked kernel
        // keeps each (filter, pixel) accumulator private in convPoint's
        // (bias, n, i, j) order, so the fused pyramid stays
        // bit-identical to the reference at every thread count. A
        // following ReLU runs as the work item's epilogue over the rows
        // it just wrote. The op tally is analytic to keep the parallel
        // region race-free. Non-fp32 modes first stage the tile rows
        // this pyramid reads (serial, row-wise, idempotent), then run
        // the mode's drivers against the shared staging with the same
        // parallel shape — precision state is identical to the
        // precision reference's, so the bit-exactness argument carries
        // over.
        if (mode != Precision::Fp32) {
            const int slot = net.convSlot(g.layerIdx);
            const Shape &ts = st.tile.shape();
            st.stage.configure(mode, ts.c, ts.h, ts.w);
            const int r0 = oy.begin * s - st.tileY.begin;
            const int r1 = std::min(
                (oy.end - 1) * s - st.tileY.begin + spec.kernel, ts.h);
            if (mode == Precision::Int8) {
                const ActQuant &act = precision->actQuant(slot);
                stageConvInputI8(st.stage, st.tile, act, r0, r1);
                const ConvBlockKernelI8 &bk = st.plan.bkI8;
                const PackedWeightsI8 &pw = packCache.getI8(
                    g.layerIdx, fb, spec.groups, precision->weightScales(slot),
                    precision->scaleId(), st.plan.cfg.mrCap);
                const int nb = pw.numBlocks();
                parallelFor(
                    0, static_cast<int64_t>(nb) * oy.width(),
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t w = lo; w < hi; w++) {
                            const int bi =
                                static_cast<int>(w / oy.width());
                            const int gy =
                                oy.begin +
                                static_cast<int>(w % oy.width());
                            int row_idx[kMaxConvKernel];
                            for (int i = 0; i < bk.k; i++)
                                row_idx[i] =
                                    gy * s - st.tileY.begin + i;
                            float *dst = &st.fresh(pw.block(bi).m0,
                                                   gy - oy.begin, 0);
                            convBlockRowI8(bk, pw, bi, dst, plane,
                                           ox.width(), st.stage, row_idx,
                                           x0, act);
                            if (relu)
                                reluRows(dst, plane, pw.block(bi).lanes,
                                         ox.width());
                        }
                    },
                    st.plan.cfg.grain);
            } else {
                stageConvInputF16(st.stage, st.tile, r0, r1);
                const ConvBlockKernel &bk = st.plan.bk;
                const PackedWeightsF16 &pw = packCache.getF16(
                    g.layerIdx, fb, spec.groups, st.plan.cfg.mrCap);
                const int nb = pw.numBlocks();
                parallelFor(
                    0, static_cast<int64_t>(nb) * oy.width(),
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t w = lo; w < hi; w++) {
                            const int bi =
                                static_cast<int>(w / oy.width());
                            const int gy =
                                oy.begin +
                                static_cast<int>(w % oy.width());
                            int row_idx[kMaxConvKernel];
                            for (int i = 0; i < bk.k; i++)
                                row_idx[i] =
                                    gy * s - st.tileY.begin + i;
                            float *dst = &st.fresh(pw.block(bi).m0,
                                                   gy - oy.begin, 0);
                            convBlockRowF16(bk, pw, bi, dst, plane,
                                            ox.width(), st.stage,
                                            row_idx, x0);
                            if (relu)
                                reluRows(dst, plane, pw.block(bi).lanes,
                                         ox.width());
                        }
                    },
                    st.plan.cfg.grain);
            }
        } else {
            const ConvBlockKernel &bk = st.plan.bk;
            const PackedWeights &pw = packCache.get(
                g.layerIdx, fb, spec.groups, 0, st.plan.cfg.mrCap);
            const int nb = pw.numBlocks();
            parallelFor(
                0, static_cast<int64_t>(nb) * oy.width(),
                [&](int64_t lo, int64_t hi) {
                    for (int64_t w = lo; w < hi; w++) {
                        const int bi = static_cast<int>(w / oy.width());
                        const int gy =
                            oy.begin + static_cast<int>(w % oy.width());
                        float *dst =
                            &st.fresh(pw.block(bi).m0, gy - oy.begin, 0);
                        convBlockRowTensor(bk, pw, bi, dst, plane,
                                           ox.width(), st.tile,
                                           gy * s - st.tileY.begin, x0);
                        if (relu)
                            reluRows(dst, plane, pw.block(bi).lanes,
                                     ox.width());
                    }
                },
                st.plan.cfg.grain);
        }
        int64_t taps = static_cast<int64_t>(n_per_group) * fb.kernel() *
                       fb.kernel();
        int64_t points = static_cast<int64_t>(g.outPlane.c) *
                         oy.width() * ox.width();
        curStats.ops.mults += taps * points;
        curStats.ops.adds += taps * points;
    } else {
        // Disjoint (ch, row) output strips; window order untouched.
        // Pool ops are tallied analytically below (the per-point tally
        // inside poolPoint would race across worker threads).
        parallelFor(
            0, static_cast<int64_t>(g.outPlane.c) * oy.width(),
            [&](int64_t lo, int64_t hi) {
                for (int64_t w = lo; w < hi; w++) {
                    const int ch = static_cast<int>(w / oy.width());
                    const int gy =
                        oy.begin + static_cast<int>(w % oy.width());
                    for (int gx = ox.begin; gx < ox.end; gx++) {
                        st.fresh(ch, gy - oy.begin, gx - ox.begin) =
                            poolPoint(st.tile, ch,
                                      gy * s - st.tileY.begin,
                                      gx * s - st.tileX.begin,
                                      spec.kernel, spec.poolMode,
                                      nullptr);
                    }
                }
            },
            /*grain=*/2);
        int64_t win = static_cast<int64_t>(spec.kernel) * spec.kernel *
                      g.outPlane.c * oy.width() * ox.width();
        if (spec.poolMode == PoolMode::Max)
            curStats.ops.compares += win;
        else
            curStats.ops.adds += win;
    }

    if (trackCoverage) {
        for (int ch = 0; ch < g.outPlane.c; ch++)
            for (int gy = oy.begin; gy < oy.end; gy++)
                for (int gx = ox.begin; gx < ox.end; gx++)
                    st.coverage[static_cast<size_t>(
                        (static_cast<int64_t>(ch) * g.outPlane.h + gy) *
                        g.outPlane.w + gx)]++;
    }
}

void
FusedExecutor::runPad(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LayerState &st = states[static_cast<size_t>(li)];
    const int p = spec.pad;

    Span oy = g.freshOutY(r);
    Span ox = g.freshOutX(c);
    st.freshY = oy;
    st.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    const Tensor *src = nullptr;
    Span src_y{0, 0}, src_x{0, 0};
    if (li == 0) {
        src = groupInput;
        src_y = Span{0, g.inPlane.h};
        src_x = Span{0, g.inPlane.w};
    } else {
        LayerState &prod = producerState(li);
        src = &prod.fresh;
        src_y = prod.freshY;
        src_x = prod.freshX;
    }

    // In-plane source rows and columns; everything else is padding.
    // Each output row is a zero lead, one contiguous source segment and
    // a zero trail.
    const Span sys{std::max(oy.begin - p, 0),
                   std::min(oy.end - p, g.inPlane.h)};
    const Span sxs{std::max(ox.begin - p, 0),
                   std::min(ox.end - p, g.inPlane.w)};
    const bool any_inside = !sys.empty() && !sxs.empty();
    if (li > 0 && any_inside) {
        FLCNN_ASSERT(sys.begin >= src_y.begin && sys.end <= src_y.end &&
                         sxs.begin >= src_x.begin &&
                         sxs.end <= src_x.end,
                     "pad source outside producer fresh");
    }
    if (li == 0 && traceSink && any_inside) {
        // In-plane sources form one contiguous row segment per (ch, gy).
        for (int ch = 0; ch < g.outPlane.c; ch++) {
            for (int sy = sys.begin; sy < sys.end; sy++) {
                trace(false,
                      traceInputBase +
                          static_cast<uint64_t>(groupInput->idx(
                              ch, sy, sxs.begin)) * 4,
                      static_cast<int64_t>(sxs.width()) * 4);
            }
        }
    }
    const int ow = ox.width();
    const int lead = sxs.begin + p - ox.begin;
    const int seg = sxs.width();
    for (int ch = 0; ch < g.outPlane.c; ch++) {
        for (int gy = oy.begin; gy < oy.end; gy++) {
            float *out = &st.fresh(ch, gy - oy.begin, 0);
            const int sy = gy - p;
            if (!any_inside || sy < sys.begin || sy >= sys.end) {
                std::fill(out, out + ow, 0.0f);
                continue;
            }
            const float *from =
                src->rowPtr(ch, sy - src_y.begin, sxs.begin - src_x.begin);
            std::fill(out, out + lead, 0.0f);
            std::copy(from, from + seg, out + lead);
            std::fill(out + lead + seg, out + ow, 0.0f);
        }
    }
    if (li == 0) {
        curStats.loadedBytes += static_cast<int64_t>(g.outPlane.c) *
                                sys.width() * sxs.width() * 4;
    }

    if (trackCoverage) {
        for (int ch = 0; ch < g.outPlane.c; ch++)
            for (int gy = oy.begin; gy < oy.end; gy++)
                for (int gx = ox.begin; gx < ox.end; gx++)
                    st.coverage[static_cast<size_t>(
                        (static_cast<int64_t>(ch) * g.outPlane.h + gy) *
                        g.outPlane.w + gx)]++;
    }
}

void
FusedExecutor::runPointwise(int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LayerState &st = states[static_cast<size_t>(li)];

    Span oy = g.freshOutY(r);
    Span ox = g.freshOutX(c);

    LayerState *owner;
    if (li == 0) {
        // A pointwise layer heading the group streams straight from DRAM.
        owner = &st;
        copyRect(*groupInput, Span{0, 0}, Span{0, 0}, st.fresh, oy, ox, oy,
                 ox);
        curStats.loadedBytes += static_cast<int64_t>(oy.width()) *
                                ox.width() * g.inPlane.c * 4;
        if (traceSink && !oy.empty() && !ox.empty()) {
            for (int ch = 0; ch < g.inPlane.c; ch++)
                for (int gy = oy.begin; gy < oy.end; gy++)
                    trace(false,
                          traceInputBase +
                              static_cast<uint64_t>(groupInput->idx(
                                  ch, gy, ox.begin)) * 4,
                          static_cast<int64_t>(ox.width()) * 4);
        }
    } else {
        LayerState &prod = producerState(li);
        FLCNN_ASSERT(oy.empty() || ox.empty() ||
                         (prod.freshY == oy && prod.freshX == ox),
                     "pointwise fresh rect mismatch with producer");
        owner = &prod;
        st.freshOwner = prod.freshOwner;
    }
    st.freshY = oy;
    st.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    Tensor &buf = owner->fresh;
    if (spec.kind == LayerKind::ReLU) {
        // After a conv the clamp already ran as the conv's epilogue.
        if (li == 0 || !states[static_cast<size_t>(li - 1)].reluEpilogue) {
            for (int ch = 0; ch < g.outPlane.c; ch++)
                reluRows(&buf(ch, 0, 0), buf.shape().w, oy.width(),
                         ox.width());
        }
        curStats.ops.compares += static_cast<int64_t>(g.outPlane.c) *
                                 oy.width() * ox.width();
    } else {
        // LRN: cross-channel at each point; use a channel scratch column
        // so the in-place update does not corrupt neighbors.
        const int half = spec.lrnSize / 2;
        std::vector<float> &col = st.lrnCol;
        for (int gy = oy.begin; gy < oy.end; gy++) {
            for (int gx = ox.begin; gx < ox.end; gx++) {
                for (int ch = 0; ch < g.outPlane.c; ch++)
                    col[static_cast<size_t>(ch)] =
                        buf(ch, gy - oy.begin, gx - ox.begin);
                for (int ch = 0; ch < g.outPlane.c; ch++) {
                    float sum = 0.0f;
                    int lo = std::max(0, ch - half);
                    int hi = std::min(g.outPlane.c - 1, ch + half);
                    for (int j = lo; j <= hi; j++)
                        sum += col[static_cast<size_t>(j)] *
                               col[static_cast<size_t>(j)];
                    float denom = std::pow(
                        2.0f + static_cast<float>(spec.lrnAlpha) * sum,
                        static_cast<float>(spec.lrnBeta));
                    buf(ch, gy - oy.begin, gx - ox.begin) =
                        col[static_cast<size_t>(ch)] / denom;
                    curStats.ops.mults += (hi - lo + 1) + 2;
                    curStats.ops.adds += (hi - lo + 1) + 1;
                }
            }
        }
    }
}

Tensor
FusedExecutor::run(const Tensor &input, RunStats *stats)
{
    Tensor output(tplan.groupOutput());
    runInto(input, &output, stats);
    return output;
}

void
FusedExecutor::runInto(const Tensor &input, Tensor *out,
                       RunStats *stats)
{
    FLCNN_ASSERT(input.shape() == tplan.groupInput(),
                 "input shape does not match the fusion plan");
    FLCNN_ASSERT(out != nullptr &&
                     out->shape() == tplan.groupOutput(),
                 "output shape does not match the fusion plan");
    Tensor &output = *out;
    groupInput = &input;
    groupOutput = &output;
    curStats = RunStats{};

    const int n = tplan.numFusedLayers();
    std::vector<double> layerWall;
    std::vector<int64_t> layerLoaded, layerMults, layerAdds,
        layerCompares;
    if (metrics) {
        layerWall.assign(static_cast<size_t>(n), 0.0);
        layerLoaded.assign(static_cast<size_t>(n), 0);
        layerMults.assign(static_cast<size_t>(n), 0);
        layerAdds.assign(static_cast<size_t>(n), 0);
        layerCompares.assign(static_cast<size_t>(n), 0);
    }
    const Precision runMode =
        precision ? precision->mode() : Precision::Fp32;
    // Refresh conv plans only when the tune cache has changed since
    // they were last computed (or a setter invalidated them): planner
    // lookups build shape-key strings, which would put a heap
    // allocation on the serving steady-state path.
    const int64_t tuneRev = TuneCache::global().revision();
    const bool replan = tuneRev != plannedRev;
    plannedRev = tuneRev;
    for (int li = 0; li < n; li++) {
        LayerState &st = states[static_cast<size_t>(li)];
        st.btBaseOld = 0;
        st.btBaseNew = 0;
        st.btWatermark = 0;
        st.blX = Span{0, 0};
        if (replan && tplan.geom(li).windowed &&
            net.layer(tplan.geom(li).layerIdx).kind == LayerKind::Conv) {
            st.plan = planConv(convLayerQuery(
                net.layer(tplan.geom(li).layerIdx),
                tplan.geom(li).inPlane, runMode,
                fastMath && runMode == Precision::Fp32));
        }
        bool counts_coverage =
            tplan.geom(li).windowed ||
            net.layer(tplan.geom(li).layerIdx).kind == LayerKind::Pad;
        if (trackCoverage && counts_coverage) {
            st.coverage.assign(
                static_cast<size_t>(tplan.geom(li).outPlane.elems()), 0);
        } else {
            st.coverage.clear();
        }
        // Pointwise owners are re-established every pyramid; reset the
        // li == 0 special case.
        if (!tplan.geom(li).windowed &&
            net.layer(tplan.geom(li).layerIdx).pointwise() && li > 0) {
            st.freshOwner = -1;
        }
    }

    for (int r = 0; r < tplan.numPyramidRows(); r++) {
        // Row bookkeeping (active rows only): the strip written during
        // the previous active row becomes readable; a new strip (for the
        // next active row) starts filling.
        for (int li = 0; li < n; li++) {
            const LayerGeom &g = tplan.geom(li);
            LayerState &st = states[static_cast<size_t>(li)];
            if (!g.windowed || g.overlapY <= 0 || !g.isActiveY(r))
                continue;
            st.btBaseOld = st.btBaseNew;
            st.btBaseNew = g.nextBeginY[static_cast<size_t>(r)] >= 0
                               ? g.nextBeginY[static_cast<size_t>(r)]
                               : 0;
            st.btWatermark = 0;
        }

        for (int c = 0; c < tplan.numPyramidCols(); c++) {
            for (int li = 0; li < n; li++) {
                const LayerGeom &g = tplan.geom(li);
                const LayerSpec &spec = net.layer(g.layerIdx);
                LayerState &st = states[static_cast<size_t>(li)];
                if (!g.isActiveY(r) || !g.isActiveX(c)) {
                    // Stalled pyramid: this layer computes nothing here
                    // and its buffers carry over untouched. Publish an
                    // empty fresh rect for downstream bookkeeping.
                    Span ey = g.freshOutY(r), ex = g.freshOutX(c);
                    st.freshY = Span{ey.end, ey.end};
                    st.freshX = Span{ex.end, ex.end};
                    if (!g.windowed && spec.pointwise() && li > 0) {
                        st.freshOwner =
                            states[static_cast<size_t>(li) - 1].freshOwner;
                    }
                    continue;
                }
                int64_t loaded0 = 0, mul0 = 0, add0 = 0, cmp0 = 0;
                double t0 = 0.0;
                if (metrics) {
                    loaded0 = curStats.loadedBytes;
                    mul0 = curStats.ops.mults;
                    add0 = curStats.ops.adds;
                    cmp0 = curStats.ops.compares;
                    t0 = wallSeconds();
                }
                if (g.windowed) {
                    assembleTile(li, r, c);
                    saveReuse(li, r, c);
                    computeWindowed(li, r, c);
                } else if (spec.kind == LayerKind::Pad) {
                    runPad(li, r, c);
                } else {
                    runPointwise(li, r, c);
                }
                if (metrics) {
                    const size_t i = static_cast<size_t>(li);
                    layerWall[i] += wallSeconds() - t0;
                    layerLoaded[i] += curStats.loadedBytes - loaded0;
                    layerMults[i] += curStats.ops.mults - mul0;
                    layerAdds[i] += curStats.ops.adds - add0;
                    layerCompares[i] += curStats.ops.compares - cmp0;
                }
            }

            // Retire the pyramid: store the tip to DRAM.
            LayerState &tail = states[static_cast<size_t>(n - 1)];
            LayerState &owner = states[static_cast<size_t>(
                tail.freshOwner >= 0 ? tail.freshOwner : n - 1)];
            Span oy = tail.freshY, ox = tail.freshX;
            if (!oy.empty() && !ox.empty()) {
                copyRect(owner.fresh, owner.freshY, owner.freshX, output,
                         Span{0, 0}, Span{0, 0}, oy, ox);
                curStats.storedBytes += static_cast<int64_t>(oy.width()) *
                                        ox.width() *
                                        output.shape().c * 4;
                if (traceSink) {
                    for (int ch = 0; ch < output.shape().c; ch++)
                        for (int gy = oy.begin; gy < oy.end; gy++)
                            trace(true,
                                  traceOutputBase +
                                      static_cast<uint64_t>(output.idx(
                                          ch, gy, ox.begin)) * 4,
                                  static_cast<int64_t>(ox.width()) * 4);
                }
            }
            curStats.pyramids++;
        }
    }

    curStats.reuseBytes = tplan.reuseBufferBytes();
    curStats.workingBytes = tplan.workingBufferBytes();

    if (metrics) {
        for (int li = 0; li < n; li++) {
            const size_t i = static_cast<size_t>(li);
            const LayerGeom &g = tplan.geom(li);
            const LayerState &st = states[i];
            const std::string scope =
                metricsPrefix + MetricsRegistry::layerScope(
                                    li, net.layer(g.layerIdx).name);
            metrics->addCounter(scope, "dram_read_bytes",
                                layerLoaded[i]);
            // Every stored byte retires through the tail layer.
            metrics->addCounter(scope, "dram_write_bytes",
                                li == n - 1 ? curStats.storedBytes : 0);
            metrics->addCounter(scope, "mults", layerMults[i]);
            metrics->addCounter(scope, "adds", layerAdds[i]);
            metrics->addCounter(scope, "compares", layerCompares[i]);
            metrics->addGauge(scope, "wall_seconds", layerWall[i]);
            metrics->setGauge(scope, "tile_bytes",
                              static_cast<double>(st.tile.elems()) * 4);
            metrics->setGauge(
                scope, "reuse_bytes",
                static_cast<double>(st.bl.elems() + st.bt.elems()) * 4);
            metrics->setGauge(
                scope, "fresh_bytes",
                st.freshOwner == li
                    ? static_cast<double>(st.fresh.elems()) * 4
                    : 0.0);
        }
        metrics->addCounter(metricsPrefix, "pyramids",
                            curStats.pyramids);
        metrics->addCounter(metricsPrefix, "pack_hits",
                            packCache.hits() - lastPackHits);
        metrics->addCounter(metricsPrefix, "pack_misses",
                            packCache.misses() - lastPackMisses);
        lastPackHits = packCache.hits();
        lastPackMisses = packCache.misses();
    }

    if (trackCoverage) {
        coverageMsg.clear();
        for (int li = 0; li < n; li++) {
            const LayerState &st = states[static_cast<size_t>(li)];
            if (st.coverage.empty())
                continue;
            int64_t over = 0, computed = 0;
            for (uint8_t v : st.coverage) {
                if (v > 1)
                    over++;
                if (v >= 1)
                    computed++;
            }
            // The group-output completeness check applies to whichever
            // layer owns the tail's fresh buffer (a pointwise tail
            // aliases its producer and tallies nothing itself).
            bool is_tail_owner =
                states[static_cast<size_t>(n - 1)].freshOwner == li;
            int64_t want = tplan.geom(li).outPlane.elems();
            if (over > 0) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "layer %d recomputed %lld elements; ", li,
                              static_cast<long long>(over));
                coverageMsg += buf;
            }
            if (is_tail_owner && computed != want) {
                char buf[128];
                std::snprintf(
                    buf, sizeof(buf),
                    "output layer %d covered %lld of %lld elements; ", li,
                    static_cast<long long>(computed),
                    static_cast<long long>(want));
                coverageMsg += buf;
            }
        }
    }

    groupInput = nullptr;
    groupOutput = nullptr;
    if (stats)
        *stats = curStats;
}

std::string
FusedExecutor::coverageReport() const
{
    return coverageMsg;
}

} // namespace flcnn
