#include "fusion/fused_executor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/pool.hh"
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

int
maxWidth(const std::vector<Span> &spans)
{
    int w = 0;
    for (const Span &s : spans)
        w = std::max(w, s.width());
    return w;
}

} // namespace

FusedExecutor::FusedExecutor(const Network &network,
                             const NetworkWeights &w, TilePlan plan,
                             Halo halo)
    : net(network), weights(w), tplan(std::move(plan)), haloMode(halo)
{
    const bool retain = haloMode == Halo::Retain;
    const int n = tplan.numFusedLayers();
    const int rows = tplan.numPyramidRows();
    const int cols = tplan.numPyramidCols();
    states.resize(static_cast<size_t>(n));
    rowReadyCol.resize(static_cast<size_t>(cols));
    std::iota(rowReadyCol.begin(), rowReadyCol.end(), 0);
    for (int li = 0; li < n; li++) {
        const LayerGeom &g = tplan.geom(li);
        const LayerSpec &spec = net.layer(g.layerIdx);
        LayerState &st = states[static_cast<size_t>(li)];

        // A conv directly followed by a fused ReLU clamps its own fresh
        // rows inside its parallel work items (computeWindowed); the
        // ReLU step then only tallies its compares.
        st.conv.relu =
            spec.kind == LayerKind::Conv && li + 1 < n &&
            net.layer(tplan.geom(li + 1).layerIdx).kind == LayerKind::ReLU;

        for (int r = 0; r < rows; r++) {
            const size_t i = static_cast<size_t>(r);
            st.tileY.push_back(retain ? g.inY[i] : g.fullInY[i]);
            st.loadY.push_back(retain ? g.freshInY(r) : g.fullInY[i]);
            st.outY.push_back(retain ? g.freshOutY(r) : g.outY[i]);
        }
        for (int c = 0; c < cols; c++) {
            const size_t i = static_cast<size_t>(c);
            st.tileX.push_back(retain ? g.inX[i] : g.fullInX[i]);
            st.loadX.push_back(retain ? g.freshInX(c) : g.fullInX[i]);
            st.outX.push_back(retain ? g.freshOutX(c) : g.outX[i]);
        }

        if (!retain || !g.windowed || g.overlapY <= 0)
            continue;
        st.bt = Tensor(g.inPlane.c, g.overlapY, g.inPlane.w);

        // The BT strip a row reads was written by the previous row
        // active at this layer.
        st.btWriterRow.assign(static_cast<size_t>(rows), -1);
        for (int r = 0, last = -1; r < rows; r++) {
            st.btWriterRow[static_cast<size_t>(r)] = last;
            if (g.isActiveY(r))
                last = r;
        }
        // Columns of the writer row's BT writes after each of its
        // pyramids: saveReuse()'s safe-write watermark.
        std::vector<int> written(static_cast<size_t>(cols), 0);
        for (int c = 0, mark = 0; c < cols; c++) {
            if (g.isActiveX(c)) {
                const Span tx = g.inX[static_cast<size_t>(c)];
                const int next_bx = g.nextBeginX[static_cast<size_t>(c)];
                mark = std::max(mark, next_bx >= 0
                                          ? std::min(next_bx, tx.end)
                                          : tx.end);
            }
            written[static_cast<size_t>(c)] = mark;
        }
        // Pyramid c reads (and later overwrites) BT columns inX[c]; the
        // writer row covers them after its first pyramid whose
        // watermark reaches inX[c].end.
        st.btReadyCol.assign(static_cast<size_t>(cols), -1);
        for (int c = 0; c < cols; c++) {
            if (!g.isActiveX(c))
                continue;
            const auto at =
                std::lower_bound(written.begin(), written.end(),
                                 g.inX[static_cast<size_t>(c)].end);
            const int ready =
                std::min(static_cast<int>(at - written.begin()), cols - 1);
            st.btReadyCol[static_cast<size_t>(c)] = ready;
            rowReadyCol[static_cast<size_t>(c)] =
                std::max(rowReadyCol[static_cast<size_t>(c)], ready);
        }
    }
    // Monotone in c, so a row that has finished layer li of pyramid k
    // has let the row above it finish layer li of rowReadyCol[k] >= k:
    // waiting on the previous row alone then covers writers further up
    // (rows where a layer is stalled).
    for (int c = 1; c < cols; c++) {
        rowReadyCol[static_cast<size_t>(c)] =
            std::max(rowReadyCol[static_cast<size_t>(c)],
                     rowReadyCol[static_cast<size_t>(c) - 1]);
    }
    rowProgress = std::make_unique<RowProgress[]>(static_cast<size_t>(rows));
    lanes.push_back(makeLane());
    if (retain) {
        workingBytes = tplan.workingBufferBytes();
    } else {
        for (const LaneLayer &ll : lanes.front().layers)
            workingBytes += (ll.tile.elems() + ll.fresh.elems()) * 4;
    }
}

FusedExecutor::Lane
FusedExecutor::makeLane() const
{
    const int n = tplan.numFusedLayers();
    Lane ln;
    ln.layers.resize(static_cast<size_t>(n));
    for (int li = 0; li < n; li++) {
        const LayerGeom &g = tplan.geom(li);
        const LayerSpec &spec = net.layer(g.layerIdx);
        const LayerState &st = states[static_cast<size_t>(li)];
        LaneLayer &ll = ln.layers[static_cast<size_t>(li)];
        const int tile_h = std::max(1, maxWidth(st.tileY));
        if (g.windowed && !readsProducer(li)) {
            ll.tile = Tensor(g.inPlane.c, tile_h,
                             std::max(1, maxWidth(st.tileX)));
        }
        if (g.windowed && haloMode == Halo::Retain && g.overlapX > 0)
            ll.bl = Tensor(g.inPlane.c, tile_h, g.overlapX);
        bool owns_fresh = g.windowed || spec.kind == LayerKind::Pad ||
                          li == 0;
        if (owns_fresh) {
            ll.fresh = Tensor(g.outPlane.c, std::max(1, maxWidth(st.outY)),
                              std::max(1, maxWidth(st.outX)));
            ll.freshOwner = li;
        }
        if (spec.kind == LayerKind::LRN)
            ll.lrnCol.resize(static_cast<size_t>(g.outPlane.c));
    }
    ln.tally.resize(static_cast<size_t>(n));
    return ln;
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

FusedExecutor::LaneLayer &
FusedExecutor::producer(Lane &ln, int li)
{
    FLCNN_ASSERT(li > 0, "the first fused layer has no producer");
    LaneLayer &prev = ln.layers[static_cast<size_t>(li - 1)];
    FLCNN_ASSERT(prev.freshOwner >= 0, "producer owns no fresh buffer");
    return ln.layers[static_cast<size_t>(prev.freshOwner)];
}

void
FusedExecutor::assembleTile(Lane &ln, int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerState &st = states[static_cast<size_t>(li)];
    LaneLayer &ll = ln.layers[static_cast<size_t>(li)];

    Span ty = st.tileY[static_cast<size_t>(r)];
    Span tx = st.tileX[static_cast<size_t>(c)];
    Span fy = st.loadY[static_cast<size_t>(r)];
    Span fx = st.loadX[static_cast<size_t>(c)];
    ll.tileY = ty;
    ll.tileX = tx;
    if (readsProducer(li)) {
        const LaneLayer &prod = producer(ln, li);
        FLCNN_ASSERT(prod.freshY == ty && prod.freshX == tx,
                     "producer output is not the recompute tile");
        return;
    }

    // Top strip [ty.begin, fy.begin) x full tile width, from BT.
    Span top{ty.begin, fy.begin};
    if (!top.empty()) {
        FLCNN_ASSERT(st.bt.elems() > 0, "top overlap without a BT buffer");
        const int writer = st.btWriterRow[static_cast<size_t>(r)];
        FLCNN_ASSERT(writer >= 0 &&
                         (!handOff ||
                          rowProgress[writer].done.load(
                              std::memory_order_acquire) >=
                              stepsThrough(
                                  st.btReadyCol[static_cast<size_t>(c)],
                                  li)),
                     "BT read raced ahead of its writer row");
        FLCNN_ASSERT(tx.begin >= ll.btWatermark,
                     "BT read raced ahead of the safe-write watermark");
        FLCNN_ASSERT(top.begin >= ll.btBaseOld,
                     "BT read below the retained strip");
        copyRect(st.bt, Span{ll.btBaseOld, ll.btBaseOld}, Span{0, 0},
                 ll.tile, ty, tx, top, tx);
    }

    // Left strip [fy.begin, ty.end) x [tx.begin, fx.begin), from BL.
    Span left{tx.begin, fx.begin};
    Span body{fy.begin, ty.end};
    if (!left.empty() && !body.empty()) {
        FLCNN_ASSERT(ll.bl.elems() > 0, "left overlap without a BL buffer");
        copyRect(ll.bl, ll.blY, ll.blX, ll.tile, ty, tx, body, left);
    }

    // Fresh corner [fy.begin, ty.end) x [fx.begin, tx.end).
    if (!fy.empty() && !fx.empty()) {
        if (li == 0) {
            copyRect(*groupInput, Span{0, 0}, Span{0, 0}, ll.tile, ty, tx,
                     fy, fx);
            ln.stats.loadedBytes += static_cast<int64_t>(fy.width()) *
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
            LaneLayer &prod = producer(ln, li);
            FLCNN_ASSERT(prod.freshY.begin <= fy.begin &&
                             prod.freshY.end >= fy.end &&
                             prod.freshX.begin <= fx.begin &&
                             prod.freshX.end >= fx.end,
                         "producer fresh rect does not cover consumer");
            copyRect(prod.fresh, prod.freshY, prod.freshX, ll.tile, ty, tx,
                     fy, fx);
        }
    }
}

void
FusedExecutor::saveReuse(Lane &ln, int li, int r, int c)
{
    if (haloMode == Halo::Recompute)
        return;
    const LayerGeom &g = tplan.geom(li);
    LayerState &st = states[static_cast<size_t>(li)];
    LaneLayer &ll = ln.layers[static_cast<size_t>(li)];
    Span ty = g.inY[static_cast<size_t>(r)];
    Span tx = g.inX[static_cast<size_t>(c)];

    // BL: columns the next *active* pyramid in this row re-reads.
    int next_bx = g.nextBeginX[static_cast<size_t>(c)];
    if (next_bx >= 0 && g.overlapX > 0) {
        Span keep{std::max(next_bx, tx.begin), tx.end};
        if (!keep.empty()) {
            ll.blY = ty;
            ll.blX = keep;
            copyRect(ll.tile, ty, tx, ll.bl, ty, keep, ty, keep);
        } else {
            ll.blX = Span{0, 0};
        }
    }

    // BT: bottom rows for the next active pyramid row, written only up
    // to the next active pyramid's left edge (safe-write; see file
    // comment).
    if (g.nextBeginY[static_cast<size_t>(r)] >= 0 && g.overlapY > 0) {
        Span keep_rows{std::max(ll.btBaseNew, ty.begin), ty.end};
        int write_end =
            (next_bx >= 0) ? std::min(next_bx, tx.end) : tx.end;
        Span write_cols{std::max(tx.begin, ll.btWatermark), write_end};
        if (!keep_rows.empty() && !write_cols.empty()) {
            copyRect(ll.tile, ty, tx, st.bt,
                     Span{ll.btBaseNew, ll.btBaseNew}, Span{0, 0},
                     keep_rows, write_cols);
        }
        ll.btWatermark = std::max(ll.btWatermark, write_cols.end);
    }
}

void
FusedExecutor::computeWindowed(Lane &ln, int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    const LayerState &st = states[static_cast<size_t>(li)];
    LaneLayer &ll = ln.layers[static_cast<size_t>(li)];

    Span oy = st.outY[static_cast<size_t>(r)];
    Span ox = st.outX[static_cast<size_t>(c)];
    ll.freshY = oy;
    ll.freshX = ox;
    if (oy.empty() || ox.empty())
        return;

    const int s = spec.stride;
    const int oh = oy.width();
    Tensor &fresh = ll.fresh;
    const Tensor &tile =
        readsProducer(li) ? producer(ln, li).fresh : ll.tile;
    if (spec.kind == LayerKind::Conv) {
        const FilterBank &fb = weights.bank(net.convSlot(g.layerIdx));
        const int n_per_group = fb.numChannels();
        // The fresh rows of this pyramid through the one conv driver:
        // the staging of non-fp32 modes (the lane's own stage), the
        // (filter block, row group) items and the ReLU epilogue are
        // runConvRows()'s, so the tile stays bit-identical to the
        // reference at every thread count. Inside a lane of a
        // multi-lane run the items run inline; a one-lane run splits
        // them over the pool.
        runConvRows(st.conv, tile, oy.begin * s - ll.tileY.begin,
                    ox.begin * s - ll.tileX.begin, oh, ox.width(),
                    fresh.data(),
                    static_cast<int64_t>(fresh.shape().h) * fresh.shape().w,
                    fresh.shape().w, ll.stage);
        int64_t taps = static_cast<int64_t>(n_per_group) * fb.kernel() *
                       fb.kernel();
        int64_t points = static_cast<int64_t>(g.outPlane.c) *
                         oy.width() * ox.width();
        ln.stats.ops.mults += taps * points;
        ln.stats.ops.adds += taps * points;
    } else {
        // Disjoint (ch, row) output strips, each one poolRow() over the
        // window's K tile rows (poolPoint()'s fold order). Pool ops are
        // tallied analytically below, outside the parallel region.
        FLCNN_ASSERT(spec.kernel <= kMaxPoolKernel,
                     "pool kernel exceeds the row table");
        const int y0 = ll.tileY.begin;
        const int x0 = ox.begin * s - ll.tileX.begin;
        const bool is_max = spec.poolMode == PoolMode::Max;
        parallelFor(
            0, static_cast<int64_t>(g.outPlane.c) * oh,
            [&](int64_t lo, int64_t hi) {
                const float *rows[kMaxPoolKernel];
                for (int64_t w = lo; w < hi; w++) {
                    const int ch = static_cast<int>(w / oh);
                    const int gy = oy.begin + static_cast<int>(w % oh);
                    for (int i = 0; i < spec.kernel; i++)
                        rows[i] = tile.rowPtr(ch, gy * s - y0 + i, x0);
                    poolRow(&fresh(ch, gy - oy.begin, 0), ox.width(), rows,
                            spec.kernel, s, is_max);
                }
            },
            /*grain=*/2);
        int64_t win = static_cast<int64_t>(spec.kernel) * spec.kernel *
                      g.outPlane.c * oy.width() * ox.width();
        if (is_max)
            ln.stats.ops.compares += win;
        else
            ln.stats.ops.adds += win;
    }

    if (trackCoverage) {
        for (int ch = 0; ch < g.outPlane.c; ch++)
            for (int gy = oy.begin; gy < oy.end; gy++)
                for (int gx = ox.begin; gx < ox.end; gx++)
                    ll.coverage[static_cast<size_t>(
                        (static_cast<int64_t>(ch) * g.outPlane.h + gy) *
                        g.outPlane.w + gx)]++;
    }
}

void
FusedExecutor::runPad(Lane &ln, int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LaneLayer &st = ln.layers[static_cast<size_t>(li)];
    const int p = spec.pad;

    Span oy = states[static_cast<size_t>(li)].outY[static_cast<size_t>(r)];
    Span ox = states[static_cast<size_t>(li)].outX[static_cast<size_t>(c)];
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
        LaneLayer &prod = producer(ln, li);
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
        ln.stats.loadedBytes += static_cast<int64_t>(g.outPlane.c) *
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
FusedExecutor::runPointwise(Lane &ln, int li, int r, int c)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);
    LaneLayer &st = ln.layers[static_cast<size_t>(li)];

    Span oy = states[static_cast<size_t>(li)].outY[static_cast<size_t>(r)];
    Span ox = states[static_cast<size_t>(li)].outX[static_cast<size_t>(c)];

    LaneLayer *owner;
    if (li == 0) {
        // A pointwise layer heading the group streams straight from DRAM.
        owner = &st;
        copyRect(*groupInput, Span{0, 0}, Span{0, 0}, st.fresh, oy, ox, oy,
                 ox);
        ln.stats.loadedBytes += static_cast<int64_t>(oy.width()) *
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
        LaneLayer &prod = producer(ln, li);
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
        if (li == 0 || !states[static_cast<size_t>(li) - 1].conv.relu) {
            for (int ch = 0; ch < g.outPlane.c; ch++)
                reluRows(&buf(ch, 0, 0), buf.shape().w, oy.width(),
                         ox.width());
        }
        ln.stats.ops.compares += static_cast<int64_t>(g.outPlane.c) *
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
                    ln.stats.ops.mults += (hi - lo + 1) + 2;
                    ln.stats.ops.adds += (hi - lo + 1) + 1;
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
FusedExecutor::waitRow(int r, int steps)
{
    RowProgress &p = rowProgress[r];
    if (p.done.load(std::memory_order_acquire) >= steps)
        return;
    // Announce the target before the last look, so the publisher that
    // reaches it either is seen here or sees the target and wakes us.
    p.want.store(steps);
    int seen = p.done.load();
    while (seen < steps) {
        p.done.wait(seen, std::memory_order_acquire);
        seen = p.done.load(std::memory_order_acquire);
    }
    p.want.store(kNobodyWaits, std::memory_order_relaxed);
}

void
FusedExecutor::publish(int r, int steps)
{
    RowProgress &p = rowProgress[r];
    p.done.store(steps);
    if (steps >= p.want.load())
        p.done.notify_all();
}

void
FusedExecutor::runRow(Lane &ln, int r)
{
    const int n = tplan.numFusedLayers();
    // Row bookkeeping (active rows only), from the geometry alone: the
    // strip the previous active row wrote (based at this row's tile
    // top) becomes readable; a new strip, for the next active row,
    // starts filling.
    for (int li = 0; li < n; li++) {
        const LayerGeom &g = tplan.geom(li);
        const LayerState &st = states[static_cast<size_t>(li)];
        LaneLayer &ll = ln.layers[static_cast<size_t>(li)];
        if (st.btWriterRow.empty() || !g.isActiveY(r))
            continue;
        ll.btBaseOld = st.btWriterRow[static_cast<size_t>(r)] >= 0
                           ? g.inY[static_cast<size_t>(r)].begin
                           : 0;
        ll.btBaseNew = std::max(g.nextBeginY[static_cast<size_t>(r)], 0);
        ll.btWatermark = 0;
    }

    for (int c = 0; c < tplan.numPyramidCols(); c++) {
        for (int li = 0; li < n; li++) {
            const LayerGeom &g = tplan.geom(li);
            const LayerSpec &spec = net.layer(g.layerIdx);
            const LayerState &st = states[static_cast<size_t>(li)];
            LaneLayer &ll = ln.layers[static_cast<size_t>(li)];
            // Only a BT strip is shared between rows: this layer's
            // hand-off is row r - 1 done with this layer of pyramid
            // rowReadyCol[c]. Stalled layers wait too, which carries
            // the hand-off from writers further up.
            const bool shared = handOff && !st.btWriterRow.empty();
            if (shared && r > 0) {
                waitRow(r - 1,
                        stepsThrough(rowReadyCol[static_cast<size_t>(c)],
                                     li));
            }
            const Span ey = st.outY[static_cast<size_t>(r)];
            const Span ex = st.outX[static_cast<size_t>(c)];
            if (ey.empty() || ex.empty()) {
                // Stalled pyramid: this layer computes nothing here
                // and its buffers carry over untouched. Leave an
                // empty fresh rect for downstream bookkeeping.
                ll.freshY = Span{ey.end, ey.end};
                ll.freshX = Span{ex.end, ex.end};
                if (!g.windowed && spec.pointwise() && li > 0) {
                    ll.freshOwner =
                        ln.layers[static_cast<size_t>(li) - 1].freshOwner;
                }
            } else {
                const RunStats before = ln.stats;
                double t0 = 0.0;
                if (metrics)
                    t0 = wallSeconds();
                if (g.windowed) {
                    assembleTile(ln, li, r, c);
                    saveReuse(ln, li, r, c);
                    computeWindowed(ln, li, r, c);
                } else if (spec.kind == LayerKind::Pad) {
                    runPad(ln, li, r, c);
                } else {
                    runPointwise(ln, li, r, c);
                }
                if (metrics) {
                    LayerTally &t = ln.tally[static_cast<size_t>(li)];
                    t.wall += wallSeconds() - t0;
                    t.loaded += ln.stats.loadedBytes - before.loadedBytes;
                    t.ops += ln.stats.ops - before.ops;
                }
            }
            if (shared)
                publish(r, stepsThrough(c, li));
        }

        // Retire the pyramid: store the tip to DRAM.
        LaneLayer &tail = ln.layers[static_cast<size_t>(n - 1)];
        LaneLayer &owner = ln.layers[static_cast<size_t>(
            tail.freshOwner >= 0 ? tail.freshOwner : n - 1)];
        Tensor &output = *groupOutput;
        Span oy = tail.freshY, ox = tail.freshX;
        if (!oy.empty() && !ox.empty()) {
            copyRect(owner.fresh, owner.freshY, owner.freshX, output,
                     Span{0, 0}, Span{0, 0}, oy, ox);
            ln.stats.storedBytes += static_cast<int64_t>(oy.width()) *
                                    ox.width() * output.shape().c * 4;
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
        ln.stats.pyramids++;
    }
}

void
FusedExecutor::runLanes(int lo, int hi, int nlanes)
{
    // Ascending rows: a chunk never waits on a row it has yet to run,
    // so any split of the lanes into chunks makes progress.
    for (int r = 0; r < tplan.numPyramidRows(); r++) {
        const int l = r % nlanes;
        if (l >= lo && l < hi)
            runRow(lanes[static_cast<size_t>(l)], r);
    }
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
    groupInput = &input;
    groupOutput = out;

    const int n = tplan.numFusedLayers();
    const int rows = tplan.numPyramidRows();
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
        const LayerGeom &g = tplan.geom(li);
        const LayerSpec &spec = net.layer(g.layerIdx);
        LayerState &st = states[static_cast<size_t>(li)];
        if (!g.windowed || spec.kind != LayerKind::Conv)
            continue;
        if (replan) {
            st.plan = planConv(convLayerQuery(
                spec, g.inPlane, runMode,
                fastMath && runMode == Precision::Fp32));
        }
        // Resolve the packed weights once, before the lanes start.
        const int slot = net.convSlot(g.layerIdx);
        const FilterBank &fb = weights.bank(slot);
        ConvLayerRun &cv = st.conv;
        cv.bk = st.plan.bk;
        cv.bkI8 = st.plan.bkI8;
        cv.grain = st.plan.cfg.grain;
        cv.pw = nullptr;
        cv.pwI8 = nullptr;
        cv.pwF16 = nullptr;
        if (runMode == Precision::Int8) {
            cv.act = precision->actQuant(slot);
            cv.pwI8 = &packCache.getI8(
                g.layerIdx, fb, spec.groups, precision->weightScales(slot),
                precision->scaleId(), st.plan.cfg.mrCap);
        } else if (runMode == Precision::Fp16) {
            cv.pwF16 = &packCache.getF16(g.layerIdx, fb, spec.groups,
                                         st.plan.cfg.mrCap);
        } else {
            cv.pw = &packCache.get(g.layerIdx, fb, spec.groups, 0,
                                   st.plan.cfg.mrCap);
        }
    }

    // One lane when the calling thread is already inside a parallel
    // region (it could not fan out anyway) or a trace sink needs the
    // raster order; otherwise one lane per pool thread, at most one per
    // pyramid row. Rows hand off only where several lanes share BT.
    int nlanes = 1;
    if (!traceSink && !ThreadPool::inParallelRegion())
        nlanes = std::min(ThreadPool::global().numThreads(), rows);
    handOff = nlanes > 1 && haloMode == Halo::Retain;
    while (static_cast<int>(lanes.size()) < nlanes)
        lanes.push_back(makeLane());
    for (int l = 0; l < nlanes; l++) {
        Lane &ln = lanes[static_cast<size_t>(l)];
        ln.stats = RunStats{};
        if (metrics)
            std::fill(ln.tally.begin(), ln.tally.end(), LayerTally{});
        for (int li = 0; li < n; li++) {
            const LayerGeom &g = tplan.geom(li);
            const LayerSpec &spec = net.layer(g.layerIdx);
            LaneLayer &ll = ln.layers[static_cast<size_t>(li)];
            ll.blX = Span{0, 0};
            if (trackCoverage &&
                (g.windowed || spec.kind == LayerKind::Pad)) {
                ll.coverage.assign(
                    static_cast<size_t>(g.outPlane.elems()), 0);
            } else {
                ll.coverage.clear();
            }
            // Pointwise owners are re-established every pyramid; reset
            // the li == 0 special case.
            if (!g.windowed && spec.pointwise() && li > 0)
                ll.freshOwner = -1;
        }
    }
    for (int r = 0; handOff && r < rows; r++) {
        rowProgress[r].done.store(0, std::memory_order_relaxed);
        rowProgress[r].want.store(kNobodyWaits, std::memory_order_relaxed);
    }

    if (nlanes == 1) {
        runLanes(0, 1, 1);
    } else {
        parallelFor(0, nlanes, [&](int64_t lo, int64_t hi) {
            runLanes(static_cast<int>(lo), static_cast<int>(hi), nlanes);
        });
    }

    RunStats total;
    for (int l = 0; l < nlanes; l++) {
        const RunStats &ls = lanes[static_cast<size_t>(l)].stats;
        total.loadedBytes += ls.loadedBytes;
        total.storedBytes += ls.storedBytes;
        total.pyramids += ls.pyramids;
        total.ops += ls.ops;
    }
    if (haloMode == Halo::Retain)
        total.reuseBytes = tplan.reuseBufferBytes();
    total.workingBytes = workingBytes;

    if (metrics) {
        const Lane &first = lanes.front();
        for (int li = 0; li < n; li++) {
            const size_t i = static_cast<size_t>(li);
            const LayerGeom &g = tplan.geom(li);
            const LaneLayer &ll = first.layers[i];
            LayerTally sum;
            for (int l = 0; l < nlanes; l++) {
                const LayerTally &t = lanes[static_cast<size_t>(l)].tally[i];
                sum.wall += t.wall;
                sum.loaded += t.loaded;
                sum.ops += t.ops;
            }
            const std::string scope =
                metricsPrefix + MetricsRegistry::layerScope(
                                    li, net.layer(g.layerIdx).name);
            metrics->addCounter(scope, "dram_read_bytes", sum.loaded);
            // Every stored byte retires through the tail layer.
            metrics->addCounter(scope, "dram_write_bytes",
                                li == n - 1 ? total.storedBytes : 0);
            metrics->addCounter(scope, "mults", sum.ops.mults);
            metrics->addCounter(scope, "adds", sum.ops.adds);
            metrics->addCounter(scope, "compares", sum.ops.compares);
            metrics->addGauge(scope, "wall_seconds", sum.wall);
            metrics->setGauge(scope, "tile_bytes",
                              static_cast<double>(ll.tile.elems()) * 4);
            metrics->setGauge(
                scope, "reuse_bytes",
                static_cast<double>(ll.bl.elems() +
                                    states[i].bt.elems()) * 4);
            metrics->setGauge(
                scope, "fresh_bytes",
                ll.freshOwner == li
                    ? static_cast<double>(ll.fresh.elems()) * 4
                    : 0.0);
        }
        metrics->addCounter(metricsPrefix, "pyramids", total.pyramids);
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
            // Fold every lane's counts into the first lane's.
            std::vector<uint8_t> &cov =
                lanes.front().layers[static_cast<size_t>(li)].coverage;
            if (cov.empty())
                continue;
            for (int l = 1; l < nlanes; l++) {
                const std::vector<uint8_t> &lc =
                    lanes[static_cast<size_t>(l)]
                        .layers[static_cast<size_t>(li)]
                        .coverage;
                for (size_t e = 0; e < cov.size(); e++)
                    cov[e] = static_cast<uint8_t>(cov[e] + lc[e]);
            }
            int64_t over = 0, computed = 0;
            for (uint8_t v : cov) {
                if (v > 1)
                    over++;
                if (v >= 1)
                    computed++;
            }
            // The group-output completeness check applies to whichever
            // layer owns the tail's fresh buffer (a pointwise tail
            // aliases its producer and tallies nothing itself).
            bool is_tail_owner =
                lanes.front().layers[static_cast<size_t>(n - 1)]
                    .freshOwner == li;
            int64_t want = tplan.geom(li).outPlane.elems();
            if (over > 0 && haloMode == Halo::Retain) {
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
        *stats = total;
}

std::string
FusedExecutor::coverageReport() const
{
    return coverageMsg;
}

} // namespace flcnn
