#include "accel/baseline_accel.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_kernels.hh"
#include "model/resource.hh"
#include "nn/autotune_net.hh"
#include "nn/reference.hh"
#include "obs/metrics.hh"
#include "sim/double_buffer.hh"

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

BaselineAccelerator::BaselineAccelerator(const Network &network,
                                         const NetworkWeights &w,
                                         BaselineConfig config,
                                         DramModel dram_model)
    : net(network), weights(w), cfg(config), dram(dram_model)
{
    FLCNN_ASSERT(cfg.tm >= 1 && cfg.tn >= 1,
                 "unroll factors must be positive");
}

Tensor
BaselineAccelerator::runConvStage(int stage_idx, const Tensor &in,
                                  bool *merged_pool)
{
    const Stage &st = net.stages()[static_cast<size_t>(stage_idx)];
    const LayerSpec &conv = net.layer(st.windowed);
    const FilterBank &fb = weights.bank(net.convSlot(st.windowed));

    // Apply any leading Pad layers on the fly (no DRAM traffic: the
    // zeros are synthesized on chip, but tile *extents* are counted in
    // padded coordinates, matching the analytic model).
    Tensor padded = in;
    for (int i = st.first; i < st.windowed; i++) {
        if (net.layer(i).kind == LayerKind::Pad)
            padded = runLayer(net.layer(i), padded, nullptr, nullptr,
                              nullptr);
    }

    const Shape &ishape = padded.shape();
    Shape oshape = conv.outShape(ishape);
    Tensor out(oshape);

    bool has_relu = false;
    for (int i = st.windowed + 1; i <= st.last; i++)
        has_relu |= (net.layer(i).kind == LayerKind::ReLU);

    const int k = conv.kernel, s = conv.stride;
    const int m_per_group = conv.outChannels / conv.groups;
    const int n_per_group = ishape.c / conv.groups;
    // Filter-interleaved panels whose 4/2/1 lane ladder restarts at
    // every Tm tile boundary, so a tile's blocks never straddle it.
    // The accelerator model always runs the exact tier (never
    // fast-math: its contract is bit-equality with the reference) but
    // picks up tuned mrCap/grain through the planner like every other
    // dispatch point.
    const ConvPlan plan = planConv(
        convLayerQuery(conv, ishape, Precision::Fp32, false));
    const ConvBlockKernel &bk = plan.bk;
    const PackedWeights &pw = packCache.get(
        st.windowed, fb, conv.groups, cfg.tm, plan.cfg.mrCap);
    const int tr = cfg.tr > 0 ? std::min(cfg.tr, oshape.h) : oshape.h;
    const int tc = cfg.tc > 0 ? std::min(cfg.tc, oshape.w) : oshape.w;

    std::vector<TilePhases> phases;
    Tensor in_tile(std::max(1, cfg.tn),
                   static_cast<int>(windowSpan(tr, k, s)),
                   static_cast<int>(windowSpan(tc, k, s)));

    for (int row = 0; row < oshape.h; row += tr) {
        const int trr = std::min(tr, oshape.h - row);
        const int in_h = static_cast<int>(windowSpan(trr, k, s));
        for (int col = 0; col < oshape.w; col += tc) {
            const int tcc = std::min(tc, oshape.w - col);
            const int in_w = static_cast<int>(windowSpan(tcc, k, s));
            for (int g = 0; g < conv.groups; g++) {
                const int n_base = g * n_per_group;
                for (int m0 = 0; m0 < m_per_group; m0 += cfg.tm) {
                    const int tmm =
                        std::min(cfg.tm, m_per_group - m0);
                    TilePhases ph;

                    // Bias-initialize the output tile (Listing 1's
                    // "if (n == 0) out = bias").
                    for (int dm = 0; dm < tmm; dm++) {
                        int m = g * m_per_group + m0 + dm;
                        for (int r = 0; r < trr; r++)
                            for (int c = 0; c < tcc; c++)
                                out(m, row + r, col + c) = fb.bias(m);
                    }

                    for (int n0 = 0; n0 < n_per_group; n0 += cfg.tn) {
                        const int tnn =
                            std::min(cfg.tn, n_per_group - n0);

                        // Load the input tile (counted in padded
                        // coordinates, like the analytic model).
                        for (int dn = 0; dn < tnn; dn++)
                            for (int y = 0; y < in_h; y++)
                                for (int x = 0; x < in_w; x++)
                                    in_tile(dn, y, x) = padded(
                                        n_base + n0 + dn,
                                        row * s + y, col * s + x);
                        int64_t load_bytes =
                            static_cast<int64_t>(tnn) * in_h * in_w * 4;
                        cur.dramReadBytes += load_bytes;
                        ph.load += dram.transferCycles(load_bytes);

                        // Accumulate: canonical (n, i, j) order per
                        // output point, so results match the reference
                        // bit-exactly. Each (filter-block, r) work item
                        // owns an MR-row output strip, accumulated in
                        // place on top of the previous channel block's
                        // partial sums (no bias re-init here; the tile
                        // preinit above supplied it); the serial n0
                        // loop above is a barrier between input-channel
                        // blocks. The packed panel's (n, i, j, lane)
                        // layout keeps channel sub-range [n0, n0+tnn)
                        // contiguous at offset n0*K*K*lanes.
                        const Shape &tsh = in_tile.shape();
                        const int64_t tile_ch_stride =
                            static_cast<int64_t>(tsh.h) * tsh.w;
                        const int64_t out_plane =
                            static_cast<int64_t>(oshape.h) * oshape.w;
                        const int m_base = g * m_per_group + m0;
                        const int bi0 = pw.blockOf(m_base);
                        const int nb_tile =
                            pw.blockOf(m_base + tmm - 1) - bi0 + 1;
                        parallelFor(
                            0, static_cast<int64_t>(nb_tile) * trr,
                            [&](int64_t wlo, int64_t whi) {
                                for (int64_t w = wlo; w < whi; w++) {
                                    const int bi =
                                        bi0 + static_cast<int>(w / trr);
                                    const int r =
                                        static_cast<int>(w % trr);
                                    const PackedBlock &blk = pw.block(bi);
                                    bk.run(blk.lanes,
                                           &out(blk.m0, row + r, col),
                                           out_plane, tcc,
                                           in_tile.rowPtr(0, r * s, 0),
                                           tile_ch_stride, tsh.w,
                                           pw.panel(bi) +
                                               static_cast<int64_t>(n0) *
                                                   k * k * blk.lanes,
                                           tnn);
                                }
                            },
                            plan.cfg.grain);
                        // The engine occupies Tm x Tn lanes for the full
                        // tile regardless of ragged edges (ceil model).
                        ph.compute +=
                            static_cast<int64_t>(trr) * tcc * k * k;
                    }

                    if (has_relu) {
                        for (int dm = 0; dm < tmm; dm++) {
                            int m = g * m_per_group + m0 + dm;
                            for (int r = 0; r < trr; r++)
                                for (int c = 0; c < tcc; c++)
                                    out(m, row + r, col + c) = std::max(
                                        0.0f, out(m, row + r, col + c));
                        }
                    }
                    phases.push_back(ph);
                }
            }
        }
    }

    // Weights stream in once per stage.
    int64_t w_bytes = net.weightBytesInRange(st.first, st.last);
    cur.dramReadBytes += w_bytes;

    // Merge an immediately-following pooling stage on chip.
    Tensor result = std::move(out);
    *merged_pool = false;
    if (stage_idx + 1 < static_cast<int>(net.stages().size())) {
        const Stage &nx =
            net.stages()[static_cast<size_t>(stage_idx) + 1];
        if (net.layer(nx.windowed).kind == LayerKind::Pool) {
            for (int i = nx.first; i <= nx.last; i++) {
                result = runLayer(net.layer(i), result, nullptr, nullptr,
                                  nullptr);
            }
            *merged_pool = true;
        }
    }

    // Store the (pooled) outputs; attribute store time to tiles
    // proportionally for the overlap model.
    int64_t out_bytes = result.shape().bytes();
    cur.dramWriteBytes += out_bytes;
    if (!phases.empty()) {
        int64_t per_tile = out_bytes / static_cast<int64_t>(phases.size());
        for (TilePhases &ph : phases)
            ph.store = dram.transferCycles(per_tile);
    }

    for (const TilePhases &ph : phases)
        cur.computeCycles += ph.compute;
    cur.makespanCycles += doubleBufferedMakespan(phases);
    return result;
}

Tensor
BaselineAccelerator::run(const Tensor &input, AccelStats *stats)
{
    FLCNN_ASSERT(!net.stages().empty(), "network has no fusable stages");
    FLCNN_ASSERT(input.shape() == net.inputShape(),
                 "input shape mismatch");
    cur = AccelStats{};

    Tensor data = input;
    const int nstages = static_cast<int>(net.stages().size());
    for (int s = 0; s < nstages; s++) {
        const Stage &st = net.stages()[static_cast<size_t>(s)];
        const LayerSpec &w = net.layer(st.windowed);
        const int stage_idx = s;  // s moves past a merged pool stage
        const AccelStats before = cur;
        const double t0 = metrics ? wallSeconds() : 0.0;
        int64_t weight_bytes = 0;
        if (w.kind == LayerKind::Conv) {
            bool merged = false;
            weight_bytes = net.weightBytesInRange(st.first, st.last);
            data = runConvStage(s, data, &merged);
            if (merged)
                s++;  // the pool stage was consumed on chip
        } else {
            // A pooling stage with no producing convolution before it:
            // stream the plane through (read + pooled write).
            cur.dramReadBytes += data.shape().bytes();
            for (int i = st.first; i <= st.last; i++) {
                data = runLayer(net.layer(i), data, nullptr, nullptr,
                                nullptr);
            }
            cur.dramWriteBytes += data.shape().bytes();
        }
        if (metrics) {
            const std::string scope =
                MetricsRegistry::stageScope(stage_idx, w.name);
            metrics->addCounter(scope, "dram_read_bytes",
                                cur.dramReadBytes - before.dramReadBytes);
            metrics->addCounter(
                scope, "dram_write_bytes",
                cur.dramWriteBytes - before.dramWriteBytes);
            metrics->addCounter(scope, "weight_read_bytes",
                                weight_bytes);
            metrics->addCounter(scope, "compute_cycles",
                                cur.computeCycles - before.computeCycles);
            metrics->addCounter(
                scope, "makespan_cycles",
                cur.makespanCycles - before.makespanCycles);
            metrics->addGauge(scope, "wall_seconds",
                              wallSeconds() - t0);
        }
    }

    if (metrics) {
        metrics->addCounter("", "pack_hits",
                            packCache.hits() - lastPackHits);
        metrics->addCounter("", "pack_misses",
                            packCache.misses() - lastPackMisses);
        lastPackHits = packCache.hits();
        lastPackMisses = packCache.misses();
    }

    ResourceUsage res = baselineResources(net, cfg);
    cur.dsp = res.dsp;
    cur.bram = res.bram;
    cur.lut = res.lut;
    cur.ff = res.ff;
    cur.bufferBytes = res.bufferBytes;

    if (stats)
        *stats = cur;
    return data;
}

} // namespace flcnn
