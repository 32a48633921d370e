#include "fusion/recompute_executor.hh"

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

namespace {

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

RecomputeExecutor::RecomputeExecutor(const Network &network,
                                     const NetworkWeights &w, TilePlan plan)
    : net(network), weights(w), tplan(std::move(plan))
{
    const int n = tplan.numFusedLayers();
    tiles.reserve(static_cast<size_t>(n));
    tileY.assign(static_cast<size_t>(n), Span{0, 0});
    tileX.assign(static_cast<size_t>(n), Span{0, 0});
    stages.resize(static_cast<size_t>(n));
    int64_t working = 0;
    for (int li = 0; li < n; li++) {
        const LayerGeom &g = tplan.geom(li);
        // The output tile of layer li is the input tile of layer li+1;
        // size it from the widest output span over all pyramids.
        int max_h = 0, max_w = 0;
        for (const Span &s : g.outY)
            max_h = std::max(max_h, s.width());
        for (const Span &s : g.outX)
            max_w = std::max(max_w, s.width());
        tiles.emplace_back(g.outPlane.c, std::max(1, max_h),
                           std::max(1, max_w));
        working += tiles.back().shape().bytes();
    }
    const LayerGeom &g0 = tplan.geom(0);
    inTile = Tensor(g0.inPlane.c, std::max(1, g0.maxFullInH),
                    std::max(1, g0.maxFullInW));
    working += inTile.shape().bytes();
    curStats.workingBytes = working;
}

void
RecomputeExecutor::computeLayer(int li, int r, int c, const Tensor &input)
{
    const LayerGeom &g = tplan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);

    Span oy = g.outY[static_cast<size_t>(r)];
    Span ox = g.outX[static_cast<size_t>(c)];
    tileY[static_cast<size_t>(li)] = oy;
    tileX[static_cast<size_t>(li)] = ox;
    Tensor &out = tiles[static_cast<size_t>(li)];
    if (oy.empty() || ox.empty())
        return;

    // Source tile: the previous layer's output, or the freshly loaded
    // input tile for the group's first layer.
    const Tensor &src = (li == 0) ? inTile : tiles[static_cast<size_t>(li) - 1];
    Span sy = (li == 0) ? inTileY : tileY[static_cast<size_t>(li) - 1];
    Span sx = (li == 0) ? inTileX : tileX[static_cast<size_t>(li) - 1];
    (void)input;

    switch (spec.kind) {
      case LayerKind::Conv: {
        const FilterBank &fb = weights.bank(net.convSlot(g.layerIdx));
        const int oh = oy.width();
        const int64_t plane = static_cast<int64_t>(out.shape().h) *
                              out.shape().w;
        const int x0 = ox.begin * spec.stride - sx.begin;
        const Precision mode =
            precision ? precision->mode() : Precision::Fp32;
        // One (filter-block, row) strip per work item; the blocked
        // kernel keeps each (filter, pixel) accumulator private in
        // convPoint's (bias, n, i, j) order. Op counts are tallied
        // analytically below so the parallel region stays race-free.
        // Non-fp32 modes stage the source-tile rows this pyramid reads
        // (serial, elementwise, idempotent) and run the mode's drivers
        // against the shared staging — same precision state as the
        // precision reference, so bit-exactness carries over.
        if (mode != Precision::Fp32) {
            const int slot = net.convSlot(g.layerIdx);
            ConvStage &stage = stages[static_cast<size_t>(li)];
            const Shape &ss = src.shape();
            stage.configure(mode, ss.c, ss.h, ss.w);
            const int r0 = oy.begin * spec.stride - sy.begin;
            const int r1 = std::min(
                (oy.end - 1) * spec.stride - sy.begin + spec.kernel,
                ss.h);
            if (mode == Precision::Int8) {
                const ActQuant &act = precision->actQuant(slot);
                stageConvInputI8(stage, src, act, r0, r1);
                const ConvPlan &plan = plans[static_cast<size_t>(li)];
                const ConvBlockKernelI8 &bk = plan.bkI8;
                const PackedWeightsI8 &pw = packCache.getI8(
                    g.layerIdx, fb, spec.groups, precision->weightScales(slot),
                    precision->scaleId(), plan.cfg.mrCap);
                const int nb = pw.numBlocks();
                parallelFor(
                    0, static_cast<int64_t>(nb) * oh,
                    [&](int64_t wlo, int64_t whi) {
                        for (int64_t w = wlo; w < whi; w++) {
                            const int bi = static_cast<int>(w / oh);
                            const int gy =
                                oy.begin + static_cast<int>(w % oh);
                            int row_idx[kMaxConvKernel];
                            for (int i = 0; i < bk.k; i++)
                                row_idx[i] =
                                    gy * spec.stride - sy.begin + i;
                            convBlockRowI8(
                                bk, pw, bi,
                                &out(pw.block(bi).m0, gy - oy.begin, 0),
                                plane, ox.width(), stage, row_idx, x0,
                                act);
                        }
                    },
                    plan.cfg.grain);
            } else {
                stageConvInputF16(stage, src, r0, r1);
                const ConvPlan &plan = plans[static_cast<size_t>(li)];
                const ConvBlockKernel &bk = plan.bk;
                const PackedWeightsF16 &pw = packCache.getF16(
                    g.layerIdx, fb, spec.groups, plan.cfg.mrCap);
                const int nb = pw.numBlocks();
                parallelFor(
                    0, static_cast<int64_t>(nb) * oh,
                    [&](int64_t wlo, int64_t whi) {
                        for (int64_t w = wlo; w < whi; w++) {
                            const int bi = static_cast<int>(w / oh);
                            const int gy =
                                oy.begin + static_cast<int>(w % oh);
                            int row_idx[kMaxConvKernel];
                            for (int i = 0; i < bk.k; i++)
                                row_idx[i] =
                                    gy * spec.stride - sy.begin + i;
                            convBlockRowF16(
                                bk, pw, bi,
                                &out(pw.block(bi).m0, gy - oy.begin, 0),
                                plane, ox.width(), stage, row_idx, x0);
                        }
                    },
                    plan.cfg.grain);
            }
        } else {
            const ConvPlan &plan = plans[static_cast<size_t>(li)];
            const ConvBlockKernel &bk = plan.bk;
            const PackedWeights &pw = packCache.get(
                g.layerIdx, fb, spec.groups, 0, plan.cfg.mrCap);
            const int nb = pw.numBlocks();
            parallelFor(
                0, static_cast<int64_t>(nb) * oh,
                [&](int64_t wlo, int64_t whi) {
                    for (int64_t w = wlo; w < whi; w++) {
                        const int bi = static_cast<int>(w / oh);
                        const int gy =
                            oy.begin + static_cast<int>(w % oh);
                        convBlockRowTensor(
                            bk, pw, bi,
                            &out(pw.block(bi).m0, gy - oy.begin, 0),
                            plane, ox.width(), src,
                            gy * spec.stride - sy.begin, x0);
                    }
                },
                plan.cfg.grain);
        }
        int64_t taps = static_cast<int64_t>(fb.numChannels()) *
                       spec.kernel * spec.kernel;
        int64_t points =
            static_cast<int64_t>(g.outPlane.c) * oh * ox.width();
        curStats.ops.mults += taps * points;
        curStats.ops.adds += taps * points;
        break;
      }
      case LayerKind::Pool: {
        const int oh = oy.width();
        FLCNN_ASSERT(spec.kernel <= kMaxPoolKernel,
                     "pool kernel exceeds the row table");
        parallelFor(
            0, static_cast<int64_t>(g.outPlane.c) * oh,
            [&](int64_t wlo, int64_t whi) {
                const float *rows[kMaxPoolKernel];
                for (int64_t w = wlo; w < whi; w++) {
                    const int ch = static_cast<int>(w / oh);
                    const int gy =
                        oy.begin + static_cast<int>(w % oh);
                    for (int i = 0; i < spec.kernel; i++)
                        rows[i] = src.rowPtr(
                            ch, gy * spec.stride - sy.begin + i,
                            ox.begin * spec.stride - sx.begin);
                    poolRow(&out(ch, gy - oy.begin, 0), ox.width(), rows,
                            spec.kernel, spec.stride,
                            spec.poolMode == PoolMode::Max);
                }
            },
            /*grain=*/2);
        int64_t win = static_cast<int64_t>(spec.kernel) * spec.kernel;
        int64_t points =
            static_cast<int64_t>(g.outPlane.c) * oh * ox.width();
        if (spec.poolMode == PoolMode::Max)
            curStats.ops.compares += win * points;
        else
            curStats.ops.adds += win * points;
        break;
      }
      case LayerKind::Pad:
        parallelFor(0, g.outPlane.c, [&](int64_t clo, int64_t chi) {
        for (int ch = static_cast<int>(clo); ch < chi; ch++) {
            for (int gy = oy.begin; gy < oy.end; gy++) {
                for (int gx = ox.begin; gx < ox.end; gx++) {
                    int py = gy - spec.pad, px = gx - spec.pad;
                    bool inside = py >= sy.begin && py < sy.end &&
                                  px >= sx.begin && px < sx.end;
                    out(ch, gy - oy.begin, gx - ox.begin) =
                        inside ? src(ch, py - sy.begin, px - sx.begin)
                               : 0.0f;
                }
            }
        }
        }, /*grain=*/2);
        break;
      case LayerKind::ReLU:
        parallelFor(0, g.outPlane.c, [&](int64_t clo, int64_t chi) {
        for (int ch = static_cast<int>(clo); ch < chi; ch++) {
            reluRows(&out(ch, 0, 0), out.shape().w,
                     src.rowPtr(ch, oy.begin - sy.begin,
                                ox.begin - sx.begin),
                     src.shape().w, oy.width(), ox.width());
        }
        }, /*grain=*/2);
        curStats.ops.compares +=
            static_cast<int64_t>(g.outPlane.c) * oy.width() * ox.width();
        break;
      case LayerKind::LRN: {
        const int half = spec.lrnSize / 2;
        parallelFor(
            oy.begin, oy.end,
            [&](int64_t ylo, int64_t yhi) {
                for (int gy = static_cast<int>(ylo); gy < yhi; gy++) {
                    for (int gx = ox.begin; gx < ox.end; gx++) {
                        for (int ch = 0; ch < g.outPlane.c; ch++) {
                            float sum = 0.0f;
                            int lo = std::max(0, ch - half);
                            int hi =
                                std::min(g.outPlane.c - 1, ch + half);
                            for (int j = lo; j <= hi; j++) {
                                float v = src(j, gy - sy.begin,
                                              gx - sx.begin);
                                sum += v * v;
                            }
                            float denom = std::pow(
                                2.0f +
                                    static_cast<float>(spec.lrnAlpha) *
                                        sum,
                                static_cast<float>(spec.lrnBeta));
                            out(ch, gy - oy.begin, gx - ox.begin) =
                                src(ch, gy - sy.begin, gx - sx.begin) /
                                denom;
                        }
                    }
                }
            },
            /*grain=*/2);
        // Same tally the per-point loop produced: the channel span is a
        // function of ch alone.
        for (int ch = 0; ch < g.outPlane.c; ch++) {
            int lo = std::max(0, ch - half);
            int hi = std::min(g.outPlane.c - 1, ch + half);
            int64_t points =
                static_cast<int64_t>(oy.width()) * ox.width();
            curStats.ops.mults += ((hi - lo + 1) + 2) * points;
            curStats.ops.adds += ((hi - lo + 1) + 1) * points;
        }
        break;
      }
      default:
        panic("non-fusable layer inside a recompute pyramid");
    }
}

Tensor
RecomputeExecutor::run(const Tensor &input, RunStats *stats)
{
    Tensor output(tplan.groupOutput());
    runInto(input, &output, stats);
    return output;
}

void
RecomputeExecutor::runInto(const Tensor &input, Tensor *out,
                           RunStats *stats)
{
    FLCNN_ASSERT(input.shape() == tplan.groupInput(),
                 "input shape does not match the fusion plan");
    FLCNN_ASSERT(out != nullptr &&
                     out->shape() == tplan.groupOutput(),
                 "output shape does not match the fusion plan");
    Tensor &output = *out;
    int64_t working = curStats.workingBytes;
    curStats = RunStats{};
    curStats.workingBytes = working;

    const LayerGeom &g0 = tplan.geom(0);
    const int n = tplan.numFusedLayers();

    // Refresh conv plans only when the tune cache changed (planner
    // lookups build shape-key strings — a heap allocation the
    // steady-state serving path must not pay).
    const Precision runMode =
        precision ? precision->mode() : Precision::Fp32;
    const int64_t tuneRev = TuneCache::global().revision();
    if (tuneRev != plannedRev) {
        plannedRev = tuneRev;
        plans.assign(static_cast<size_t>(n), ConvPlan{});
        for (int li = 0; li < n; li++) {
            const LayerGeom &g = tplan.geom(li);
            if (net.layer(g.layerIdx).kind == LayerKind::Conv) {
                plans[static_cast<size_t>(li)] = planConv(convLayerQuery(
                    net.layer(g.layerIdx), g.inPlane, runMode,
                    fastMath && runMode == Precision::Fp32));
            }
        }
    }

    std::vector<double> layerWall;
    std::vector<int64_t> layerMults, layerAdds, layerCompares;
    if (metrics) {
        layerWall.assign(static_cast<size_t>(n), 0.0);
        layerMults.assign(static_cast<size_t>(n), 0);
        layerAdds.assign(static_cast<size_t>(n), 0);
        layerCompares.assign(static_cast<size_t>(n), 0);
    }

    for (int r = 0; r < tplan.numPyramidRows(); r++) {
        for (int c = 0; c < tplan.numPyramidCols(); c++) {
            // Load the full base tile from DRAM (the recompute model
            // re-reads the overlap between neighboring pyramids).
            inTileY = g0.fullInY[static_cast<size_t>(r)];
            inTileX = g0.fullInX[static_cast<size_t>(c)];
            for (int ch = 0; ch < g0.inPlane.c; ch++) {
                for (int gy = inTileY.begin; gy < inTileY.end; gy++) {
                    for (int gx = inTileX.begin; gx < inTileX.end; gx++) {
                        inTile(ch, gy - inTileY.begin,
                               gx - inTileX.begin) = input(ch, gy, gx);
                    }
                }
            }
            curStats.loadedBytes += static_cast<int64_t>(g0.inPlane.c) *
                                    inTileY.width() * inTileX.width() * 4;

            for (int li = 0; li < n; li++) {
                if (!metrics) {
                    computeLayer(li, r, c, input);
                    continue;
                }
                const size_t i = static_cast<size_t>(li);
                const int64_t mul0 = curStats.ops.mults;
                const int64_t add0 = curStats.ops.adds;
                const int64_t cmp0 = curStats.ops.compares;
                const double t0 = wallSeconds();
                computeLayer(li, r, c, input);
                layerWall[i] += wallSeconds() - t0;
                layerMults[i] += curStats.ops.mults - mul0;
                layerAdds[i] += curStats.ops.adds - add0;
                layerCompares[i] += curStats.ops.compares - cmp0;
            }

            // Store the tip.
            const LayerGeom &gl = tplan.geom(n - 1);
            Span oy = gl.outY[static_cast<size_t>(r)];
            Span ox = gl.outX[static_cast<size_t>(c)];
            Tensor &tip = tiles[static_cast<size_t>(n) - 1];
            for (int ch = 0; ch < gl.outPlane.c; ch++) {
                for (int gy = oy.begin; gy < oy.end; gy++) {
                    for (int gx = ox.begin; gx < ox.end; gx++) {
                        output(ch, gy, gx) =
                            tip(ch, gy - oy.begin, gx - ox.begin);
                    }
                }
            }
            curStats.storedBytes += static_cast<int64_t>(gl.outPlane.c) *
                                    oy.width() * ox.width() * 4;
            curStats.pyramids++;
        }
    }

    if (metrics) {
        for (int li = 0; li < n; li++) {
            const size_t i = static_cast<size_t>(li);
            const LayerGeom &g = tplan.geom(li);
            const std::string scope = MetricsRegistry::layerScope(
                li, net.layer(g.layerIdx).name);
            // The recompute model loads everything through the base
            // tile (layer 0) and stores through the tip (layer n-1).
            metrics->addCounter(scope, "dram_read_bytes",
                                li == 0 ? curStats.loadedBytes : 0);
            metrics->addCounter(scope, "dram_write_bytes",
                                li == n - 1 ? curStats.storedBytes : 0);
            metrics->addCounter(scope, "mults", layerMults[i]);
            metrics->addCounter(scope, "adds", layerAdds[i]);
            metrics->addCounter(scope, "compares", layerCompares[i]);
            metrics->addGauge(scope, "wall_seconds", layerWall[i]);
            metrics->setGauge(
                scope, "tile_bytes",
                static_cast<double>(tiles[i].shape().bytes()));
        }
        metrics->addCounter("", "pyramids", curStats.pyramids);
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
