#include "kernels/conv_layer.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/fp16.hh"
#include "kernels/relu.hh"

namespace flcnn {

namespace {

/** Runtime switch for the vectorized staging/epilogue helpers. The
 *  vector variants are bit-equal to the scalar loops (see their
 *  declarations), so this is purely a speed dispatch. */
inline bool
useAvx2Helpers()
{
#ifdef FLCNN_SIMD_AVX2
    static const bool supported = simd::avx2Supported();
    return supported;
#else
    return false;
#endif
}

} // namespace

void
ConvStage::configure(Precision m, int cc, int hh, int ww, int gg)
{
    FLCNN_ASSERT(gg == 0 || (m == Precision::Int8 && cc % gg == 0),
                 "channel-last staging is int8, whole groups");
    const int pitch =
        gg > 0 ? ww * (cc / gg) + kAmxStagePad : ww + kConvStagePad;
    if (mode == m && c == cc && h == hh && w == ww && groups == gg &&
        stageW == pitch)
        return;
    mode = m;
    c = cc;
    h = hh;
    w = ww;
    groups = gg;
    stageW = pitch;
    const int64_t planes = groups > 0 ? groups : c;
    const size_t elems =
        static_cast<size_t>(planes) * static_cast<size_t>(chStride());
    if (mode == Precision::Int8) {
        u8.assign(elems, 0);
        f32.clear();
    } else if (mode == Precision::Fp16) {
        f32.assign(elems, 0.0f);
        u8.clear();
    } else {
        u8.clear();
        f32.clear();
    }
}

void
stageConvInputI8(ConvStage &st, const Tensor &src, const ActQuant &act,
                 int r0, int r1)
{
    const Shape &s = src.shape();
    FLCNN_ASSERT(st.mode == Precision::Int8 && st.c == s.c &&
                     st.h == s.h && st.w == s.w,
                 "stage not configured for this source");
    FLCNN_ASSERT(r0 >= 0 && r1 <= st.h, "stage row range out of bounds");
    const float inv_scale = 1.0f / act.scale;
    const bool vec = useAvx2Helpers();
    if (st.groups > 0) {
        const int cg = st.c / st.groups;
        const int64_t src_ch = static_cast<int64_t>(s.h) * s.w;
        for (int g = 0; g < st.groups; g++) {
            for (int y = r0; y < r1; y++) {
                uint8_t *out = st.u8.data() + g * st.chStride() +
                               static_cast<int64_t>(y) * st.stageW;
                const float *rows = src.rowPtr(g * cg, y, 0);
#ifdef FLCNN_SIMD_AVX2
                if (vec) {
                    simd::quantizeInterleaveI8(out, rows, src_ch, cg, st.w,
                                               inv_scale, act.zp);
                    continue;
                }
#endif
                for (int x = 0; x < st.w; x++)
                    for (int n = 0; n < cg; n++)
                        out[x * cg + n] = quantizeAct(rows[n * src_ch + x],
                                                      inv_scale, act.zp);
            }
        }
        return;
    }
    for (int n = 0; n < st.c; n++) {
        for (int y = r0; y < r1; y++) {
            const float *row = src.rowPtr(n, y, 0);
            uint8_t *out =
                st.u8.data() + n * st.chStride() +
                static_cast<int64_t>(y) * st.stageW;
#ifdef FLCNN_SIMD_AVX2
            if (vec) {
                simd::quantizeRowI8(out, row, st.w, inv_scale, act.zp);
                continue;
            }
#else
            (void)vec;
#endif
            for (int x = 0; x < st.w; x++)
                out[x] = quantizeAct(row[x], inv_scale, act.zp);
        }
    }
}

void
stageConvInputF16(ConvStage &st, const Tensor &src, int r0, int r1)
{
    const Shape &s = src.shape();
    FLCNN_ASSERT(st.mode == Precision::Fp16 && st.c == s.c &&
                     st.h == s.h && st.w == s.w,
                 "stage not configured for this source");
    FLCNN_ASSERT(r0 >= 0 && r1 <= st.h, "stage row range out of bounds");
    for (int n = 0; n < st.c; n++) {
        for (int y = r0; y < r1; y++) {
            const float *row = src.rowPtr(n, y, 0);
            float *out =
                st.f32.data() + n * st.chStride() +
                static_cast<int64_t>(y) * st.stageW;
            for (int x = 0; x < st.w; x++)
                out[x] = roundToHalf(row[x]);
        }
    }
}

void
convBlockRowI8(const ConvBlockKernelI8 &bk, const PackedWeightsI8 &pw,
               int bi, float *dst, int64_t dst_stride, int count,
               const ConvStage &st, int y0, int x0, const ActQuant &act,
               int rows, int64_t dst_row_stride)
{
    FLCNN_ASSERT(bk.k == pw.kernel(), "kernel mismatch with packed bank");
    FLCNN_ASSERT(st.mode == Precision::Int8, "stage is not int8");
    FLCNN_ASSERT((bk.amx != nullptr) == pw.amx() &&
                     (bk.amx != nullptr) == (st.groups > 0),
                 "int8 tier, pack and stage layouts disagree");
    const PackedBlock &b = pw.block(bi);
    if (bk.amx) {
        // Per-lane epilogue terms; |zp * wsum| <= 255 * 63 * K^2 * C,
        // which the tier's plan-time check keeps inside i32.
        alignas(32) float bias[kAmxLanes] = {};
        alignas(32) float scale[kAmxLanes] = {};
        alignas(32) int32_t zp_term[kAmxLanes] = {};
        for (int f = 0; f < b.lanes; f++) {
            const int m = b.m0 + f;
            bias[f] = pw.bias(m);
            scale[f] = act.scale * pw.scale(m);
            zp_term[f] = act.zp * pw.wsum(m);
        }
        const int cg = pw.numChannels();
        AmxRegion r;
        r.in = st.u8.data() + pw.nBase(bi) / cg * st.chStride() +
               static_cast<int64_t>(y0) * st.stageW +
               static_cast<int64_t>(x0) * cg;
        r.rowPitch = st.stageW;
        r.pixStep = static_cast<int64_t>(bk.sx) * cg;
        r.inRowStep = static_cast<int64_t>(bk.sx) * st.stageW;
        r.k = bk.k;
        r.chunks = pw.amxChunks();
        r.rows = rows;
        r.count = count;
        r.wp = pw.panel(bi);
        r.lanes = b.lanes;
        r.dst = dst;
        r.dstStride = dst_stride;
        r.dstRowStride = dst_row_stride;
        r.bias = bias;
        r.scale = scale;
        r.zpTerm = zp_term;
        bk.amx(r);
        return;
    }
    // Raw i32 accumulation into thread-local scratch, lane f's row r at
    // (f * rows + r) * count (the kernels accumulate, so zero-fill
    // first).
    thread_local std::vector<int32_t> scratch;
    const int64_t plane = static_cast<int64_t>(rows) * count;
    const size_t need =
        static_cast<size_t>(kConvBlockLanes) * static_cast<size_t>(plane);
    if (scratch.size() < need)
        scratch.resize(need);
    std::memset(scratch.data(), 0, need * sizeof(int32_t));

    const uint8_t *in =
        st.u8.data() + static_cast<int64_t>(pw.nBase(bi)) * st.chStride() +
        static_cast<int64_t>(y0) * st.stageW + x0;
    bk.runRows(b.lanes, scratch.data(), plane, rows, count, count, in,
               st.chStride(), st.stageW,
               static_cast<int64_t>(bk.sx) * st.stageW, pw.panel(bi),
               pw.numChannels());

    // Deterministic dequant epilogue: exact zero-point correction,
    // then one float multiply and one float add per pixel. With at
    // most 65000 taps per filter, |acc| and |zp * wsum| are each below
    // 255 * 63 * 65000 ~ 1.04e9, so their difference fits i32 and the
    // vectorized i32 epilogue is bit-equal to the int64 scalar one;
    // beyond that (no real layer comes close) the scalar path keeps
    // the exact int64 arithmetic.
    const int64_t taps = static_cast<int64_t>(pw.numChannels()) *
                         pw.kernel() * pw.kernel();
    const bool vec = useAvx2Helpers() && taps <= 65000;
    for (int f = 0; f < b.lanes; f++) {
        const int m = b.m0 + f;
        const float bias = pw.bias(m);
        const float s = act.scale * pw.scale(m);
        const int64_t zp_term =
            static_cast<int64_t>(act.zp) * pw.wsum(m);
        for (int r = 0; r < rows; r++) {
            const int32_t *acc = scratch.data() + f * plane + r * count;
            float *d = dst + f * dst_stride + r * dst_row_stride;
#ifdef FLCNN_SIMD_AVX2
            if (vec) {
                simd::dequantRowI8(d, acc, count, bias, s,
                                   static_cast<int32_t>(zp_term));
                continue;
            }
#else
            (void)vec;
#endif
            for (int t = 0; t < count; t++)
                d[t] = bias + s * static_cast<float>(acc[t] - zp_term);
        }
    }
}

void
convBlockRowF16(const ConvBlockKernel &bk, const PackedWeightsF16 &pw,
                int bi, float *dst, int64_t dst_stride, int count,
                const ConvStage &st, int y0, int x0, int rows,
                int64_t dst_row_stride)
{
    FLCNN_ASSERT(bk.k == pw.kernel(), "kernel mismatch with packed bank");
    FLCNN_ASSERT(st.mode == Precision::Fp16, "stage is not fp16");
    const PackedBlock &b = pw.block(bi);
    for (int f = 0; f < b.lanes; f++) {
        const float bias = pw.bias(b.m0 + f);
        for (int r = 0; r < rows; r++) {
            float *d = dst + f * dst_stride + r * dst_row_stride;
            for (int t = 0; t < count; t++)
                d[t] = bias;
        }
    }
    const float *in =
        st.f32.data() + static_cast<int64_t>(pw.nBase(bi)) * st.chStride() +
        static_cast<int64_t>(y0) * st.stageW + x0;
    bk.runRows(b.lanes, dst, dst_stride, rows, dst_row_stride, count, in,
               st.chStride(), st.stageW,
               static_cast<int64_t>(bk.sx) * st.stageW, pw.panel(bi),
               pw.numChannels());
}

void
runConvRows(const ConvLayerRun &layer, const Tensor &src, int y0, int x0,
            int oh, int ow, float *dst, int64_t dst_plane,
            int64_t dst_pitch, ConvStage &stage)
{
    FLCNN_ASSERT((layer.pw != nullptr) + (layer.pwF16 != nullptr) +
                         (layer.pwI8 != nullptr) ==
                     1,
                 "a conv layer runs from exactly one pack");
    if (oh <= 0 || ow <= 0)
        return;
    const PackedWeightsI8 *pw8 = layer.pwI8;
    const int k = pw8 ? layer.bkI8.k : layer.bk.k;
    const int stride = pw8 ? layer.bkI8.sx : layer.bk.sx;
    if (!layer.pw) {
        const Shape &s = src.shape();
        stage.configure(
            pw8 ? Precision::Int8 : Precision::Fp16, s.c, s.h, s.w,
            pw8 ? layer.bkI8.stageGroups(s.c / pw8->numChannels()) : 0);
        // Staging is elementwise, so the bands are independent and the
        // staged bytes do not depend on the split.
        constexpr int kBandRows = 4;
        const int r1 = std::min(y0 + (oh - 1) * stride + k, s.h);
        parallelFor(0, (r1 - y0 + kBandRows - 1) / kBandRows,
                    [&](int64_t lo, int64_t hi) {
                        const int b0 = y0 + static_cast<int>(lo) * kBandRows;
                        const int b1 = std::min(
                            r1, y0 + static_cast<int>(hi) * kBandRows);
                        if (pw8)
                            stageConvInputI8(stage, src, layer.act, b0, b1);
                        else
                            stageConvInputF16(stage, src, b0, b1);
                    });
    }
    const int nb = pw8           ? pw8->numBlocks()
                   : layer.pwF16 ? layer.pwF16->numBlocks()
                                 : layer.pw->numBlocks();
    const int group =
        pw8 ? layer.bkI8.groupRows(ow) : layer.bk.groupRows(ow);
    const int64_t groups = (oh + group - 1) / group;
    const bool row_major = !ThreadPool::inParallelRegion();
    parallelFor(
        0, nb * groups,
        [&](int64_t lo, int64_t hi) {
            for (int64_t w = lo; w < hi; w++) {
                const int bi =
                    static_cast<int>(row_major ? w % nb : w / groups);
                const int r = static_cast<int>(row_major ? w / nb
                                                         : w % groups) *
                              group;
                const int rows = std::min(group, oh - r);
                const int yi = y0 + r * stride;
                const PackedBlock &b = pw8           ? pw8->block(bi)
                                       : layer.pwF16 ? layer.pwF16->block(bi)
                                                     : layer.pw->block(bi);
                float *d = dst + b.m0 * dst_plane + r * dst_pitch;
                if (pw8)
                    convBlockRowI8(layer.bkI8, *pw8, bi, d, dst_plane, ow,
                                   stage, yi, x0, layer.act, rows,
                                   dst_pitch);
                else if (layer.pwF16)
                    convBlockRowF16(layer.bk, *layer.pwF16, bi, d,
                                    dst_plane, ow, stage, yi, x0, rows,
                                    dst_pitch);
                else
                    convBlockRowTensor(layer.bk, *layer.pw, bi, d,
                                       dst_plane, ow, src, yi, x0, rows,
                                       dst_pitch);
                if (layer.relu) {
                    for (int f = 0; f < b.lanes; f++)
                        reluRows(d + f * dst_plane, dst_pitch, rows, ow);
                }
            }
        },
        layer.grain);
}

} // namespace flcnn
