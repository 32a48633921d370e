#include "kernels/conv_layer.hh"

#include <cstring>

#include "common/logging.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/fp16.hh"

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
ConvStage::configure(Precision m, int cc, int hh, int ww)
{
    if (mode == m && c == cc && h == hh && w == ww && stageW == ww +
        kConvStagePad)
        return;
    mode = m;
    c = cc;
    h = hh;
    w = ww;
    stageW = ww + kConvStagePad;
    const size_t elems =
        static_cast<size_t>(c) * static_cast<size_t>(chStride());
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
    int64_t row_off[kMaxConvKernel];
    linearRowOffsets(row_off, bk.k, y0, st.stageW, x0);

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

    const PackedBlock &b = pw.block(bi);
    const uint8_t *in =
        st.u8.data() + static_cast<int64_t>(pw.nBase(bi)) * st.chStride();
    bk.runRows(b.lanes, scratch.data(), plane, rows, count, count, in,
               st.chStride(), row_off,
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
    int64_t row_off[kMaxConvKernel];
    linearRowOffsets(row_off, bk.k, y0, st.stageW, x0);

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
        st.f32.data() + static_cast<int64_t>(pw.nBase(bi)) * st.chStride();
    bk.runRows(b.lanes, dst, dst_stride, rows, dst_row_stride, count, in,
               st.chStride(), row_off,
               static_cast<int64_t>(bk.sx) * st.stageW, pw.panel(bi),
               pw.numChannels());
}

} // namespace flcnn
