/**
 * @file
 * Explicit AVX2 int8 multi-filter strip kernels (strides 1 and 4,
 * table kernel sizes). Compiled with -mavx2 only when the FLCNN_SIMD
 * CMake option is ON on an x86-64 target; entry points are reached
 * only after a runtime avx2Supported() check.
 *
 * Pipeline per (channel, kernel-row, 4-tap group): at stride 1 one
 * 16-byte load covers the 11 input bytes feeding 8 output pixels x 4
 * consecutive taps and a byte shuffle expands it to 8 pixels x 4 taps.
 * At stride 4 the layout aligns perfectly with the 4-tap grouping —
 * pixel t's group-jg taps live at bytes (t + jg) * 4 — so the 8
 * pixels' taps ARE the 8 dwords of one contiguous 32-byte load from
 * irow + jg * 4, with no shuffle at all (this is the AlexNet conv1
 * 11x11 s4 case). Either way, maddubs (u8 x s8 -> pairwise i16) and
 * madd-by-ones (i16 pairs -> i32) reduce each pixel's 4 products into
 * one i32 added to the lane accumulator. The +/-63 weight clamp
 * (kernels/quant.hh) bounds every pairwise i16 sum by 255 * 63 * 2 =
 * 32130 < 32767, so maddubs' saturating add never saturates and the
 * result is the exact integer sum — bit-equal to the portable generic
 * path.
 *
 * Tails: the last count % 8 pixels (all of them when count < 8) run
 * one masked 8-pixel block with the same op sequence. Accumulators
 * are loaded and stored with vpmaskmovd, so no i32 past dst[count - 1]
 * is touched — callers may hand in a strip of a full output plane
 * (the autotuner does) or a seg-sized segment of a row. Input loads
 * stay plain: the lanes past the tail read staged bytes nobody stores.
 *
 * Overread: the stride-1 16-byte tap load reaches up to column
 * t0 + (K4 - 4) + 15 of a staged row and the stride-4 32-byte load up
 * to byte t0 * 4 + (K4 - 4) + 31. The tail block is the widest reader:
 * with one live lane at t0 those loads end i8TailOverread(K, stride)
 * bytes past the last byte the pixel really uses (13 at 11x11 s1, 29
 * at 11x11 s4, 31 at most). ConvStage's kConvStagePad-byte zero apron
 * covers that, which the strip driver static_asserts per (K, stride).
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include "kernels/conv_layer.hh"
#include "kernels/quant.hh"

namespace flcnn {
namespace simd {

namespace {

/** Shuffle mask turning 16 consecutive input bytes (broadcast to both
 *  128-bit lanes) into [pixel 0..3 | pixel 4..7] x 4 consecutive taps. */
inline __m256i
pixelTapMask()
{
    return _mm256_setr_epi8(
        // lane 0: pixels 0..3 each take 4 consecutive taps
        0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6,
        // lane 1: pixels 4..7
        4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9, 7, 8, 9, 10);
}

/** Load 8 pixels x 4 taps of group @p jg into dword-per-pixel order. */
template <int SX>
inline __m256i
loadPixTaps(const uint8_t *irow, int jg)
{
    static_assert(SX == 1 || SX == 4, "unsupported int8 vector stride");
    if constexpr (SX == 1) {
        const __m128i raw = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(irow + jg * 4));
        return _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(raw),
                                   pixelTapMask());
    } else {
        // Stride 4: pixel t's group-jg taps are bytes (t + jg) * 4 ..
        // + 3, so the 8 pixels' taps are exactly the 8 dwords of one
        // contiguous 32-byte load.
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(irow + jg * 4));
    }
}

/** Lane mask selecting the first @p rem (1..7) of 8 pixels. */
inline __m256i
tailMask(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** One MR x 8 int8 vector block (compile-time K and stride). With
 *  TAIL set, accumulators load and store only the lanes of @p mask. */
template <int MR, int K, int SX, bool TAIL = false>
inline void
blockI8Avx2(int32_t *dst, int64_t dst_stride, const uint8_t *in,
            int64_t ch_stride, const int64_t *row_off, const int8_t *wp,
            int n_count, __m256i mask = __m256i())
{
    constexpr int JG = (K + 3) / 4;
    constexpr int64_t W_ROW = static_cast<int64_t>(JG) * MR * 4;
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc[MR];
    for (int f = 0; f < MR; f++) {
        int32_t *d = dst + f * dst_stride;
        acc[f] = TAIL ? _mm256_maskload_epi32(d, mask)
                      : _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(d));
    }
    const uint8_t *chan = in;
    const int8_t *wchan = wp;
    for (int n = 0; n < n_count;
         n++, chan += ch_stride, wchan += K * W_ROW) {
        for (int i = 0; i < K; i++) {
            const uint8_t *irow = chan + row_off[i];
            const int8_t *wrow = wchan + i * W_ROW;
            for (int jg = 0; jg < JG; jg++) {
                const __m256i pix = loadPixTaps<SX>(irow, jg);
                const int8_t *wtap = wrow + jg * MR * 4;
                for (int f = 0; f < MR; f++) {
                    int32_t wbits;
                    __builtin_memcpy(&wbits, wtap + f * 4, 4);
                    const __m256i wv = _mm256_set1_epi32(wbits);
                    const __m256i p16 = _mm256_maddubs_epi16(pix, wv);
                    acc[f] = _mm256_add_epi32(
                        acc[f], _mm256_madd_epi16(p16, ones));
                }
            }
        }
    }
    for (int f = 0; f < MR; f++) {
        int32_t *d = dst + f * dst_stride;
        if constexpr (TAIL)
            _mm256_maskstore_epi32(d, mask, acc[f]);
        else
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(d), acc[f]);
    }
}

/** Strip driver: vector 8-pixel blocks, then one masked tail block. */
template <int MR, int K, int SX>
void
convBlockStripI8Avx2(int32_t *dst, int64_t dst_stride, int count,
                     const uint8_t *in, int64_t ch_stride,
                     const int64_t *row_off, const int8_t *wp,
                     int n_count)
{
    static_assert(i8TailOverread(K, SX) <= kConvStagePad,
                  "int8 tail block overreads the ConvStage apron");
    while (count >= 8) {
        blockI8Avx2<MR, K, SX>(dst, dst_stride, in, ch_stride, row_off,
                               wp, n_count);
        dst += 8;
        in += 8 * SX;
        count -= 8;
    }
    if (count > 0)
        blockI8Avx2<MR, K, SX, true>(dst, dst_stride, in, ch_stride,
                                     row_off, wp, n_count,
                                     tailMask(count));
}

struct I8Entry
{
    int mr;
    int k;
    int sx;
    ConvBlockStripI8Fn fn;
};

#define FLCNN_I8_ENTRY(K, SX)                                           \
    {1, K, SX, &convBlockStripI8Avx2<1, K, SX>},                        \
    {2, K, SX, &convBlockStripI8Avx2<2, K, SX>},                        \
    {4, K, SX, &convBlockStripI8Avx2<4, K, SX>}

constexpr I8Entry kI8Table[] = {
    FLCNN_I8_ENTRY(1, 1),  FLCNN_I8_ENTRY(3, 1), FLCNN_I8_ENTRY(5, 1),
    FLCNN_I8_ENTRY(7, 1),  FLCNN_I8_ENTRY(11, 1),
    FLCNN_I8_ENTRY(1, 4),  FLCNN_I8_ENTRY(3, 4), FLCNN_I8_ENTRY(5, 4),
    FLCNN_I8_ENTRY(7, 4),  FLCNN_I8_ENTRY(11, 4),
};

#undef FLCNN_I8_ENTRY

} // namespace

void
quantizeRowI8(uint8_t *dst, const float *src, int count,
              float inv_scale, int zp)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256i vzp = _mm256_set1_epi32(zp);
    int t = 0;
    for (; t + 16 <= count; t += 16) {
        const __m256i a = _mm256_add_epi32(
            _mm256_cvtps_epi32(
                _mm256_mul_ps(_mm256_loadu_ps(src + t), vinv)),
            vzp);
        const __m256i b = _mm256_add_epi32(
            _mm256_cvtps_epi32(
                _mm256_mul_ps(_mm256_loadu_ps(src + t + 8), vinv)),
            vzp);
        // packus i32->u16 then i16->u8 saturates exactly like the
        // scalar clamp(., 0, 255); both packs interleave 128-bit
        // lanes, so one final dword permute restores element order.
        const __m256i u16 = _mm256_packus_epi32(a, b);
        const __m256i u8 =
            _mm256_packus_epi16(u16, _mm256_setzero_si256());
        const __m256i ordered = _mm256_permutevar8x32_epi32(
            u8, _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(dst + t),
            _mm256_castsi256_si128(ordered));
    }
    for (; t < count; t++)
        dst[t] = quantizeAct(src[t], inv_scale, zp);
}

void
dequantRowI8(float *dst, const int32_t *acc, int count, float bias,
             float scale, int32_t zp_term)
{
    const __m256i vz = _mm256_set1_epi32(zp_term);
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256 vb = _mm256_set1_ps(bias);
    int t = 0;
    for (; t + 8 <= count; t += 8) {
        const __m256 x = _mm256_cvtepi32_ps(_mm256_sub_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(acc + t)),
            vz));
        _mm256_storeu_ps(dst + t,
                         _mm256_add_ps(vb, _mm256_mul_ps(vs, x)));
    }
    for (; t < count; t++)
        dst[t] = bias + scale * static_cast<float>(acc[t] - zp_term);
}

ConvBlockStripI8Fn
blockFnI8(int mr, int kernel, int stride)
{
    for (const I8Entry &e : kI8Table) {
        if (e.mr == mr && e.k == kernel && e.sx == stride)
            return e.fn;
    }
    return nullptr;
}

} // namespace simd
} // namespace flcnn
