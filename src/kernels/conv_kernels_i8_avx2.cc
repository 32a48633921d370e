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
 * Regions: a call covers R output rows of count pixels. Rows of 8 or
 * more run whole-row octets; rows of 4 or fewer pair up into 2x4
 * blocks, one split octet taking 4 pixels from each of two rows
 * (kernels/conv_octets.hh), so a 4-pixel pyramid row costs half a
 * block instead of a whole one. Lanes a row does not own (widths 1-3
 * and 5-7, the tail of a wider row, a lone last row) are masked:
 * accumulators load and store through vpmaskmovd, so no i32 outside
 * the region's rows is touched — callers may hand in a strip of a full
 * output plane (the autotuner does) or a seg-sized segment of a row.
 * Input loads stay plain: the lanes past the tail read staged bytes
 * nobody stores.
 *
 * Overread: the stride-1 16-byte tap load reaches up to column
 * t0 + (K4 - 4) + 15 of a staged row and the stride-4 32-byte load up
 * to byte t0 * 4 + (K4 - 4) + 31. A masked whole-row octet is the
 * widest reader: with one live lane at t0 those loads end
 * i8TailOverread(K, stride) bytes past the last byte the pixel really
 * uses (13 at 11x11 s1, 29 at 11x11 s4, 31 at most). Split octets read
 * 8-byte (stride 1) or 16-byte (stride 4) half-rows, which end
 * i8HalfOverread(K, stride) <= i8TailOverread(K, stride) bytes past
 * it. ConvStage's kConvStagePad-byte zero apron covers both, which the
 * region driver static_asserts per (K, stride).
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include <cstring>

#include "kernels/conv_layer.hh"
#include "kernels/conv_octets.hh"
#include "kernels/quant.hh"

namespace flcnn {
namespace simd {

namespace {

/** Lane mask selecting the first @p rem (1..7) of 8 pixels. */
inline __m256i
tailMask(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** quantizeAct() on 8 lanes, before the [0, 255] clamp: the scaled
 *  value is clamped to +/-kActQuantSpan first (max/min return their
 *  second operand for NaN, as the scalar comparisons do), so cvtps
 *  never sees an out-of-range input and the sum stays inside i16. */
inline __m256i
quantizeLanes(__m256 x, __m256 vinv, __m256i vzp)
{
    const __m256 v = _mm256_min_ps(
        _mm256_max_ps(_mm256_mul_ps(x, vinv),
                      _mm256_set1_ps(-kActQuantSpan)),
        _mm256_set1_ps(kActQuantSpan));
    return _mm256_add_epi32(_mm256_cvtps_epi32(v), vzp);
}

/** Saturate 8 i32 lanes to u8 ([0, 255]), in order, in the low 8
 *  bytes. */
inline __m128i
packLanesU8(__m256i q)
{
    const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    return _mm_packus_epi16(i16, i16);
}

/** One MR x 8 int8 vector block (compile-time K and stride): one
 *  whole-row or split octet. Masked lanes load and store no
 *  accumulator. */
template <int MR, int K, int SX, bool SPLIT, bool MASKED>
inline void
blockI8Avx2(int32_t *dst, int64_t dst_stride, const uint8_t *in,
            int64_t ch_stride, int64_t row_pitch, const int8_t *wp,
            int n_count, const OctetPos &o)
{
    constexpr int JG = (K + 3) / 4;
    constexpr int64_t W_ROW = static_cast<int64_t>(JG) * MR * 4;
    const __m256i ones = _mm256_set1_epi16(1);
    const __m256i mask = MASKED ? octetMask(o) : _mm256_setzero_si256();
    __m256i acc[MR];
    for (int f = 0; f < MR; f++)
        acc[f] = loadAccI32<SPLIT, MASKED>(dst + f * dst_stride, o, mask);
    const uint8_t *lo = in + o.inLo;
    const uint8_t *hi = in + o.inHi;
    const int8_t *wchan = wp;
    for (int n = 0; n < n_count; n++, lo += ch_stride, hi += ch_stride,
             wchan += K * W_ROW) {
        for (int i = 0; i < K; i++) {
            const int8_t *wrow = wchan + i * W_ROW;
            for (int jg = 0; jg < JG; jg++) {
                const __m256i pix = loadPixTaps<SX, SPLIT>(
                    lo + i * row_pitch, hi + i * row_pitch, jg);
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
    for (int f = 0; f < MR; f++)
        storeAccI32<SPLIT, MASKED>(dst + f * dst_stride, o, mask, acc[f]);
}

/** Region driver: 1x8 and 2x4 blocks (forEachRegionBlock). */
template <int MR, int K, int SX>
void
convBlockRegionI8Avx2(int32_t *dst, int64_t dst_stride,
                      int64_t dst_row_stride, int rows, int count,
                      const uint8_t *in, int64_t ch_stride,
                      int64_t row_pitch, int64_t in_row_step,
                      const int8_t *wp, int n_count)
{
    static_assert(i8TailOverread(K, SX) <= kConvStagePad,
                  "int8 tail block overreads the ConvStage apron");
    static_assert(i8HalfOverread(K, SX) <= kConvStagePad,
                  "int8 half-row loads overread the ConvStage apron");
    forEachRegionBlock<8>(
        rows, count, SX, in_row_step, dst_row_stride,
        [&](auto shape, const OctetPos *o) {
            using S = decltype(shape);
            blockI8Avx2<MR, K, SX, S::kSplit, S::kMasked>(
                dst, dst_stride, in, ch_stride, row_pitch, wp, n_count,
                o[0]);
        });
}

struct I8Entry
{
    int mr;
    int k;
    int sx;
    ConvBlockStripI8Fn fn;
};

#define FLCNN_I8_ENTRY(K, SX)                                           \
    {1, K, SX, &convBlockRegionI8Avx2<1, K, SX>},                       \
    {2, K, SX, &convBlockRegionI8Avx2<2, K, SX>},                       \
    {4, K, SX, &convBlockRegionI8Avx2<4, K, SX>}

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
        const __m256i a =
            quantizeLanes(_mm256_loadu_ps(src + t), vinv, vzp);
        const __m256i b =
            quantizeLanes(_mm256_loadu_ps(src + t + 8), vinv, vzp);
        // packs i32->i16 then packus i16->u8 saturates exactly like
        // the scalar clamp(., 0, 255); both packs interleave 128-bit
        // lanes, so one final dword permute restores element order.
        const __m256i i16 = _mm256_packs_epi32(a, b);
        const __m256i u8 =
            _mm256_packus_epi16(i16, _mm256_setzero_si256());
        const __m256i ordered = _mm256_permutevar8x32_epi32(
            u8, _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(dst + t),
            _mm256_castsi256_si128(ordered));
    }
    if (t + 8 <= count) {
        _mm_storel_epi64(
            reinterpret_cast<__m128i *>(dst + t),
            packLanesU8(
                quantizeLanes(_mm256_loadu_ps(src + t), vinv, vzp)));
        t += 8;
    }
    if (t < count) {
        // Masked tail: lanes past count load nothing, and only the
        // live bytes are stored.
        const int rem = count - t;
        const __m256 x = _mm256_maskload_ps(src + t, tailMask(rem));
        const uint64_t bytes = static_cast<uint64_t>(_mm_cvtsi128_si64(
            packLanesU8(quantizeLanes(x, vinv, vzp))));
        std::memcpy(dst + t, &bytes, static_cast<size_t>(rem));
    }
}

void
quantizeWeightsI8(int8_t *dst, const float *src, int count, float scale)
{
    // Inside (-64, 64) lrintf-then-clamp equals a float clamp to +/-63
    // followed by the round-to-nearest-even conversion, and the
    // division is the same IEEE operation lane for lane. A group with
    // any tap outside that range (or NaN) takes the scalar path, whose
    // conversion of huge values the vector one does not reproduce.
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256 hi = _mm256_set1_ps(static_cast<float>(kWeightQuantMax));
    const __m256 lo = _mm256_set1_ps(-static_cast<float>(kWeightQuantMax));
    const __m256 bound = _mm256_set1_ps(64.0f);
    const __m256 nbound = _mm256_set1_ps(-64.0f);
    int t = 0;
    for (; t + 8 <= count; t += 8) {
        const __m256 x = _mm256_div_ps(_mm256_loadu_ps(src + t), vs);
        const __m256 inside =
            _mm256_and_ps(_mm256_cmp_ps(x, bound, _CMP_LT_OQ),
                          _mm256_cmp_ps(x, nbound, _CMP_GT_OQ));
        if (_mm256_movemask_ps(inside) != 0xff) {
            for (int u = t; u < t + 8; u++)
                dst[u] = quantizeWeight(src[u], scale);
            continue;
        }
        const __m256i v = _mm256_cvtps_epi32(
            _mm256_min_ps(_mm256_max_ps(x, lo), hi));
        const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                            _mm256_extracti128_si256(v, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + t),
                         _mm_packs_epi16(i16, i16));
    }
    for (; t < count; t++)
        dst[t] = quantizeWeight(src[t], scale);
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

void
quantizeInterleaveI8(uint8_t *dst, const float *src, int64_t src_ch_stride,
                     int channels, int count, float inv_scale, int zp)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256i vzp = _mm256_set1_epi32(zp);
    // 16 channels x 16 pixels at a time: quantize each channel's 16
    // pixels into one register as quantizeRowI8 does, then four rounds
    // of pairing register q with q + 8 by unpacklo/hi_epi8 rotate each
    // byte's 8-bit (channel, pixel) index left by one, so after four
    // the registers are the pixels.
    int c0 = 0;
    for (; c0 + 16 <= channels; c0 += 16) {
        int x0 = 0;
        for (; x0 + 16 <= count; x0 += 16) {
            __m128i r[16], t[16];
            for (int q = 0; q < 16; q++) {
                const float *row = src + (c0 + q) * src_ch_stride + x0;
                const __m256i i16 = _mm256_packs_epi32(
                    quantizeLanes(_mm256_loadu_ps(row), vinv, vzp),
                    quantizeLanes(_mm256_loadu_ps(row + 8), vinv, vzp));
                r[q] = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                    _mm256_packus_epi16(i16, _mm256_setzero_si256()),
                    _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0)));
            }
            for (int round = 0; round < 4; round++) {
                for (int q = 0; q < 8; q++) {
                    t[2 * q] = _mm_unpacklo_epi8(r[q], r[q + 8]);
                    t[2 * q + 1] = _mm_unpackhi_epi8(r[q], r[q + 8]);
                }
                for (int q = 0; q < 16; q++)
                    r[q] = t[q];
            }
            for (int q = 0; q < 16; q++)
                _mm_storeu_si128(reinterpret_cast<__m128i *>(
                                     dst + (x0 + q) * channels + c0),
                                 r[q]);
        }
        if (x0 < count) {
            // Pixel tail: quantize each channel's few pixels (masked
            // loads) into a block, then interleave it byte by byte.
            alignas(16) uint8_t tail[16][16];
            for (int q = 0; q < 16; q++)
                quantizeRowI8(tail[q], src + (c0 + q) * src_ch_stride + x0,
                              count - x0, inv_scale, zp);
            for (int x = x0; x < count; x++)
                for (int q = 0; q < 16; q++)
                    dst[x * channels + c0 + q] = tail[q][x - x0];
        }
    }
    // Channel tail: one channel row at a time, 64 pixels per piece.
    for (int c = c0; c < channels; c++) {
        for (int x0 = 0; x0 < count; x0 += 64) {
            const int n = count - x0 < 64 ? count - x0 : 64;
            alignas(16) uint8_t piece[64];
            quantizeRowI8(piece, src + c * src_ch_stride + x0, n, inv_scale,
                          zp);
            for (int x = 0; x < n; x++)
                dst[(x0 + x) * channels + c] = piece[x];
        }
    }
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
