/**
 * @file
 * AVX-VNNI int8 strip kernels (strides 1 and 4, table kernel sizes).
 * One
 * vpdpbusd replaces the maddubs + madd + add triple of the plain AVX2
 * pipeline: the instruction multiplies 4 adjacent u8 x s8 pairs,
 * widens the products to i16 (always exact — 255 * 127 fits), sums
 * the 4 into the i32 accumulator with *no* intermediate saturation
 * (that is the vpdpbusds variant, which we never use). The result is
 * therefore the exact integer sum for any weight values, bit-equal to
 * the portable generic path — the determinism contract holds with no
 * dependence on the +/-63 weight clamp at all.
 *
 * Compiled with -mavx2 -mavxvnni only when the compiler supports the
 * flag (FLCNN_SIMD_AVXVNNI); entry points are reached only after a
 * runtime avxVnniSupported() check, so FLCNN_SIMD=ON binaries still
 * run on pre-VNNI hosts through the maddubs or generic paths.
 *
 * Input shuffle and panel layout are identical to the AVX2 TU —
 * including the stride-4 case, where the 4-tap grouping makes each
 * pixel octet's taps one contiguous 32-byte load with no shuffle; see
 * conv_kernels_i8_avx2.cc for the overread argument (covered by
 * ConvStage's kConvStagePad-byte zero apron, static_asserted per
 * (K, stride) below). The masked tail block is the AVX2 TU's too:
 * the last count % 8 pixels run one 8-pixel vpdpbusd block whose
 * accumulators load and store through vpmaskmovd.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include "kernels/conv_layer.hh"

namespace flcnn {
namespace simd {

namespace {

/** Same 16-byte -> 8 pixels x 4 taps expansion as the AVX2 TU. */
inline __m256i
pixelTapMask()
{
    return _mm256_setr_epi8(
        0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6,
        4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9, 7, 8, 9, 10);
}

/** Load 8 pixels x 4 taps of group @p jg into dword-per-pixel order
 *  (same trick as the AVX2 TU: stride 4 is a straight 32-byte load). */
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
blockI8Vnni(int32_t *dst, int64_t dst_stride, const uint8_t *in,
            int64_t ch_stride, const int64_t *row_off, const int8_t *wp,
            int n_count, __m256i mask = __m256i())
{
    constexpr int JG = (K + 3) / 4;
    constexpr int64_t W_ROW = static_cast<int64_t>(JG) * MR * 4;
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
                    acc[f] = _mm256_dpbusd_avx_epi32(
                        acc[f], pix, _mm256_set1_epi32(wbits));
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

/** One MR x 16 block: two pixel octets share each weight broadcast,
 *  halving the load traffic that bounds the 8-pixel block (vpdpbusd
 *  itself dual-issues; the broadcasts do not). */
template <int MR, int K, int SX>
inline void
blockI8Vnni16(int32_t *dst, int64_t dst_stride, const uint8_t *in,
              int64_t ch_stride, const int64_t *row_off,
              const int8_t *wp, int n_count)
{
    constexpr int JG = (K + 3) / 4;
    constexpr int64_t W_ROW = static_cast<int64_t>(JG) * MR * 4;
    __m256i acc0[MR], acc1[MR];
    for (int f = 0; f < MR; f++) {
        acc0[f] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + f * dst_stride));
        acc1[f] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + f * dst_stride +
                                              8));
    }
    const uint8_t *chan = in;
    const int8_t *wchan = wp;
    for (int n = 0; n < n_count;
         n++, chan += ch_stride, wchan += K * W_ROW) {
        for (int i = 0; i < K; i++) {
            const uint8_t *irow = chan + row_off[i];
            const int8_t *wrow = wchan + i * W_ROW;
            for (int jg = 0; jg < JG; jg++) {
                const __m256i pix0 = loadPixTaps<SX>(irow, jg);
                const __m256i pix1 =
                    loadPixTaps<SX>(irow + 8 * SX, jg);
                const int8_t *wtap = wrow + jg * MR * 4;
                for (int f = 0; f < MR; f++) {
                    int32_t wbits;
                    __builtin_memcpy(&wbits, wtap + f * 4, 4);
                    const __m256i wv = _mm256_set1_epi32(wbits);
                    acc0[f] =
                        _mm256_dpbusd_avx_epi32(acc0[f], pix0, wv);
                    acc1[f] =
                        _mm256_dpbusd_avx_epi32(acc1[f], pix1, wv);
                }
            }
        }
    }
    for (int f = 0; f < MR; f++) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + f * dst_stride), acc0[f]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + f * dst_stride + 8),
            acc1[f]);
    }
}

/** Strip driver: 16- then 8-pixel vector blocks, then one masked
 *  tail block. */
template <int MR, int K, int SX>
void
convBlockStripI8Vnni(int32_t *dst, int64_t dst_stride, int count,
                     const uint8_t *in, int64_t ch_stride,
                     const int64_t *row_off, const int8_t *wp,
                     int n_count)
{
    static_assert(i8TailOverread(K, SX) <= kConvStagePad,
                  "int8 tail block overreads the ConvStage apron");
    while (count >= 16) {
        blockI8Vnni16<MR, K, SX>(dst, dst_stride, in, ch_stride,
                                 row_off, wp, n_count);
        dst += 16;
        in += 16 * SX;
        count -= 16;
    }
    while (count >= 8) {
        blockI8Vnni<MR, K, SX>(dst, dst_stride, in, ch_stride, row_off,
                               wp, n_count);
        dst += 8;
        in += 8 * SX;
        count -= 8;
    }
    if (count > 0)
        blockI8Vnni<MR, K, SX, true>(dst, dst_stride, in, ch_stride,
                                     row_off, wp, n_count,
                                     tailMask(count));
}

struct VnniEntry
{
    int mr;
    int k;
    int sx;
    ConvBlockStripI8Fn fn;
};

#define FLCNN_VNNI_ENTRY(K, SX)                                         \
    {1, K, SX, &convBlockStripI8Vnni<1, K, SX>},                        \
    {2, K, SX, &convBlockStripI8Vnni<2, K, SX>},                        \
    {4, K, SX, &convBlockStripI8Vnni<4, K, SX>}

constexpr VnniEntry kVnniTable[] = {
    FLCNN_VNNI_ENTRY(1, 1),  FLCNN_VNNI_ENTRY(3, 1),
    FLCNN_VNNI_ENTRY(5, 1),  FLCNN_VNNI_ENTRY(7, 1),
    FLCNN_VNNI_ENTRY(11, 1), FLCNN_VNNI_ENTRY(1, 4),
    FLCNN_VNNI_ENTRY(3, 4),  FLCNN_VNNI_ENTRY(5, 4),
    FLCNN_VNNI_ENTRY(7, 4),  FLCNN_VNNI_ENTRY(11, 4),
};

#undef FLCNN_VNNI_ENTRY

} // namespace

bool
avxVnniSupported()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("avxvnni");
#else
    return false;
#endif
}

ConvBlockStripI8Fn
blockFnI8Vnni(int mr, int kernel, int stride)
{
    for (const VnniEntry &e : kVnniTable) {
        if (e.mr == mr && e.k == kernel && e.sx == stride)
            return e.fn;
    }
    return nullptr;
}

} // namespace simd
} // namespace flcnn
