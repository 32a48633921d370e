/**
 * @file
 * Explicit AVX2 multi-filter strip kernels (table kernel sizes and
 * strides). This is the only translation unit compiled with -mavx2; it
 * is included in the build only when the FLCNN_SIMD CMake option is ON
 * and the target is x86-64, and its entry points are reached only
 * after a runtime avx2Supported() check.
 *
 * Determinism: each vector block computes MR filter lanes by 8 pixels
 * with one __m256 accumulator per lane. A tap updates a lane as
 * add(acc, mul(broadcast(w), in)) — per pixel, exactly the scalar
 * mul-then-add in the canonical (n, i, j) order. Strided pixels are
 * gathered with deinterleave shuffles, which move data without
 * touching its value or the accumulation order. FMA is never used:
 * the build does not pass -mfma, intrinsics are never contracted, and
 * -ffp-contract=off is pinned globally. Outputs therefore match the
 * scalar reference bit for bit.
 *
 * Tails: at stride 1 the last count % 8 pixels of a strip (all of
 * them when count < 8) run one masked 8-pixel block with the same
 * per-lane op sequence. Accumulators and input taps are loaded with
 * vmaskmov and stored the same way, so nothing past dst[count - 1] or
 * past the last input element a scalar kernel would touch is read or
 * written (Tensor rows carry no apron). Strides 2 and 4 keep the
 * portable generic remainder: the strided gathers read whole vectors,
 * and the only such layer in the zoo, AlexNet conv1, is served in
 * int8, whose kernels have their own masked tail.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

namespace flcnn {
namespace simd {

namespace {

/**
 * Load the 8 strip pixels of one tap: elements p[0], p[SX], ...,
 * p[7 * SX]. Every load stays inside [p, p + 7 * SX] — no overread
 * past the last element a scalar kernel would touch.
 */
template <int SX>
inline __m256
loadPix(const float *p)
{
    static_assert(SX == 1 || SX == 2 || SX == 4, "unsupported stride");
    if constexpr (SX == 1) {
        return _mm256_loadu_ps(p);
    } else if constexpr (SX == 2) {
        // a = x0..x7, b = x7..x14; pixels are x0,x2,..,x14.
        const __m256 a = _mm256_loadu_ps(p);
        const __m256 b = _mm256_loadu_ps(p + 7);
        // Per 128-bit lane: [a0,a2,b1,b3] -> [p0,p1,p4,p5 | p2,p3,p6,p7].
        const __m256 s = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 2, 0));
        const __m256i idx = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        return _mm256_permutevar8x32_ps(s, idx);
    } else {
        // a,b,c cover x0..x23; d = x21..x28; pixels are x0,x4,..,x28.
        const __m256 a = _mm256_loadu_ps(p);
        const __m256 b = _mm256_loadu_ps(p + 8);
        const __m256 c = _mm256_loadu_ps(p + 16);
        const __m256 d = _mm256_loadu_ps(p + 21);
        const __m256 e = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(0, 0, 0, 0));
        const __m256 f = _mm256_shuffle_ps(c, d, _MM_SHUFFLE(3, 3, 0, 0));
        // [p0,p2,p4,p6 | p1,p3,p5,p7]
        const __m256 g = _mm256_shuffle_ps(e, f, _MM_SHUFFLE(2, 0, 2, 0));
        const __m256i idx = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        return _mm256_permutevar8x32_ps(g, idx);
    }
}

/** Lane mask selecting the first @p rem (1..7) of 8 pixels. */
inline __m256i
tailMask(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * One MR x 8 vector block at compile-time K and stride. With TAIL set
 * (stride 1 only) every dst and input access is masked to the lanes
 * of @p mask; the arithmetic is unchanged, and masked-off lanes
 * compute on zeros that are never stored.
 */
template <int MR, int K, int SX, bool TAIL = false>
inline void
blockMfAvx2(float *dst, int64_t dst_stride, const float *in,
            int64_t ch_stride, const int64_t *row_off, const float *wp,
            int n_count, __m256i mask = __m256i())
{
    static_assert(!TAIL || SX == 1, "masked tail is stride-1 only");
    __m256 acc[MR];
    for (int f = 0; f < MR; f++)
        acc[f] = TAIL ? _mm256_maskload_ps(dst + f * dst_stride, mask)
                      : _mm256_loadu_ps(dst + f * dst_stride);
    const float *chan = in;
    const float *wchan = wp;
    for (int n = 0; n < n_count;
         n++, chan += ch_stride, wchan += K * K * MR) {
        for (int i = 0; i < K; i++) {
            const float *irow = chan + row_off[i];
            const float *wrow = wchan + static_cast<int64_t>(i) * K * MR;
            for (int j = 0; j < K; j++) {
                const __m256 iv = TAIL
                                      ? _mm256_maskload_ps(irow + j, mask)
                                      : loadPix<SX>(irow + j);
                for (int f = 0; f < MR; f++) {
                    const __m256 wv = _mm256_set1_ps(wrow[j * MR + f]);
                    acc[f] = _mm256_add_ps(acc[f],
                                           _mm256_mul_ps(wv, iv));
                }
            }
        }
    }
    for (int f = 0; f < MR; f++) {
        if constexpr (TAIL)
            _mm256_maskstore_ps(dst + f * dst_stride, mask, acc[f]);
        else
            _mm256_storeu_ps(dst + f * dst_stride, acc[f]);
    }
}

/** Strip driver: vector 8-pixel blocks, then a masked tail block
 *  (stride 1) or the portable generic remainder (strides 2 and 4). */
template <int MR, int K, int SX>
void
convBlockStripAvx2(float *dst, int64_t dst_stride, int count,
                   const float *in, int64_t ch_stride,
                   const int64_t *row_off, const float *wp, int n_count)
{
    while (count >= 8) {
        blockMfAvx2<MR, K, SX>(dst, dst_stride, in, ch_stride, row_off,
                               wp, n_count);
        dst += 8;
        in += 8 * SX;
        count -= 8;
    }
    if (count == 0)
        return;
    if constexpr (SX == 1) {
        blockMfAvx2<MR, K, SX, true>(dst, dst_stride, in, ch_stride,
                                     row_off, wp, n_count,
                                     tailMask(count));
    } else {
        ConvBlockKernel::convBlockStripGeneric(MR, dst, dst_stride,
                                               count, in, ch_stride,
                                               row_off, wp, n_count, K,
                                               SX);
    }
}

struct Avx2Entry
{
    int mr;
    int k;
    int sx;
    ConvBlockStripFn fn;
};

#define FLCNN_AVX2_ENTRY(K, SX)                                         \
    {1, K, SX, &convBlockStripAvx2<1, K, SX>},                          \
    {2, K, SX, &convBlockStripAvx2<2, K, SX>},                          \
    {4, K, SX, &convBlockStripAvx2<4, K, SX>}

constexpr Avx2Entry kAvx2Table[] = {
    FLCNN_AVX2_ENTRY(1, 1),  FLCNN_AVX2_ENTRY(1, 2),
    FLCNN_AVX2_ENTRY(1, 4),  FLCNN_AVX2_ENTRY(3, 1),
    FLCNN_AVX2_ENTRY(3, 2),  FLCNN_AVX2_ENTRY(3, 4),
    FLCNN_AVX2_ENTRY(5, 1),  FLCNN_AVX2_ENTRY(5, 2),
    FLCNN_AVX2_ENTRY(5, 4),  FLCNN_AVX2_ENTRY(7, 1),
    FLCNN_AVX2_ENTRY(7, 2),  FLCNN_AVX2_ENTRY(7, 4),
    FLCNN_AVX2_ENTRY(11, 1), FLCNN_AVX2_ENTRY(11, 2),
    FLCNN_AVX2_ENTRY(11, 4),
};

#undef FLCNN_AVX2_ENTRY

} // namespace

bool
avx2Supported()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

ConvBlockStripFn
blockFn(int mr, int kernel, int stride)
{
    for (const Avx2Entry &e : kAvx2Table) {
        if (e.mr == mr && e.k == kernel && e.sx == stride)
            return e.fn;
    }
    return nullptr;
}

} // namespace simd
} // namespace flcnn
