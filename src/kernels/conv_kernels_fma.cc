/**
 * @file
 * Fast-math FMA multi-filter strip kernels. This is the only
 * translation unit compiled with -mfma; it is included in the build
 * only when the toolchain accepts the flag (FLCNN_SIMD_FMA), and its
 * entry points are reached only through resolveConvBlockKernelFast()
 * after a runtime fmaSupported() check — nothing in the default
 * dispatch path can ever select these kernels.
 *
 * NOT bit-exact, by design. Two deliberate deviations from the
 * determinism contract buy the speed:
 *
 *  1. vfmadd fuses each tap's multiply-add with a single rounding,
 *     where the scalar contract rounds the product and the sum
 *     separately (-ffp-contract=off pins that everywhere else).
 *  2. Each lane accumulates TWO interleaved partial sums, split by
 *     tap parity over the canonical (n, i, j) walk, recombined once
 *     at the end. This halves the loop-carried dependence so the two
 *     FMA chains overlap, at the cost of reassociating the sum.
 *
 * Both effects are ULP-bounded: fused rounding only ever *reduces*
 * per-tap rounding error, and the parity split changes the result by
 * at most the difference between two summation orders of the same
 * terms — O(T * eps * sum|terms|) for T taps. The fast-math
 * differential tests (tests/kernels/fastmath_ulp_test.cc) verify the
 * bound against the bit-exact kernels.
 *
 * Tails: at stride 1 the last count % 8 pixels run one masked 8-pixel
 * block with the same two-accumulator FMA sequence (so a tail pixel
 * deviates exactly like a full-block pixel), loading and storing
 * through vmaskmov so nothing past the strip is read or written.
 * Strides 2 and 4 keep the exact generic remainder, as in the AVX2
 * TU.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

namespace flcnn {
namespace simd {

namespace {

/**
 * Load the 8 strip pixels of one tap: elements p[0], p[SX], ...,
 * p[7 * SX]. Identical to the AVX2 TU's loader; data movement only.
 */
template <int SX>
inline __m256
loadPixF(const float *p)
{
    static_assert(SX == 1 || SX == 2 || SX == 4, "unsupported stride");
    if constexpr (SX == 1) {
        return _mm256_loadu_ps(p);
    } else if constexpr (SX == 2) {
        const __m256 a = _mm256_loadu_ps(p);
        const __m256 b = _mm256_loadu_ps(p + 7);
        const __m256 s = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 2, 0));
        const __m256i idx = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        return _mm256_permutevar8x32_ps(s, idx);
    } else {
        const __m256 a = _mm256_loadu_ps(p);
        const __m256 b = _mm256_loadu_ps(p + 8);
        const __m256 c = _mm256_loadu_ps(p + 16);
        const __m256 d = _mm256_loadu_ps(p + 21);
        const __m256 e = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(0, 0, 0, 0));
        const __m256 f = _mm256_shuffle_ps(c, d, _MM_SHUFFLE(3, 3, 0, 0));
        const __m256 g = _mm256_shuffle_ps(e, f, _MM_SHUFFLE(2, 0, 2, 0));
        const __m256i idx = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        return _mm256_permutevar8x32_ps(g, idx);
    }
}

/** Lane mask selecting the first @p rem (1..7) of 8 pixels. */
inline __m256i
tailMaskF(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * One MR x 8 fast-math vector block at compile-time K and stride. Each
 * lane keeps two accumulators: acc0 starts from dst (bias or partial
 * sum), acc1 from zero; taps alternate between them by parity of the
 * flattened (n, i, j) index, and the final store adds the pair. With
 * TAIL set (stride 1 only) dst and input accesses are masked to the
 * lanes of @p mask.
 */
template <int MR, int K, int SX, bool TAIL = false>
inline void
blockMfFma(float *dst, int64_t dst_stride, const float *in,
           int64_t ch_stride, const int64_t *row_off, const float *wp,
           int n_count, __m256i mask = __m256i())
{
    static_assert(!TAIL || SX == 1, "masked tail is stride-1 only");
    __m256 acc0[MR];
    __m256 acc1[MR];
    for (int f = 0; f < MR; f++) {
        acc0[f] = TAIL ? _mm256_maskload_ps(dst + f * dst_stride, mask)
                       : _mm256_loadu_ps(dst + f * dst_stride);
        acc1[f] = _mm256_setzero_ps();
    }
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
                                      : loadPixF<SX>(irow + j);
                const bool odd = ((n * K + i) * K + j) & 1;
                for (int f = 0; f < MR; f++) {
                    const __m256 wv = _mm256_set1_ps(wrow[j * MR + f]);
                    if (odd)
                        acc1[f] = _mm256_fmadd_ps(wv, iv, acc1[f]);
                    else
                        acc0[f] = _mm256_fmadd_ps(wv, iv, acc0[f]);
                }
            }
        }
    }
    for (int f = 0; f < MR; f++) {
        const __m256 sum = _mm256_add_ps(acc0[f], acc1[f]);
        if constexpr (TAIL)
            _mm256_maskstore_ps(dst + f * dst_stride, mask, sum);
        else
            _mm256_storeu_ps(dst + f * dst_stride, sum);
    }
}

/** Strip driver: fast vector 8-pixel blocks, then a masked fast tail
 *  block (stride 1) or the exact generic remainder (strides 2, 4). */
template <int MR, int K, int SX>
void
convBlockStripFma(float *dst, int64_t dst_stride, int count,
                  const float *in, int64_t ch_stride,
                  const int64_t *row_off, const float *wp, int n_count)
{
    while (count >= 8) {
        blockMfFma<MR, K, SX>(dst, dst_stride, in, ch_stride, row_off,
                              wp, n_count);
        dst += 8;
        in += 8 * SX;
        count -= 8;
    }
    if (count == 0)
        return;
    if constexpr (SX == 1) {
        blockMfFma<MR, K, SX, true>(dst, dst_stride, in, ch_stride,
                                    row_off, wp, n_count,
                                    tailMaskF(count));
    } else {
        ConvBlockKernel::convBlockStripGeneric(MR, dst, dst_stride,
                                               count, in, ch_stride,
                                               row_off, wp, n_count, K,
                                               SX);
    }
}

struct FmaEntry
{
    int mr;
    int k;
    int sx;
    ConvBlockStripFn fn;
};

#define FLCNN_FMA_ENTRY(K, SX)                                          \
    {1, K, SX, &convBlockStripFma<1, K, SX>},                           \
    {2, K, SX, &convBlockStripFma<2, K, SX>},                           \
    {4, K, SX, &convBlockStripFma<4, K, SX>}

constexpr FmaEntry kFmaTable[] = {
    FLCNN_FMA_ENTRY(1, 1),  FLCNN_FMA_ENTRY(1, 2),
    FLCNN_FMA_ENTRY(1, 4),  FLCNN_FMA_ENTRY(3, 1),
    FLCNN_FMA_ENTRY(3, 2),  FLCNN_FMA_ENTRY(3, 4),
    FLCNN_FMA_ENTRY(5, 1),  FLCNN_FMA_ENTRY(5, 2),
    FLCNN_FMA_ENTRY(5, 4),  FLCNN_FMA_ENTRY(7, 1),
    FLCNN_FMA_ENTRY(7, 2),  FLCNN_FMA_ENTRY(7, 4),
    FLCNN_FMA_ENTRY(11, 1), FLCNN_FMA_ENTRY(11, 2),
    FLCNN_FMA_ENTRY(11, 4),
};

#undef FLCNN_FMA_ENTRY

} // namespace

bool
fmaSupported()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

ConvBlockStripFn
blockFnFma(int mr, int kernel, int stride)
{
    for (const FmaEntry &e : kFmaTable) {
        if (e.mr == mr && e.k == kernel && e.sx == stride)
            return e.fn;
    }
    return nullptr;
}

} // namespace simd
} // namespace flcnn
