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
 * Regions and tails: a call covers R output rows of count pixels,
 * tiled at stride 1 like the bit-exact AVX2 TU's — whole-row octets,
 * 2x4 blocks over pairs of rows of 4 pixels or fewer, masked lanes for
 * narrower rows and row tails (kernels/conv_octets.hh) — with the same
 * two-accumulator FMA sequence in every block, so a pixel deviates
 * from the exact kernels by the same amount whichever block it lands
 * in, and a region equals R one-row calls bit for bit. Loads and
 * stores go through 128-bit halves or vmaskmov, so nothing past a
 * row's strip is read or written. Strides 2 and 4 run row by row and
 * keep the exact generic remainder, as in the AVX2 TU.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include "kernels/conv_octets.hh"

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

/**
 * One MR x 8 fast-math vector block at compile-time K and stride: one
 * whole-row or (stride 1 only) split octet. Each lane keeps two
 * accumulators: acc0 starts from dst (bias or partial sum), acc1 from
 * zero; taps alternate between them by parity of the flattened
 * (n, i, j) index, and the final store adds the pair. Masked octets
 * (stride 1 only) load and store only their live lanes.
 */
template <int MR, int K, int SX, bool SPLIT = false, bool MASKED = false>
inline void
blockMfFma(float *dst, int64_t dst_stride, const float *in,
           int64_t ch_stride, int64_t row_pitch, const float *wp,
           int n_count, const OctetPos &o)
{
    static_assert(SX == 1 || !(SPLIT || MASKED),
                  "split and masked octets are stride-1 only");
    const __m256i mask = MASKED ? octetMask(o) : _mm256_setzero_si256();
    __m256 acc0[MR];
    __m256 acc1[MR];
    for (int f = 0; f < MR; f++) {
        acc0[f] = loadAccF32<SPLIT, MASKED>(dst + f * dst_stride, o, mask);
        acc1[f] = _mm256_setzero_ps();
    }
    const float *lo = in + o.inLo;
    const float *hi = in + o.inHi;
    const float *wchan = wp;
    for (int n = 0; n < n_count; n++, lo += ch_stride, hi += ch_stride,
             wchan += K * K * MR) {
        for (int i = 0; i < K; i++) {
            const float *lrow = lo + i * row_pitch;
            const float *wrow = wchan + static_cast<int64_t>(i) * K * MR;
            for (int j = 0; j < K; j++) {
                __m256 iv;
                if constexpr (SX == 1)
                    iv = loadTapsF32<SPLIT, MASKED>(lrow, hi + i * row_pitch, j,
                                                    mask);
                else
                    iv = loadPixF<SX>(lrow + j);
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
    for (int f = 0; f < MR; f++)
        storeAccF32<SPLIT, MASKED>(dst + f * dst_stride, o, mask,
                                   _mm256_add_ps(acc0[f], acc1[f]));
}

/** Region driver: at stride 1, fast 1x8 and 2x4 blocks
 *  (forEachRegionBlock); at strides 2 and 4, row by row, fast 8-pixel
 *  blocks then the exact generic remainder. */
template <int MR, int K, int SX>
void
convBlockRegionFma(float *dst, int64_t dst_stride, int64_t dst_row_stride,
                   int rows, int count, const float *in,
                   int64_t ch_stride, int64_t row_pitch,
                   int64_t in_row_step, const float *wp, int n_count)
{
    if constexpr (SX == 1) {
        forEachRegionBlock<8>(
            rows, count, SX, in_row_step, dst_row_stride,
            [&](auto shape, const OctetPos *o) {
                using S = decltype(shape);
                blockMfFma<MR, K, SX, S::kSplit, S::kMasked>(
                    dst, dst_stride, in, ch_stride, row_pitch, wp, n_count,
                    o[0]);
            });
        return;
    }
    const int full = count / 8 * 8;
    for (int r = 0; r < rows; r++) {
        float *drow = dst + r * dst_row_stride;
        const float *irow = in + r * in_row_step;
        for (int x = 0; x < full; x += 8) {
            const OctetPos o{x * SX, x * SX + 4 * SX, x, x + 4, 8, 8};
            blockMfFma<MR, K, SX>(drow, dst_stride, irow, ch_stride,
                                  row_pitch, wp, n_count, o);
        }
        if (full < count)
            ConvBlockKernel::convBlockStripGeneric(
                MR, drow + full, dst_stride, count - full,
                irow + full * SX, ch_stride, row_pitch, wp, n_count, K, SX);
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
    {1, K, SX, &convBlockRegionFma<1, K, SX>},                          \
    {2, K, SX, &convBlockRegionFma<2, K, SX>},                          \
    {4, K, SX, &convBlockRegionFma<4, K, SX>}

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
