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
 * Regions: a call covers R output rows of count pixels. At stride 1,
 * rows of 8 or more run whole-row octets, and rows of 4 or fewer pair
 * up into 2x4 blocks whose split octet holds 4 pixels from each of two
 * rows (kernels/conv_octets.hh): a 4-pixel pyramid row costs half a
 * block instead of a whole one. Lanes a row does not own (widths 1-3
 * and 5-7, the tail of a wider row, a lone last row) are masked:
 * accumulators and input taps load through vmaskmov and store the
 * same way, and a split octet's unmasked halves are 128-bit loads of
 * exactly its four pixels' taps, so nothing past dst[count - 1] of a
 * row or past the last input element a scalar kernel would touch is
 * read or written (Tensor rows carry no apron). Strides 2 and 4 run
 * row by row and keep the portable generic remainder: the strided
 * gathers read whole vectors, and the only such layer in the zoo,
 * AlexNet conv1, is served in int8, whose kernels have their own
 * masked tail.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include "kernels/conv_octets.hh"

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

/**
 * One MR x 8 vector block at compile-time K and stride: one whole-row
 * or (stride 1 only) split octet. Masked octets (stride 1 only) load,
 * compute on and store only their live lanes; the arithmetic is
 * unchanged, and masked-off lanes compute on zeros that are never
 * stored.
 */
template <int MR, int K, int SX, bool SPLIT = false, bool MASKED = false>
inline void
blockMfAvx2(float *dst, int64_t dst_stride, const float *in,
            int64_t ch_stride, int64_t row_pitch, const float *wp,
            int n_count, const OctetPos &o)
{
    static_assert(SX == 1 || !(SPLIT || MASKED),
                  "split and masked octets are stride-1 only");
    const __m256i mask = MASKED ? octetMask(o) : _mm256_setzero_si256();
    __m256 acc[MR];
    for (int f = 0; f < MR; f++)
        acc[f] = loadAccF32<SPLIT, MASKED>(dst + f * dst_stride, o, mask);
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
                    iv = loadPix<SX>(lrow + j);
                for (int f = 0; f < MR; f++) {
                    const __m256 wv = _mm256_set1_ps(wrow[j * MR + f]);
                    acc[f] = _mm256_add_ps(acc[f],
                                           _mm256_mul_ps(wv, iv));
                }
            }
        }
    }
    for (int f = 0; f < MR; f++)
        storeAccF32<SPLIT, MASKED>(dst + f * dst_stride, o, mask, acc[f]);
}

/** Region driver: at stride 1, 1x8 and 2x4 blocks
 *  (forEachRegionBlock); at strides 2 and 4, row by row, vector
 *  8-pixel blocks then the portable generic remainder. */
template <int MR, int K, int SX>
void
convBlockRegionAvx2(float *dst, int64_t dst_stride, int64_t dst_row_stride,
                    int rows, int count, const float *in,
                    int64_t ch_stride, int64_t row_pitch,
                    int64_t in_row_step, const float *wp, int n_count)
{
    if constexpr (SX == 1) {
        forEachRegionBlock<8>(
            rows, count, SX, in_row_step, dst_row_stride,
            [&](auto shape, const OctetPos *o) {
                using S = decltype(shape);
                blockMfAvx2<MR, K, SX, S::kSplit, S::kMasked>(
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
            blockMfAvx2<MR, K, SX>(drow, dst_stride, irow, ch_stride,
                                   row_pitch, wp, n_count, o);
        }
        if (full < count)
            ConvBlockKernel::convBlockStripGeneric(
                MR, drow + full, dst_stride, count - full,
                irow + full * SX, ch_stride, row_pitch, wp, n_count, K, SX);
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
    {1, K, SX, &convBlockRegionAvx2<1, K, SX>},                         \
    {2, K, SX, &convBlockRegionAvx2<2, K, SX>},                         \
    {4, K, SX, &convBlockRegionAvx2<4, K, SX>}

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
