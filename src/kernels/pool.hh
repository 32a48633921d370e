/**
 * @file
 * Row-wise pooling shared by the reference and every fused executor.
 *
 * One call produces one output row of a K x K, stride-S pooling window.
 * The caller passes a table of K input row pointers rather than one
 * base pointer and a pitch, so the rows need not be evenly spaced in
 * memory. Every output element folds its window in
 * nn::poolPoint()'s order — max starts from the window's top-left tap,
 * then max(acc, v) over taps (i, j) row-major; average sums the same
 * taps from zero and divides by K * K — so results are bit-identical to
 * poolPoint(), infinities and signed zeros included. A NaN average is
 * a NaN on both sides, but which NaN a sum of two NaNs carries follows
 * the operand order the compiler picks for a + b, which C++ leaves
 * open.
 */

#ifndef FLCNN_KERNELS_POOL_HH
#define FLCNN_KERNELS_POOL_HH

#include <algorithm>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace flcnn {

/** Largest pooling window poolRow()'s callers size their row tables
 *  for. */
constexpr int kMaxPoolKernel = 16;

namespace pool_detail {

#ifdef __SSE2__
/** p[0], p[s], p[2s], p[3s], reading nothing past p[3s]. */
inline __m128
load4(const float *p, int s)
{
    if (s == 1)
        return _mm_loadu_ps(p);
    if (s == 2) {
        // {p0..p3} and {p3..p6}: lanes 0, 2 of the first and 1, 3 of
        // the second are p0, p2, p4, p6.
        const __m128 a = _mm_loadu_ps(p);
        const __m128 b = _mm_loadu_ps(p + 3);
        return _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 2, 0));
    }
    return _mm_setr_ps(p[0], p[s], p[2 * s], p[3 * s]);
}
#endif

} // namespace pool_detail

/**
 * dst[x] = pool of rows[i][x * stride + j] over i, j in [0, kernel),
 * for x in [0, count). Reads nothing outside the windows and writes
 * nothing past dst[count - 1].
 */
inline void
poolRow(float *dst, int count, const float *const *rows, int kernel,
        int stride, bool is_max)
{
    int x = 0;
#ifdef __SSE2__
    // Four outputs at a time with the accumulator in a register. maxps
    // returns its second operand unless the first is greater, so
    // max_ps(v, acc) is std::max(acc, v) bit for bit.
    const __m128 inv = _mm_set1_ps(static_cast<float>(kernel * kernel));
    for (; x + 4 <= count; x += 4) {
        const int x0 = x * stride;
        __m128 acc = is_max ? pool_detail::load4(rows[0] + x0, stride)
                            : _mm_setzero_ps();
        for (int i = 0; i < kernel; i++) {
            const float *rp = rows[i] + x0;
            for (int j = 0; j < kernel; j++) {
                const __m128 v = pool_detail::load4(rp + j, stride);
                acc = is_max ? _mm_max_ps(v, acc) : _mm_add_ps(acc, v);
            }
        }
        if (!is_max)
            acc = _mm_div_ps(acc, inv);
        _mm_storeu_ps(dst + x, acc);
    }
#endif
    for (; x < count; x++) {
        const int x0 = x * stride;
        float acc = is_max ? rows[0][x0] : 0.0f;
        for (int i = 0; i < kernel; i++) {
            const float *rp = rows[i] + x0;
            for (int j = 0; j < kernel; j++)
                acc = is_max ? std::max(acc, rp[j]) : acc + rp[j];
        }
        if (!is_max)
            acc /= static_cast<float>(kernel * kernel);
        dst[x] = acc;
    }
}

} // namespace flcnn

#endif // FLCNN_KERNELS_POOL_HH
