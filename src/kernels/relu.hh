/**
 * @file
 * Row-wise ReLU shared by the fused executors.
 *
 * The clamp is exactly std::max(0.0f, v), as the reference (nn::runRelu)
 * computes it, bit for bit: NaN, -0 and -inf become +0, +inf stays.
 */

#ifndef FLCNN_KERNELS_RELU_HH
#define FLCNN_KERNELS_RELU_HH

#include <algorithm>
#include <cstdint>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace flcnn {

/** dst row r = ReLU(src row r) for @p rows rows of @p count floats;
 *  rows sit @p dst_stride / @p src_stride floats apart. @p src may
 *  equal @p dst (in place); nothing past a row's @p count is touched. */
inline void
reluRows(float *dst, int64_t dst_stride, const float *src,
         int64_t src_stride, int rows, int count)
{
    for (int r = 0; r < rows; r++, dst += dst_stride, src += src_stride) {
        int t = 0;
#ifdef __SSE2__
        // maxps/maxss return the second operand unless the first is
        // greater, so max(v, +0) is (0 < v ? v : +0) = std::max(0.0f, v)
        // bit for bit; the compiler's own std::max is a branch per
        // element, which mispredicts on activations.
        const __m128 zero = _mm_setzero_ps();
        for (; t + 4 <= count; t += 4)
            _mm_storeu_ps(dst + t,
                          _mm_max_ps(_mm_loadu_ps(src + t), zero));
        for (; t < count; t++)
            _mm_store_ss(dst + t, _mm_max_ss(_mm_load_ss(src + t), zero));
#else
        for (; t < count; t++)
            dst[t] = std::max(0.0f, src[t]);
#endif
    }
}

/** In-place ReLU over @p rows rows of @p count floats, @p stride apart. */
inline void
reluRows(float *dst, int64_t stride, int rows, int count)
{
    reluRows(dst, stride, dst, stride, rows, count);
}

} // namespace flcnn

#endif // FLCNN_KERNELS_RELU_HH
