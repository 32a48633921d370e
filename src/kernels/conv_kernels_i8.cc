#include "kernels/conv_kernels_i8.hh"

#include "kernels/conv_kernels_simd.hh"

namespace flcnn {

namespace {

/**
 * Portable mr x count int8 block. Walks the packed panel in its
 * j-group-of-4 interleaved order — the same element order the vector
 * path consumes — accumulating plain i32 products. Padded taps
 * (jg*4 + u >= K) carry zero weights, so reading the staged input's
 * zero-padded columns underneath them is harmless and the loop needs
 * no edge tests.
 */
template <int MR>
void
blockI8Generic(int32_t *dst, int64_t dst_stride, int count,
               const uint8_t *in, int64_t ch_stride,
               int64_t row_pitch, const int8_t *wp, int n_count,
               int k, int sx)
{
    const int jg_count = (k + 3) / 4;
    for (int n = 0; n < n_count; n++) {
        const uint8_t *chan = in + n * ch_stride;
        for (int i = 0; i < k; i++) {
            const uint8_t *row = chan + i * row_pitch;
            const int8_t *wrow =
                wp + (static_cast<int64_t>(n) * k + i) * jg_count * MR * 4;
            for (int jg = 0; jg < jg_count; jg++) {
                const uint8_t *px = row + jg * 4;
                const int8_t *wtap = wrow + jg * MR * 4;
                for (int t = 0; t < count; t++) {
                    const uint8_t *p = px + static_cast<int64_t>(t) * sx;
                    for (int f = 0; f < MR; f++) {
                        const int8_t *w = wtap + f * 4;
                        dst[f * dst_stride + t] +=
                            static_cast<int32_t>(p[0]) * w[0] +
                            static_cast<int32_t>(p[1]) * w[1] +
                            static_cast<int32_t>(p[2]) * w[2] +
                            static_cast<int32_t>(p[3]) * w[3];
                    }
                }
            }
        }
    }
}

template <int MR>
void
stripI8GenericMr(int32_t *dst, int64_t dst_stride, int count,
                 const uint8_t *in, int64_t ch_stride,
                 int64_t row_pitch, const int8_t *wp, int n_count,
                 int k, int sx)
{
    blockI8Generic<MR>(dst, dst_stride, count, in, ch_stride, row_pitch,
                       wp, n_count, k, sx);
}

} // namespace

void
ConvBlockKernelI8::convBlockStripI8Generic(int mr, int32_t *dst,
                                           int64_t dst_stride, int count,
                                           const uint8_t *in,
                                           int64_t ch_stride,
                                           int64_t row_pitch,
                                           const int8_t *wp, int n_count,
                                           int k, int sx)
{
    switch (mr) {
      case 4:
        stripI8GenericMr<4>(dst, dst_stride, count, in, ch_stride,
                            row_pitch, wp, n_count, k, sx);
        break;
      case 2:
        stripI8GenericMr<2>(dst, dst_stride, count, in, ch_stride,
                            row_pitch, wp, n_count, k, sx);
        break;
      case 1:
        stripI8GenericMr<1>(dst, dst_stride, count, in, ch_stride,
                            row_pitch, wp, n_count, k, sx);
        break;
      case 3:
        stripI8GenericMr<3>(dst, dst_stride, count, in, ch_stride,
                            row_pitch, wp, n_count, k, sx);
        break;
      default:
        FLCNN_ASSERT(false, "unsupported int8 lane count");
    }
}

ConvBlockKernelI8
resolveConvBlockKernelI8Scalar(int kernel, int stride)
{
    ConvBlockKernelI8 bk;
    bk.k = kernel;
    bk.k4 = (kernel + 3) & ~3;
    bk.sx = stride;
    return bk;
}

ConvBlockKernelI8
resolveConvBlockKernelI8Amx(int kernel, int stride)
{
    ConvBlockKernelI8 bk = resolveConvBlockKernelI8Scalar(kernel, stride);
#ifdef FLCNN_SIMD_AMX
    if (simd::amxSupported())
        bk.amx = &simd::convRegionI8Amx;
#endif
    return bk;
}

ConvBlockKernelI8
resolveConvBlockKernelI8(int kernel, int stride)
{
    ConvBlockKernelI8 bk = resolveConvBlockKernelI8Scalar(kernel, stride);
#ifdef FLCNN_SIMD_AVX2
    if (simd::avx2Supported()) {
        for (int mr = 1; mr <= kConvBlockLanes; mr++)
            bk.fn[mr] = simd::blockFnI8(mr, kernel, stride);
        if (simd::blockFnI8(1, kernel, stride))
            bk.vecW = 8;
    }
#endif
#ifdef FLCNN_SIMD_AVXVNNI
    // Prefer vpdpbusd where the CPU has it: one instruction per
    // 8-pixel x 4-tap group instead of the maddubs triple, with the
    // identical exact accumulator.
    if (simd::avxVnniSupported()) {
        for (int mr = 1; mr <= kConvBlockLanes; mr++) {
            if (ConvBlockStripI8Fn fn =
                    simd::blockFnI8Vnni(mr, kernel, stride))
                bk.fn[mr] = fn;
        }
        if (simd::blockFnI8Vnni(1, kernel, stride))
            bk.vecW = 16;
    }
#endif
    return bk;
}

} // namespace flcnn
