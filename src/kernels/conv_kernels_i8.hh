/**
 * @file
 * Integer (u8 activation x s8 weight) multi-filter strip kernels.
 *
 * The int8 analog of the ConvBlockKernel family in conv_kernels.hh:
 * one pass accumulates the K x K x N taps of up to kConvBlockLanes
 * adjacent filters into raw int32 accumulators for a strip of
 * horizontally adjacent output pixels. Dequantization (bias, scales,
 * zero-point correction) is NOT done here — it lives in a shared
 * scalar epilogue (kernels/conv_layer.hh) so every code path, vector
 * or scalar, feeds the identical exact integer sums into the identical
 * float expression.
 *
 * Determinism contract: integer addition is associative, so unlike the
 * fp32 kernels there is no ordering constraint — any evaluation order
 * yields the same i32 bits. The weight clamp to +/-63 (see
 * kernels/quant.hh) guarantees maddubs-style pairwise i16 sums cannot
 * saturate, so the AVX2 path computes the same exact sums as the plain
 * scalar loop. Accumulators are i32; the worst case |acc| is bounded by
 * N * K^2 * 255 * 63 (~7.4e7 for VGG's 512-channel 3x3 layers), far
 * inside i32 range.
 *
 * Addressing model: same as the fp32 kernels — a channel stride plus an
 * explicit K-entry row-offset table, serving linear tensors, tile
 * buffers, and modular ring buffers alike. The input is the staged u8
 * image produced by ConvStage (kernels/conv_layer.hh); weights come
 * from a PackedWeightsI8 panel in j-group-of-4 interleaved layout (see
 * kernels/weight_pack_q.hh).
 */

#ifndef FLCNN_KERNELS_CONV_KERNELS_I8_HH
#define FLCNN_KERNELS_CONV_KERNELS_I8_HH

#include <cstdint>

#include "common/logging.hh"
#include "kernels/conv_kernels.hh"

namespace flcnn {

/**
 * Signature of an int8 multi-filter strip kernel. For lane f and
 * pixel t, with K4 = K rounded up to a multiple of 4 and the panel in
 * ((n*K + i)*(K4/4) + jg) * (MR*4) + f*4 + u layout (zero-padded taps
 * beyond K contribute zero products):
 *
 *   dst[f*dst_stride + t] +=
 *       sum_n sum_i sum_jg sum_u wp[((n*K + i)*(K4/4) + jg)*MR*4 + f*4 + u]
 *                              * in[n*ch_stride + row_off[i] + t*SX + jg*4 + u]
 *
 * dst holds raw i32 accumulators; callers zero-fill it first (the
 * dequant epilogue applies bias and scales afterwards). The staged
 * input rows must carry at least 48 readable bytes past the last
 * in-image column (ConvStage pads and zero-fills them) so the vector
 * path may overread harmlessly.
 */
using ConvBlockStripI8Fn = void (*)(int32_t *dst, int64_t dst_stride,
                                    int count, const uint8_t *in,
                                    int64_t ch_stride,
                                    const int64_t *row_off,
                                    const int8_t *wp, int n_count);

/**
 * Resolved int8 multi-filter kernels for one (k, stride) pair: one
 * strip function per lane width of the 4/2/1 ladder, falling back to
 * the portable generic path where no vector variant exists. Value
 * type; resolve once per layer and reuse.
 */
struct ConvBlockKernelI8
{
    int k = 0;   //!< kernel size K
    int k4 = 0;  //!< K rounded up to a multiple of 4 (panel row taps)
    int sx = 1;  //!< input step between adjacent output pixels
    int seg = 0; //!< strip segment width (tunable), 0 = whole row
    ConvBlockStripI8Fn fn[kConvBlockLanes + 1] = {};  //!< per lane count

    bool specialized(int mr) const { return fn[mr] != nullptr; }

    /** Run the @p mr-lane strip kernel (vector or portable). When a
     *  segment width is set the row is processed seg pixels at a time;
     *  integer sums are exact regardless, the split only tunes how
     *  long each panel walk stays cache-resident. */
    void
    run(int mr, int32_t *dst, int64_t dst_stride, int count,
        const uint8_t *in, int64_t ch_stride, const int64_t *row_off,
        const int8_t *wp, int n_count) const
    {
        FLCNN_ASSERT(mr >= 1 && mr <= kConvBlockLanes,
                     "filter-block lane count out of range");
        const int sw = (seg > 0 && seg < count) ? seg : count;
        for (int t = 0; t < count; t += sw) {
            const int c = count - t < sw ? count - t : sw;
            int32_t *d = dst + t;
            const uint8_t *src = in + static_cast<int64_t>(t) * sx;
            if (fn[mr])
                fn[mr](d, dst_stride, c, src, ch_stride, row_off, wp,
                       n_count);
            else
                convBlockStripI8Generic(mr, d, dst_stride, c, src,
                                        ch_stride, row_off, wp, n_count,
                                        k, sx);
        }
    }

    /** The portable (runtime-K/stride/lane) int8 path; plain i32
     *  arithmetic, exactly equal to the vector variants. */
    static void convBlockStripI8Generic(int mr, int32_t *dst,
                                        int64_t dst_stride, int count,
                                        const uint8_t *in,
                                        int64_t ch_stride,
                                        const int64_t *row_off,
                                        const int8_t *wp, int n_count,
                                        int k, int sx);
};

/**
 * Resolve the int8 multi-filter kernels for a (kernel, stride) pair.
 * When the build enables FLCNN_SIMD and the CPU supports AVX2,
 * stride-1 and stride-4 table shapes (K in {1, 3, 5, 7, 11}; AlexNet's
 * 11x11 s4 conv1 among them) dispatch to the maddubs vector path, upgraded to AVX-VNNI
 * vpdpbusd when available; everything else runs the portable generic
 * (which produces identical i32 accumulators).
 */
ConvBlockKernelI8 resolveConvBlockKernelI8(int kernel, int stride);

/**
 * Resolve the int8 kernels *without* any vector override — the
 * portable generic path only. Bit-identical accumulators to the vector
 * variants (integer sums are exact); the solver registry exposes it as
 * the always-applicable "i8.scalar" solver.
 */
ConvBlockKernelI8 resolveConvBlockKernelI8Scalar(int kernel, int stride);

} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_KERNELS_I8_HH
