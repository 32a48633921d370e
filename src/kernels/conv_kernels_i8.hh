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
 * Addressing model: same as the fp32 kernels — a start pointer, a
 * channel stride and a row pitch. The input is the staged u8
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
 * Signature of an int8 multi-filter strip driver. Like
 * ConvBlockStripFn, one call covers a region of @p rows output rows x
 * @p count pixels: row r's accumulators sit at dst + r *
 * dst_row_stride and read the input at i * row_pitch + r * in_row_step.
 * For lane f, row r and pixel t, with K4 = K rounded up to a multiple
 * of 4 and the panel in ((n*K + i)*(K4/4) + jg) * (MR*4) + f*4 + u
 * layout (zero-padded taps beyond K contribute zero products):
 *
 *   dst[f*dst_stride + r*dst_row_stride + t] +=
 *       sum_n sum_i sum_jg sum_u wp[((n*K + i)*(K4/4) + jg)*MR*4 + f*4 + u]
 *           * in[n*ch_stride + i * row_pitch + r*in_row_step + t*SX + jg*4 + u]
 *
 * dst holds raw i32 accumulators; callers zero-fill it first (the
 * dequant epilogue applies bias and scales afterwards). The staged
 * input rows must carry at least 48 readable bytes past the last
 * in-image column (ConvStage pads and zero-fills them) so the vector
 * path may overread harmlessly.
 */
using ConvBlockStripI8Fn = void (*)(int32_t *dst, int64_t dst_stride,
                                    int64_t dst_row_stride, int rows,
                                    int count, const uint8_t *in,
                                    int64_t ch_stride,
                                    int64_t row_pitch,
                                    int64_t in_row_step,
                                    const int8_t *wp, int n_count);

/**
 * Filters per i8.amx panel block: two 16-filter B tiles. A pack built
 * with this mr_cap (PackedWeightsI8) holds AMX panels instead of the
 * 4/2/1 ladder; only the i8.amx tier asks for it.
 */
constexpr int kAmxLanes = 32;

/** Zero apron past each channel-last staged row: the last 64-byte
 *  reduction chunk of a row's last pixel reads up to 63 bytes past
 *  that pixel's K * C bytes. */
constexpr int kAmxStagePad = 64;

/**
 * One i8.amx region: @p rows output rows x @p count pixels of one
 * filter block, over a channel-last (HWC) staged image of one conv
 * group. Kernel row i of output pixel (r, t) is the K * C contiguous
 * bytes at
 *
 *   in + r * inRowStep + t * pixStep + i * rowPitch
 *
 * (in points at the region's first kernel row and pixel), read in
 * @p chunks 64-byte pieces; bytes past K * C meet zero panel rows.
 * The driver writes the dequantized outputs
 *
 *   dst[f * dstStride + r * dstRowStride + t] =
 *       bias[f] + scale[f] * float(acc - zpTerm[f])
 *
 * for every lane f < lanes, with acc the exact i32 sum.
 */
struct AmxRegion
{
    const uint8_t *in = nullptr;
    int64_t rowPitch = 0;   //!< bytes between staged rows
    int64_t pixStep = 0;    //!< bytes between adjacent output pixels
    int64_t inRowStep = 0;  //!< bytes between adjacent output rows
    int k = 0;              //!< kernel rows
    int chunks = 0;         //!< 64-byte reduction chunks per kernel row
    int rows = 1, count = 0;
    const int8_t *wp = nullptr;  //!< the block's AMX panel
    int lanes = 0;               //!< filters in the block (<= 32)
    float *dst = nullptr;
    int64_t dstStride = 0, dstRowStride = 0;
    const float *bias = nullptr;     //!< kAmxLanes entries
    const float *scale = nullptr;    //!< kAmxLanes entries
    const int32_t *zpTerm = nullptr; //!< kAmxLanes entries
};

using ConvAmxRegionFn = void (*)(const AmxRegion &);

/**
 * Resolved int8 multi-filter kernels for one (k, stride) pair: one
 * strip driver per lane width of the 4/2/1 ladder, falling back to
 * the portable generic path where no vector variant exists. Value
 * type; resolve once per layer and reuse.
 */
struct ConvBlockKernelI8
{
    int k = 0;   //!< kernel size K
    int k4 = 0;  //!< K rounded up to a multiple of 4 (panel row taps)
    int sx = 1;  //!< input step between adjacent output pixels
    int seg = 0; //!< strip segment width (tunable), 0 = whole row
    /** Pixels in the widest vector block a region fills across rows
     *  (16 for AVX-VNNI, 8 for maddubs); 0 for the portable path,
     *  which runs a region row by row. */
    int vecW = 0;
    ConvBlockStripI8Fn fn[kConvBlockLanes + 1] = {};  //!< per lane count
    /** The i8.amx region driver. When set, the tier stages channel-last
     *  (ConvStage::groups) and packs AMX panels (kAmxLanes); fn[] is
     *  unused. */
    ConvAmxRegionFn amx = nullptr;

    bool specialized(int mr) const { return fn[mr] != nullptr; }

    /** Conv groups a ConvStage for this tier lays out channel-last, or
     *  0 for the planar CHW stage the strip drivers read. */
    int stageGroups(int groups) const { return amx ? groups : 0; }

    /** Rows a region call should cover for rows of @p count pixels.
     *  The AMX driver packs any pixels of a region into its 32-pixel
     *  tile pairs, so it asks for enough rows to fill one. */
    int
    groupRows(int count) const
    {
        if (amx)
            return count >= 32 || count <= 0 ? 1 : (32 + count - 1) / count;
        return convRegionRows(vecW, count);
    }

    /** Run the @p mr-lane kernels over one row: runRows()'s R = 1
     *  case. */
    void
    run(int mr, int32_t *dst, int64_t dst_stride, int count,
        const uint8_t *in, int64_t ch_stride, int64_t row_pitch,
        const int8_t *wp, int n_count) const
    {
        runRows(mr, dst, dst_stride, 1, 0, count, in, ch_stride, row_pitch,
                0, wp, n_count);
    }

    /** Run the @p mr-lane strip driver (vector or portable) over
     *  @p rows rows (see ConvBlockStripI8Fn). When a segment width is
     *  set the region is processed seg columns at a time; integer sums
     *  are exact regardless, the split only tunes how long each panel
     *  walk stays cache-resident. */
    void
    runRows(int mr, int32_t *dst, int64_t dst_stride, int rows,
            int64_t dst_row_stride, int count, const uint8_t *in,
            int64_t ch_stride, int64_t row_pitch,
            int64_t in_row_step, const int8_t *wp, int n_count) const
    {
        FLCNN_ASSERT(mr >= 1 && mr <= kConvBlockLanes,
                     "filter-block lane count out of range");
        const int sw = (seg > 0 && seg < count) ? seg : count;
        for (int t = 0; t < count; t += sw) {
            const int c = count - t < sw ? count - t : sw;
            int32_t *d = dst + t;
            const uint8_t *src = in + static_cast<int64_t>(t) * sx;
            if (fn[mr]) {
                fn[mr](d, dst_stride, dst_row_stride, rows, c, src,
                       ch_stride, row_pitch, in_row_step, wp, n_count);
                continue;
            }
            for (int r = 0; r < rows; r++)
                convBlockStripI8Generic(mr, d + r * dst_row_stride,
                                        dst_stride, c,
                                        src + r * in_row_step, ch_stride,
                                        row_pitch, wp, n_count, k, sx);
        }
    }

    /** The portable (runtime-K/stride/lane) int8 path over one row;
     *  plain i32 arithmetic, exactly equal to the vector variants. */
    static void convBlockStripI8Generic(int mr, int32_t *dst,
                                        int64_t dst_stride, int count,
                                        const uint8_t *in,
                                        int64_t ch_stride,
                                        int64_t row_pitch,
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

/**
 * Resolve the i8.amx tier: the AMX region driver for any (kernel,
 * stride), over a channel-last stage and AMX panels. Without AMX (not
 * compiled in, CPU lacks it, or permission denied) this is the
 * portable resolution, amx unset.
 */
ConvBlockKernelI8 resolveConvBlockKernelI8Amx(int kernel, int stride);

} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_KERNELS_I8_HH
