/**
 * @file
 * Internal interface between the portable kernel dispatcher and the
 * optional SIMD translation unit (conv_kernels_avx2.cc, compiled with
 * -mavx2 only when the FLCNN_SIMD CMake option is ON). Keeping the
 * vector code in its own TU means the rest of the library never emits
 * AVX2 instructions, so a binary built with the option still runs on
 * hosts without AVX2 — the resolver checks avx2Supported() at runtime
 * and falls back to the portable kernels.
 */

#ifndef FLCNN_KERNELS_CONV_KERNELS_SIMD_HH
#define FLCNN_KERNELS_CONV_KERNELS_SIMD_HH

#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"

namespace flcnn {
namespace simd {

/** True when the running CPU supports the AVX2 strip kernels. */
bool avx2Supported();

/**
 * The AVX2 multi-filter strip driver for @p mr lanes and a
 * (kernel, stride) pair, or nullptr when no vector variant exists
 * (kernel sizes or strides outside the table). The returned
 * function honors the full determinism contract: 8-pixel vector
 * blocks apply, per lane, exactly the scalar mul-then-add tap order
 * (no FMA — the build never enables -mfma and intrinsics are not
 * contracted). At stride 1 a region's rows of 4 pixels or fewer pair
 * up into 2x4 blocks, and narrower rows and row tails run masked
 * blocks with the same per-lane sequence; strided regions run row by
 * row with the portable generic remainder.
 */
ConvBlockStripFn blockFn(int mr, int kernel, int stride);

/**
 * The AVX2 int8 multi-filter strip variant (maddubs u8 x s8 pipeline)
 * for @p mr lanes and a (kernel, stride) pair, or nullptr when no
 * vector variant exists (strides other than 1 and 4, kernel sizes
 * outside the table). Integer accumulation
 * is exact and the +/-63 weight clamp rules out i16 saturation, so the
 * returned function computes bit-identical accumulators to the
 * portable generic. A region's rows of 4 pixels or fewer pair up into
 * 2x4 blocks; narrower rows and row tails run blocks with masked
 * accumulator loads and stores (see i8TailOverread, i8HalfOverread).
 */
ConvBlockStripI8Fn blockFnI8(int mr, int kernel, int stride);

/**
 * Bytes the int8 masked tail block may read past the last staged byte
 * its single live pixel uses (column k - 1 from that pixel's origin).
 * With one live lane the block still loads 8 pixels' taps: per 4-tap
 * group a 16-byte load at stride 1 or a 32-byte load at stride 4, the
 * last group starting 4 * (ceil(k / 4) - 1) bytes in. No other int8
 * reader goes further past the image, so ConvStage's zero apron
 * (kConvStagePad) must be at least this wide; the vector TUs
 * static_assert it per (k, stride).
 */
constexpr int
i8TailOverread(int k, int stride)
{
    return 4 * ((k + 3) / 4 - 1) + (stride == 1 ? 16 : 32) - k;
}

/**
 * Bytes a split octet's int8 half-row loads may read past the last
 * staged byte its single live pixel uses: per 4-tap group an 8-byte
 * load at stride 1 or a 16-byte load at stride 4, the last group
 * starting 4 * (ceil(k / 4) - 1) bytes in. Never more than
 * i8TailOverread(); the vector TUs static_assert both against
 * kConvStagePad.
 */
constexpr int
i8HalfOverread(int k, int stride)
{
    return 4 * ((k + 3) / 4 - 1) + (stride == 1 ? 8 : 16) - k;
}

/** True when the running CPU supports the FMA fast-math kernels. */
bool fmaSupported();

/**
 * The fast-math FMA multi-filter strip variant for @p mr lanes and a
 * (kernel, stride) pair, or nullptr when none exists. Unlike every
 * other resolver in this header, the returned function is NOT
 * bit-identical to the scalar path: each lane accumulates two
 * interleaved partial sums (split by tap parity) with vfmadd, then
 * recombines — a ULP-bounded deviation verified by the fast-math
 * differential tests. Compiled only when the toolchain has -mfma
 * (FLCNN_SIMD_FMA), dispatched only through
 * resolveConvBlockKernelFast().
 */
ConvBlockStripFn blockFnFma(int mr, int kernel, int stride);

/** True when the running CPU supports the AVX-VNNI int8 kernels. */
bool avxVnniSupported();

/**
 * The AVX-VNNI int8 strip driver (one vpdpbusd per 8 pixels x 4 taps
 * x filter, 16-pixel blocks filled as 1x16, 2x8 or 4x4 from a region's
 * rows), or nullptr when none exists. vpdpbusd accumulates the
 * exact 4-product integer sum with no intermediate saturation, so the
 * returned function is bit-equal to the generic and maddubs paths.
 * Only compiled when the toolchain has -mavxvnni (FLCNN_SIMD_AVXVNNI).
 */
ConvBlockStripI8Fn blockFnI8Vnni(int mr, int kernel, int stride);

/**
 * True when the running CPU has AMX-TILE, AMX-INT8 and AVX2 and the
 * kernel granted this process the tile-data state (asked once, on the
 * first call). Only compiled with -mamx-tile -mamx-int8
 * (FLCNN_SIMD_AMX).
 */
bool amxSupported();

/**
 * The i8.amx region driver (see AmxRegion and the TU header): exact
 * i32 sums by TDPBUSD over a channel-last stage, then the shared
 * dequant epilogue. Bit-equal to every other int8 tier. Call only
 * after amxSupported().
 */
void convRegionI8Amx(const AmxRegion &r);

/**
 * Vectorized activation quantization: dst[t] = clamp(rne(src[t] *
 * inv_scale) + zp, 0, 255). Bit-equal to quantizeAct() per element,
 * for every float including NaN and +/-inf: the same max/min bound
 * the scalar applies before rounding, cvtps rounding to nearest-even
 * exactly like lrintf under the default rounding mode, and a
 * packs/packus saturation chain for the [0, 255] clamp. Runs 16, then
 * 8 elements per step and ends in one masked block, so narrow rows
 * stay vector code; no byte past dst[count - 1] is written and no
 * float past src[count - 1] is read. AVX2 TU; call only after
 * avx2Supported().
 */
void quantizeRowI8(uint8_t *dst, const float *src, int count,
                   float inv_scale, int zp);

/**
 * Quantize @p channels float rows into one channel-last u8 row:
 * dst[x * channels + c] = quantizeAct(src[c * src_ch_stride + x]) for
 * x < @p count. Bit-equal to quantizeAct per element: the quantizeRowI8
 * lane math, then 16 x 16 byte transposes, and quantizeRowI8 itself on
 * the pixel and channel edges. The channel-last stage of the i8.amx
 * tier, for any channel count.
 * AVX2 TU; call only after avx2Supported().
 */
void quantizeInterleaveI8(uint8_t *dst, const float *src,
                          int64_t src_ch_stride, int channels, int count,
                          float inv_scale, int zp);

/**
 * Vectorized weight quantization: dst[t] = quantizeWeight(src[t],
 * scale), bit-equal per element. Taps whose quotient lies in (-64, 64)
 * take the same IEEE division, a float clamp to +/-63 and the
 * round-to-nearest-even conversion; any 8-tap group holding another
 * value (or NaN) runs quantizeWeight itself. AVX2 TU; call only after
 * avx2Supported().
 */
void quantizeWeightsI8(int8_t *dst, const float *src, int count,
                       float scale);

/**
 * Vectorized int8 dequant epilogue: dst[t] = bias + scale *
 * float(acc[t] - zp_term), with the subtraction in i32. Bit-equal to
 * the scalar epilogue whenever the caller guarantees the difference
 * fits i32 (see convBlockRowI8's tap-count gate). The multiply and
 * add are separate instructions (the TU never enables FMA), so no
 * contraction can split the result from the scalar path.
 */
void dequantRowI8(float *dst, const int32_t *acc, int count, float bias,
                  float scale, int32_t zp_term);

} // namespace simd
} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_KERNELS_SIMD_HH
