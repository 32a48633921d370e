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
 * The AVX2 multi-filter strip variant for @p mr lanes and a
 * (kernel, stride) pair, or nullptr when no vector variant exists
 * (kernel sizes or strides outside the table). The returned
 * function honors the full determinism contract: 8-pixel vector
 * blocks apply, per lane, exactly the scalar mul-then-add tap order
 * (no FMA — the build never enables -mfma and intrinsics are not
 * contracted). A stride-1 remainder of count % 8 pixels runs one
 * masked 8-pixel block with the same per-lane sequence; strided
 * remainders delegate to the portable generic path.
 */
ConvBlockStripFn blockFn(int mr, int kernel, int stride);

/**
 * The AVX2 int8 multi-filter strip variant (maddubs u8 x s8 pipeline)
 * for @p mr lanes and a (kernel, stride) pair, or nullptr when no
 * vector variant exists (strides other than 1 and 4, kernel sizes
 * outside the table). Integer accumulation
 * is exact and the +/-63 weight clamp rules out i16 saturation, so the
 * returned function computes bit-identical accumulators to the
 * portable generic. The count % 8 remainder runs one 8-pixel block
 * with masked accumulator loads and stores (see i8TailOverread).
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
 * The AVX-VNNI int8 strip variant (one vpdpbusd per 8 pixels x 4 taps
 * x filter), or nullptr when none exists. vpdpbusd accumulates the
 * exact 4-product integer sum with no intermediate saturation, so the
 * returned function is bit-equal to the generic and maddubs paths.
 * Only compiled when the toolchain has -mavxvnni (FLCNN_SIMD_AVXVNNI).
 */
ConvBlockStripI8Fn blockFnI8Vnni(int mr, int kernel, int stride);

/**
 * Vectorized activation quantization: dst[t] = clamp(rne(src[t] *
 * inv_scale) + zp, 0, 255). Bit-equal to quantizeAct() per element —
 * cvtps rounds to nearest-even exactly like lrintf under the default
 * rounding mode, and the packus saturation chain implements the
 * [0, 255] clamp. AVX2 TU; call only after avx2Supported().
 */
void quantizeRowI8(uint8_t *dst, const float *src, int count,
                   float inv_scale, int zp);

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
