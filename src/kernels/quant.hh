/**
 * @file
 * Quantization parameter helpers for the int8 precision mode.
 *
 * Scheme (standard asymmetric-activation / symmetric-weight affine
 * quantization, as in gemmlowp/QNNPACK-style pipelines):
 *
 *  - Conv-input activations map to u8 through a per-layer ActQuant
 *    {scale, zp}: q = clamp(round(x / scale) + zp, 0, 255). The range
 *    always includes 0.0 so padding/ReLU zeros quantize exactly to zp.
 *  - Weights map to s8 through a per-output-channel symmetric scale:
 *    wq = clamp(round(w / ws), -63, 63), ws = maxAbs / 63.
 *
 * The +/-63 weight clamp (7 bits, not 8) is deliberate: a maddubs-style
 * u8 x s8 multiply produces pairwise i16 sums bounded by
 * 255 * 63 * 2 = 32130 < 32767, so the instruction's saturating add can
 * never actually saturate. That turns the scalar fallback into plain
 * integer arithmetic that is exactly equal to the vector path — the
 * int8 mode keeps the repo's "bit-identical across SIMD on/off"
 * contract without emulating saturation anywhere.
 *
 * Dequantization runs per output pixel in a deterministic fp32 epilogue:
 *    out = bias + (act.scale * ws[m]) * (acc - zp * wsum[m])
 * where acc is the exact i32 accumulator and wsum[m] = sum of the
 * filter's quantized weights (the zero-point correction term).
 */

#ifndef FLCNN_KERNELS_QUANT_HH
#define FLCNN_KERNELS_QUANT_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace flcnn {

/** Largest magnitude of a quantized weight (see file comment). */
constexpr int kWeightQuantMax = 63;

/** Per-layer activation quantization parameters (u8, asymmetric). */
struct ActQuant
{
    float scale = 1.0f;  //!< real value per quantized step
    int zp = 0;          //!< zero point in [0, 255]
};

/** Derive activation quantization from an observed value range.
 *  The range is widened to include 0.0 (so zeros are exact) and
 *  degenerate ranges fall back to scale 1. */
inline ActQuant
chooseActQuant(float mn, float mx)
{
    const float lo = std::min(mn, 0.0f);
    const float hi = std::max(mx, 0.0f);
    ActQuant q;
    q.scale = (hi - lo) / 255.0f;
    if (!(q.scale > 0.0f) || !std::isfinite(q.scale))
        q.scale = 1.0f;
    q.zp = std::clamp(
        static_cast<int>(std::lrintf(-lo / q.scale)), 0, 255);
    return q;
}

/** Symmetric per-channel weight scale for a filter whose largest
 *  absolute weight is @p max_abs. */
inline float
chooseWeightScale(float max_abs)
{
    const float s = max_abs / static_cast<float>(kWeightQuantMax);
    return (s > 0.0f && std::isfinite(s)) ? s : 1.0f;
}

/** Bound applied to x * inv_scale before rounding. Past 255 steps
 *  every zero point clamps to 0 or 255 anyway, so the bound changes no
 *  code lrintf could round; it gives NaN, +/-inf and values past the
 *  int range one defined code each, which the vector staging
 *  reproduces lane for lane. */
constexpr float kActQuantSpan = 1024.0f;

/** Quantize one activation (round-to-nearest, clamped to u8). NaN maps
 *  to code 0, +inf to 255 and -inf to 0. */
inline uint8_t
quantizeAct(float x, float inv_scale, int zp)
{
    float v = x * inv_scale;
    v = v > -kActQuantSpan ? v : -kActQuantSpan;  // NaN takes this bound
    v = v < kActQuantSpan ? v : kActQuantSpan;
    const int q = static_cast<int>(std::lrintf(v)) + zp;
    return static_cast<uint8_t>(std::clamp(q, 0, 255));
}

/** Quantize one weight (round-to-nearest, clamped to +/-63). */
inline int8_t
quantizeWeight(float w, float scale)
{
    const int q = static_cast<int>(std::lrintf(w / scale));
    return static_cast<int8_t>(
        std::clamp(q, -kWeightQuantMax, kWeightQuantMax));
}

} // namespace flcnn

#endif // FLCNN_KERNELS_QUANT_HH
