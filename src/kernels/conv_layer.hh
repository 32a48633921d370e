/**
 * @file
 * Precision-mode conv staging and row drivers.
 *
 * The int8 and fp16 modes are conv-boundary transformations: before a
 * conv layer consumes an fp32 source buffer (a reference tensor, a
 * fused tile, a line-buffer ring, a recompute tile), the rows it will
 * read are *staged* — converted elementwise into the mode's compute
 * format — and the strip kernels then run against the staged image.
 * ConvStage owns that staging buffer; the convBlockRow* drivers wrap
 * one (filter-block, output-row) kernel invocation plus the mode's
 * epilogue, mirroring convBlockRowTensor() for the fp32 path.
 *
 * Staged geometry: channels x source-height x stageW, where
 * stageW = source-width + 48. The 48 trailing columns are zero-filled
 * at allocation and never written, giving the int8 vector kernels a
 * safe overread apron and the zero-padded panel taps zero products.
 * The widest reader is the vector kernels' masked tail block: with one
 * live pixel it still loads eight pixels' taps, up to
 * simd::i8TailOverread(K, stride) bytes (at most 31) past the image.
 * Row addressing is an explicit K-entry row-index table (like the
 * kernels' row-offset tables) so the same drivers serve linear
 * tensors, tile buffers, and the line-buffer executor's modular rings.
 *
 * Determinism: staging is scalar and elementwise (one rounding per
 * element, no accumulation), the int8 kernels produce exact i32 sums,
 * the fp16 path reuses the bit-exact fp32 kernels over pre-rounded
 * operands, and both epilogues are fixed scalar float expressions.
 * Within a precision, results are therefore bit-identical across
 * executors, thread counts, and SIMD on/off — the repo's fp32
 * invariant, extended.
 */

#ifndef FLCNN_KERNELS_CONV_LAYER_HH
#define FLCNN_KERNELS_CONV_LAYER_HH

#include <cstdint>
#include <vector>

#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"
#include "kernels/quant.hh"
#include "kernels/weight_pack.hh"
#include "tensor/precision.hh"
#include "tensor/tensor.hh"

namespace flcnn {

/** Zero-filled overread apron past each staged row (bytes/elements);
 *  must cover simd::i8TailOverread() for every vector (K, stride). */
constexpr int kConvStagePad = 48;

/** Per-conv-layer staging buffer for a precision mode. */
struct ConvStage
{
    Precision mode = Precision::Fp32;
    int c = 0, h = 0, w = 0;  //!< source geometry
    int stageW = 0;           //!< staged row pitch (w + kConvStagePad)
    std::vector<uint8_t> u8;  //!< staged image, Int8 mode
    std::vector<float> f32;   //!< staged image, Fp16 mode (pre-rounded)

    /** (Re)allocate for a source of @p c x @p h x @p w in @p mode.
     *  Idempotent for matching geometry; zero-fills on (re)shape. */
    void configure(Precision mode, int c, int h, int w);

    int64_t
    chStride() const
    {
        return static_cast<int64_t>(h) * stageW;
    }
};

/** Quantize rows [r0, r1) of every channel of @p src into @p st
 *  (Int8 mode): q = clamp(round(x / act.scale) + act.zp, 0, 255).
 *  Idempotent — restaging a row rewrites the same bytes. */
void stageConvInputI8(ConvStage &st, const Tensor &src,
                      const ActQuant &act, int r0, int r1);

/** Round rows [r0, r1) of every channel of @p src through binary16
 *  into @p st (Fp16 mode). */
void stageConvInputF16(ConvStage &st, const Tensor &src, int r0, int r1);

/**
 * Compute @p count output pixels of every filter in block @p bi of the
 * int8 pack into dst + f * dst_stride: exact i32 accumulation over the
 * staged image (kernel row i reads staged row row_idx[i], columns
 * x0 + t * stride), then the deterministic dequant epilogue
 *
 *   dst[t] = bias[m] + (act.scale * scale[m])
 *                    * float(acc[t] - act.zp * wsum[m])
 *
 * evaluated in exactly that order (the zp term in exact int64, one
 * float multiply, one float add).
 */
void convBlockRowI8(const ConvBlockKernelI8 &bk, const PackedWeightsI8 &pw,
                    int bi, float *dst, int64_t dst_stride, int count,
                    const ConvStage &st, const int *row_idx, int x0,
                    const ActQuant &act);

/**
 * Compute @p count output pixels of every filter in block @p bi of the
 * fp16 pack into dst + f * dst_stride: the ordinary fp32 strip kernel
 * over the decoded panel and the staged (pre-rounded) image, rows
 * addressed like convBlockRowI8. Each lane's dst row is initialized
 * with the rounded bias, then accumulated in canonical order.
 */
void convBlockRowF16(const ConvBlockKernel &bk, const PackedWeightsF16 &pw,
                     int bi, float *dst, int64_t dst_stride, int count,
                     const ConvStage &st, const int *row_idx, int x0);

} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_LAYER_HH
