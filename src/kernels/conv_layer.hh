/**
 * @file
 * The conv-layer driver, precision-mode staging and row drivers.
 *
 * runConvRows() is the one loop every executor runs a conv layer's
 * (filter block, output rows) work items through: the layer-by-layer
 * reference, FusedExecutor's tiles and the autotuner's candidates.
 *
 * The int8 and fp16 modes are conv-boundary transformations: before a
 * conv layer consumes an fp32 source buffer (a reference tensor, a
 * fused tile, a recompute tile), the rows it will
 * read are *staged* — converted elementwise into the mode's compute
 * format — and the strip kernels then run against the staged image.
 * ConvStage owns that staging buffer; the convBlockRow* drivers wrap
 * one (filter-block, output-rows) kernel region plus the mode's
 * epilogue, mirroring convBlockRowTensor() for the fp32 path.
 *
 * Staged geometry depends on the resolved int8 tier
 * (ConvBlockKernelI8::stageGroups), never on an option:
 *
 *  - planar (groups == 0; every tier but i8.amx, and fp16): channels x
 *    source-height x stageW, where stageW = source-width + 48. The 48
 *    trailing columns are zero-filled at allocation and never written,
 *    giving the int8 vector kernels a safe overread apron and the
 *    zero-padded panel taps zero products. The widest reader is the
 *    vector kernels' masked whole-row octet: with one live pixel it
 *    still loads eight pixels' taps, up to simd::i8TailOverread(K,
 *    stride) bytes (at most 31) past the image; the half-row loads of
 *    row-grouped blocks read less (simd::i8HalfOverread).
 *  - channel-last (groups > 0; i8.amx): one HWC image per conv group,
 *    groups x source-height x stageW bytes with stageW = source-width
 *    * (channels / groups) + 64. Pixel x's channels are the bytes
 *    [x * C, (x + 1) * C) of its row, so a kernel row's K * C bytes
 *    are contiguous; the last 64-byte chunk of a row's last pixel
 *    reads at most 63 bytes into the zero apron (kAmxStagePad).
 *
 * Rows are addressed like convBlockRowTensor()'s: kernel row i of
 * output row 0 reads staged row y0 + i.
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
    int groups = 0;           //!< channel-last conv groups, 0 = planar
    int stageW = 0;           //!< staged row pitch (elements)
    std::vector<uint8_t> u8;  //!< staged image, Int8 mode
    std::vector<float> f32;   //!< staged image, Fp16 mode (pre-rounded)

    /** (Re)allocate for a source of @p c x @p h x @p w in @p mode,
     *  planar, or channel-last per conv group when @p groups > 0 (Int8
     *  only). Idempotent for matching geometry; zero-fills on
     *  (re)shape. */
    void configure(Precision mode, int c, int h, int w, int groups = 0);

    /** Elements between planar channels, or between the channel-last
     *  images of consecutive conv groups. */
    int64_t
    chStride() const
    {
        return static_cast<int64_t>(h) * stageW;
    }
};

/** Quantize rows [r0, r1) of every channel of @p src into @p st
 *  (Int8 mode, either layout): q = clamp(round(x / act.scale) +
 *  act.zp, 0, 255). Idempotent — restaging a row rewrites the same
 *  bytes. */
void stageConvInputI8(ConvStage &st, const Tensor &src,
                      const ActQuant &act, int r0, int r1);

/** Round rows [r0, r1) of every channel of @p src through binary16
 *  into @p st (Fp16 mode). */
void stageConvInputF16(ConvStage &st, const Tensor &src, int r0, int r1);

/**
 * Compute @p count output pixels of every filter in block @p bi of the
 * int8 pack into dst + f * dst_stride: exact i32 accumulation over the
 * staged image (kernel row i reads staged row y0 + i, columns
 * x0 + t * stride), then the deterministic dequant epilogue
 *
 *   dst[t] = bias[m] + (act.scale * scale[m])
 *                    * float(acc[t] - act.zp * wsum[m])
 *
 * evaluated in exactly that order (the zp term in exact int64, one
 * float multiply, one float add).
 *
 * With @p rows > 1 the call covers that many consecutive output rows
 * in one kernel region (see ConvBlockStripI8Fn): output row r reads
 * staged rows y0 + r * stride + i and lands at dst + r *
 * dst_row_stride. Bit-identical to @p rows one-row calls.
 *
 * Under the i8.amx tier (bk.amx set) the stage is channel-last and the
 * pack holds AMX panels; the AMX driver runs the same epilogue
 * expression itself.
 */
void convBlockRowI8(const ConvBlockKernelI8 &bk, const PackedWeightsI8 &pw,
                    int bi, float *dst, int64_t dst_stride, int count,
                    const ConvStage &st, int y0, int x0,
                    const ActQuant &act, int rows = 1,
                    int64_t dst_row_stride = 0);

/**
 * Compute @p count output pixels of every filter in block @p bi of the
 * fp16 pack into dst + f * dst_stride: the ordinary fp32 strip kernel
 * over the decoded panel and the staged (pre-rounded) image, rows
 * addressed like convBlockRowI8 (@p rows and @p dst_row_stride too).
 * Each lane's dst rows are initialized with the rounded bias, then
 * accumulated in canonical order.
 */
void convBlockRowF16(const ConvBlockKernel &bk, const PackedWeightsF16 &pw,
                     int bi, float *dst, int64_t dst_stride, int count,
                     const ConvStage &st, int y0, int x0, int rows = 1,
                     int64_t dst_row_stride = 0);

/**
 * One conv layer as runConvRows() runs it: the resolved kernels and
 * the packed weights of the layer's precision. Exactly one pack is
 * set, and it names the precision: pw runs bk over the fp32 source in
 * place, pwF16 runs bk over a binary16-rounded stage, and pwI8 runs
 * bkI8 over a stage quantized with act.
 */
struct ConvLayerRun
{
    ConvBlockKernel bk;       //!< fp32 and fp16 kernels
    ConvBlockKernelI8 bkI8;   //!< int8 kernels
    const PackedWeights *pw = nullptr;
    const PackedWeightsF16 *pwF16 = nullptr;
    const PackedWeightsI8 *pwI8 = nullptr;
    ActQuant act;             //!< int8 input quantization
    int grain = 1;            //!< parallelFor grain of the work items
    bool relu = false;        //!< clamp the output (a following ReLU)
};

/**
 * Compute @p oh output rows x @p ow pixels of every filter of one conv
 * layer from the fp32 @p src: filter m's output row r, pixel t lands
 * at dst[m * dst_plane + r * dst_pitch + t] and reads the receptive
 * field whose top-left is src row y0 + r * stride, column x0 + t *
 * stride (all of it inside @p src).
 *
 * Non-fp32 layers first stage the rows the range reads into @p stage
 * (configured here; the caller owns it so its buffer is reused), in
 * bands of four rows on the pool. The work items are (filter block,
 * row group) regions, a row group being ConvBlockKernel{,I8}::groupRows
 * rows. Outside a parallel region the pool splits them row group by
 * row group, so each thread reads its own band of source rows; inside
 * one (a wavefront lane, a serving worker) they run inline filter
 * block by filter block. With layer.relu set each item clamps the rows
 * it wrote. Each (filter, pixel) accumulator is private and fed in
 * convPoint's canonical order, so the output bits depend on neither
 * the work order, the row grouping nor the thread count.
 */
void runConvRows(const ConvLayerRun &layer, const Tensor &src, int y0,
                 int x0, int oh, int ow, float *dst, int64_t dst_plane,
                 int64_t dst_pitch, ConvStage &stage);

} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_LAYER_HH
