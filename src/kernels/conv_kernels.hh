/**
 * @file
 * Register-tiled convolution microkernels.
 *
 * Every functional executor in this repository (the layer-by-layer
 * reference, the line-buffer and recompute fused executors, and the
 * accelerator models' host-side arithmetic) reduces to the same inner
 * operation: accumulate the K x K x N taps of one filter into a run of
 * horizontally adjacent output pixels. The scalar convPoint() helper
 * computes one pixel per call through Tensor indexing; the kernels here
 * compute a *strip* of up to eight pixels per pass with hoisted row
 * pointers, so the compiler can keep the accumulators in registers and
 * vectorize across the independent pixels.
 *
 * Determinism contract (DESIGN.md invariant 1, extended): each output
 * pixel's floating-point accumulation order is exactly the canonical
 * (bias, n, i, j) order of convPoint(). The strip kernels gain their
 * speed from instruction-level parallelism *across* pixels — every
 * pixel owns a private accumulator fed in canonical order — never from
 * reassociating the taps of a single pixel. Outputs are therefore
 * bit-identical to the naive loop, for any strip width, at any thread
 * count, with or without a specialized variant. (The build pins
 * -ffp-contract=off so no code path contracts a mul+add into an FMA
 * the scalar path would not use.)
 *
 * Addressing model: the input is any CHW-like buffer described by a
 * channel stride plus a per-kernel-row offset table. Row offsets are an
 * explicit K-entry table (not y0 * row_stride) so the same kernel
 * serves linear tensors, tile buffers, and the line-buffer executor's
 * modular ring buffers.
 */

#ifndef FLCNN_KERNELS_CONV_KERNELS_HH
#define FLCNN_KERNELS_CONV_KERNELS_HH

#include <cstdint>

#include "common/logging.hh"
#include "tensor/tensor.hh"

namespace flcnn {

/** Largest kernel size the row-offset helpers support. */
constexpr int kMaxConvKernel = 32;

/**
 * Signature of a compiled strip kernel. Accumulates the conv taps of
 * one filter into @p dst[0, count): for pixel t,
 *
 *   dst[t] += sum_n sum_i sum_j w[n*K*K + i*K + j]
 *                             * in[n*ch_stride + row_off[i] + t*SX + j]
 *
 * with the additions applied to dst[t]'s running value in exactly that
 * (n, i, j) order. Callers preload dst with the bias (fresh pixels) or
 * the partial sum (the baseline accelerator's channel-blocked loop).
 *
 * @param dst       count contiguous output accumulators
 * @param count     number of strip pixels (>= 0)
 * @param in        channel-base pointer (channel 0 of the filter's group)
 * @param ch_stride elements between consecutive input channels
 * @param row_off   K offsets, one per kernel row, relative to @p in;
 *                  entry i addresses the input row underneath kernel
 *                  row i (already including the x offset of pixel 0)
 * @param w         weights of this filter, channel-major (n, i, j)
 * @param n_count   input channels to accumulate
 */
using ConvStripFn = void (*)(float *dst, int count, const float *in,
                             int64_t ch_stride, const int64_t *row_off,
                             const float *w, int n_count);

/**
 * A resolved strip kernel: a compile-time-specialized variant when one
 * exists for (k, stride), else the generic path. Value type; resolve
 * once per layer and reuse.
 */
struct ConvKernel
{
    int k = 0;             //!< kernel size K
    int sx = 1;            //!< input step between adjacent output pixels
    ConvStripFn fn = nullptr;  //!< specialized variant, or nullptr

    bool specialized() const { return fn != nullptr; }

    /** Run the strip kernel (specialized or generic fallback). */
    void
    run(float *dst, int count, const float *in, int64_t ch_stride,
        const int64_t *row_off, const float *w, int n_count) const
    {
        if (fn)
            fn(dst, count, in, ch_stride, row_off, w, n_count);
        else
            convStripGeneric(dst, count, in, ch_stride, row_off, w,
                             n_count, k, sx);
    }

    /** The generic (runtime-K, runtime-stride) strip path; exposed so
     *  tests can differentially check specialized vs generic. */
    static void convStripGeneric(float *dst, int count, const float *in,
                                 int64_t ch_stride,
                                 const int64_t *row_off, const float *w,
                                 int n_count, int k, int sx);
};

/**
 * Resolve the strip kernel for a (kernel, stride) pair. Specialized
 * variants exist for the sizes that occur in the network zoo —
 * K in {1, 3, 5, 7, 11} x stride in {1, 2, 4} — resolved through a
 * small table; anything else returns the generic path.
 */
ConvKernel resolveConvKernel(int kernel, int stride);

/** Fill @p row_off for a linear CHW buffer: row i of the receptive
 *  field lives at (y0 + i) * row_stride + x0. */
inline void
linearRowOffsets(int64_t *row_off, int k, int y0, int64_t row_stride,
                 int64_t x0 = 0)
{
    FLCNN_ASSERT(k <= kMaxConvKernel, "kernel exceeds row-offset table");
    for (int i = 0; i < k; i++)
        row_off[i] = (y0 + i) * row_stride + x0;
}

/** Widest filter block the multi-filter kernels compute per pass. */
constexpr int kConvBlockLanes = 4;

/**
 * Signature of a multi-filter strip kernel. One pass computes an
 * MR x count register block — MR adjacent filters ("lanes") by count
 * horizontally adjacent pixels — so every loaded input element is
 * reused MR times. For lane f and pixel t,
 *
 *   dst[f*dst_stride + t] +=
 *       sum_n sum_i sum_j wp[((n*K + i)*K + j)*MR + f]
 *                       * in[n*ch_stride + row_off[i] + t*SX + j]
 *
 * with each (f, t) accumulator private and fed in exactly the
 * canonical (n, i, j) order — the blocking reuses loads, it never
 * reassociates a single output's taps, so results are bit-identical
 * to MR x count scalar convPoint() evaluations. Weights come from a
 * filter-interleaved packed panel (see kernels/weight_pack.hh): the
 * MR lane weights of each tap are contiguous. Callers preload every
 * lane's dst row with the bias (fresh pixels) or the running partial
 * sum (the baseline accelerator's channel-blocked loop).
 *
 * The lane count MR is baked into the function; resolve one variant
 * per ladder width (4/2/1) through ConvBlockKernel.
 */
using ConvBlockStripFn = void (*)(float *dst, int64_t dst_stride,
                                  int count, const float *in,
                                  int64_t ch_stride,
                                  const int64_t *row_off,
                                  const float *wp, int n_count);

/**
 * Resolved multi-filter kernels for one (k, stride) pair: one strip
 * function per lane width of the 4/2/1 filter-block ladder, falling
 * back to the generic (runtime-K) path where no variant exists.
 * Value type; resolve once per layer and reuse.
 */
struct ConvBlockKernel
{
    int k = 0;   //!< kernel size K
    int sx = 1;  //!< input step between adjacent output pixels
    int seg = 0; //!< strip segment width (tunable), 0 = whole row
    ConvBlockStripFn fn[kConvBlockLanes + 1] = {};  //!< per lane count

    bool specialized(int mr) const { return fn[mr] != nullptr; }

    /** Run the @p mr-lane strip kernel (specialized or generic). When
     *  a segment width is set the row is processed seg pixels at a
     *  time — pixels are independent, so the split points are
     *  invisible in the output bits; they only change how long a
     *  panel walk stays resident per pass (the autotuner's knob). */
    void
    run(int mr, float *dst, int64_t dst_stride, int count,
        const float *in, int64_t ch_stride, const int64_t *row_off,
        const float *wp, int n_count) const
    {
        FLCNN_ASSERT(mr >= 1 && mr <= kConvBlockLanes,
                     "filter-block lane count out of range");
        const int sw = (seg > 0 && seg < count) ? seg : count;
        for (int t = 0; t < count; t += sw) {
            const int c = count - t < sw ? count - t : sw;
            float *d = dst + t;
            const float *src = in + static_cast<int64_t>(t) * sx;
            if (fn[mr])
                fn[mr](d, dst_stride, c, src, ch_stride, row_off, wp,
                       n_count);
            else
                convBlockStripGeneric(mr, d, dst_stride, c, src,
                                      ch_stride, row_off, wp, n_count,
                                      k, sx);
        }
    }

    /** The generic (runtime-K/stride/lane) multi-filter path; exposed
     *  so tests can differentially check every variant against it. */
    static void convBlockStripGeneric(int mr, float *dst,
                                      int64_t dst_stride, int count,
                                      const float *in, int64_t ch_stride,
                                      const int64_t *row_off,
                                      const float *wp, int n_count,
                                      int k, int sx);
};

/**
 * Resolve the multi-filter kernels for a (kernel, stride) pair.
 * Specialized variants cover the zoo's K in {1, 3, 5, 7, 11} x stride
 * in {1, 2, 4} grid; when the build enables FLCNN_SIMD and the CPU
 * supports AVX2, the same grid dispatches to an explicit (FMA-free)
 * vector path whose per-lane operation order is identical to the
 * scalar kernel. Everything else gets the generic path.
 */
ConvBlockKernel resolveConvBlockKernel(int kernel, int stride);

/**
 * Resolve the multi-filter kernels *without* the SIMD override: the
 * compile-time-specialized scalar ladder (or generic fallback) only.
 * This is what resolveConvBlockKernel() returns on a non-AVX2 host or
 * an FLCNN_SIMD=OFF build; the solver registry exposes it as the
 * always-applicable "fp32.scalar" solver.
 */
ConvBlockKernel resolveConvBlockKernelScalar(int kernel, int stride);

/**
 * Resolve the fast-math (FMA) multi-filter kernels: the bit-exact
 * resolution of resolveConvBlockKernel() with the table grid
 * overridden by FMA variants that split each lane's accumulation into
 * two interleaved partial sums (tap parity) recombined at the end.
 * The reordering and the fused rounding break bit-exactness with the
 * scalar path by a ULP-bounded amount (see the fast-math differential
 * tests); callers opt in explicitly — nothing in the default path
 * ever calls this. Falls back to resolveConvBlockKernel() when FMA is
 * not compiled in or the CPU lacks it.
 */
ConvBlockKernel resolveConvBlockKernelFast(int kernel, int stride);

/** True when the explicit SIMD strip path is compiled in and the CPU
 *  supports it at runtime (FLCNN_SIMD=ON build on an AVX2 host). */
bool convSimdEnabled();

/** True when the fast-math FMA strip kernels are compiled in and the
 *  CPU supports them (never used unless explicitly requested). */
bool convFmaEnabled();

/** True when the AVX-VNNI int8 kernels are compiled in and the CPU
 *  supports them. */
bool convVnniEnabled();

/**
 * Convenience wrapper for the common Tensor + FilterBank call sites:
 * compute @p count output pixels of filter @p m into @p dst, with
 * receptive fields at rows [y0, y0 + K) and columns x0 + t * stride of
 * @p in, over input channels [n_base, n_base + fb.numChannels()).
 * dst is overwritten (initialized with the bias, then accumulated in
 * canonical order) — bit-identical to convPoint() per pixel.
 */
void convRowTensor(const ConvKernel &ks, float *dst, int count,
                   const Tensor &in, const FilterBank &fb, int m,
                   int n_base, int y0, int x0);

} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_KERNELS_HH
