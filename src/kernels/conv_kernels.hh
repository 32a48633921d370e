/**
 * @file
 * Register-tiled convolution microkernels.
 *
 * Every functional executor in this repository (the layer-by-layer
 * reference, FusedExecutor's pyramid, line-buffer and recompute
 * presets, the autotuner's candidates and the accelerator models'
 * host-side arithmetic) reduces to the same inner operation:
 * accumulate the K x K x N taps of a block of filters into a run of
 * horizontally adjacent output pixels. The scalar convPoint() helper
 * computes one pixel per call through Tensor indexing; the kernels
 * here compute a *strip* of pixels for up to four filters per pass
 * with hoisted row pointers, so the compiler can keep the
 * accumulators in registers and vectorize across the independent
 * pixels.
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
 * start pointer (channel 0 at the receptive field's first row and
 * column), a channel stride and a row pitch: kernel row i of the
 * receptive field is i * row_pitch past the start.
 */

#ifndef FLCNN_KERNELS_CONV_KERNELS_HH
#define FLCNN_KERNELS_CONV_KERNELS_HH

#include <cstdint>

#include "common/logging.hh"

namespace flcnn {

/** Widest filter block the multi-filter kernels compute per pass. */
constexpr int kConvBlockLanes = 4;

/**
 * Output rows one region call should cover so that rows of @p count
 * pixels fill a tier's widest vector block of @p vec_w pixels (16 or
 * 8; 0 for a tier that does not group rows). The part of a row that
 * whole blocks leave decides: a 4-pixel slot takes vec_w / 4 rows (4x4
 * or 2x4), an 8-pixel slot of a 16-pixel block two rows (2x8), and
 * anything else one row. Purely a speed choice: every region is
 * bit-identical to its rows computed one by one.
 */
inline int
convRegionRows(int vec_w, int count)
{
    if (vec_w < 8 || count <= 0)
        return 1;
    int tail = count % vec_w;
    if (tail == 0)
        return 1;
    if (vec_w == 16 && tail >= 8) {
        tail -= 8;
        if (tail == 0)
            return 2;
    }
    if (tail <= 4)
        return vec_w / 4;
    return vec_w == 16 ? 2 : 1;
}

/**
 * Signature of a multi-filter strip driver. One call computes a region
 * of @p rows output rows x @p count pixels for MR adjacent filters
 * ("lanes"): output row r's pixels sit at dst + r * dst_row_stride
 * and read the input at i * row_pitch + r * in_row_step, so every loaded
 * input element is reused MR times and narrow rows can share a vector
 * block. For lane f, row r and pixel t,
 *
 *   dst[f*dst_stride + r*dst_row_stride + t] +=
 *       sum_n sum_i sum_j wp[((n*K + i)*K + j)*MR + f]
 *           * in[n*ch_stride + i * row_pitch + r*in_row_step + t*SX + j]
 *
 * with each (f, r, t) accumulator private and fed in exactly the
 * canonical (n, i, j) order — the blocking reuses loads and packs
 * pixels of several rows into one vector, it never reassociates a
 * single output's taps, so results are bit-identical to MR x rows x
 * count scalar convPoint() evaluations, and a region to its rows
 * computed one by one. Weights come from a filter-interleaved packed
 * panel (see kernels/weight_pack.hh): the MR lane weights of each tap
 * are contiguous. Callers preload every lane's dst rows with the bias
 * (fresh pixels) or the running partial sum (the baseline
 * accelerator's channel-blocked loop).
 *
 * The lane count MR is baked into the function; resolve one variant
 * per ladder width (4/2/1) through ConvBlockKernel.
 */
using ConvBlockStripFn = void (*)(float *dst, int64_t dst_stride,
                                  int64_t dst_row_stride, int rows,
                                  int count, const float *in,
                                  int64_t ch_stride,
                                  int64_t row_pitch,
                                  int64_t in_row_step, const float *wp,
                                  int n_count);

/**
 * Resolved multi-filter kernels for one (k, stride) pair: one strip
 * driver per lane width of the 4/2/1 filter-block ladder, falling
 * back to the generic (runtime-K) path where no variant exists.
 * Value type; resolve once per layer and reuse.
 */
struct ConvBlockKernel
{
    int k = 0;   //!< kernel size K
    int sx = 1;  //!< input step between adjacent output pixels
    int seg = 0; //!< strip segment width (tunable), 0 = whole row
    /** Pixels in the widest vector block a region fills across rows
     *  (8 for the AVX2 and FMA tiers at stride 1); 0 when the drivers
     *  run a region row by row. */
    int vecW = 0;
    ConvBlockStripFn fn[kConvBlockLanes + 1] = {};  //!< per lane count

    bool specialized(int mr) const { return fn[mr] != nullptr; }

    /** Rows a region call should cover for rows of @p count pixels. */
    int groupRows(int count) const { return convRegionRows(vecW, count); }

    /** Run the @p mr-lane kernels over one row: runRows()'s R = 1
     *  case. */
    void
    run(int mr, float *dst, int64_t dst_stride, int count,
        const float *in, int64_t ch_stride, int64_t row_pitch,
        const float *wp, int n_count) const
    {
        runRows(mr, dst, dst_stride, 1, 0, count, in, ch_stride, row_pitch,
                0, wp, n_count);
    }

    /** Run the @p mr-lane strip driver (specialized or generic) over
     *  @p rows rows (see ConvBlockStripFn). When a segment width is
     *  set the region is processed seg columns at a time — pixels are
     *  independent, so the split points are invisible in the output
     *  bits; they only change how long a panel walk stays resident per
     *  pass (the autotuner's knob). */
    void
    runRows(int mr, float *dst, int64_t dst_stride, int rows,
            int64_t dst_row_stride, int count, const float *in,
            int64_t ch_stride, int64_t row_pitch,
            int64_t in_row_step, const float *wp, int n_count) const
    {
        FLCNN_ASSERT(mr >= 1 && mr <= kConvBlockLanes,
                     "filter-block lane count out of range");
        const int sw = (seg > 0 && seg < count) ? seg : count;
        for (int t = 0; t < count; t += sw) {
            const int c = count - t < sw ? count - t : sw;
            float *d = dst + t;
            const float *src = in + static_cast<int64_t>(t) * sx;
            if (fn[mr]) {
                fn[mr](d, dst_stride, dst_row_stride, rows, c, src,
                       ch_stride, row_pitch, in_row_step, wp, n_count);
                continue;
            }
            for (int r = 0; r < rows; r++)
                convBlockStripGeneric(mr, d + r * dst_row_stride,
                                      dst_stride, c,
                                      src + r * in_row_step, ch_stride,
                                      row_pitch, wp, n_count, k, sx);
        }
    }

    /** The generic (runtime-K/stride/lane) multi-filter path over one
     *  row; exposed so tests can differentially check every variant
     *  against it. */
    static void convBlockStripGeneric(int mr, float *dst,
                                      int64_t dst_stride, int count,
                                      const float *in, int64_t ch_stride,
                                      int64_t row_pitch,
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

/** True when the AMX int8 region driver is compiled in, the CPU has
 *  AMX-INT8 and the kernel granted the tile-data permission. */
bool convAmxEnabled();

} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_KERNELS_HH
