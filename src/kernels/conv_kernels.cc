#include "kernels/conv_kernels.hh"

#ifdef FLCNN_SIMD_AVX2
#include "kernels/conv_kernels_simd.hh"
#endif

namespace flcnn {

namespace {

/**
 * One multi-filter register block: MR filter lanes x W pixels,
 * compile-time K and SX. Each (lane, pixel) accumulator starts from
 * its dst element and receives taps in the canonical (n, i, j) order,
 * so the block is bit-identical to MR x W scalar calls; the blocking
 * only reuses each loaded input element across the MR lanes. Weights
 * are a packed panel: the MR lane weights of tap (n, i, j) sit at
 * wp[((n*K + i)*K + j)*MR + f].
 */
template <int MR, int W, int K, int SX>
inline void
blockMf(float *dst, int64_t dst_stride, const float *in,
        int64_t ch_stride, int64_t row_pitch, const float *wp,
        int n_count)
{
    if constexpr (SX == 1) {
        // Unit stride: vectorize across the W contiguous pixels. One
        // input row load per tap feeds all MR lanes.
        float acc[MR][W];
        for (int f = 0; f < MR; f++)
            for (int t = 0; t < W; t++)
                acc[f][t] = dst[f * dst_stride + t];
        const float *chan = in;
        const float *wchan = wp;
        for (int n = 0; n < n_count;
             n++, chan += ch_stride, wchan += K * K * MR) {
            for (int i = 0; i < K; i++) {
                const float *irow = chan + i * row_pitch;
                const float *wrow =
                    wchan + static_cast<int64_t>(i) * K * MR;
                for (int j = 0; j < K; j++) {
                    for (int f = 0; f < MR; f++) {
                        const float wf = wrow[j * MR + f];
                        for (int t = 0; t < W; t++)
                            acc[f][t] += wf * irow[t + j];
                    }
                }
            }
        }
        for (int f = 0; f < MR; f++)
            for (int t = 0; t < W; t++)
                dst[f * dst_stride + t] = acc[f][t];
    } else {
        // Strided pixels: gather the tap's W input elements into a
        // contiguous temp once, then feed all MR lanes with contiguous
        // vector multiply-adds (the strided access is paid once per
        // tap instead of once per lane). Accumulator (f, t) still
        // receives its taps in the canonical (n, i, j) order; only the
        // load schedule differs. The empty asm after the gather keeps
        // GCC 12 at -O3 from vectorizing the channel loop: it did so
        // with emulated in-order sums, ran 2-3x slower than the plain
        // loop, and loaded channel n + 1 while finishing channel n, a
        // whole plane past the input on the last channel (SIGSEGV
        // when that plane is unmapped; ConvBlockKernels.
        // StripsReadNothingPastTheirInput).
        float acc[MR][W];
        for (int f = 0; f < MR; f++)
            for (int t = 0; t < W; t++)
                acc[f][t] = dst[f * dst_stride + t];
        const float *chan = in;
        const float *wchan = wp;
        for (int n = 0; n < n_count;
             n++, chan += ch_stride, wchan += K * K * MR) {
            for (int i = 0; i < K; i++) {
                const float *irow = chan + i * row_pitch;
                const float *wrow =
                    wchan + static_cast<int64_t>(i) * K * MR;
                for (int j = 0; j < K; j++) {
                    float px[W];
                    for (int t = 0; t < W; t++)
                        px[t] = irow[t * SX + j];
                    asm volatile("");
                    for (int f = 0; f < MR; f++) {
                        const float wf = wrow[j * MR + f];
                        for (int t = 0; t < W; t++)
                            acc[f][t] += wf * px[t];
                    }
                }
            }
        }
        for (int f = 0; f < MR; f++)
            for (int t = 0; t < W; t++)
                dst[f * dst_stride + t] = acc[f][t];
    }
}

/** Runtime-K/stride multi-filter block (the generic fallback's core). */
template <int MR, int W>
inline void
blockMfGeneric(float *dst, int64_t dst_stride, const float *in,
               int64_t ch_stride, int64_t row_pitch,
               const float *wp, int n_count, int k, int sx)
{
    float acc[MR][W];
    for (int f = 0; f < MR; f++)
        for (int t = 0; t < W; t++)
            acc[f][t] = dst[f * dst_stride + t];
    const float *chan = in;
    const float *wchan = wp;
    const int64_t wcs = static_cast<int64_t>(k) * k * MR;
    for (int n = 0; n < n_count; n++, chan += ch_stride, wchan += wcs) {
        for (int i = 0; i < k; i++) {
            const float *irow = chan + i * row_pitch;
            const float *wrow = wchan + static_cast<int64_t>(i) * k * MR;
            for (int j = 0; j < k; j++) {
                for (int f = 0; f < MR; f++) {
                    const float wf = wrow[j * MR + f];
                    for (int t = 0; t < W; t++)
                        acc[f][t] += wf * irow[t * sx + j];
                }
            }
        }
    }
    for (int f = 0; f < MR; f++)
        for (int t = 0; t < W; t++)
            dst[f * dst_stride + t] = acc[f][t];
}

/** Specialized multi-filter strip driver: full 8-pixel blocks, then
 *  the 4/2/1 pixel remainder ladder (every (lane, pixel) accumulator
 *  is independent, so the split points do not affect the result). */
template <int MR, int K, int SX>
void
convBlockStripSpec(float *dst, int64_t dst_stride, int count,
                   const float *in, int64_t ch_stride,
                   int64_t row_pitch, const float *wp, int n_count)
{
    while (count >= 8) {
        blockMf<MR, 8, K, SX>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count);
        dst += 8;
        in += 8 * SX;
        count -= 8;
    }
    if (count >= 4) {
        blockMf<MR, 4, K, SX>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count);
        dst += 4;
        in += 4 * SX;
        count -= 4;
    }
    if (count >= 2) {
        blockMf<MR, 2, K, SX>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count);
        dst += 2;
        in += 2 * SX;
        count -= 2;
    }
    if (count >= 1)
        blockMf<MR, 1, K, SX>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count);
}

/** The portable region: the specialized strip, row by row. */
template <int MR, int K, int SX>
void
convBlockRegionSpec(float *dst, int64_t dst_stride, int64_t dst_row_stride,
                    int rows, int count, const float *in,
                    int64_t ch_stride, int64_t row_pitch,
                    int64_t in_row_step, const float *wp, int n_count)
{
    for (int r = 0; r < rows; r++)
        convBlockStripSpec<MR, K, SX>(dst + r * dst_row_stride, dst_stride,
                                      count, in + r * in_row_step,
                                      ch_stride, row_pitch, wp, n_count);
}

/** Generic driver for one lane width (runtime K and stride). */
template <int MR>
void
convBlockStripGenericMr(float *dst, int64_t dst_stride, int count,
                        const float *in, int64_t ch_stride,
                        int64_t row_pitch, const float *wp,
                        int n_count, int k, int sx)
{
    while (count >= 8) {
        blockMfGeneric<MR, 8>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count, k, sx);
        dst += 8;
        in += static_cast<int64_t>(8) * sx;
        count -= 8;
    }
    if (count >= 4) {
        blockMfGeneric<MR, 4>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count, k, sx);
        dst += 4;
        in += static_cast<int64_t>(4) * sx;
        count -= 4;
    }
    if (count >= 2) {
        blockMfGeneric<MR, 2>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count, k, sx);
        dst += 2;
        in += static_cast<int64_t>(2) * sx;
        count -= 2;
    }
    if (count >= 1)
        blockMfGeneric<MR, 1>(dst, dst_stride, in, ch_stride, row_pitch,
                              wp, n_count, k, sx);
}

/** Dispatch entry for the multi-filter kernels: the 4/2/1 lane ladder
 *  of one (K, stride) pair. */
struct BlockKernelEntry
{
    int k;
    int sx;
    ConvBlockStripFn fn1;
    ConvBlockStripFn fn2;
    ConvBlockStripFn fn4;
};

#define FLCNN_BLOCK_ENTRY(K, SX)                                        \
    {K, SX, &convBlockRegionSpec<1, K, SX>,                             \
     &convBlockRegionSpec<2, K, SX>, &convBlockRegionSpec<4, K, SX>}

constexpr BlockKernelEntry kBlockKernelTable[] = {
    FLCNN_BLOCK_ENTRY(1, 1),  FLCNN_BLOCK_ENTRY(1, 2),
    FLCNN_BLOCK_ENTRY(1, 4),  FLCNN_BLOCK_ENTRY(3, 1),
    FLCNN_BLOCK_ENTRY(3, 2),  FLCNN_BLOCK_ENTRY(3, 4),
    FLCNN_BLOCK_ENTRY(5, 1),  FLCNN_BLOCK_ENTRY(5, 2),
    FLCNN_BLOCK_ENTRY(5, 4),  FLCNN_BLOCK_ENTRY(7, 1),
    FLCNN_BLOCK_ENTRY(7, 2),  FLCNN_BLOCK_ENTRY(7, 4),
    FLCNN_BLOCK_ENTRY(11, 1), FLCNN_BLOCK_ENTRY(11, 2),
    FLCNN_BLOCK_ENTRY(11, 4),
};

#undef FLCNN_BLOCK_ENTRY

} // namespace

void
ConvBlockKernel::convBlockStripGeneric(int mr, float *dst,
                                       int64_t dst_stride, int count,
                                       const float *in,
                                       int64_t ch_stride,
                                       int64_t row_pitch,
                                       const float *wp, int n_count,
                                       int k, int sx)
{
    switch (mr) {
      case 1:
        convBlockStripGenericMr<1>(dst, dst_stride, count, in, ch_stride,
                                   row_pitch, wp, n_count, k, sx);
        return;
      case 2:
        convBlockStripGenericMr<2>(dst, dst_stride, count, in, ch_stride,
                                   row_pitch, wp, n_count, k, sx);
        return;
      case 4:
        convBlockStripGenericMr<4>(dst, dst_stride, count, in, ch_stride,
                                   row_pitch, wp, n_count, k, sx);
        return;
      default:
        panic("unsupported filter-block lane count %d", mr);
    }
}

bool
convSimdEnabled()
{
#ifdef FLCNN_SIMD_AVX2
    return simd::avx2Supported();
#else
    return false;
#endif
}

bool
convFmaEnabled()
{
#ifdef FLCNN_SIMD_FMA
    return simd::fmaSupported();
#else
    return false;
#endif
}

bool
convAmxEnabled()
{
#ifdef FLCNN_SIMD_AMX
    return simd::amxSupported();
#else
    return false;
#endif
}

bool
convVnniEnabled()
{
#ifdef FLCNN_SIMD_AVXVNNI
    return simd::avxVnniSupported();
#else
    return false;
#endif
}

ConvBlockKernel
resolveConvBlockKernelScalar(int kernel, int stride)
{
    FLCNN_ASSERT(kernel >= 1 && stride >= 1,
                 "conv kernel and stride must be positive");
    ConvBlockKernel bk;
    bk.k = kernel;
    bk.sx = stride;
    for (const BlockKernelEntry &e : kBlockKernelTable) {
        if (e.k == kernel && e.sx == stride) {
            bk.fn[1] = e.fn1;
            bk.fn[2] = e.fn2;
            bk.fn[4] = e.fn4;
            break;
        }
    }
    return bk;
}

ConvBlockKernel
resolveConvBlockKernel(int kernel, int stride)
{
    ConvBlockKernel bk = resolveConvBlockKernelScalar(kernel, stride);
#ifdef FLCNN_SIMD_AVX2
    // Runtime dispatch: prefer the explicit vector variants when the
    // host supports them (per-lane operation order is identical to the
    // scalar kernel, so the choice is invisible in the output bits).
    if (simd::avx2Supported()) {
        for (int mr : {1, 2, 4}) {
            if (ConvBlockStripFn f = simd::blockFn(mr, kernel, stride))
                bk.fn[mr] = f;
        }
        if (stride == 1 && simd::blockFn(1, kernel, stride))
            bk.vecW = 8;
    }
#endif
    return bk;
}

ConvBlockKernel
resolveConvBlockKernelFast(int kernel, int stride)
{
    ConvBlockKernel bk = resolveConvBlockKernel(kernel, stride);
#ifdef FLCNN_SIMD_FMA
    // Explicit opt-in only: callers reach this resolver solely through
    // the fast-math tier (tune/solver.hh). The default resolvers never
    // return these pointers.
    if (simd::fmaSupported()) {
        for (int mr : {1, 2, 4}) {
            if (ConvBlockStripFn f =
                    simd::blockFnFma(mr, kernel, stride))
                bk.fn[mr] = f;
        }
        if (stride == 1 && simd::blockFnFma(1, kernel, stride))
            bk.vecW = 8;
    }
#endif
    return bk;
}

} // namespace flcnn
