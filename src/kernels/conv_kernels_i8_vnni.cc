/**
 * @file
 * AVX-VNNI int8 strip kernels (strides 1 and 4, table kernel sizes).
 * One
 * vpdpbusd replaces the maddubs + madd + add triple of the plain AVX2
 * pipeline: the instruction multiplies 4 adjacent u8 x s8 pairs,
 * widens the products to i16 (always exact — 255 * 127 fits), sums
 * the 4 into the i32 accumulator with *no* intermediate saturation
 * (that is the vpdpbusds variant, which we never use). The result is
 * therefore the exact integer sum for any weight values, bit-equal to
 * the portable generic path — the determinism contract holds with no
 * dependence on the +/-63 weight clamp at all.
 *
 * Compiled with -mavx2 -mavxvnni only when the compiler supports the
 * flag (FLCNN_SIMD_AVXVNNI); entry points are reached only after a
 * runtime avxVnniSupported() check, so FLCNN_SIMD=ON binaries still
 * run on pre-VNNI hosts through the maddubs or generic paths.
 *
 * Input shuffle and panel layout are identical to the AVX2 TU —
 * including the stride-4 case, where the 4-tap grouping makes each
 * pixel octet's taps one contiguous 32-byte load with no shuffle; see
 * conv_kernels_i8_avx2.cc for the overread argument (covered by
 * ConvStage's kConvStagePad-byte zero apron, static_asserted per
 * (K, stride) below).
 *
 * Blocks are 16 pixels: two octets (kernels/conv_octets.hh) share
 * each weight broadcast. A region of R output rows fills them as 1x16
 * on rows of 16 pixels or more, 2x8 from two rows of 8, and 4x4 from
 * four rows of 4 — a pyramid tile's narrow rows run at the same block
 * rate as a full-width row. Narrower rows and row tails mask the
 * accumulator lanes they do not own (vpmaskmovd); every pixel keeps
 * its own exact i32 sum, so a region equals R one-row calls.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include "kernels/conv_layer.hh"
#include "kernels/conv_octets.hh"

namespace flcnn {
namespace simd {

namespace {

/**
 * One int8 block of NO octets (compile-time K and stride). The NO
 * octets share every weight broadcast: two of them halve the
 * broadcast traffic that bounds a one-octet block (vpdpbusd itself
 * dual-issues; the broadcasts do not). Masked lanes load and store no
 * accumulator.
 */
template <int MR, int K, int SX, int NO, bool SPLIT, bool MASKED>
inline void
blockI8Vnni(int32_t *dst, int64_t dst_stride, const uint8_t *in,
            int64_t ch_stride, int64_t row_pitch, const int8_t *wp,
            int n_count, const OctetPos *o)
{
    constexpr int JG = (K + 3) / 4;
    constexpr int64_t W_ROW = static_cast<int64_t>(JG) * MR * 4;
    __m256i mask[NO];
    __m256i acc[NO][MR];
    for (int q = 0; q < NO; q++) {
        mask[q] = MASKED ? octetMask(o[q]) : _mm256_setzero_si256();
        for (int f = 0; f < MR; f++)
            acc[q][f] = loadAccI32<SPLIT, MASKED>(dst + f * dst_stride,
                                                  o[q], mask[q]);
    }
    // Per-octet channel bases, stepped per channel: folding the
    // octets' offsets into each kernel row's offset instead gives the
    // compiler K * NO loop invariants to hoist, which spill.
    const uint8_t *lo[NO], *hi[NO];
    for (int q = 0; q < NO; q++) {
        lo[q] = in + o[q].inLo;
        hi[q] = in + o[q].inHi;
    }
    const int8_t *wchan = wp;
    for (int n = 0; n < n_count; n++, wchan += K * W_ROW) {
        for (int i = 0; i < K; i++) {
            const int8_t *wrow = wchan + i * W_ROW;
            for (int jg = 0; jg < JG; jg++) {
                __m256i pix[NO];
                for (int q = 0; q < NO; q++)
                    pix[q] = loadPixTaps<SX, SPLIT>(lo[q] + i * row_pitch,
                                                    hi[q] + i * row_pitch, jg);
                const int8_t *wtap = wrow + jg * MR * 4;
                for (int f = 0; f < MR; f++) {
                    int32_t wbits;
                    __builtin_memcpy(&wbits, wtap + f * 4, 4);
                    const __m256i wv = _mm256_set1_epi32(wbits);
                    for (int q = 0; q < NO; q++)
                        acc[q][f] =
                            _mm256_dpbusd_avx_epi32(acc[q][f], pix[q], wv);
                }
            }
        }
        for (int q = 0; q < NO; q++) {
            lo[q] += ch_stride;
            hi[q] += ch_stride;
        }
    }
    for (int q = 0; q < NO; q++)
        for (int f = 0; f < MR; f++)
            storeAccI32<SPLIT, MASKED>(dst + f * dst_stride, o[q],
                                       mask[q], acc[q][f]);
}

/** A split-octet block, kept out of line: inlined into the region
 *  driver next to the other shapes, the 4x4 block's eight
 *  accumulators spilled and it ran about a third slower than a 1x16
 *  block. */
template <int MR, int K, int SX, int NO, bool MASKED>
[[gnu::noinline]] void
splitBlockI8Vnni(int32_t *dst, int64_t dst_stride, const uint8_t *in,
                 int64_t ch_stride, int64_t row_pitch,
                 const int8_t *wp, int n_count, const OctetPos *o)
{
    blockI8Vnni<MR, K, SX, NO, true, MASKED>(dst, dst_stride, in,
                                             ch_stride, row_pitch, wp,
                                             n_count, o);
}

/** Region driver: 1x16, 2x8 and 4x4 blocks (forEachRegionBlock). */
template <int MR, int K, int SX>
void
convBlockRegionI8Vnni(int32_t *dst, int64_t dst_stride,
                      int64_t dst_row_stride, int rows, int count,
                      const uint8_t *in, int64_t ch_stride,
                      int64_t row_pitch, int64_t in_row_step,
                      const int8_t *wp, int n_count)
{
    static_assert(i8TailOverread(K, SX) <= kConvStagePad,
                  "int8 tail block overreads the ConvStage apron");
    static_assert(i8HalfOverread(K, SX) <= kConvStagePad,
                  "int8 half-row loads overread the ConvStage apron");
    forEachRegionBlock<16>(
        rows, count, SX, in_row_step, dst_row_stride,
        [&](auto shape, const OctetPos *o) {
            using S = decltype(shape);
            if constexpr (S::kSplit)
                splitBlockI8Vnni<MR, K, SX, S::kOctets, S::kMasked>(
                    dst, dst_stride, in, ch_stride, row_pitch, wp, n_count,
                    o);
            else
                blockI8Vnni<MR, K, SX, S::kOctets, false, S::kMasked>(
                    dst, dst_stride, in, ch_stride, row_pitch, wp, n_count,
                    o);
        });
}

struct VnniEntry
{
    int mr;
    int k;
    int sx;
    ConvBlockStripI8Fn fn;
};

#define FLCNN_VNNI_ENTRY(K, SX)                                         \
    {1, K, SX, &convBlockRegionI8Vnni<1, K, SX>},                       \
    {2, K, SX, &convBlockRegionI8Vnni<2, K, SX>},                       \
    {4, K, SX, &convBlockRegionI8Vnni<4, K, SX>}

constexpr VnniEntry kVnniTable[] = {
    FLCNN_VNNI_ENTRY(1, 1),  FLCNN_VNNI_ENTRY(3, 1),
    FLCNN_VNNI_ENTRY(5, 1),  FLCNN_VNNI_ENTRY(7, 1),
    FLCNN_VNNI_ENTRY(11, 1), FLCNN_VNNI_ENTRY(1, 4),
    FLCNN_VNNI_ENTRY(3, 4),  FLCNN_VNNI_ENTRY(5, 4),
    FLCNN_VNNI_ENTRY(7, 4),  FLCNN_VNNI_ENTRY(11, 4),
};

#undef FLCNN_VNNI_ENTRY

} // namespace

bool
avxVnniSupported()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("avxvnni");
#else
    return false;
#endif
}

ConvBlockStripI8Fn
blockFnI8Vnni(int mr, int kernel, int stride)
{
    for (const VnniEntry &e : kVnniTable) {
        if (e.mr == mr && e.k == kernel && e.sx == stride)
            return e.fn;
    }
    return nullptr;
}

} // namespace simd
} // namespace flcnn
