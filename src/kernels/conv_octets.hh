/**
 * @file
 * Pixel octets: the shared geometry of the vector strip kernels.
 *
 * Every vector tier accumulates 8 output pixels of one filter in one
 * __m256 register: an octet. An octet holds either 8 consecutive
 * pixels of one output row (a whole-row octet), or 4 pixels from each
 * of two output rows (a split octet: lanes 0-3 from one row, lanes 4-7
 * from another). A block is one or two octets sharing every weight
 * broadcast. A region call covers R output rows x count pixels; the
 * region driver below tiles it with the widest block whose octets it
 * can fill:
 *
 *  - 16-pixel tiers (AVX-VNNI): 1x16 (two whole-row octets of one
 *    row), 2x8 (one whole-row octet from each of two rows) or 4x4 (two
 *    split octets over four rows);
 *  - 8-pixel tiers (maddubs, fp32 AVX2, FMA): 1x8 or 2x4.
 *
 * Rows narrower than their slot (widths 1-3 and 5-7, and the <= 4
 * pixel tail of a wider row) run the same blocks with a lane mask;
 * a slot with no row left aliases a live row's addresses under an
 * all-off mask, so it reads only what that row reads and stores
 * nothing. Pixels never share an accumulator lane, so each keeps its
 * private canonical (n, i, j) accumulation: a region is bit-identical
 * to R one-row calls.
 *
 * Overreads: a whole-row octet reads what the one-row strip kernels
 * always read. A split octet's int8 loads are 8-byte (stride 1) or
 * 16-byte (stride 4) half-rows, shorter than the whole-row loads, so
 * they stay inside ConvStage's apron (i8HalfOverread). fp32 split
 * loads are 128-bit halves holding exactly the four pixels' taps, or
 * masked loads of the live ones: nothing a scalar kernel would not
 * touch.
 *
 * Internal to the vector TUs: everything sits in an anonymous
 * namespace, so each TU gets its own copy compiled for its own
 * instruction set, and no helper built with -mavxvnni can be picked
 * by the linker for a maddubs-only host.
 */

#ifndef FLCNN_KERNELS_CONV_OCTETS_HH
#define FLCNN_KERNELS_CONV_OCTETS_HH

#include <immintrin.h>

#include <cstdint>

namespace flcnn {
namespace simd {
namespace {

/**
 * Where one octet lives, relative to its region's input and dst
 * bases (elements). Lanes 0-3 read from inLo and store to dstLo,
 * lanes 4-7 from inHi and dstHi; for a whole-row octet inHi and dstHi
 * are simply 4 pixels further on. Lane l is live iff
 * l < (l < 4 ? limLo : limHi).
 */
struct OctetPos
{
    int64_t inLo, inHi;
    int64_t dstLo, dstHi;
    int limLo, limHi;
};

/** A block's compile-time shape: octet count, split or whole-row
 *  octets, and whether any lane is masked off. */
template <int NO, bool SPLIT, bool MASKED>
struct BlockShape
{
    static constexpr int kOctets = NO;
    static constexpr bool kSplit = SPLIT;
    static constexpr bool kMasked = MASKED;
};

/** The live-lane mask of @p o. */
inline __m256i
octetMask(const OctetPos &o)
{
    return _mm256_cmpgt_epi32(
        _mm256_setr_epi32(o.limLo, o.limLo, o.limLo, o.limLo, o.limHi,
                          o.limHi, o.limHi, o.limHi),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * Tile a @p rows x @p count region with blocks of at most WIDE (16 or
 * 8) pixels and hand each to @p emit(BlockShape<...>{}, octets).
 * Output row r, pixel x sits at dst offset r * dst_step + x and reads
 * input from offset r * in_step + x * sx. Whole WIDE-pixel runs go
 * row by row; the narrower remainder of every row is grouped across
 * rows into 2x8, 4x4 or 2x4 blocks.
 */
template <int WIDE, class Emit>
inline void
forEachRegionBlock(int rows, int count, int sx, int64_t in_step,
                   int64_t dst_step, Emit &&emit)
{
    static_assert(WIDE == 8 || WIDE == 16, "unsupported block width");
    // Whole-row octet of pixels [x, x + 8) of row r, live lanes < live.
    const auto whole = [&](int r, int x, int live) {
        const int64_t in = r * in_step + static_cast<int64_t>(x) * sx;
        const int64_t d = r * dst_step + x;
        return OctetPos{in, in + 4 * sx, d, d + 4, live, live};
    };
    // Split octet: pixels [x, x + w) of row ra in lanes 0-3 and of row
    // rb in lanes 4-7; rb < 0 leaves lanes 4-7 dead on row ra.
    const auto split = [&](int ra, int rb, int x, int w) {
        const int hb = rb < 0 ? ra : rb;
        return OctetPos{ra * in_step + static_cast<int64_t>(x) * sx,
                        hb * in_step + static_cast<int64_t>(x) * sx,
                        ra * dst_step + x, hb * dst_step + x, w,
                        rb < 0 ? 0 : 4 + w};
    };

    const int full = count / WIDE * WIDE;
    for (int r = 0; r < rows; r++) {
        for (int x = 0; x < full; x += WIDE) {
            if constexpr (WIDE == 16) {
                const OctetPos o[2] = {whole(r, x, 8),
                                       whole(r, x + 8, 8)};
                emit(BlockShape<2, false, false>{}, o);
            } else {
                const OctetPos o[1] = {whole(r, x, 8)};
                emit(BlockShape<1, false, false>{}, o);
            }
        }
    }
    int x = full;
    int w = count - full;
    // 8-wide slots: 2x8 pairs on the 16-pixel tier, one masked 1x8 per
    // row on the 8-pixel tiers; a lone last row takes a 1x8.
    const auto rows8 = [&](int live) {
        int r = 0;
        if constexpr (WIDE == 16) {
            for (; r + 2 <= rows; r += 2) {
                const OctetPos o[2] = {whole(r, x, live),
                                       whole(r + 1, x, live)};
                if (live == 8)
                    emit(BlockShape<2, false, false>{}, o);
                else
                    emit(BlockShape<2, false, true>{}, o);
            }
        }
        for (; r < rows; r++) {
            const OctetPos o[1] = {whole(r, x, live)};
            if (live == 8)
                emit(BlockShape<1, false, false>{}, o);
            else
                emit(BlockShape<1, false, true>{}, o);
        }
    };
    if (WIDE == 16 && w >= 8) {
        rows8(8);
        x += 8;
        w -= 8;
    }
    if (w > 4) {
        rows8(w);
        return;
    }
    if (w == 0)
        return;
    // 4-wide slots: 4x4 quads (16-pixel tier) or 2x4 pairs.
    int r = 0;
    if constexpr (WIDE == 16) {
        for (; r + 4 <= rows; r += 4) {
            const OctetPos o[2] = {split(r, r + 1, x, w),
                                   split(r + 2, r + 3, x, w)};
            if (w == 4)
                emit(BlockShape<2, true, false>{}, o);
            else
                emit(BlockShape<2, true, true>{}, o);
        }
        if (rows - r == 3) {
            const OctetPos o[2] = {split(r, r + 1, x, w),
                                   split(r + 2, -1, x, w)};
            emit(BlockShape<2, true, true>{}, o);
            return;
        }
    }
    for (; r + 2 <= rows; r += 2) {
        const OctetPos o[1] = {split(r, r + 1, x, w)};
        if (w == 4)
            emit(BlockShape<1, true, false>{}, o);
        else
            emit(BlockShape<1, true, true>{}, o);
    }
    if (r < rows) {
        const OctetPos o[1] = {whole(r, x, w)};
        emit(BlockShape<1, false, true>{}, o);
    }
}

/** Load one octet of i32 accumulators (masked lanes read as 0). */
template <bool SPLIT, bool MASKED>
inline __m256i
loadAccI32(const int32_t *d, const OctetPos &o, __m256i mask)
{
    if constexpr (SPLIT) {
        const __m128i lo =
            MASKED ? _mm_maskload_epi32(d + o.dstLo,
                                        _mm256_castsi256_si128(mask))
                   : _mm_loadu_si128(
                         reinterpret_cast<const __m128i *>(d + o.dstLo));
        const __m128i hi =
            MASKED ? _mm_maskload_epi32(d + o.dstHi,
                                        _mm256_extracti128_si256(mask, 1))
                   : _mm_loadu_si128(
                         reinterpret_cast<const __m128i *>(d + o.dstHi));
        return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
    } else if constexpr (MASKED) {
        return _mm256_maskload_epi32(d + o.dstLo, mask);
    } else {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(d + o.dstLo));
    }
}

/** Store one octet of i32 accumulators (live lanes only). */
template <bool SPLIT, bool MASKED>
inline void
storeAccI32(int32_t *d, const OctetPos &o, __m256i mask, __m256i v)
{
    if constexpr (SPLIT) {
        const __m128i lo = _mm256_castsi256_si128(v);
        const __m128i hi = _mm256_extracti128_si256(v, 1);
        if constexpr (MASKED) {
            _mm_maskstore_epi32(d + o.dstLo,
                                _mm256_castsi256_si128(mask), lo);
            _mm_maskstore_epi32(d + o.dstHi,
                                _mm256_extracti128_si256(mask, 1), hi);
        } else {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + o.dstLo),
                             lo);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(d + o.dstHi),
                             hi);
        }
    } else if constexpr (MASKED) {
        _mm256_maskstore_epi32(d + o.dstLo, mask, v);
    } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(d + o.dstLo), v);
    }
}

/** Load one octet of fp32 accumulators (masked lanes read as 0). */
template <bool SPLIT, bool MASKED>
inline __m256
loadAccF32(const float *d, const OctetPos &o, __m256i mask)
{
    if constexpr (SPLIT) {
        const __m128 lo =
            MASKED ? _mm_maskload_ps(d + o.dstLo,
                                     _mm256_castsi256_si128(mask))
                   : _mm_loadu_ps(d + o.dstLo);
        const __m128 hi =
            MASKED ? _mm_maskload_ps(d + o.dstHi,
                                     _mm256_extracti128_si256(mask, 1))
                   : _mm_loadu_ps(d + o.dstHi);
        return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
    } else if constexpr (MASKED) {
        return _mm256_maskload_ps(d + o.dstLo, mask);
    } else {
        return _mm256_loadu_ps(d + o.dstLo);
    }
}

/** Store one octet of fp32 accumulators (live lanes only). */
template <bool SPLIT, bool MASKED>
inline void
storeAccF32(float *d, const OctetPos &o, __m256i mask, __m256 v)
{
    if constexpr (SPLIT) {
        const __m128 lo = _mm256_castps256_ps128(v);
        const __m128 hi = _mm256_extractf128_ps(v, 1);
        if constexpr (MASKED) {
            _mm_maskstore_ps(d + o.dstLo, _mm256_castsi256_si128(mask),
                             lo);
            _mm_maskstore_ps(d + o.dstHi,
                             _mm256_extracti128_si256(mask, 1), hi);
        } else {
            _mm_storeu_ps(d + o.dstLo, lo);
            _mm_storeu_ps(d + o.dstHi, hi);
        }
    } else if constexpr (MASKED) {
        _mm256_maskstore_ps(d + o.dstLo, mask, v);
    } else {
        _mm256_storeu_ps(d + o.dstLo, v);
    }
}

/**
 * Stride-1 fp32 taps of one octet at kernel column @p j: lane t reads
 * lo[t + j] (lanes 0-3) or hi[t - 4 + j] (lanes 4-7), where @p lo and
 * @p hi point at the octet's input row at its inLo and inHi. Split
 * octets load two 128-bit halves; masked octets load only their live
 * lanes.
 */
template <bool SPLIT, bool MASKED>
inline __m256
loadTapsF32(const float *lo, const float *hi, int j, __m256i mask)
{
    if constexpr (SPLIT) {
        const __m128 a =
            MASKED ? _mm_maskload_ps(lo + j, _mm256_castsi256_si128(mask))
                   : _mm_loadu_ps(lo + j);
        const __m128 b =
            MASKED ? _mm_maskload_ps(hi + j,
                                     _mm256_extracti128_si256(mask, 1))
                   : _mm_loadu_ps(hi + j);
        return _mm256_insertf128_ps(_mm256_castps128_ps256(a), b, 1);
    } else if constexpr (MASKED) {
        return _mm256_maskload_ps(lo + j, mask);
    } else {
        return _mm256_loadu_ps(lo + j);
    }
}

/**
 * int8 taps of one octet, 4-tap group @p jg, in dword-per-pixel order;
 * @p lo_row and @p hi_row point at the octet's input row at its inLo
 * and inHi. At stride 1 a whole-row octet expands one 16-byte load
 * (11 bytes feed 8 pixels x 4 taps) with a byte shuffle; a split octet
 * expands two 8-byte half-row loads (7 bytes feed 4 pixels x 4 taps)
 * with the same per-lane pattern. At stride 4 pixel t's group-jg taps
 * are bytes (t + jg) * 4 .. + 3, so the taps are one 32-byte load, or
 * two 16-byte half-row loads merged by a dword blend.
 */
template <int SX, bool SPLIT>
inline __m256i
loadPixTaps(const uint8_t *lo_row, const uint8_t *hi_row, int jg)
{
    static_assert(SX == 1 || SX == 4, "unsupported int8 vector stride");
    const uint8_t *lo = lo_row + jg * 4;
    const uint8_t *hi = hi_row + jg * 4;
    if constexpr (SX == 1 && !SPLIT) {
        const __m256i mask = _mm256_setr_epi8(
            0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6,
            4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9, 7, 8, 9, 10);
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo));
        return _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(raw),
                                   mask);
    } else if constexpr (SX == 1) {
        const __m256i mask = _mm256_setr_epi8(
            0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6,
            0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6);
        const __m128i a =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(lo));
        const __m128i b =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(hi));
        return _mm256_shuffle_epi8(
            _mm256_inserti128_si256(_mm256_castsi128_si256(a), b, 1),
            mask);
    } else if constexpr (!SPLIT) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(lo));
    } else {
        return _mm256_blend_epi32(
            _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo))),
            _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(hi))),
            0xf0);
    }
}

} // namespace
} // namespace simd
} // namespace flcnn

#endif // FLCNN_KERNELS_CONV_OCTETS_HH
