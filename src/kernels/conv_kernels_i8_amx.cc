/**
 * @file
 * AMX int8 region driver (the i8.amx tier).
 *
 * One TDPBUSD multiplies a 16 x 64 u8 tile (16 output pixels, 64 bytes
 * of their reduction) by a 16 x 64 s8 tile (16 filters, the same 64
 * bytes in VNNI-4 order) into a 16 x 16 i32 tile: the paper's Tm x Tn
 * unroll in one instruction. The driver blocks 32 pixels x 32 filters
 * (two A tiles, two B tiles, four accumulator tiles) and walks the
 * kernel rows and 64-byte chunks of the reduction.
 *
 * Input: a channel-last staged image (ConvStage with groups > 0), so
 * kernel row i of a pixel is K * C contiguous bytes and an A tile of
 * 16 pixels of one output row is one tileloadd at row stride S * C,
 * for any K, stride or channel count. Bytes past K * C in a row's last
 * chunk belong to the next pixel or the kAmxStagePad apron and meet
 * zero panel rows. Pixels of a region that do not form a whole
 * 16-pixel run of one row (row tails, narrow pyramid rows) are copied
 * chunk by chunk into a 16-row buffer first.
 *
 * Determinism: TDPBUSD sums u8 x s8 products into i32 without
 * saturation, so every accumulator is the exact integer sum, whatever
 * the order (the plan checks 255 * 63 * K^2 * C < 2^31). The epilogue
 * evaluates the shared dequant expression bias + scale * float(acc -
 * zpTerm) per (filter, pixel) in 8-filter vectors, then transposes to
 * the planar output. Bit-identical to every other int8 tier.
 *
 * Compiled with -mavx2 -mamx-tile -mamx-int8 only when the compiler
 * accepts the flags (FLCNN_SIMD_AMX); amxSupported() checks CPUID and
 * asks the kernel for the tile-data permission once per process before
 * anything here runs. Each thread loads the tile configuration (one
 * shape for every call) on its first region.
 */

#include "kernels/conv_kernels_simd.hh"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace flcnn {
namespace simd {

namespace {

constexpr int kTileRows = 16;
constexpr int kTileBytes = 64;
constexpr int kTileSize = kTileRows * kTileBytes;
constexpr int kBlockPix = 2 * kTileRows;  // pixels per tile pair

/** The one tile shape: every tile 16 rows x 64 bytes. */
struct alignas(64) TileConfig
{
    uint8_t palette = 1;
    uint8_t startRow = 0;
    uint8_t reserved[14] = {};
    uint16_t colsb[16] = {};
    uint8_t rows[16] = {};
};

/** Load the tile configuration on this thread's first region (a
 *  forked child inherits it with the rest of the thread's state). */
inline void
ensureTileConfig()
{
    thread_local bool loaded = false;
    if (loaded)
        return;
    TileConfig cfg;
    for (int t = 0; t < 8; t++) {
        cfg.colsb[t] = kTileBytes;
        cfg.rows[t] = kTileRows;
    }
    _tile_loadconfig(&cfg);
    loaded = true;
}

/** Where an A tile's rows are: chunk c of kernel row i starts at
 *  base + i * rowStep + c * chunkStep, rows @p stride apart. */
struct ATile
{
    const uint8_t *base;
    int64_t rowStep, chunkStep, stride;
};

/**
 * Accumulate NA A tiles x NB B tiles over the whole reduction and store
 * them to @p acc, a [32 pixel][32 filter] i32 block. Tiles 0-3 hold
 * the accumulators, 4-5 the pixels, 6-7 the weights.
 */
template <int NA, int NB>
void
tileBlock(const ATile *a, const int8_t *wp, int nb, int k, int chunks,
          int32_t *acc)
{
    _tile_zero(0);
    if constexpr (NB > 1)
        _tile_zero(1);
    if constexpr (NA > 1) {
        _tile_zero(2);
        if constexpr (NB > 1)
            _tile_zero(3);
    }
    const int8_t *b = wp;
    for (int i = 0; i < k; i++) {
        const uint8_t *a0 = a[0].base + i * a[0].rowStep;
        const uint8_t *a1 = NA > 1 ? a[1].base + i * a[1].rowStep : a0;
        for (int c = 0; c < chunks; c++, b += nb * kTileSize) {
            _tile_loadd(4, a0 + c * a[0].chunkStep, a[0].stride);
            _tile_loadd(6, b, kTileBytes);
            if constexpr (NB > 1)
                _tile_loadd(7, b + kTileSize, kTileBytes);
            _tile_dpbusd(0, 4, 6);
            if constexpr (NB > 1)
                _tile_dpbusd(1, 4, 7);
            if constexpr (NA > 1) {
                _tile_loadd(5, a1 + c * a[1].chunkStep, a[1].stride);
                _tile_dpbusd(2, 5, 6);
                if constexpr (NB > 1)
                    _tile_dpbusd(3, 5, 7);
            }
        }
    }
    constexpr int64_t kAccPitch = kBlockPix * sizeof(int32_t);
    _tile_stored(0, acc, kAccPitch);
    if constexpr (NB > 1)
        _tile_stored(1, acc + kTileRows, kAccPitch);
    if constexpr (NA > 1) {
        _tile_stored(2, acc + kTileRows * kBlockPix, kAccPitch);
        if constexpr (NB > 1)
            _tile_stored(3, acc + kTileRows * kBlockPix + kTileRows,
                         kAccPitch);
    }
}

/** In-register 8 x 8 transpose of @p r (row q becomes column q). */
inline void
transpose8(__m256 r[8])
{
    __m256 t[8], u[8];
    for (int q = 0; q < 8; q += 2) {
        t[q] = _mm256_unpacklo_ps(r[q], r[q + 1]);
        t[q + 1] = _mm256_unpackhi_ps(r[q], r[q + 1]);
    }
    for (int q = 0; q < 8; q += 4) {
        u[q] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(1, 0, 1, 0));
        u[q + 1] =
            _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(3, 2, 3, 2));
        u[q + 2] =
            _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(1, 0, 1, 0));
        u[q + 3] =
            _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int q = 0; q < 4; q++) {
        r[q] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x20);
        r[q + 4] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x31);
    }
}

/**
 * Dequantize the region's @p np pixels x r.lanes filters of @p acc
 * ([pixel][kBlockPix filter] i32) into the planar output, pixel p at
 * dst + f * dstStride + (p / count) * dstRowStride + p % count. Each
 * value is bias + scale * float(acc - zpTerm), the scalar epilogue's
 * expression, computed 8 filters per vector and transposed to 8
 * pixels per store. Filters go 8 at a time over the whole region, so
 * the stores run along 8 output rows at once.
 */
void
epilogue(const AmxRegion &r, const int32_t *acc, int np)
{
    for (int f0 = 0; f0 < r.lanes; f0 += 8) {
        const int nf = std::min(8, r.lanes - f0);
        const __m256 bias = _mm256_loadu_ps(r.bias + f0);
        const __m256 scale = _mm256_loadu_ps(r.scale + f0);
        const __m256i zp = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(r.zpTerm + f0));
        float *dst = r.dst + f0 * r.dstStride;
        for (int p0 = 0; p0 < np; p0 += 8) {
            __m256 v[8];
            for (int q = 0; q < 8; q++) {
                const __m256i a = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(
                        acc + (p0 + q) * kBlockPix + f0));
                v[q] = _mm256_add_ps(
                    bias, _mm256_mul_ps(scale, _mm256_cvtepi32_ps(
                                                   _mm256_sub_epi32(a, zp))));
            }
            transpose8(v);
            const int row = p0 / r.count, x = p0 % r.count;
            const int64_t d0 = row * r.dstRowStride + x;
            if (p0 + 8 <= np && x + 8 <= r.count) {
                for (int f = 0; f < nf; f++)
                    _mm256_storeu_ps(dst + f * r.dstStride + d0, v[f]);
                continue;
            }
            alignas(32) float col[8];
            const int live = std::min(8, np - p0);
            for (int f = 0; f < nf; f++) {
                _mm256_store_ps(col, v[f]);
                for (int q = 0; q < live; q++) {
                    const int p = p0 + q;
                    dst[f * r.dstStride + p / r.count * r.dstRowStride +
                        p % r.count] = col[q];
                }
            }
        }
    }
}

} // namespace

bool
amxSupported()
{
#if defined(__linux__) && (defined(__x86_64__) || defined(__i386__))
    static const bool ok = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        constexpr unsigned kAmxTile = 1u << 24, kAmxInt8 = 1u << 25;
        if ((d & kAmxTile) == 0 || (d & kAmxInt8) == 0 ||
            !__builtin_cpu_supports("avx2"))
            return false;
        // Linux enables the tile-data state per process, on request.
        constexpr long kArchReqXcompPerm = 0x1023;
        constexpr long kXfeatureXtiledata = 18;
        return syscall(SYS_arch_prctl, kArchReqXcompPerm,
                       kXfeatureXtiledata) == 0;
    }();
    return ok;
#else
    return false;
#endif
}

void
convRegionI8Amx(const AmxRegion &r)
{
    ensureTileConfig();
    const int np = r.rows * r.count;
    const int nb = (r.lanes + kTileRows - 1) / kTileRows;
    const int64_t gather_tile =
        static_cast<int64_t>(r.k) * r.chunks * kTileSize;
    thread_local std::vector<uint8_t> gather;
    // [pixel][filter] accumulators of the whole region; the epilogue
    // runs once the tiles are done. Rows past np and columns past the
    // lanes hold stale values that are never stored.
    thread_local std::vector<int32_t> acc;
    const size_t acc_need = static_cast<size_t>(
        (np + kBlockPix - 1) / kBlockPix * kBlockPix * kBlockPix);
    if (acc.size() < acc_need)
        acc.resize(acc_need);
    for (int p0 = 0; p0 < np; p0 += kBlockPix) {
        const int live = std::min(kBlockPix, np - p0);
        const int na = (live + kTileRows - 1) / kTileRows;
        ATile a[2];
        for (int t = 0; t < na; t++) {
            const int q0 = p0 + t * kTileRows;
            const int qn = std::min(kTileRows, np - q0);
            const int row = q0 / r.count, x = q0 % r.count;
            if (qn == kTileRows && x + kTileRows <= r.count) {
                a[t] = ATile{r.in + row * r.inRowStep + x * r.pixStep,
                             r.rowPitch, kTileBytes, r.pixStep};
                continue;
            }
            // Not one run of a row: copy each pixel's chunks into the
            // buffer rows, (i, c) tile-major. Rows past qn keep stale
            // bytes; their accumulators are never stored.
            if (static_cast<int64_t>(gather.size()) < 2 * gather_tile)
                gather.resize(static_cast<size_t>(2 * gather_tile));
            uint8_t *g = gather.data() + t * gather_tile;
            for (int q = 0; q < qn; q++) {
                const int pr = (q0 + q) / r.count, px = (q0 + q) % r.count;
                const uint8_t *src =
                    r.in + pr * r.inRowStep + px * r.pixStep;
                uint8_t *out = g + q * kTileBytes;
                for (int i = 0; i < r.k; i++)
                    for (int c = 0; c < r.chunks; c++)
                        std::memcpy(out + (i * r.chunks + c) * kTileSize,
                                    src + i * r.rowPitch + c * kTileBytes,
                                    kTileBytes);
            }
            a[t] = ATile{g, r.chunks * kTileSize, kTileSize, kTileBytes};
        }
        int32_t *blk = acc.data() + static_cast<int64_t>(p0) * kBlockPix;
        if (na == 2 && nb == 2)
            tileBlock<2, 2>(a, r.wp, nb, r.k, r.chunks, blk);
        else if (na == 2)
            tileBlock<2, 1>(a, r.wp, nb, r.k, r.chunks, blk);
        else if (nb == 2)
            tileBlock<1, 2>(a, r.wp, nb, r.k, r.chunks, blk);
        else
            tileBlock<1, 1>(a, r.wp, nb, r.k, r.chunks, blk);
    }
    epilogue(r, acc.data(), np);
}

} // namespace simd
} // namespace flcnn
