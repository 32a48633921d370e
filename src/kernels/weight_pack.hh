/**
 * @file
 * Filter-interleaved packed weight panels for the multi-filter strip
 * kernels.
 *
 * A FilterBank stores weights filter-major (m, n, i, j): the taps of
 * one filter are contiguous, but the multi-filter kernels consume MR
 * filters per pass and want each tap's MR lane weights adjacent.
 * PackedWeights repacks a bank once into per-block panels laid out
 * (n, i, j, m-lane): panel element ((n*K + i)*K + j)*lanes + f holds
 * filter (m0 + f)'s tap (n, i, j), so the kernel's weight stream is a
 * single contiguous walk. Blocks follow a 4/2/1 lane ladder and never
 * straddle a group boundary (grouped convolutions must keep every
 * lane's input-channel window identical) or an optional m-tile
 * boundary (the baseline accelerator's Tm tiling).
 *
 * Packing is pure data movement — values are copied bit-for-bit, the
 * accumulation order is untouched — so consumers stay bit-identical
 * to the unpacked path. Executors cache one PackedWeights per conv
 * layer through WeightPackCache (a one-time cost of one pass over the
 * bank, amortized over every run).
 */

#ifndef FLCNN_KERNELS_WEIGHT_PACK_HH
#define FLCNN_KERNELS_WEIGHT_PACK_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"
#include "tensor/precision.hh"
#include "tensor/tensor.hh"

namespace flcnn {

/** One filter block of a packed bank. */
struct PackedBlock
{
    int m0 = 0;         //!< first filter of the block
    int lanes = 0;      //!< filters in the block (4, 2, or 1)
    int64_t offset = 0; //!< panel start within the packed buffer
};

/** A FilterBank repacked into filter-interleaved panels. */
class PackedWeights
{
  public:
    PackedWeights() = default;

    /**
     * Pack @p fb for @p groups-way grouped convolution. Blocks follow
     * the 4/2/1 lane ladder within each group; when @p m_tile > 0 the
     * ladder also restarts at every m_tile-th filter inside a group,
     * so a tile [m0, m0 + m_tile) is always a whole number of blocks
     * (the baseline accelerator's Tm loop needs this). @p mr_cap
     * limits the widest ladder rung (the autotuner's register-block
     * knob): 4 is the full 4/2/1 ladder, 2 packs 2/1, 1 packs all
     * singles. The cap changes the panel layout, never the values —
     * consumers stay bit-identical at any cap.
     */
    explicit PackedWeights(const FilterBank &fb, int groups = 1,
                           int m_tile = 0,
                           int mr_cap = kConvBlockLanes);

    int numBlocks() const { return static_cast<int>(blks.size()); }
    const PackedBlock &
    block(int bi) const
    {
        return blks[static_cast<size_t>(bi)];
    }

    /** Panel base pointer of block @p bi ((n, i, j, lane) layout). */
    const float *
    panel(int bi) const
    {
        return data.data() + block(bi).offset;
    }

    /** Index of the block containing filter @p m. */
    int
    blockOf(int m) const
    {
        return blockOfM[static_cast<size_t>(m)];
    }

    /** First input channel feeding block @p bi (its group's base). */
    int
    nBase(int bi) const
    {
        return (block(bi).m0 / mPerGroup) * n_;
    }

    /** Bias of filter @p m (copied from the bank at pack time). */
    float bias(int m) const { return biases[static_cast<size_t>(m)]; }

    int kernel() const { return k_; }
    int numChannels() const { return n_; }
    int numFilters() const { return m_; }

    /** Packed buffer size in bytes (weights only). */
    int64_t
    bytes() const
    {
        return static_cast<int64_t>(data.size()) * 4;
    }

  private:
    std::vector<PackedBlock> blks;
    std::vector<int> blockOfM;  //!< filter index -> block index
    std::vector<float> data;
    std::vector<float> biases;
    int m_ = 0, n_ = 0, k_ = 0;
    int mPerGroup = 0;
};

/**
 * A FilterBank quantized to s8 and repacked for the int8 strip
 * kernels (kernels/conv_kernels_i8.hh). Panels interleave filters like
 * PackedWeights but group kernel columns in fours —
 * ((n*K + i)*(K4/4) + jg) * (lanes*4) + f*4 + u, K4 = K rounded up to
 * a multiple of 4, padded taps zero — matching the maddubs pipeline's
 * 4-tap granularity. Per filter the pack records the symmetric weight
 * scale it quantized with, the sum of the quantized weights (the
 * activation zero-point correction term), and the original fp32 bias;
 * the dequant epilogue in kernels/conv_layer.hh consumes all three.
 *
 * With mr_cap == kAmxLanes the pack holds the i8.amx tier's panels
 * instead: blocks of up to 32 filters (never straddling a group), and
 * per (kernel row i, 64-byte chunk c, 16-filter half h) one 16 x 64
 * B tile in VNNI-4 order, tile ((i * chunks + c) * halves + h), row r
 * byte f * 4 + u holding filter 16h + f's weight for reduction byte
 * b = c * 64 + r * 4 + u of kernel row i — channel-last order,
 * b = j * C + n. Bytes b >= K * C and lanes past the block are zero.
 */
class PackedWeightsI8
{
  public:
    PackedWeightsI8() = default;

    /** Quantize and pack @p fb with per-filter scales @p w_scales
     *  (size fb.numFilters(); see chooseWeightScale()). @p mr_cap
     *  limits the widest ladder rung, as in PackedWeights, or selects
     *  the AMX panels (kAmxLanes). */
    PackedWeightsI8(const FilterBank &fb, int groups,
                    const std::vector<float> &w_scales,
                    int mr_cap = kConvBlockLanes);

    int numBlocks() const { return static_cast<int>(blks.size()); }
    const PackedBlock &
    block(int bi) const
    {
        return blks[static_cast<size_t>(bi)];
    }

    /** Panel base pointer of block @p bi (j-group-of-4 layout). */
    const int8_t *
    panel(int bi) const
    {
        return data.data() + block(bi).offset;
    }

    int
    blockOf(int m) const
    {
        return blockOfM[static_cast<size_t>(m)];
    }

    int
    nBase(int bi) const
    {
        return (block(bi).m0 / mPerGroup) * n_;
    }

    float bias(int m) const { return biases[static_cast<size_t>(m)]; }

    /** Symmetric weight scale filter @p m was quantized with. */
    float scale(int m) const { return scales[static_cast<size_t>(m)]; }

    /** Sum of filter @p m's quantized weights (zero-point term). */
    int32_t wsum(int m) const { return wsums[static_cast<size_t>(m)]; }

    int kernel() const { return k_; }
    int kernel4() const { return k4_; }
    int numChannels() const { return n_; }
    int numFilters() const { return m_; }

    /** True for the i8.amx panel layout. */
    bool amx() const { return amxChunks_ > 0; }

    /** 64-byte reduction chunks per kernel row (AMX layout). */
    int amxChunks() const { return amxChunks_; }

    /** Packed buffer size in bytes (weights only, 1 byte/element). */
    int64_t
    bytes() const
    {
        return static_cast<int64_t>(data.size());
    }

  private:
    std::vector<PackedBlock> blks;
    std::vector<int> blockOfM;
    std::vector<int8_t> data;
    std::vector<float> biases;
    std::vector<float> scales;
    std::vector<int32_t> wsums;
    int m_ = 0, n_ = 0, k_ = 0, k4_ = 0;
    int mPerGroup = 0;
    int amxChunks_ = 0;

    /** Lay out the AMX panels from @p q, every filter's quantized
     *  taps in (m, n, i, j) order. */
    void packAmx(const int8_t *q, int groups);
};

/**
 * A FilterBank rounded to IEEE binary16 and repacked for the fp16
 * mode. Canonical storage is the u16 half bits (what bytes() reports
 * and what a hardware implementation would keep); compute runs the
 * ordinary fp32 strip kernels over a decoded fp32 shadow panel in the
 * exact PackedWeights layout, which is lossless because half -> float
 * conversion is exact. Biases are likewise rounded through half.
 */
class PackedWeightsF16
{
  public:
    PackedWeightsF16() = default;

    PackedWeightsF16(const FilterBank &fb, int groups,
                     int mr_cap = kConvBlockLanes);

    int numBlocks() const { return static_cast<int>(blks.size()); }
    const PackedBlock &
    block(int bi) const
    {
        return blks[static_cast<size_t>(bi)];
    }

    /** Decoded fp32 panel of block @p bi ((n, i, j, lane) layout). */
    const float *
    panel(int bi) const
    {
        return decoded.data() + block(bi).offset;
    }

    /** Half-bit panel of block @p bi (same layout; storage form). */
    const uint16_t *
    panelBits(int bi) const
    {
        return bits.data() + block(bi).offset;
    }

    int
    blockOf(int m) const
    {
        return blockOfM[static_cast<size_t>(m)];
    }

    int
    nBase(int bi) const
    {
        return (block(bi).m0 / mPerGroup) * n_;
    }

    /** Bias of filter @p m, rounded through binary16. */
    float bias(int m) const { return biases[static_cast<size_t>(m)]; }

    int kernel() const { return k_; }
    int numChannels() const { return n_; }
    int numFilters() const { return m_; }

    /** Packed storage size in bytes (2 bytes/element — the half bits;
     *  the fp32 shadow is a software decode cache, not storage). */
    int64_t
    bytes() const
    {
        return static_cast<int64_t>(bits.size()) * 2;
    }

  private:
    std::vector<PackedBlock> blks;
    std::vector<int> blockOfM;
    std::vector<uint16_t> bits;
    std::vector<float> decoded;
    std::vector<float> biases;
    int m_ = 0, n_ = 0, k_ = 0;
    int mPerGroup = 0;
};

/**
 * Content fingerprint of a FilterBank: FNV-1a over its dimensions and
 * the bit pattern of every weight and bias. Never returns 0 (the
 * "not yet computed" sentinel in WeightPackCache). Banks with
 * identical dimensions and bit-identical values fingerprint equal, so
 * executors built from *different* NetworkWeights objects holding the
 * same trained weights still resolve to one shared pack.
 */
uint64_t filterBankFingerprint(const FilterBank &fb);

/**
 * Process-wide, content-addressed registry of packed weight banks.
 *
 * Without it every executor owns private packs: a server running W
 * workers over one model holds W copies of every panel, and two
 * server instances hosting the same network hold 2W. The registry
 * keys packs by {filter-bank content fingerprint, dtype, int8
 * scale-set id, groups, m_tile, mr_cap} — everything that affects the
 * packed bytes — and hands out shared_ptr references, so every
 * executor serving the same weights shares one pack set. Layout knobs
 * are part of the key, so a tune-cache change resolves to a different
 * entry rather than corrupting a shared one (the per-executor
 * stale-layout eviction in WeightPackCache still governs which layout
 * an executor asks for).
 *
 * Thread-safe: serving workers build their engines concurrently.
 * Packing runs outside the lock; when two threads race to insert the
 * same key, the first insert wins and the loser adopts the winner's
 * pack (counted as a shared hit — the packs are bit-identical by
 * construction, pure data movement from the same bank).
 *
 * Eviction is refcount-safe by construction: purgeUnused() drops only
 * entries no executor currently references; a live shared_ptr keeps
 * its pack alive even after a purge, so tearing down one server never
 * invalidates another's panels.
 */
class SharedPackRegistry
{
  public:
    /** The process-wide registry every WeightPackCache resolves
     *  through. */
    static SharedPackRegistry &global();

    std::shared_ptr<const PackedWeights> get(uint64_t content,
                                             const FilterBank &fb,
                                             int groups, int m_tile,
                                             int mr_cap);
    std::shared_ptr<const PackedWeightsI8>
    getI8(uint64_t content, const FilterBank &fb, int groups,
          const std::vector<float> &w_scales, uint64_t scale_id,
          int mr_cap);
    std::shared_ptr<const PackedWeightsF16> getF16(uint64_t content,
                                                   const FilterBank &fb,
                                                   int groups,
                                                   int mr_cap);

    /** Lookups resolved to an already-registered pack. */
    int64_t sharedHits() const;

    /** Lookups that had to pack (first sight of the key). */
    int64_t builds() const;

    /** Registered packs across all dtypes. */
    int size() const;

    /** Drop every pack no executor references; returns how many. */
    int purgeUnused();

  private:
    /** Everything that determines the packed bytes, minus the dtype
     *  (each dtype has its own map). */
    struct Key
    {
        uint64_t content = 0;
        uint64_t scaleId = 0;
        int groups = 1;
        int tile = 0;
        int cap = 0;

        bool
        operator==(const Key &o) const
        {
            return content == o.content && scaleId == o.scaleId &&
                   groups == o.groups && tile == o.tile && cap == o.cap;
        }
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            uint64_t h = k.content * 0x9e3779b97f4a7c15ull;
            h ^= k.scaleId * 0xff51afd7ed558ccdull;
            h ^= (static_cast<uint64_t>(k.groups) << 42) ^
                 (static_cast<uint64_t>(k.tile) << 21) ^
                 static_cast<uint64_t>(k.cap);
            h *= 0xc4ceb9fe1a85ec53ull;
            return static_cast<size_t>(h ^ (h >> 32));
        }
    };

    template <typename Map, typename Build>
    typename Map::mapped_type lookupOrBuild(Map &map, const Key &key,
                                            const Build &build);

    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const PackedWeights>,
                       KeyHash>
        fp32Map;
    std::unordered_map<Key, std::shared_ptr<const PackedWeightsI8>,
                       KeyHash>
        i8Map;
    std::unordered_map<Key, std::shared_ptr<const PackedWeightsF16>,
                       KeyHash>
        f16Map;
    int64_t hits_ = 0;
    int64_t builds_ = 0;
};

/**
 * Cache key: the caller's layer key plus the pack's dtype and — for
 * int8 — the identity of the scale set it was quantized with. A server
 * hosting the same model at two precisions (or two int8 calibrations)
 * must never serve a pack built for one to a request for the other;
 * folding dtype and scale-set identity into the key makes the
 * collision impossible by construction.
 */
struct PackKey
{
    int layer = 0;
    Precision dtype = Precision::Fp32;
    uint64_t scaleId = 0;  //!< int8 scale-set identity; 0 otherwise

    bool
    operator==(const PackKey &o) const
    {
        return layer == o.layer && dtype == o.dtype &&
               scaleId == o.scaleId;
    }
};

struct PackKeyHash
{
    size_t
    operator()(const PackKey &k) const
    {
        uint64_t h = static_cast<uint64_t>(k.layer) * 0x9e3779b97f4a7c15ull;
        h ^= (static_cast<uint64_t>(k.dtype) + 1) * 0xff51afd7ed558ccdull;
        h ^= k.scaleId * 0xc4ceb9fe1a85ec53ull;
        return static_cast<size_t>(h ^ (h >> 32));
    }
};

/**
 * Lazy per-layer cache of packed banks, hung off each executor: the
 * first run resolves through the process-wide SharedPackRegistry
 * (packing only if no other executor has packed the same content at
 * the same layout), later runs reuse the reference with no lock
 * taken. Layer keys are caller-chosen and are extended internally
 * with the pack dtype and int8 scale-set identity — see PackKey.
 * Every in-tree executor keys with the *absolute* network layer
 * index (not a range-relative one), so two compiled plans over
 * different ranges of one network can never alias distinct layers
 * onto the same entry. Not thread-safe itself —
 * executors populate it from the serial portion of their run, outside
 * any parallelFor region; cross-executor sharing is the registry's
 * (locked) job.
 *
 * Stale-pack guard: a pack's panel layout depends on (m_tile, mr_cap).
 * The tune cache can change a layer's mr_cap between runs (a newly
 * stored autotune winner), which would make a cached pack's layout
 * disagree with the kernel about lane widths — silently wrong results.
 * Each entry therefore remembers the layout it was packed with; a
 * lookup requesting a different layout evicts and repacks (counted in
 * evictions()).
 */
class WeightPackCache
{
  public:
    /** The fp32 packed form of @p fb under @p key, resolving through
     *  the shared registry on first use and re-resolving if the cached
     *  layout differs. */
    const PackedWeights &
    get(int key, const FilterBank &fb, int groups = 1, int m_tile = 0,
        int mr_cap = kConvBlockLanes)
    {
        Entry &e = lookup(PackKey{key, Precision::Fp32, 0});
        if (e.fp32 && (e.tile != m_tile || e.cap != mr_cap)) {
            e.fp32.reset();
            evictions_++;
        }
        if (!e.fp32) {
            if (e.content == 0)
                e.content = filterBankFingerprint(fb);
            e.fp32 = SharedPackRegistry::global().get(
                e.content, fb, groups, m_tile, mr_cap);
            e.tile = m_tile;
            e.cap = mr_cap;
        }
        return *e.fp32;
    }

    /** The int8 packed form of @p fb quantized with @p w_scales, whose
     *  identity is @p scale_id (see nn::NetPrecision::scaleId()). */
    const PackedWeightsI8 &
    getI8(int key, const FilterBank &fb, int groups,
          const std::vector<float> &w_scales, uint64_t scale_id,
          int mr_cap = kConvBlockLanes)
    {
        Entry &e = lookup(PackKey{key, Precision::Int8, scale_id});
        if (e.i8 && e.cap != mr_cap) {
            e.i8.reset();
            evictions_++;
        }
        if (!e.i8) {
            if (e.content == 0)
                e.content = filterBankFingerprint(fb);
            e.i8 = SharedPackRegistry::global().getI8(
                e.content, fb, groups, w_scales, scale_id, mr_cap);
            e.cap = mr_cap;
        }
        return *e.i8;
    }

    /** The fp16 packed form of @p fb under @p key. */
    const PackedWeightsF16 &
    getF16(int key, const FilterBank &fb, int groups,
           int mr_cap = kConvBlockLanes)
    {
        Entry &e = lookup(PackKey{key, Precision::Fp16, 0});
        if (e.f16 && e.cap != mr_cap) {
            e.f16.reset();
            evictions_++;
        }
        if (!e.f16) {
            if (e.content == 0)
                e.content = filterBankFingerprint(fb);
            e.f16 = SharedPackRegistry::global().getF16(e.content, fb,
                                                        groups, mr_cap);
            e.cap = mr_cap;
        }
        return *e.f16;
    }

    /** Lookups served from the cache / lookups that packed. */
    int64_t hits() const { return hits_; }
    int64_t misses() const { return misses_; }

    /** Packs discarded because a lookup asked for a different panel
     *  layout (m_tile or mr_cap) than the cached one. */
    int64_t evictions() const { return evictions_; }

  private:
    struct Entry
    {
        std::shared_ptr<const PackedWeights> fp32;
        std::shared_ptr<const PackedWeightsI8> i8;
        std::shared_ptr<const PackedWeightsF16> f16;
        uint64_t content = 0;        //!< bank fingerprint (0 = unset)
        int tile = 0;                //!< m_tile the pack was built with
        int cap = kConvBlockLanes;   //!< mr_cap the pack was built with
    };

    Entry &
    lookup(const PackKey &key)
    {
        auto it = map.find(key);
        if (it == map.end()) {
            misses_++;
            it = map.emplace(key, Entry{}).first;
        } else {
            hits_++;
        }
        return it->second;
    }

    std::unordered_map<PackKey, Entry, PackKeyHash> map;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
    int64_t evictions_ = 0;
};

/**
 * Convenience wrapper for Tensor call sites: compute @p count output
 * pixels of every filter in block @p bi into the rows
 * dst + f * dst_stride, receptive fields at rows [y0, y0 + K) and
 * columns x0 + t * stride of @p in. Each lane's row is initialized
 * with its bias, then accumulated in canonical order — bit-identical
 * to convPoint() per (filter, pixel). With @p rows > 1 the call covers
 * that many consecutive output rows in one kernel region (output row r
 * at dst + r * dst_row_stride, its receptive field stride * r rows
 * further down), bit-identical to @p rows one-row calls.
 */
void convBlockRowTensor(const ConvBlockKernel &bk,
                        const PackedWeights &pw, int bi, float *dst,
                        int64_t dst_stride, int count, const Tensor &in,
                        int y0, int x0, int rows = 1,
                        int64_t dst_row_stride = 0);

} // namespace flcnn

#endif // FLCNN_KERNELS_WEIGHT_PACK_HH
