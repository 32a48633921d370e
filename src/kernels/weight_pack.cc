#include "kernels/weight_pack.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace flcnn {

uint64_t
filterBankFingerprint(const FilterBank &fb)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<uint64_t>(fb.numFilters()));
    mix(static_cast<uint64_t>(fb.numChannels()));
    mix(static_cast<uint64_t>(fb.kernel()));
    // Weights are stored contiguously (m, n, i, j); hash the raw bit
    // patterns so -0.0f vs +0.0f and NaN payloads stay distinct.
    const float *w = fb.wRow(0, 0, 0);
    const int64_t wn = fb.weightElems();
    for (int64_t i = 0; i < wn; i++) {
        uint32_t bits;
        std::memcpy(&bits, &w[i], sizeof bits);
        mix(bits);
    }
    for (int m = 0; m < fb.numFilters(); m++) {
        const float b = fb.bias(m);
        uint32_t bits;
        std::memcpy(&bits, &b, sizeof bits);
        mix(bits);
    }
    return h != 0 ? h : 0x9e3779b97f4a7c15ull;
}

SharedPackRegistry &
SharedPackRegistry::global()
{
    static SharedPackRegistry registry;
    return registry;
}

template <typename Map, typename Build>
typename Map::mapped_type
SharedPackRegistry::lookupOrBuild(Map &map, const Key &key,
                                  const Build &build)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        auto it = map.find(key);
        if (it != map.end()) {
            hits_++;
            return it->second;
        }
    }
    // Pack outside the lock: packing walks the whole bank and must not
    // serialize unrelated workers behind it.
    typename Map::mapped_type built = build();
    std::lock_guard<std::mutex> lk(mu);
    auto ins = map.emplace(key, built);
    if (!ins.second) {
        // Lost an insert race; adopt the winner (bit-identical pack —
        // packing is pure data movement from the same bank).
        hits_++;
        return ins.first->second;
    }
    builds_++;
    return built;
}

std::shared_ptr<const PackedWeights>
SharedPackRegistry::get(uint64_t content, const FilterBank &fb,
                        int groups, int m_tile, int mr_cap)
{
    const Key key{content, 0, groups, m_tile, mr_cap};
    return lookupOrBuild(fp32Map, key, [&] {
        return std::make_shared<const PackedWeights>(fb, groups, m_tile,
                                                     mr_cap);
    });
}

std::shared_ptr<const PackedWeightsI8>
SharedPackRegistry::getI8(uint64_t content, const FilterBank &fb,
                          int groups,
                          const std::vector<float> &w_scales,
                          uint64_t scale_id, int mr_cap)
{
    const Key key{content, scale_id, groups, 0, mr_cap};
    return lookupOrBuild(i8Map, key, [&] {
        return std::make_shared<const PackedWeightsI8>(fb, groups,
                                                       w_scales, mr_cap);
    });
}

std::shared_ptr<const PackedWeightsF16>
SharedPackRegistry::getF16(uint64_t content, const FilterBank &fb,
                           int groups, int mr_cap)
{
    const Key key{content, 0, groups, 0, mr_cap};
    return lookupOrBuild(f16Map, key, [&] {
        return std::make_shared<const PackedWeightsF16>(fb, groups,
                                                        mr_cap);
    });
}

int64_t
SharedPackRegistry::sharedHits() const
{
    std::lock_guard<std::mutex> lk(mu);
    return hits_;
}

int64_t
SharedPackRegistry::builds() const
{
    std::lock_guard<std::mutex> lk(mu);
    return builds_;
}

int
SharedPackRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return static_cast<int>(fp32Map.size() + i8Map.size() +
                            f16Map.size());
}

int
SharedPackRegistry::purgeUnused()
{
    std::lock_guard<std::mutex> lk(mu);
    int purged = 0;
    const auto sweep = [&purged](auto &map) {
        for (auto it = map.begin(); it != map.end();) {
            if (it->second.use_count() == 1) {
                it = map.erase(it);
                purged++;
            } else {
                ++it;
            }
        }
    };
    sweep(fp32Map);
    sweep(i8Map);
    sweep(f16Map);
    return purged;
}

PackedWeights::PackedWeights(const FilterBank &fb, int groups, int m_tile,
                             int mr_cap)
    : m_(fb.numFilters()), n_(fb.numChannels()), k_(fb.kernel())
{
    FLCNN_ASSERT(groups >= 1 && m_ % groups == 0,
                 "filters must divide evenly into groups");
    FLCNN_ASSERT(m_tile >= 0, "m_tile must be non-negative");
    FLCNN_ASSERT(mr_cap >= 1 && mr_cap <= kConvBlockLanes,
                 "mr_cap out of ladder range");
    mPerGroup = m_ / groups;

    biases.resize(static_cast<size_t>(m_));
    for (int m = 0; m < m_; m++)
        biases[static_cast<size_t>(m)] = fb.bias(m);

    // Enumerate blocks: the 4/2/1 lane ladder capped at mr_cap,
    // restarted at every group boundary and (when tiling) every
    // m_tile-th filter within a group.
    const int tile = (m_tile > 0) ? std::min(m_tile, mPerGroup)
                                  : mPerGroup;
    const int cap = std::min(mr_cap, kConvBlockLanes);
    blockOfM.resize(static_cast<size_t>(m_));
    int64_t offset = 0;
    const int64_t panel_taps = static_cast<int64_t>(n_) * k_ * k_;
    for (int g = 0; g < groups; g++) {
        for (int t0 = 0; t0 < mPerGroup; t0 += tile) {
            int m = g * mPerGroup + t0;
            int rem = std::min(tile, mPerGroup - t0);
            while (rem > 0) {
                const int w = std::min(rem, cap);
                int lanes = w >= kConvBlockLanes ? kConvBlockLanes
                            : w >= 2             ? 2
                                                 : 1;
                const int bi = static_cast<int>(blks.size());
                blks.push_back(PackedBlock{m, lanes, offset});
                for (int f = 0; f < lanes; f++)
                    blockOfM[static_cast<size_t>(m + f)] = bi;
                offset += panel_taps * lanes;
                m += lanes;
                rem -= lanes;
            }
        }
    }

    // Fill the panels: (n, i, j, lane), values copied verbatim.
    data.resize(static_cast<size_t>(offset));
    for (const PackedBlock &b : blks) {
        float *p = data.data() + b.offset;
        for (int n = 0; n < n_; n++) {
            for (int i = 0; i < k_; i++) {
                for (int j = 0; j < k_; j++) {
                    for (int f = 0; f < b.lanes; f++)
                        *p++ = fb.w(b.m0 + f, n, i, j);
                }
            }
        }
    }
}

void
convBlockRowTensor(const ConvBlockKernel &bk, const PackedWeights &pw,
                   int bi, float *dst, int64_t dst_stride, int count,
                   const Tensor &in, int y0, int x0, int rows,
                   int64_t dst_row_stride)
{
    FLCNN_ASSERT(bk.k == pw.kernel(), "kernel mismatch with packed bank");
    const Shape &s = in.shape();
    const PackedBlock &b = pw.block(bi);
    for (int f = 0; f < b.lanes; f++) {
        const float bias = pw.bias(b.m0 + f);
        for (int r = 0; r < rows; r++) {
            float *d = dst + f * dst_stride + r * dst_row_stride;
            for (int t = 0; t < count; t++)
                d[t] = bias;
        }
    }
    bk.runRows(b.lanes, dst, dst_stride, rows, dst_row_stride, count,
               in.rowPtr(pw.nBase(bi), y0, x0),
               static_cast<int64_t>(s.h) * s.w, s.w,
               static_cast<int64_t>(bk.sx) * s.w, pw.panel(bi),
               pw.numChannels());
}

} // namespace flcnn
