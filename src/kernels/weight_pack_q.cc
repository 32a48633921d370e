/**
 * @file
 * Quantized / reduced-precision packed weight banks (declared in
 * kernels/weight_pack.hh): int8 panels for the maddubs strip kernels
 * and binary16 banks decoded to an fp32 shadow for the fp16 mode.
 */

#include "kernels/weight_pack.hh"

#include <algorithm>

#include "common/logging.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/fp16.hh"
#include "kernels/quant.hh"

namespace flcnn {

namespace {

/**
 * Enumerate the 4/2/1 lane ladder over @p m filters in @p groups
 * groups (PackedWeights' ladder without the accelerator m-tile), with
 * @p taps_per_lane panel elements per lane and the widest rung capped
 * at @p mr_cap. Fills @p blks and @p block_of_m, returns total panel
 * elements.
 */
int64_t
ladderBlocks(int m, int groups, int64_t taps_per_lane, int mr_cap,
             std::vector<PackedBlock> &blks, std::vector<int> &block_of_m)
{
    const int m_per_group = m / groups;
    const int cap = std::min(std::max(mr_cap, 1), kConvBlockLanes);
    block_of_m.resize(static_cast<size_t>(m));
    int64_t offset = 0;
    for (int g = 0; g < groups; g++) {
        int mi = g * m_per_group;
        int rem = m_per_group;
        while (rem > 0) {
            const int w = std::min(rem, cap);
            int lanes = w >= kConvBlockLanes ? kConvBlockLanes
                        : w >= 2             ? 2
                                             : 1;
            const int bi = static_cast<int>(blks.size());
            blks.push_back(PackedBlock{mi, lanes, offset});
            for (int f = 0; f < lanes; f++)
                block_of_m[static_cast<size_t>(mi + f)] = bi;
            offset += taps_per_lane * lanes;
            mi += lanes;
            rem -= lanes;
        }
    }
    return offset;
}

} // namespace

PackedWeightsI8::PackedWeightsI8(const FilterBank &fb, int groups,
                                 const std::vector<float> &w_scales,
                                 int mr_cap)
    : m_(fb.numFilters()), n_(fb.numChannels()), k_(fb.kernel()),
      k4_((fb.kernel() + 3) & ~3)
{
    FLCNN_ASSERT(groups >= 1 && m_ % groups == 0,
                 "filters must divide evenly into groups");
    FLCNN_ASSERT(static_cast<int>(w_scales.size()) == m_,
                 "need one weight scale per filter");
    mPerGroup = m_ / groups;

    biases.resize(static_cast<size_t>(m_));
    scales = w_scales;
    wsums.assign(static_cast<size_t>(m_), 0);
    for (int m = 0; m < m_; m++)
        biases[static_cast<size_t>(m)] = fb.bias(m);

    // Quantize every tap once, filter-major (m, n, i, j) like the bank,
    // and take the zero-point sums; the layouts below only move bytes.
    const int64_t taps = static_cast<int64_t>(n_) * k_ * k_;
    std::vector<int8_t> q(static_cast<size_t>(m_ * taps));
    for (int m = 0; m < m_; m++) {
        int8_t *qm = q.data() + m * taps;
        const float *w = fb.wRow(m, 0, 0);
        const float ws = scales[static_cast<size_t>(m)];
#ifdef FLCNN_SIMD_AVX2
        if (simd::avx2Supported())
            simd::quantizeWeightsI8(qm, w, static_cast<int>(taps), ws);
        else
#endif
            for (int64_t t = 0; t < taps; t++)
                qm[t] = quantizeWeight(w[t], ws);
        for (int64_t t = 0; t < taps; t++)
            wsums[static_cast<size_t>(m)] += qm[t];
    }
    if (mr_cap == kAmxLanes) {
        packAmx(q.data(), groups);
        return;
    }

    const int64_t taps_per_lane =
        static_cast<int64_t>(n_) * k_ * k4_;
    const int64_t total = ladderBlocks(m_, groups, taps_per_lane,
                                       mr_cap, blks, blockOfM);
    data.assign(static_cast<size_t>(total), 0);

    // Fill the panels: ((n*K + i)*(K4/4) + jg) * (lanes*4) + f*4 + u.
    // Padded taps (jg*4 + u >= K) stay zero so the kernels can walk
    // full 4-groups without edge tests.
    const int jg_count = k4_ / 4;
    for (const PackedBlock &b : blks) {
        int8_t *p = data.data() + b.offset;
        for (int n = 0; n < n_; n++) {
            for (int i = 0; i < k_; i++) {
                for (int jg = 0; jg < jg_count; jg++) {
                    for (int f = 0; f < b.lanes; f++) {
                        const int8_t *qrow =
                            q.data() + (b.m0 + f) * taps +
                            (static_cast<int64_t>(n) * k_ + i) * k_;
                        for (int u = 0; u < 4; u++) {
                            const int j = jg * 4 + u;
                            *p++ = j < k_ ? qrow[j] : int8_t{0};
                        }
                    }
                }
            }
        }
    }
}

void
PackedWeightsI8::packAmx(const int8_t *q, int groups)
{
    constexpr int kHalf = 16, kChunk = 64, kTile = kHalf * kChunk;
    amxChunks_ = (k_ * n_ + kChunk - 1) / kChunk;  // per kernel row
    const int64_t taps = static_cast<int64_t>(n_) * k_ * k_;
    blockOfM.resize(static_cast<size_t>(m_));
    int64_t offset = 0;
    for (int g = 0; g < groups; g++) {
        for (int m0 = g * mPerGroup; m0 < (g + 1) * mPerGroup;
             m0 += kAmxLanes) {
            const int lanes = std::min(kAmxLanes, (g + 1) * mPerGroup - m0);
            for (int f = 0; f < lanes; f++)
                blockOfM[static_cast<size_t>(m0 + f)] =
                    static_cast<int>(blks.size());
            blks.push_back(PackedBlock{m0, lanes, offset});
            const int halves = (lanes + kHalf - 1) / kHalf;
            offset += static_cast<int64_t>(k_) * amxChunks_ * halves * kTile;
        }
    }
    data.assign(static_cast<size_t>(offset), 0);
    for (const PackedBlock &b : blks) {
        const int halves = (b.lanes + kHalf - 1) / kHalf;
        for (int f = 0; f < b.lanes; f++) {
            const int8_t *qm = q + (b.m0 + f) * taps;
            int8_t *lane = data.data() + b.offset + f / kHalf * kTile +
                           f % kHalf * 4;
            for (int i = 0; i < k_; i++) {
                int8_t *row = lane + static_cast<int64_t>(i) * amxChunks_ *
                                         halves * kTile;
                for (int j = 0; j < k_; j++) {
                    for (int n = 0; n < n_; n++) {
                        const int bb = j * n_ + n;
                        row[bb / kChunk * halves * kTile +
                            bb % kChunk / 4 * kChunk + bb % 4] =
                            qm[(static_cast<int64_t>(n) * k_ + i) * k_ + j];
                    }
                }
            }
        }
    }
}

PackedWeightsF16::PackedWeightsF16(const FilterBank &fb, int groups,
                                   int mr_cap)
    : m_(fb.numFilters()), n_(fb.numChannels()), k_(fb.kernel())
{
    FLCNN_ASSERT(groups >= 1 && m_ % groups == 0,
                 "filters must divide evenly into groups");
    mPerGroup = m_ / groups;

    biases.resize(static_cast<size_t>(m_));
    for (int m = 0; m < m_; m++)
        biases[static_cast<size_t>(m)] =
            roundToHalf(fb.bias(m));

    const int64_t taps_per_lane =
        static_cast<int64_t>(n_) * k_ * k_;
    const int64_t total = ladderBlocks(m_, groups, taps_per_lane,
                                       mr_cap, blks, blockOfM);
    bits.resize(static_cast<size_t>(total));
    decoded.resize(static_cast<size_t>(total));

    // Fill the panels in the fp32 (n, i, j, lane) layout: the half
    // bits are the storage form, the exact fp32 decode feeds the
    // ordinary strip kernels.
    for (const PackedBlock &b : blks) {
        uint16_t *ph = bits.data() + b.offset;
        float *pd = decoded.data() + b.offset;
        for (int n = 0; n < n_; n++) {
            for (int i = 0; i < k_; i++) {
                for (int j = 0; j < k_; j++) {
                    for (int f = 0; f < b.lanes; f++) {
                        const uint16_t h =
                            floatToHalf(fb.w(b.m0 + f, n, i, j));
                        *ph++ = h;
                        *pd++ = halfToFloat(h);
                    }
                }
            }
        }
    }
}

} // namespace flcnn
