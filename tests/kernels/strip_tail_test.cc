/**
 * @file
 * Tail sweep for the vector strip kernels. Every vector tier compiled
 * in and supported by the CPU (fp32 AVX2, fp32 FMA, int8 maddubs,
 * int8 AVX-VNNI) is called directly through its simd:: entry point
 * for every tabled (K, stride), lane count MR in {1, 2, 4}, strip
 * width 1..40 and segment width {0, 5, 8, 13}, and compared with the
 * portable generic block. Widths below 8 and every count % 8 exercise
 * the masked tail block.
 *
 * Each dst lane row is followed by 8 sentinel slots (dst_stride =
 * count + 8), which must come back untouched: a tail that stored a
 * whole vector would clobber them, and with them the next lane's row
 * or the next output row of a full plane. The fp32 source ends flush
 * with its allocation and the int8 source with its ConvStage-sized
 * apron, so an unmasked overread past either shows under ASan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/conv_layer.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

constexpr int kKernels[] = {1, 3, 5, 7, 11};
constexpr int kLanes[] = {1, 2, 4};
constexpr int kSegs[] = {0, 5, 8, 13};
constexpr int kMaxCount = 40;
constexpr int kChannels = 2;
constexpr int kSentinelPad = 8;
constexpr float kSentinelF = -12345.5f;
constexpr int32_t kSentinelI = 0x5a5a5a5a;

using F32Lookup = ConvBlockStripFn (*)(int mr, int kernel, int stride);
using I8Lookup = ConvBlockStripI8Fn (*)(int mr, int kernel, int stride);

struct F32Tier
{
    const char *name;
    F32Lookup lookup;
    int maxUlp;  //!< 0 = bit-exact
};

struct I8Tier
{
    const char *name;
    I8Lookup lookup;
};

/** The fp32 vector tiers this build and CPU can run. */
std::vector<F32Tier>
f32Tiers()
{
    std::vector<F32Tier> tiers;
#ifdef FLCNN_SIMD_AVX2
    if (simd::avx2Supported())
        tiers.push_back({"fp32.avx2", &simd::blockFn, 0});
#endif
#ifdef FLCNN_SIMD_FMA
    // Positive data below, so the FastMathUlp suite's fixed bound
    // applies.
    if (simd::fmaSupported())
        tiers.push_back({"fp32.fma", &simd::blockFnFma, 16});
#endif
    return tiers;
}

/** The int8 vector tiers this build and CPU can run. */
std::vector<I8Tier>
i8Tiers()
{
    std::vector<I8Tier> tiers;
#ifdef FLCNN_SIMD_AVX2
    if (simd::avx2Supported())
        tiers.push_back({"i8.maddubs", &simd::blockFnI8});
#endif
#ifdef FLCNN_SIMD_AVXVNNI
    if (simd::avxVnniSupported())
        tiers.push_back({"i8.vnni", &simd::blockFnI8Vnni});
#endif
    return tiers;
}

std::string
caseName(const char *tier, int k, int s, int mr, int count, int seg)
{
    return std::string(tier) + " k=" + std::to_string(k) +
           " s=" + std::to_string(s) + " mr=" + std::to_string(mr) +
           " count=" + std::to_string(count) +
           " seg=" + std::to_string(seg);
}

/** Kernel-row offsets for kChannels x k rows of @p pitch elements. */
void
rowOffsets(int64_t *row_off, int k, int64_t pitch)
{
    for (int i = 0; i < k; i++)
        row_off[i] = i * pitch;
}

TEST(StripTail, Fp32VectorTiersMatchGenericAtEveryWidth)
{
    const std::vector<F32Tier> tiers = f32Tiers();
    if (tiers.empty())
        GTEST_SKIP() << "no fp32 vector tier on this host";

    Rng rng(71);
    for (const F32Tier &tier : tiers) {
        for (int k : kKernels) {
            for (int s : {1, 2, 4}) {
                for (int mr : kLanes) {
                    const ConvBlockStripFn fn = tier.lookup(mr, k, s);
                    ASSERT_NE(fn, nullptr)
                        << tier.name << " k=" << k << " s=" << s;
                    std::vector<float> wp(static_cast<size_t>(
                        kChannels * k * k * mr));
                    for (float &v : wp)
                        v = rng.uniformF(0.5f, 1.5f);
                    for (int count = 1; count <= kMaxCount; count++) {
                        // Rows of exactly the receptive width, the last
                        // row of the last channel ending the heap block.
                        const int64_t pitch =
                            static_cast<int64_t>(count - 1) * s + k;
                        std::vector<float> in(static_cast<size_t>(
                            kChannels * k * pitch));
                        for (float &v : in)
                            v = rng.uniformF(0.5f, 1.5f);
                        int64_t row_off[kMaxConvKernel];
                        rowOffsets(row_off, k, pitch);

                        const int64_t dst_stride = count + kSentinelPad;
                        std::vector<float> init(
                            static_cast<size_t>(mr * dst_stride),
                            kSentinelF);
                        for (int f = 0; f < mr; f++)
                            for (int t = 0; t < count; t++)
                                init[static_cast<size_t>(
                                    f * dst_stride + t)] =
                                    rng.uniformF(0.5f, 1.5f);
                        std::vector<float> want = init;
                        ConvBlockKernel::convBlockStripGeneric(
                            mr, want.data(), dst_stride, count,
                            in.data(), k * pitch, row_off, wp.data(),
                            kChannels, k, s);

                        for (int seg : kSegs) {
                            ConvBlockKernel bk;
                            bk.k = k;
                            bk.sx = s;
                            bk.seg = seg;
                            bk.fn[mr] = fn;
                            std::vector<float> got = init;
                            bk.run(mr, got.data(), dst_stride, count,
                                   in.data(), k * pitch, row_off,
                                   wp.data(), kChannels);
                            const std::string what = caseName(
                                tier.name, k, s, mr, count, seg);
                            for (size_t e = 0; e < got.size(); e++) {
                                const bool live =
                                    static_cast<int64_t>(e) % dst_stride <
                                    count;
                                if (!live || tier.maxUlp == 0) {
                                    ASSERT_EQ(got[e], want[e])
                                        << what << " at " << e
                                        << (live ? "" : " (sentinel)");
                                } else {
                                    ASSERT_LE(ulpDistance(got[e],
                                                          want[e]),
                                              tier.maxUlp)
                                        << what << " at " << e;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(StripTail, Int8VectorTiersMatchGenericAtEveryWidth)
{
    const std::vector<I8Tier> tiers = i8Tiers();
    if (tiers.empty())
        GTEST_SKIP() << "no int8 vector tier on this host";

    Rng rng(73);
    for (const I8Tier &tier : tiers) {
        for (int k : kKernels) {
            const int jg_count = (k + 3) / 4;
            for (int s : {1, 4}) {
                for (int mr : kLanes) {
                    const ConvBlockStripI8Fn fn = tier.lookup(mr, k, s);
                    ASSERT_NE(fn, nullptr)
                        << tier.name << " k=" << k << " s=" << s;
                    // Panel in ((n*K + i)*JG + jg)*MR*4 + f*4 + u order,
                    // clamped to +/-63 and zero on padded taps, as
                    // PackedWeightsI8 lays it out.
                    std::vector<int8_t> wp(static_cast<size_t>(
                        kChannels * k * jg_count * mr * 4));
                    for (size_t e = 0; e < wp.size(); e++) {
                        const int tap =
                            static_cast<int>(e / 4 / mr % jg_count) * 4 +
                            static_cast<int>(e % 4);
                        wp[e] = tap < k
                                    ? static_cast<int8_t>(
                                          static_cast<int>(
                                              rng.next() % 127) -
                                          63)
                                    : int8_t{0};
                    }
                    for (int count = 1; count <= kMaxCount; count++) {
                        // Staged rows: receptive width plus the
                        // ConvStage apron, which ends the heap block.
                        // The apron holds noise rather than zeros —
                        // only padded (zero-weight) taps may read it.
                        const int64_t width =
                            static_cast<int64_t>(count - 1) * s + k;
                        const int64_t pitch = width + kConvStagePad;
                        std::vector<uint8_t> in(static_cast<size_t>(
                            kChannels * k * pitch));
                        for (uint8_t &v : in)
                            v = static_cast<uint8_t>(rng.next());
                        int64_t row_off[kMaxConvKernel];
                        rowOffsets(row_off, k, pitch);

                        const int64_t dst_stride = count + kSentinelPad;
                        std::vector<int32_t> init(
                            static_cast<size_t>(mr * dst_stride),
                            kSentinelI);
                        for (int f = 0; f < mr; f++)
                            for (int t = 0; t < count; t++)
                                init[static_cast<size_t>(
                                    f * dst_stride + t)] =
                                    static_cast<int32_t>(
                                        rng.next() % (1 << 20)) -
                                    (1 << 19);
                        std::vector<int32_t> want = init;
                        ConvBlockKernelI8::convBlockStripI8Generic(
                            mr, want.data(), dst_stride, count,
                            in.data(), k * pitch, row_off, wp.data(),
                            kChannels, k, s);

                        for (int seg : kSegs) {
                            ConvBlockKernelI8 bk;
                            bk.k = k;
                            bk.k4 = jg_count * 4;
                            bk.sx = s;
                            bk.seg = seg;
                            bk.fn[mr] = fn;
                            std::vector<int32_t> got = init;
                            bk.run(mr, got.data(), dst_stride, count,
                                   in.data(), k * pitch, row_off,
                                   wp.data(), kChannels);
                            ASSERT_EQ(got, want) << caseName(
                                tier.name, k, s, mr, count, seg);
                        }
                    }
                }
            }
        }
    }
}

TEST(StripTail, ApronCoversTheWidestTailOverread)
{
    // The int8 TUs static_assert this per instantiated (K, stride);
    // restated here with the hand-derived worst cases.
    EXPECT_EQ(simd::i8TailOverread(11, 1), 13);
    EXPECT_EQ(simd::i8TailOverread(11, 4), 29);
    for (int k : kKernels) {
        for (int s : {1, 4}) {
            EXPECT_LE(simd::i8TailOverread(k, s), kConvStagePad)
                << "k=" << k << " s=" << s;
            EXPECT_GE(simd::i8TailOverread(k, s), 0);
        }
    }
}

} // namespace
} // namespace flcnn
