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
 *
 * The region drivers get a differential sweep per tier (fp32 portable,
 * AVX2 and FMA; int8 portable, maddubs and AVX-VNNI): one call over R
 * output rows must equal R one-row calls bit for bit, for widths
 * 1..20, R 1..6, every tabled K, MR in {1, 2, 4} and a nonzero x0.
 * Every dst row sits between canaries, and each region ends flush with
 * the last row and column of its source (the int8 one with its apron),
 * so a grouped block that overreads or overwrites shows here or under
 * ASan. The i8.amx tier reads a channel-last stage and AMX panels, so
 * its case runs whole convBlockRowI8 regions against the portable
 * plane instead (checkAmxRegions). A tier this build or CPU lacks
 * reports itself skipped.
 *
 * The int8 staging quantizer simd::quantizeRowI8 gets the same sweep
 * (widths 1..40 against quantizeAct, one sentinel byte after the row,
 * the float source flush with its allocation), and the weight
 * quantizer simd::quantizeWeightsI8 one against quantizeWeight.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/conv_layer.hh"
#include "kernels/quant.hh"
#include "kernels/weight_pack.hh"
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
                            in.data(), k * pitch, pitch, wp.data(),
                            kChannels, k, s);

                        for (int seg : kSegs) {
                            ConvBlockKernel bk;
                            bk.k = k;
                            bk.sx = s;
                            bk.seg = seg;
                            bk.fn[mr] = fn;
                            std::vector<float> got = init;
                            bk.run(mr, got.data(), dst_stride, count,
                                   in.data(), k * pitch, pitch,
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
                            in.data(), k * pitch, pitch, wp.data(),
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
                                   in.data(), k * pitch, pitch,
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

/** The region geometry one differential case runs. */
struct RegionCase
{
    int k, s, mr, rows, count, x0;

    int64_t width() const
    {
        return x0 + static_cast<int64_t>(count - 1) * s + k;
    }
    int64_t height() const { return static_cast<int64_t>(rows - 1) * s + k; }
    /** dst: every lane's rows, each row between kSentinelPad canaries. */
    int64_t dstRowStride() const { return count + kSentinelPad; }
    int64_t dstLaneStride() const { return rows * dstRowStride(); }
    size_t dstElems() const
    {
        return static_cast<size_t>(mr * dstLaneStride() + kSentinelPad);
    }
    bool
    live(size_t e) const
    {
        const int64_t at = static_cast<int64_t>(e) - kSentinelPad;
        return at >= 0 && at < mr * dstLaneStride() &&
               at % dstRowStride() < count;
    }
    std::string
    name(const std::string &tier) const
    {
        return tier + " k=" + std::to_string(k) + " s=" +
               std::to_string(s) + " mr=" + std::to_string(mr) +
               " rows=" + std::to_string(rows) +
               " count=" + std::to_string(count);
    }
};

/** Run @p check on every region case of the sweep. */
template <class Check>
void
forEachRegionCase(std::initializer_list<int> strides, Check &&check)
{
    for (int s : strides)
        for (int k : kKernels)
            for (int mr : kLanes)
                for (int rows = 1; rows <= 6; rows++)
                    for (int count = 1; count <= 20; count++)
                        check(RegionCase{k, s, mr, rows, count,
                                         1 + count % 3});
}

/**
 * The region call and R one-row calls of one tier over the same
 * random case: both results must be identical, live pixels and
 * canaries alike, and every canary untouched. @p in_pitch is the
 * source row pitch; the source block ends flush with the last row's
 * last column (fp32) or its apron (int8, pitch = width + apron).
 */
template <class T, class Kernel, class W, class In>
void
checkRegion(const Kernel &bk, const RegionCase &c, const std::string &tier,
            const std::vector<In> &in, int64_t in_pitch,
            const std::vector<W> &wp, T init_value, T sentinel, Rng &rng)
{
    const int64_t ch_stride = c.height() * in_pitch;
    std::vector<T> init(c.dstElems(), sentinel);
    for (size_t e = 0; e < init.size(); e++) {
        if (c.live(e))
            init[e] = init_value + static_cast<T>(rng.next() % 64);
    }
    std::vector<T> want = init;
    for (int r = 0; r < c.rows; r++) {
        bk.run(c.mr, want.data() + kSentinelPad + r * c.dstRowStride(),
               c.dstLaneStride(), c.count,
               in.data() + r * c.s * in_pitch + c.x0, ch_stride, in_pitch,
               wp.data(), kChannels);
    }
    std::vector<T> got = init;
    bk.runRows(c.mr, got.data() + kSentinelPad, c.dstLaneStride(), c.rows,
               c.dstRowStride(), c.count, in.data() + c.x0, ch_stride, in_pitch,
               c.s * in_pitch, wp.data(), kChannels);
    for (size_t e = 0; e < got.size(); e++) {
        ASSERT_EQ(got[e], want[e])
            << c.name(tier) << " at " << e
            << (c.live(e) ? "" : " (canary)");
        if (!c.live(e)) {
            ASSERT_EQ(got[e], sentinel) << c.name(tier) << " at " << e;
        }
    }
}

/**
 * i8.amx against i8.portable through convBlockRowI8, the only way in
 * to the AMX driver (it stages channel-last, packs AMX panels and runs
 * its own epilogue): for every K, stride 1/2/4 and 1, 3, 48, 64 or 128
 * channels per group (two groups at 3 and 48), every region of 1..6
 * rows x 1..40 pixels (sampled on the widest reductions) at x0 = 1
 * must reproduce the portable plane bit for bit, with the canaries
 * around each dst row untouched. The filter count leaves a ragged
 * block (40 = 32 + 8 per group, or 20 = 16 + 4).
 */
void
checkAmxRegions()
{
    constexpr int kMaxRows = 6, kX0 = 1;
    constexpr float kCanary = -777.25f;
    const ActQuant act{1.0f / 100.0f, 120};
    Rng rng(83);
    for (int k : kKernels) {
        for (int s : {1, 2, 4}) {
            for (int cg : {1, 3, 48, 64, 128}) {
                for (int groups : {1, 2}) {
                    if (groups == 2 && cg != 3 && cg != 48)
                        continue;
                    SCOPED_TRACE("k=" + std::to_string(k) + " s=" +
                                 std::to_string(s) + " c=" +
                                 std::to_string(cg) + " groups=" +
                                 std::to_string(groups));
                    const int m = groups == 1 ? 40 : 2 * 20;
                    const int h = (kMaxRows - 1) * s + k;
                    const int w = kX0 + (kMaxCount - 1) * s + k;
                    FilterBank fb(m, cg, k);
                    fb.fillRandom(rng, -1.0f, 1.0f);
                    const std::vector<float> ws(
                        static_cast<size_t>(m), 1.0f / 63.0f);
                    Tensor in(Shape{cg * groups, h, w});
                    in.fillRandom(rng, -1.3f, 1.3f);

                    // The portable plane: kMaxRows x kMaxCount.
                    ConvStage planar;
                    planar.configure(Precision::Int8, cg * groups, h, w);
                    stageConvInputI8(planar, in, act, 0, h);
                    const ConvBlockKernelI8 ref =
                        resolveConvBlockKernelI8Scalar(k, s);
                    const PackedWeightsI8 pref(fb, groups, ws);
                    const int64_t plane = kMaxRows * kMaxCount;
                    std::vector<float> want(static_cast<size_t>(m) *
                                            plane);
                    for (int bi = 0; bi < pref.numBlocks(); bi++)
                        convBlockRowI8(ref, pref, bi,
                                       want.data() +
                                           pref.block(bi).m0 * plane,
                                       plane, kMaxCount, planar, 0, kX0,
                                       act, kMaxRows, kMaxCount);

                    const ConvBlockKernelI8 bk =
                        resolveConvBlockKernelI8Amx(k, s);
                    ASSERT_NE(bk.amx, nullptr);
                    ConvStage hwc;
                    hwc.configure(Precision::Int8, cg * groups, h, w,
                                  bk.stageGroups(groups));
                    stageConvInputI8(hwc, in, act, 0, h);
                    const PackedWeightsI8 pw(fb, groups, ws, kAmxLanes);
                    const bool wide = k * k * cg > 1000;
                    for (int rows = 1; rows <= kMaxRows; rows++) {
                        for (int count = 1; count <= kMaxCount; count++) {
                            if (wide && count % 8 > 1 && count % 8 != 7)
                                continue;
                            const int64_t pitch = count + kSentinelPad;
                            const int64_t lane = rows * pitch;
                            std::vector<float> got(
                                static_cast<size_t>(m * lane +
                                                    kSentinelPad),
                                kCanary);
                            for (int bi = 0; bi < pw.numBlocks(); bi++)
                                convBlockRowI8(
                                    bk, pw, bi,
                                    got.data() + kSentinelPad +
                                        pw.block(bi).m0 * lane,
                                    lane, count, hwc, 0, kX0, act, rows,
                                    pitch);
                            for (size_t e = 0; e < got.size(); e++) {
                                const int64_t at =
                                    static_cast<int64_t>(e) - kSentinelPad;
                                const int64_t t = at % pitch;
                                if (at < 0 || t >= count) {
                                    ASSERT_EQ(got[e], kCanary)
                                        << "canary at " << e << " rows="
                                        << rows << " count=" << count;
                                    continue;
                                }
                                const int64_t f = at / lane;
                                const int64_t r = at % lane / pitch;
                                ASSERT_EQ(got[e],
                                          want[static_cast<size_t>(
                                              f * plane + r * kMaxCount +
                                              t)])
                                    << "filter " << f << " row " << r
                                    << " pixel " << t << " rows=" << rows
                                    << " count=" << count;
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Every tier a region driver exists for, by name. */
class RegionTier : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RegionTier, RegionEqualsOneRowCallsBitForBit)
{
    const std::string tier = GetParam();
    const bool int8 = tier.rfind("i8.", 0) == 0;
    F32Lookup f32 = nullptr;
    I8Lookup i8 = nullptr;
    bool portable = false;
    if (tier == "fp32.portable" || tier == "i8.portable") {
        portable = true;
    }
#ifdef FLCNN_SIMD_AVX2
    if (simd::avx2Supported() && tier == "fp32.avx2")
        f32 = &simd::blockFn;
    if (simd::avx2Supported() && tier == "i8.maddubs")
        i8 = &simd::blockFnI8;
#endif
#ifdef FLCNN_SIMD_FMA
    if (simd::fmaSupported() && tier == "fp32.fma")
        f32 = &simd::blockFnFma;
#endif
#ifdef FLCNN_SIMD_AVXVNNI
    if (simd::avxVnniSupported() && tier == "i8.vnni")
        i8 = &simd::blockFnI8Vnni;
#endif
    if (tier == "i8.amx") {
        if (!convAmxEnabled())
            GTEST_SKIP() << tier << " is not compiled in, not supported "
                                    "by this CPU or not permitted";
        checkAmxRegions();
        return;
    }
    if (!portable && !f32 && !i8)
        GTEST_SKIP() << tier << " is not compiled in or not supported "
                                "by this CPU";

    Rng rng(79);
    if (!int8) {
        forEachRegionCase({1}, [&](const RegionCase &c) {
            ConvBlockKernel bk = resolveConvBlockKernelScalar(c.k, c.s);
            if (f32)
                bk.fn[c.mr] = f32(c.mr, c.k, c.s);
            ASSERT_NE(bk.fn[c.mr], nullptr) << c.name(tier);
            std::vector<float> wp(
                static_cast<size_t>(kChannels * c.k * c.k * c.mr));
            for (float &v : wp)
                v = rng.uniformF(-1.0f, 1.0f);
            std::vector<float> in(static_cast<size_t>(
                kChannels * c.height() * c.width()));
            for (float &v : in)
                v = rng.uniformF(-1.0f, 1.0f);
            checkRegion(bk, c, tier, in, c.width(), wp, 0.25f, kSentinelF,
                        rng);
        });
        return;
    }
    forEachRegionCase({1, 4}, [&](const RegionCase &c) {
        ConvBlockKernelI8 bk = resolveConvBlockKernelI8Scalar(c.k, c.s);
        if (i8) {
            bk.fn[c.mr] = i8(c.mr, c.k, c.s);
            ASSERT_NE(bk.fn[c.mr], nullptr) << c.name(tier);
        }
        const int jg_count = (c.k + 3) / 4;
        std::vector<int8_t> wp(
            static_cast<size_t>(kChannels * c.k * jg_count * c.mr * 4));
        for (size_t e = 0; e < wp.size(); e++) {
            const int tap =
                static_cast<int>(e / 4 / c.mr % jg_count) * 4 +
                static_cast<int>(e % 4);
            wp[e] = tap < c.k ? static_cast<int8_t>(
                                    static_cast<int>(rng.next() % 127) - 63)
                              : int8_t{0};
        }
        // Staged rows carry the ConvStage apron, which ends the block;
        // it holds noise, which only zero-weight taps may read.
        const int64_t pitch = c.width() + kConvStagePad;
        std::vector<uint8_t> in(
            static_cast<size_t>(kChannels * c.height() * pitch));
        for (uint8_t &v : in)
            v = static_cast<uint8_t>(rng.next());
        checkRegion(bk, c, tier, in, pitch, wp, int32_t{-40},
                    kSentinelI, rng);
    });
}

INSTANTIATE_TEST_SUITE_P(
    StripTail, RegionTier,
    ::testing::Values("fp32.portable", "fp32.avx2", "fp32.fma",
                      "i8.portable", "i8.maddubs", "i8.vnni",
                      "i8.amx"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string n = info.param;
        for (char &ch : n)
            if (ch == '.')
                ch = '_';
        return n;
    });

TEST(StripTail, QuantizeRowI8MatchesQuantizeActAtEveryWidth)
{
#ifdef FLCNN_SIMD_AVX2
    if (!simd::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    // Scale 1/4 makes x * inv_scale exact, so (k + 0.5) / 4 lands on a
    // true tie (round half to even). The pool also holds values past
    // both clamp edges, past the i16 range of the pack chain and past
    // int32, non-finite values, signed zeros and plain noise.
    constexpr float kInv = 4.0f;
    constexpr uint8_t kSentinelB = 0xa5;
    std::vector<float> pool;
    for (int k = -300; k <= 300; k++)
        pool.push_back((static_cast<float>(k) + 0.5f) / kInv);
    for (float v : {300.0f, 1.0e4f, 4.0e4f, 1.0e6f, 3.0e9f, 3.0e38f,
                    std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN(), 0.0f})
        for (float sign : {1.0f, -1.0f})
            pool.push_back(sign * v);
    Rng rng(74);
    for (int i = 0; i < 200; i++)
        pool.push_back(rng.uniformF(-80.0f, 80.0f));
    for (size_t i = pool.size() - 1; i > 0; i--)
        std::swap(pool[i], pool[rng.next() % (i + 1)]);

    for (int zp : {0, 1, 128, 255}) {
        for (int count = 1; count <= kMaxCount; count++) {
            for (size_t start = 0; start + static_cast<size_t>(count) <=
                                   pool.size();
                 start += static_cast<size_t>(count)) {
                // The source ends flush with its allocation (an
                // unmasked tail load shows under ASan) and one
                // sentinel byte follows the destination.
                const std::vector<float> src(
                    pool.begin() + static_cast<std::ptrdiff_t>(start),
                    pool.begin() +
                        static_cast<std::ptrdiff_t>(start + count));
                std::vector<uint8_t> dst(static_cast<size_t>(count) + 1,
                                         kSentinelB);
                simd::quantizeRowI8(dst.data(), src.data(), count, kInv,
                                    zp);
                for (int t = 0; t < count; t++) {
                    ASSERT_EQ(dst[static_cast<size_t>(t)],
                              quantizeAct(src[static_cast<size_t>(t)],
                                          kInv, zp))
                        << "count=" << count << " zp=" << zp << " x="
                        << src[static_cast<size_t>(t)];
                }
                ASSERT_EQ(dst[static_cast<size_t>(count)], kSentinelB)
                    << "count=" << count << " zp=" << zp;
            }
        }
    }
#else
    GTEST_SKIP() << "built without the AVX2 kernels";
#endif
}

TEST(StripTail, QuantizeWeightsI8MatchesQuantizeWeight)
{
#ifdef FLCNN_SIMD_AVX2
    if (!simd::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    // Scale 1/2 makes the quotient exact, so (k + 0.5) / 2 lands on
    // true ties; the pool also holds the clamp edges, quotients past
    // +/-64 and past int32, non-finite values and noise, shuffled so
    // most 8-tap groups mix in-range and out-of-range taps.
    constexpr float kScale = 0.5f;
    std::vector<float> pool;
    for (int k = -140; k <= 140; k++)
        pool.push_back((static_cast<float>(k) + 0.5f) * kScale);
    for (float v : {31.5f, 32.0f, 32.25f, 1.0e3f, 3.0e9f, 3.0e38f,
                    std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN(), 0.0f})
        for (float sign : {1.0f, -1.0f})
            pool.push_back(sign * v);
    Rng rng(75);
    for (int i = 0; i < 200; i++)
        pool.push_back(rng.uniformF(-31.0f, 31.0f));
    for (size_t i = pool.size() - 1; i > 0; i--)
        std::swap(pool[i], pool[rng.next() % (i + 1)]);
    for (int count = 1; count <= kMaxCount; count++) {
        for (size_t start = 0;
             start + static_cast<size_t>(count) <= pool.size();
             start += static_cast<size_t>(count)) {
            std::vector<int8_t> got(static_cast<size_t>(count) + 1, 99);
            simd::quantizeWeightsI8(got.data(), pool.data() + start,
                                    count, kScale);
            for (int t = 0; t < count; t++)
                ASSERT_EQ(got[static_cast<size_t>(t)],
                          quantizeWeight(pool[start + t], kScale))
                    << "count=" << count << " w=" << pool[start + t];
            ASSERT_EQ(got[static_cast<size_t>(count)], 99);
        }
    }
    // In-range groups take the vector path.
    const std::vector<float> ramp = {-31.75f, -0.25f, 0.25f, 0.75f,
                                     1.25f,   15.5f,  31.5f, 31.75f};
    std::vector<int8_t> got(8);
    simd::quantizeWeightsI8(got.data(), ramp.data(), 8, kScale);
    for (int t = 0; t < 8; t++)
        EXPECT_EQ(got[static_cast<size_t>(t)],
                  quantizeWeight(ramp[static_cast<size_t>(t)], kScale));
#else
    GTEST_SKIP() << "built without the AVX2 kernels";
#endif
}

TEST(StripTail, ApronCoversTheWidestTailOverread)
{
    // The int8 TUs static_assert this per instantiated (K, stride);
    // restated here with the hand-derived worst cases.
    EXPECT_EQ(simd::i8TailOverread(11, 1), 13);
    EXPECT_EQ(simd::i8TailOverread(11, 4), 29);
    EXPECT_EQ(simd::i8HalfOverread(11, 1), 5);
    EXPECT_EQ(simd::i8HalfOverread(11, 4), 13);
    for (int k : kKernels) {
        for (int s : {1, 4}) {
            EXPECT_LE(simd::i8TailOverread(k, s), kConvStagePad)
                << "k=" << k << " s=" << s;
            EXPECT_GE(simd::i8TailOverread(k, s), 0);
            EXPECT_LE(simd::i8HalfOverread(k, s),
                      simd::i8TailOverread(k, s))
                << "k=" << k << " s=" << s;
            EXPECT_GE(simd::i8HalfOverread(k, s), 0);
        }
    }
}

} // namespace
} // namespace flcnn
