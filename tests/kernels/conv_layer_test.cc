/**
 * @file
 * The conv-layer driver runConvRows() on every kernel tier the host
 * has: the same bits outside a parallel region (row group by row
 * group, split over a two-thread pool) as inside one (inline, filter
 * block by filter block), as one call per output row, and as each
 * block's rows through the row drivers over a stage of the whole
 * source, for 1..6 rows x 1..40 pixels, ReLU on and off, a receptive
 * field that starts at a nonzero source row and column, and canary
 * rows and columns around every destination row. A tier this build or
 * CPU lacks reports itself skipped.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/conv_layer.hh"
#include "kernels/relu.hh"

namespace flcnn {
namespace {

constexpr int kMaxRows = 6;
constexpr int kMaxCount = 40;
constexpr int kChannels = 3;
constexpr int kY0 = 1, kX0 = 2;
constexpr float kCanary = -777.25f;

/** Resolve @p tier's kernels for (k, s) into @p layer; false when
 *  this build or CPU lacks the tier. */
bool
resolveTier(const std::string &tier, int k, int s, ConvLayerRun *layer)
{
    if (tier == "fp32.portable")
        layer->bk = resolveConvBlockKernelScalar(k, s);
    else if (tier == "fp32.avx2" && convSimdEnabled())
        layer->bk = resolveConvBlockKernel(k, s);
    else if (tier == "fp32.fma" && convFmaEnabled())
        layer->bk = resolveConvBlockKernelFast(k, s);
    else if (tier == "fp16")
        layer->bk = resolveConvBlockKernel(k, s);
    else if (tier == "i8.portable")
        layer->bkI8 = resolveConvBlockKernelI8Scalar(k, s);
    else if (tier == "i8.vnni" && convVnniEnabled())
        layer->bkI8 = resolveConvBlockKernelI8(k, s);
    else if (tier == "i8.amx" && convAmxEnabled())
        layer->bkI8 = resolveConvBlockKernelI8Amx(k, s);
#ifdef FLCNN_SIMD_AVX2
    else if (tier == "i8.maddubs" && simd::avx2Supported()) {
        // resolveConvBlockKernelI8 upgrades to vpdpbusd where it can;
        // the maddubs blocks are reached through their own table.
        layer->bkI8 = resolveConvBlockKernelI8Scalar(k, s);
        for (int mr = 1; mr <= kConvBlockLanes; mr++)
            layer->bkI8.fn[mr] = simd::blockFnI8(mr, k, s);
        if (layer->bkI8.fn[1])
            layer->bkI8.vecW = 8;
    }
#endif
    else
        return false;
    return true;
}

/** RAII: a two-thread pool for the scope, then the default again. */
class TwoThreads
{
  public:
    TwoThreads() { ThreadPool::setGlobalThreads(2); }
    ~TwoThreads() { ThreadPool::setGlobalThreads(0); }
};

/** Every tier the driver runs, by name. */
class ConvRowsTier : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ConvRowsTier, SameBitsInAndOutsideAParallelRegion)
{
    const std::string tier = GetParam();
    const bool int8 = tier.rfind("i8.", 0) == 0;
    const bool amx = tier == "i8.amx";
    const int filters = amx ? kAmxLanes + 8 : 7;
    const TwoThreads pool;
    Rng rng(97);
    for (auto [k, s] : {std::pair{3, 1}, std::pair{5, 4}}) {
        ConvLayerRun layer;
        if (!resolveTier(tier, k, s, &layer))
            GTEST_SKIP() << tier << " is not compiled in or not supported "
                                    "by this CPU";
        FilterBank fb(filters, kChannels, k);
        fb.fillRandom(rng, -1.0f, 1.0f);
        Tensor src(Shape{kChannels, kY0 + (kMaxRows - 1) * s + k + 1,
                         kX0 + (kMaxCount - 1) * s + k + 1});
        src.fillRandom(rng, -1.0f, 1.0f);
        std::optional<PackedWeights> pw;
        std::optional<PackedWeightsF16> pw16;
        std::optional<PackedWeightsI8> pw8;
        if (int8) {
            layer.act = chooseActQuant(-1.0f, 1.0f);
            layer.pwI8 = &pw8.emplace(
                fb, 1, std::vector<float>(filters, 1.0f / 63.0f),
                amx ? kAmxLanes : kConvBlockLanes);
        } else if (tier == "fp16") {
            layer.pwF16 = &pw16.emplace(fb, 1);
        } else {
            layer.pw = &pw.emplace(fb);
        }
        // The oracle's stage holds the whole source, staged once.
        const Shape &sh = src.shape();
        ConvStage whole;
        if (int8) {
            whole.configure(Precision::Int8, sh.c, sh.h, sh.w,
                            layer.bkI8.stageGroups(1));
            stageConvInputI8(whole, src, layer.act, 0, sh.h);
        } else if (pw16) {
            whole.configure(Precision::Fp16, sh.c, sh.h, sh.w);
            stageConvInputF16(whole, src, 0, sh.h);
        }
        for (bool relu : {false, true}) {
            layer.relu = relu;
            for (int oh = 1; oh <= kMaxRows; oh++) {
                for (int ow = 1; ow <= kMaxCount; ow++) {
                    SCOPED_TRACE(tier + " k=" + std::to_string(k) +
                                 " s=" + std::to_string(s) +
                                 " relu=" + std::to_string(relu) +
                                 " rows=" + std::to_string(oh) +
                                 " count=" + std::to_string(ow));
                    // A canary row above and below each filter's rows
                    // and three canary columns after each row.
                    const int64_t pitch = ow + 3;
                    const int64_t plane = (oh + 2) * pitch;
                    // A fresh stage per run, so a row the driver fails
                    // to stage cannot be left over from an earlier run.
                    const auto run = [&](bool inline_items, int rows) {
                        ConvStage stage;
                        std::vector<float> dst(
                            static_cast<size_t>(filters * plane),
                            kCanary);
                        std::optional<ThreadPool::InlineScope> scope;
                        if (inline_items)
                            scope.emplace();
                        for (int r = 0; r < oh; r += rows)
                            runConvRows(layer, src, kY0 + r * s, kX0, rows,
                                        ow, dst.data() + (r + 1) * pitch,
                                        plane, pitch, stage);
                        return dst;
                    };
                    // Each block's rows one at a time through the row
                    // drivers, then the ReLU over the whole plane.
                    const auto oracle = [&] {
                        std::vector<float> dst(
                            static_cast<size_t>(filters * plane),
                            kCanary);
                        const int nb = pw8    ? pw8->numBlocks()
                                       : pw16 ? pw16->numBlocks()
                                              : pw->numBlocks();
                        for (int bi = 0; bi < nb; bi++) {
                            const int m0 = pw8    ? pw8->block(bi).m0
                                           : pw16 ? pw16->block(bi).m0
                                                  : pw->block(bi).m0;
                            for (int r = 0; r < oh; r++) {
                                float *d = dst.data() + m0 * plane +
                                           (r + 1) * pitch;
                                const int y = kY0 + r * s;
                                if (pw8)
                                    convBlockRowI8(layer.bkI8, *pw8, bi, d,
                                                   plane, ow, whole, y, kX0,
                                                   layer.act);
                                else if (pw16)
                                    convBlockRowF16(layer.bk, *pw16, bi, d,
                                                    plane, ow, whole, y,
                                                    kX0);
                                else
                                    convBlockRowTensor(layer.bk, *pw, bi, d,
                                                       plane, ow, src, y,
                                                       kX0);
                            }
                        }
                        for (int m = 0; relu && m < filters; m++)
                            reluRows(dst.data() + m * plane + pitch, pitch,
                                     oh, ow);
                        return dst;
                    };
                    const std::vector<float> pooled = run(false, oh);
                    const std::vector<float> inlined = run(true, oh);
                    const std::vector<float> by_row = run(false, 1);
                    const std::vector<float> want = oracle();
                    for (size_t e = 0; e < pooled.size(); e++) {
                        const int64_t r =
                            static_cast<int64_t>(e) % plane / pitch - 1;
                        const int64_t t = static_cast<int64_t>(e) % pitch;
                        if (r < 0 || r >= oh || t >= ow)
                            ASSERT_EQ(pooled[e], kCanary)
                                << "canary at " << e;
                        else
                            ASSERT_NE(pooled[e], kCanary)
                                << "unwritten at " << e;
                        ASSERT_EQ(std::bit_cast<uint32_t>(pooled[e]),
                                  std::bit_cast<uint32_t>(inlined[e]))
                            << "inside a parallel region, at " << e;
                        ASSERT_EQ(std::bit_cast<uint32_t>(pooled[e]),
                                  std::bit_cast<uint32_t>(by_row[e]))
                            << "one row per call, at " << e;
                        ASSERT_EQ(std::bit_cast<uint32_t>(pooled[e]),
                                  std::bit_cast<uint32_t>(want[e]))
                            << "against the row drivers, at " << e;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConvLayer, ConvRowsTier,
    ::testing::Values("fp32.portable", "fp32.avx2", "fp32.fma", "fp16",
                      "i8.portable", "i8.maddubs", "i8.vnni", "i8.amx"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string n = info.param;
        for (char &ch : n)
            if (ch == '.')
                ch = '_';
        return n;
    });

} // namespace
} // namespace flcnn
