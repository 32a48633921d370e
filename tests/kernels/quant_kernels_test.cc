/**
 * @file
 * Numeric foundations of the precision modes: the binary16 converters
 * (exhaustive round-trip + round-to-nearest-even spot checks), the
 * quantization parameter helpers (including degenerate ranges), and
 * the int8 strip kernels — vector and generic paths must produce
 * identical exact i32 accumulators, and the full staged row driver
 * must equal an independent naive evaluation bit for bit.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/conv_layer.hh"
#include "kernels/fp16.hh"
#include "kernels/quant.hh"
#include "kernels/weight_pack.hh"
#include "tensor/tensor.hh"

namespace flcnn {
namespace {

// ---------------------------------------------------------------------
// binary16 converters

TEST(Fp16, RoundTripIsIdentityForEveryHalfPattern)
{
    // half -> float is exact, so float -> half must restore every one
    // of the 65536 bit patterns (NaNs stay NaN; payload may differ).
    for (uint32_t bits = 0; bits < 0x10000; bits++) {
        const uint16_t h = static_cast<uint16_t>(bits);
        const float f = halfToFloat(h);
        const uint16_t back = floatToHalf(f);
        const bool is_nan = (h & 0x7c00) == 0x7c00 && (h & 0x03ff) != 0;
        if (is_nan) {
            EXPECT_TRUE(std::isnan(f)) << "bits=" << bits;
            EXPECT_EQ(back & 0x7c00, 0x7c00) << "bits=" << bits;
            EXPECT_NE(back & 0x03ff, 0) << "bits=" << bits;
        } else {
            EXPECT_EQ(back, h) << "bits=" << bits;
        }
    }
}

TEST(Fp16, KnownValues)
{
    EXPECT_EQ(floatToHalf(0.0f), 0x0000);
    EXPECT_EQ(floatToHalf(-0.0f), 0x8000);
    EXPECT_EQ(floatToHalf(1.0f), 0x3c00);
    EXPECT_EQ(floatToHalf(-2.0f), 0xc000);
    EXPECT_EQ(floatToHalf(65504.0f), 0x7bff);   // largest finite half
    EXPECT_EQ(floatToHalf(65536.0f), 0x7c00);   // overflows to +inf
    EXPECT_EQ(floatToHalf(-1e30f), 0xfc00);     // -inf
    EXPECT_EQ(floatToHalf(5.9604645e-8f), 0x0001);  // smallest subnormal
    EXPECT_FLOAT_EQ(halfToFloat(0x3c00), 1.0f);
    EXPECT_FLOAT_EQ(halfToFloat(0x0001), 5.9604645e-8f);
    EXPECT_TRUE(std::isinf(halfToFloat(0x7c00)));
}

TEST(Fp16, RoundsToNearestEven)
{
    // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10):
    // ties go to the even significand, 1.0.
    EXPECT_EQ(floatToHalf(1.0f + 0x1p-11f), 0x3c00);
    // 1 + 3*2^-11 ties between 1+2^-10 and 1+2^-9: even is 1+2^-9.
    EXPECT_EQ(floatToHalf(1.0f + 3 * 0x1p-11f), 0x3c02);
    // Anything past the halfway point rounds up.
    EXPECT_EQ(floatToHalf(1.0f + 0x1p-11f + 0x1p-20f), 0x3c01);
    // roundToHalf is the composition.
    EXPECT_FLOAT_EQ(roundToHalf(1.0f + 0x1p-11f), 1.0f);
}

TEST(Fp16, RoundTripIsIdentityOnRandomFloats)
{
    // floatToHalf(halfToFloat(floatToHalf(x))) == floatToHalf(x):
    // rounding through half is idempotent.
    Rng rng(31);
    for (int i = 0; i < 10000; i++) {
        const float x = rng.uniformF(-100.0f, 100.0f);
        const float r = roundToHalf(x);
        EXPECT_EQ(roundToHalf(r), r) << "x=" << x;
        // |x - r| <= 2^-11 * |x| for normal halves.
        EXPECT_LE(std::fabs(x - r), std::fabs(x) * 0x1p-10f + 1e-7f);
    }
}

// ---------------------------------------------------------------------
// quantization parameters

TEST(Quant, ActQuantCoversRangeAndZero)
{
    const ActQuant q = chooseActQuant(-1.0f, 1.0f);
    EXPECT_FLOAT_EQ(q.scale, 2.0f / 255.0f);
    // 0.0 quantizes exactly to the zero point.
    EXPECT_EQ(quantizeAct(0.0f, 1.0f / q.scale, q.zp), q.zp);
    // Range ends land within one step of the ends of [0, 255] (the
    // scale itself rounds to float, so the exact endpoint can fall
    // just inside the grid).
    EXPECT_LE(quantizeAct(-1.0f, 1.0f / q.scale, q.zp), 1);
    EXPECT_GE(quantizeAct(1.0f, 1.0f / q.scale, q.zp), 254);
    // All-positive observed range still includes zero.
    const ActQuant p = chooseActQuant(0.5f, 2.0f);
    EXPECT_FLOAT_EQ(p.scale, 2.0f / 255.0f);
    EXPECT_EQ(p.zp, 0);
}

TEST(Quant, DegenerateRangesFallBackToUnitScale)
{
    for (auto [mn, mx] : {std::pair<float, float>{0.0f, 0.0f},
                          {5.0f, 5.0f},   // widened to [0, 5]: fine
                          {1.0f, -1.0f}}) {
        const ActQuant q = chooseActQuant(mn, mx);
        EXPECT_GT(q.scale, 0.0f) << mn << "," << mx;
        EXPECT_TRUE(std::isfinite(q.scale)) << mn << "," << mx;
        EXPECT_GE(q.zp, 0);
        EXPECT_LE(q.zp, 255);
    }
    EXPECT_FLOAT_EQ(chooseActQuant(0.0f, 0.0f).scale, 1.0f);
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_FLOAT_EQ(chooseActQuant(-inf, inf).scale, 1.0f);
    EXPECT_FLOAT_EQ(chooseWeightScale(0.0f), 1.0f);
    EXPECT_FLOAT_EQ(chooseWeightScale(6.3f), 0.1f);
}

TEST(Quant, ActQuantRoundsHalfToEvenAndCodesNonFinite)
{
    // Scale 1/2: x * 2 is exact, so these are true ties.
    EXPECT_EQ(quantizeAct(0.25f, 2.0f, 10), 10);   // 0.5 -> 0
    EXPECT_EQ(quantizeAct(0.75f, 2.0f, 10), 12);   // 1.5 -> 2
    EXPECT_EQ(quantizeAct(-0.25f, 2.0f, 10), 10);  // -0.5 -> -0
    EXPECT_EQ(quantizeAct(-0.75f, 2.0f, 10), 8);   // -1.5 -> -2
    EXPECT_EQ(quantizeAct(-0.0f, 2.0f, 10), 10);
    // Past both clamp edges, at any magnitude.
    EXPECT_EQ(quantizeAct(200.0f, 2.0f, 10), 255);
    EXPECT_EQ(quantizeAct(3.0e9f, 2.0f, 10), 255);
    EXPECT_EQ(quantizeAct(-200.0f, 2.0f, 10), 0);
    EXPECT_EQ(quantizeAct(-3.0e9f, 2.0f, 10), 0);
    // Non-finite values get one fixed code each.
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(quantizeAct(inf, 2.0f, 10), 255);
    EXPECT_EQ(quantizeAct(-inf, 2.0f, 10), 0);
    EXPECT_EQ(quantizeAct(std::numeric_limits<float>::quiet_NaN(), 2.0f,
                          255),
              0);
}

TEST(Quant, WeightQuantClampsToSevenBits)
{
    // The +/-63 clamp is what makes maddubs saturation impossible.
    EXPECT_EQ(quantizeWeight(100.0f, 1.0f), kWeightQuantMax);
    EXPECT_EQ(quantizeWeight(-100.0f, 1.0f), -kWeightQuantMax);
    EXPECT_EQ(quantizeWeight(0.0f, 0.1f), 0);
    EXPECT_EQ(quantizeWeight(0.35f, 0.1f), 4);  // round to nearest
}

// ---------------------------------------------------------------------
// int8 strip kernels

std::vector<float>
filterScales(const FilterBank &fb)
{
    std::vector<float> ws(static_cast<size_t>(fb.numFilters()));
    for (int m = 0; m < fb.numFilters(); m++) {
        float mx = 0.0f;
        for (int n = 0; n < fb.numChannels(); n++)
            for (int i = 0; i < fb.kernel(); i++)
                for (int j = 0; j < fb.kernel(); j++)
                    mx = std::max(mx, std::fabs(fb.w(m, n, i, j)));
        ws[static_cast<size_t>(m)] = chooseWeightScale(mx);
    }
    return ws;
}

/** Resolved-vs-generic: whatever resolveConvBlockKernelI8 dispatches
 *  (AVX2 when built + supported) must produce the exact i32 sums of
 *  the portable loop, for every lane width and tabled kernel size. */
TEST(ConvKernelsI8, ResolvedMatchesGenericExactly)
{
    Rng rng(41);
    for (int k : {1, 3, 5, 7, 11}) {
        const int c = 3, h = k + 6, w = 23;
        Tensor src(c, h, w);
        src.fillRandom(rng, -1.0f, 1.0f);
        const ActQuant act = chooseActQuant(-1.0f, 1.0f);
        ConvStage st;
        st.configure(Precision::Int8, c, h, w);
        stageConvInputI8(st, src, act, 0, h);

        FilterBank fb(7, c, k);  // blocks of 4, 2, 1 lanes
        fb.fillRandom(rng);
        PackedWeightsI8 pw(fb, 1, filterScales(fb));
        const ConvBlockKernelI8 bk = resolveConvBlockKernelI8(k, 1);
        ASSERT_EQ(bk.k, k);

        const int count = w - k + 1;
        for (int bi = 0; bi < pw.numBlocks(); bi++) {
            const int mr = pw.block(bi).lanes;
            std::vector<int32_t> got(static_cast<size_t>(mr) * count, 0);
            std::vector<int32_t> want(got);
            const uint8_t *in = st.u8.data() + 2 * st.stageW;
            bk.run(mr, got.data(), count, count, in, st.chStride(),
                   st.stageW, pw.panel(bi), c);
            ConvBlockKernelI8::convBlockStripI8Generic(
                mr, want.data(), count, count, in, st.chStride(),
                st.stageW, pw.panel(bi), c, k, 1);
            EXPECT_EQ(got, want) << "k=" << k << " mr=" << mr;
        }
    }
}

/** The stride-4 vector path (AlexNet conv1's k=11 s=4 shape, the
 *  int8 serving regression's hot kernel) against the portable loop:
 *  strided pixel gathers must produce the exact i32 sums. */
TEST(ConvKernelsI8, Stride4ResolvedMatchesGenericExactly)
{
    Rng rng(53);
    for (int k : {3, 11}) {
        const int stride = 4, c = 3, h = k + 9, w = 4 * 9 + k;
        Tensor src(c, h, w);
        src.fillRandom(rng, -1.0f, 1.0f);
        const ActQuant act = chooseActQuant(-1.0f, 1.0f);
        ConvStage st;
        st.configure(Precision::Int8, c, h, w);
        stageConvInputI8(st, src, act, 0, h);

        FilterBank fb(7, c, k);
        fb.fillRandom(rng);
        PackedWeightsI8 pw(fb, 1, filterScales(fb));
        const ConvBlockKernelI8 bk = resolveConvBlockKernelI8(k, stride);
        ASSERT_EQ(bk.sx, stride);

        const int count = (w - k) / stride + 1;
        for (int bi = 0; bi < pw.numBlocks(); bi++) {
            const int mr = pw.block(bi).lanes;
            std::vector<int32_t> got(static_cast<size_t>(mr) * count, 0);
            std::vector<int32_t> want(got);
            bk.run(mr, got.data(), count, count, st.u8.data(),
                   st.chStride(), st.stageW, pw.panel(bi), c);
            ConvBlockKernelI8::convBlockStripI8Generic(
                mr, want.data(), count, count, st.u8.data(),
                st.chStride(), st.stageW, pw.panel(bi), c, k, stride);
            EXPECT_EQ(got, want) << "k=" << k << " mr=" << mr;
        }
    }
}

/** The packed row driver against an independent naive evaluation of
 *  the same quantized conv: identical integer sums through the
 *  identical epilogue expression means bit-equal floats. */
TEST(ConvKernelsI8, RowDriverMatchesNaiveQuantizedConvBitExactly)
{
    Rng rng(43);
    for (int stride : {1, 2, 4}) {
        const int k = 3, c = 4, m = 6, h = 13, w = 19;
        Tensor src(c, h, w);
        src.fillRandom(rng, -2.0f, 2.0f);
        const ActQuant act = chooseActQuant(-2.0f, 2.0f);
        ConvStage st;
        st.configure(Precision::Int8, c, h, w);
        stageConvInputI8(st, src, act, 0, h);

        FilterBank fb(m, c, k);
        fb.fillRandom(rng);
        const std::vector<float> ws = filterScales(fb);
        PackedWeightsI8 pw(fb, 1, ws);
        const ConvBlockKernelI8 bk = resolveConvBlockKernelI8(k, stride);

        const int out_h = (h - k) / stride + 1;
        const int out_w = (w - k) / stride + 1;
        Tensor out(m, out_h, out_w);
        const int64_t plane = static_cast<int64_t>(out_h) * out_w;
        for (int bi = 0; bi < pw.numBlocks(); bi++) {
            for (int y = 0; y < out_h; y++) {
                convBlockRowI8(bk, pw, bi,
                               &out(pw.block(bi).m0, y, 0), plane,
                               out_w, st, y * stride, 0, act);
            }
        }

        for (int f = 0; f < m; f++) {
            for (int y = 0; y < out_h; y++) {
                for (int x = 0; x < out_w; x++) {
                    int64_t acc = 0, wsum = 0;
                    for (int n = 0; n < c; n++)
                        for (int i = 0; i < k; i++)
                            for (int j = 0; j < k; j++) {
                                const int8_t wq = quantizeWeight(
                                    fb.w(f, n, i, j),
                                    ws[static_cast<size_t>(f)]);
                                const uint8_t q =
                                    st.u8[static_cast<size_t>(
                                        n * st.chStride() +
                                        (y * stride + i) * st.stageW +
                                        x * stride + j)];
                                acc += static_cast<int64_t>(wq) * q;
                                wsum += wq;
                            }
                    ASSERT_EQ(wsum, pw.wsum(f));
                    const float s =
                        act.scale * ws[static_cast<size_t>(f)];
                    const float want =
                        fb.bias(f) +
                        s * static_cast<float>(
                                acc - static_cast<int64_t>(act.zp) *
                                          wsum);
                    ASSERT_EQ(out(f, y, x), want)
                        << "stride=" << stride << " f=" << f << " y="
                        << y << " x=" << x;
                }
            }
        }
    }
}

/** Staging is idempotent and restricted to the requested rows. */
TEST(ConvStage, StagingIsIdempotentAndRowScoped)
{
    Rng rng(47);
    const int c = 2, h = 8, w = 10;
    Tensor src(c, h, w);
    src.fillRandom(rng, -1.0f, 1.0f);
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    ConvStage st;
    st.configure(Precision::Int8, c, h, w);
    stageConvInputI8(st, src, act, 2, 5);
    const std::vector<uint8_t> once = st.u8;
    stageConvInputI8(st, src, act, 0, h);
    stageConvInputI8(st, src, act, 2, 5);  // restage: same bytes
    // Rows [2, 5) were identical in the partial and full stagings.
    for (int n = 0; n < c; n++)
        for (int r = 2; r < 5; r++)
            for (int x = 0; x < w; x++) {
                const size_t idx = static_cast<size_t>(
                    n * st.chStride() + r * st.stageW + x);
                EXPECT_EQ(st.u8[idx], once[idx]);
            }
    // The pad apron stays zero (the kernels' overread guarantee).
    for (int n = 0; n < c; n++)
        for (int r = 0; r < h; r++)
            for (int x = w; x < st.stageW; x++)
                EXPECT_EQ(st.u8[static_cast<size_t>(
                              n * st.chStride() + r * st.stageW + x)],
                          0);
}

/** The channel-last stage holds exactly the planar stage's bytes,
 *  interleaved per conv group, with a zero apron: every channel count
 *  around the 16 x 16 transpose blocks, both vector and scalar
 *  edges. */
TEST(ConvStage, ChannelLastHoldsThePlanarBytesInterleaved)
{
    Rng rng(48);
    const int h = 3;
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    for (int groups : {1, 2}) {
        for (int cg : {1, 3, 15, 16, 17, 33, 48}) {
            for (int w : {1, 7, 16, 23, 40}) {
                Tensor src(cg * groups, h, w);
                src.fillRandom(rng, -1.2f, 1.2f);
                ConvStage planar, hwc;
                planar.configure(Precision::Int8, cg * groups, h, w);
                hwc.configure(Precision::Int8, cg * groups, h, w, groups);
                ASSERT_EQ(hwc.stageW, w * cg + kAmxStagePad);
                stageConvInputI8(planar, src, act, 0, h);
                stageConvInputI8(hwc, src, act, 0, h);
                for (int g = 0; g < groups; g++)
                    for (int y = 0; y < h; y++) {
                        const uint8_t *row = hwc.u8.data() +
                                             g * hwc.chStride() +
                                             y * hwc.stageW;
                        for (int x = 0; x < w; x++)
                            for (int n = 0; n < cg; n++)
                                ASSERT_EQ(row[x * cg + n],
                                          planar.u8[static_cast<size_t>(
                                              (g * cg + n) *
                                                  planar.chStride() +
                                              y * planar.stageW + x)])
                                    << "cg=" << cg << " w=" << w;
                        for (int b = w * cg; b < hwc.stageW; b++)
                            ASSERT_EQ(row[b], 0) << "apron";
                    }
            }
        }
    }
}

/** One int8 layer through the i8.amx tier on the calling thread. */
std::vector<float>
amxLayer()
{
    const int c = 24, m = 40, k = 3, h = 9, w = 21;
    Rng rng(95);
    FilterBank fb(m, c, k);
    fb.fillRandom(rng, -1.0f, 1.0f);
    Tensor src(c, h, w);
    src.fillRandom(rng, -1.0f, 1.0f);
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    const ConvBlockKernelI8 bk = resolveConvBlockKernelI8Amx(k, 1);
    const PackedWeightsI8 pw(
        fb, 1, std::vector<float>(static_cast<size_t>(m), 1.0f / 63.0f),
        kAmxLanes);
    ConvStage st;
    st.configure(Precision::Int8, c, h, w, bk.stageGroups(1));
    stageConvInputI8(st, src, act, 0, h);
    const int oh = h - k + 1, ow = w - k + 1;
    std::vector<float> out(static_cast<size_t>(m) * oh * ow);
    for (int bi = 0; bi < pw.numBlocks(); bi++)
        for (int y = 0; y < oh; y += 2)
            convBlockRowI8(bk, pw, bi,
                           out.data() + (pw.block(bi).m0 * oh + y) * ow,
                           static_cast<int64_t>(oh) * ow, ow, st, y, 0,
                           act, std::min(2, oh - y), ow);
    return out;
}

/** Each thread loads its own tile configuration: the tier's bits are
 *  the same on the calling thread, on a pool worker, on a fresh
 *  std::thread and in a forked child. */
TEST(AmxTier, SameBitsOnPoolWorkerFreshThreadAndForkedChild)
{
    if (!convAmxEnabled())
        GTEST_SKIP() << "i8.amx is not compiled in, not supported by "
                        "this CPU or not permitted";
    const std::vector<float> want = amxLayer();

    ThreadPool::setGlobalThreads(3);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::vector<float>> pooled(3);
    std::vector<std::thread::id> ran(3);
    parallelFor(0, 3, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++) {
            ran[static_cast<size_t>(i)] = std::this_thread::get_id();
            pooled[static_cast<size_t>(i)] = amxLayer();
        }
    });
    ThreadPool::setGlobalThreads(0);
    bool on_worker = false;
    for (size_t i = 0; i < pooled.size(); i++) {
        EXPECT_EQ(pooled[i], want) << "pool item " << i;
        on_worker = on_worker || ran[i] != caller;
    }
    EXPECT_TRUE(on_worker) << "no item ran on a pool worker";

    std::vector<float> fresh;
    std::thread([&] { fresh = amxLayer(); }).join();
    EXPECT_EQ(fresh, want);

    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        const std::vector<float> got = amxLayer();
        const size_t bytes = got.size() * sizeof(float);
        const bool ok = write(fds[1], got.data(), bytes) ==
                        static_cast<ssize_t>(bytes);
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    std::vector<float> child(want.size());
    size_t have = 0;
    const size_t bytes = child.size() * sizeof(float);
    while (have < bytes) {
        const ssize_t n =
            read(fds[0], reinterpret_cast<char *>(child.data()) + have,
                 bytes - have);
        if (n <= 0)
            break;
        have += static_cast<size_t>(n);
    }
    close(fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    ASSERT_EQ(have, bytes);
    EXPECT_EQ(child, want);
}

} // namespace
} // namespace flcnn
