/**
 * @file
 * Multi-filter blocked strip kernels: bit-exact equivalence with the
 * canonical scalar convPoint() across the kernel/stride grid and
 * every lane width, filter-count and strip-width tails,
 * SIMD-vs-generic dispatch, start-row addressing, grouped convolution,
 * channel-range partial-sum chaining, and reads that stay inside the
 * input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_simd.hh"
#include "kernels/weight_pack.hh"
#include "nn/reference.hh"

namespace flcnn {
namespace {

/** Random input + multi-filter bank for one (K, stride) case. */
struct BlockCase
{
    Tensor in;
    FilterBank fb;
    int stride;
    int outW;

    BlockCase(int k, int s, int channels, int filters, int out_w,
              uint64_t seed)
        : in(Shape{channels, k, s * (out_w - 1) + k}),
          fb(filters, channels, k), stride(s), outW(out_w)
    {
        Rng irng(seed * 6151 + 3);
        in.fillRandom(irng);
        Rng wrng(seed * 13007 + 4);
        fb.fillRandom(wrng);
    }
};

/** Run every block of the packed bank over one output row. */
std::vector<float>
runBlocked(const BlockCase &c, const ConvBlockKernel &bk,
           const PackedWeights &pw)
{
    std::vector<float> dst(
        static_cast<size_t>(c.fb.numFilters()) * c.outW);
    for (int bi = 0; bi < pw.numBlocks(); bi++) {
        convBlockRowTensor(
            bk, pw, bi,
            dst.data() + static_cast<size_t>(pw.block(bi).m0) * c.outW,
            c.outW, c.outW, c.in, 0, 0);
    }
    return dst;
}

/** Every (filter, pixel) must equal the scalar convPoint — bitwise. */
void
expectBlockedMatchesConvPoint(const BlockCase &c)
{
    const ConvBlockKernel bk =
        resolveConvBlockKernel(c.fb.kernel(), c.stride);
    const PackedWeights pw(c.fb);
    std::vector<float> dst = runBlocked(c, bk, pw);
    for (int m = 0; m < c.fb.numFilters(); m++) {
        for (int x = 0; x < c.outW; x++) {
            const float want =
                convPoint(c.in, c.fb, m, 0, x * c.stride, 1,
                          c.fb.numFilters(), nullptr);
            ASSERT_EQ(dst[static_cast<size_t>(m) * c.outW + x], want)
                << "k=" << c.fb.kernel() << " s=" << c.stride
                << " m=" << m << " x=" << x;
        }
    }
}

TEST(ConvBlockKernels, SpecializedGridMatchesConvPoint)
{
    // The zoo's kernel/stride grid; 7 filters exercise the 4/2/1 lane
    // ladder tail and width 37 the 8/4/2/1 pixel remainder ladder.
    uint64_t seed = 0;
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " s=" + std::to_string(s));
            const ConvBlockKernel bk = resolveConvBlockKernel(k, s);
            for (int mr : {1, 2, 4})
                EXPECT_TRUE(bk.specialized(mr)) << "mr=" << mr;
            expectBlockedMatchesConvPoint(
                BlockCase(k, s, 3, 7, 37, ++seed));
        }
    }
}

TEST(ConvBlockKernels, GenericFallbackMatchesConvPoint)
{
    // Shapes outside the specialization table run the runtime-(K,
    // stride) multi-filter path — same contract, same bits.
    uint64_t seed = 100;
    const std::pair<int, int> cases[] = {{2, 1}, {4, 3}, {13, 1}, {3, 3}};
    for (auto [k, s] : cases) {
        SCOPED_TRACE("k=" + std::to_string(k) +
                     " s=" + std::to_string(s));
        const ConvBlockKernel bk = resolveConvBlockKernel(k, s);
        EXPECT_FALSE(bk.specialized(4));
        expectBlockedMatchesConvPoint(
            BlockCase(k, s, 2, 5, 23, ++seed));
    }
}

TEST(ConvBlockKernels, BlockedMatchesSingleFilterStrip)
{
    // Every lane width of the filter block must agree bit for bit with
    // the single-filter scalar convPoint: both promise its canonical
    // order.
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            BlockCase c(k, s, 3, 4, 29, 300 + k * 10 + s);
            const ConvBlockKernel bk = resolveConvBlockKernel(k, s);
            for (int mr_cap : {1, 2, 4}) {
                const PackedWeights pw(c.fb, 1, 0, mr_cap);
                std::vector<float> blocked = runBlocked(c, bk, pw);
                for (int m = 0; m < c.fb.numFilters(); m++)
                    for (int x = 0; x < c.outW; x++)
                        ASSERT_EQ(
                            blocked[static_cast<size_t>(m) * c.outW + x],
                            convPoint(c.in, c.fb, m, 0, x * s, 1,
                                      c.fb.numFilters(), nullptr))
                            << "k=" << k << " s=" << s << " mr=" << mr_cap
                            << " m=" << m << " x=" << x;
            }
        }
    }
}

TEST(ConvBlockKernels, DispatchedAndGenericProduceIdenticalBits)
{
    // Whatever resolveConvBlockKernel dispatched to (the AVX2 variants
    // in FLCNN_SIMD builds, the scalar specializations otherwise) must
    // be bitwise identical to the portable runtime-(K, stride) block.
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            BlockCase c(k, s, 3, 7, 37, 400 + k * 10 + s);
            const ConvBlockKernel fast =
                resolveConvBlockKernel(k, s);
            ConvBlockKernel generic = fast;
            for (int mr = 0; mr <= kConvBlockLanes; mr++)
                generic.fn[mr] = nullptr;
            const PackedWeights pw(c.fb);
            EXPECT_EQ(runBlocked(c, fast, pw),
                      runBlocked(c, generic, pw))
                << "k=" << k << " s=" << s;
        }
    }
}

TEST(ConvBlockKernels, StripWidthsCoverEveryRemainderPath)
{
    // Strip counts 1..19 hit every combination of the 8/4/2/1 pixel
    // ladder, at a stride that exercises the strided vector loads.
    BlockCase c(3, 2, 3, 4, 19, 77);
    const ConvBlockKernel bk = resolveConvBlockKernel(3, 2);
    const PackedWeights pw(c.fb);
    for (int count = 1; count <= 19; count++) {
        std::vector<float> dst(static_cast<size_t>(4) * count);
        convBlockRowTensor(bk, pw, 0, dst.data(), count, count, c.in,
                           0, 0);
        for (int m = 0; m < 4; m++)
            for (int x = 0; x < count; x++) {
                const float want = convPoint(c.in, c.fb, m, 0, x * 2,
                                             1, 4, nullptr);
                ASSERT_EQ(dst[static_cast<size_t>(m) * count + x], want)
                    << "count=" << count << " m=" << m << " x=" << x;
            }
    }
}

TEST(ConvBlockKernels, FilterCountsCoverEveryLaneTail)
{
    // 1..7 filters: every 4/2/1 ladder shape, including the mixed
    // tails (5 = 4+1, 6 = 4+2, 7 = 4+2+1).
    for (int filters = 1; filters <= 7; filters++) {
        SCOPED_TRACE("filters=" + std::to_string(filters));
        expectBlockedMatchesConvPoint(
            BlockCase(3, 1, 3, filters, 13, 500 + filters));
    }
}

TEST(ConvBlockKernels, StartRowAddressingMatchesPerRowCalls)
{
    // A region call reads output row r at r * in_row_step past its
    // start pointer, kernel row i at i * row_pitch: one call over every
    // output row, started at a nonzero column, must equal per-row calls
    // each started at its own first input row, bit for bit.
    const int k = 3, channels = 3, out_w = 21, x0 = 2;
    for (int s : {1, 2}) {
        const int out_h = 4;
        Tensor in(Shape{channels, (out_h - 1) * s + k,
                        x0 + (out_w - 1) * s + k});
        Rng irng(91);
        in.fillRandom(irng);
        FilterBank fb(5, channels, k);
        Rng wrng(92);
        fb.fillRandom(wrng);

        const ConvBlockKernel bk = resolveConvBlockKernel(k, s);
        const PackedWeights pw(fb);
        const Shape &sh = in.shape();
        const int64_t ch_stride = static_cast<int64_t>(sh.h) * sh.w;
        const int64_t plane = static_cast<int64_t>(out_h) * out_w;
        for (int bi = 0; bi < pw.numBlocks(); bi++) {
            const PackedBlock &blk = pw.block(bi);
            std::vector<float> region(
                static_cast<size_t>(blk.lanes) * plane);
            for (int f = 0; f < blk.lanes; f++)
                std::fill_n(region.begin() + f * plane, plane,
                            pw.bias(blk.m0 + f));
            std::vector<float> rows = region;
            bk.runRows(blk.lanes, region.data(), plane, out_h, out_w,
                       out_w, in.rowPtr(0, 0, x0), ch_stride, sh.w,
                       static_cast<int64_t>(s) * sh.w, pw.panel(bi),
                       channels);
            for (int y = 0; y < out_h; y++)
                bk.run(blk.lanes, rows.data() + y * out_w, plane, out_w,
                       in.rowPtr(0, y * s, x0), ch_stride, sh.w,
                       pw.panel(bi), channels);
            EXPECT_EQ(region, rows) << "s=" << s << " bi=" << bi;

            std::vector<float> want(region.size());
            convBlockRowTensor(bk, pw, bi, want.data(), plane, out_w, in,
                               0, x0, out_h, out_w);
            EXPECT_EQ(region, want) << "s=" << s << " bi=" << bi;
        }
    }
}

TEST(ConvBlockKernels, GroupedConvolutionMatchesConvPoint)
{
    // AlexNet-style two-group conv: blocks never straddle the group
    // boundary and nBase selects the group's channel slice.
    const int groups = 2, total_m = 6, n_per_group = 2, k = 5;
    Tensor in(Shape{groups * n_per_group, k, 17});
    Rng irng(61);
    in.fillRandom(irng);
    FilterBank fb(total_m, n_per_group, k);
    Rng wrng(62);
    fb.fillRandom(wrng);

    const ConvBlockKernel bk = resolveConvBlockKernel(k, 1);
    const PackedWeights pw(fb, groups);
    const int out_w = in.shape().w - k + 1;
    std::vector<float> dst(static_cast<size_t>(total_m) * out_w);
    for (int bi = 0; bi < pw.numBlocks(); bi++) {
        convBlockRowTensor(
            bk, pw, bi,
            dst.data() + static_cast<size_t>(pw.block(bi).m0) * out_w,
            out_w, out_w, in, 0, 0);
    }
    for (int m = 0; m < total_m; m++)
        for (int x = 0; x < out_w; x++) {
            const float want =
                convPoint(in, fb, m, 0, x, groups, total_m, nullptr);
            ASSERT_EQ(dst[static_cast<size_t>(m) * out_w + x], want)
                << "m=" << m << " x=" << x;
        }
}

TEST(ConvBlockKernels, ChannelRangeChainingIsBitExact)
{
    // The baseline accelerator accumulates a tile over serial Tn
    // channel blocks on top of the previous block's partial sums,
    // addressing the panel sub-range at n0*K*K*lanes. Chained calls
    // must reproduce the one-shot result bit for bit (same canonical
    // order, just split).
    const int k = 3, channels = 5, filters = 4, out_w = 15;
    BlockCase c(k, 1, channels, filters, out_w, 83);
    const ConvBlockKernel bk = resolveConvBlockKernel(k, 1);
    const PackedWeights pw(c.fb);
    const PackedBlock &blk = pw.block(0);
    const Shape &sh = c.in.shape();
    const int64_t ch_stride = static_cast<int64_t>(sh.h) * sh.w;

    std::vector<float> chained(
        static_cast<size_t>(blk.lanes) * out_w);
    for (int f = 0; f < blk.lanes; f++)
        for (int x = 0; x < out_w; x++)
            chained[static_cast<size_t>(f) * out_w + x] =
                pw.bias(blk.m0 + f);
    const int splits[][2] = {{0, 2}, {2, 3}};  // [n0, tnn]
    for (auto [n0, tnn] : splits) {
        bk.run(blk.lanes, chained.data(), out_w, out_w,
               c.in.rowPtr(n0, 0, 0), ch_stride, sh.w,
               pw.panel(0) + static_cast<int64_t>(n0) * k * k *
                                 blk.lanes,
               tnn);
    }

    std::vector<float> oneshot(
        static_cast<size_t>(blk.lanes) * out_w);
    convBlockRowTensor(bk, pw, 0, oneshot.data(), out_w, out_w, c.in,
                       0, 0);
    EXPECT_EQ(chained, oneshot);
}

TEST(ConvBlockKernels, StripsReadNothingPastTheirInput)
{
    // Each input ends on a page boundary with an inaccessible page
    // behind it, so a kernel that loads past its last input element
    // dies with SIGSEGV. Every output row of a valid conv is computed,
    // over the kernel/stride grid, by the multi-filter blocks at each
    // lane count and (its last pixel) by the single-filter convPoint,
    // for channel counts that are and are not multiples of a vector
    // width.
    const int64_t page = sysconf(_SC_PAGESIZE);
    const int out_w = 13, out_h = 3;  // 8 + 4 + 1 pixel blocks
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            const int h = (out_h - 1) * s + k, w = (out_w - 1) * s + k;
            for (int channels : {1, 2, 3, 5, 8}) {
                const size_t bytes =
                    static_cast<size_t>(channels) * h * w * sizeof(float);
                const size_t span = (bytes + page - 1) / page * page;
                void *map = mmap(nullptr, span + page,
                                 PROT_READ | PROT_WRITE,
                                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
                ASSERT_NE(map, MAP_FAILED);
                char *base = static_cast<char *>(map);
                ASSERT_EQ(mprotect(base + span, page, PROT_NONE), 0);
                float *in = reinterpret_cast<float *>(base + span - bytes);
                for (size_t e = 0; e < bytes / sizeof(float); e++)
                    in[e] = 1.0f;
                std::vector<float> wp(
                    static_cast<size_t>(kConvBlockLanes) * channels * k * k,
                    0.5f);
                std::vector<float> dst(
                    static_cast<size_t>(kConvBlockLanes) * out_w);
                const int64_t plane = static_cast<int64_t>(h) * w;
                const float want = 0.5f * channels * k * k;
                const Tensor guarded = Tensor::view(Shape{channels, h, w}, in);
                FilterBank fb(1, channels, k);
                for (int n = 0; n < channels; n++)
                    for (int i = 0; i < k; i++)
                        for (int j = 0; j < k; j++)
                            fb.w(0, n, i, j) = 0.5f;
                for (int y = 0; y < out_h; y++) {
                    SCOPED_TRACE("k=" + std::to_string(k) +
                                 " s=" + std::to_string(s) +
                                 " channels=" + std::to_string(channels) +
                                 " y=" + std::to_string(y));
                    const float *start = in + y * s * w;
                    for (const ConvBlockKernel &bk :
                         {resolveConvBlockKernelScalar(k, s),
                          resolveConvBlockKernel(k, s)}) {
                        for (int mr : {1, 2, 4}) {
                            std::fill(dst.begin(), dst.end(), 0.0f);
                            bk.run(mr, dst.data(), out_w, out_w, start,
                                   plane, w, wp.data(), channels);
                            ASSERT_EQ(dst[0], want) << "mr=" << mr;
                        }
                    }
                    ASSERT_EQ(convPoint(guarded, fb, 0, y * s,
                                        (out_w - 1) * s, 1, 1, nullptr),
                              want)
                        << "single filter";
                }
                munmap(map, span + page);
            }
        }
    }

    // The i8.amx driver over a channel-last stage whose last row's
    // kAmxStagePad-byte apron ends on the guard page: its 64-byte
    // chunks may read into the apron, never past it. Whole 16-pixel
    // runs load straight from the stage; the 13-pixel rows and the
    // 3 x 13 region's tails go through the gather buffer.
#ifdef FLCNN_SIMD_AMX
    if (!convAmxEnabled())
        return;
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            for (int channels : {1, 3, 5, 48, 64}) {
                for (int rows : {1, out_h}) {
                    for (int count : {out_w, 16}) {
                        const int h = (rows - 1) * s + k;
                        const int w = (count - 1) * s + k;
                        const int64_t pitch =
                            static_cast<int64_t>(w) * channels +
                            kAmxStagePad;
                        const size_t bytes =
                            static_cast<size_t>(h * pitch);
                        const size_t span =
                            (bytes + page - 1) / page * page;
                        void *map = mmap(nullptr, span + page,
                                         PROT_READ | PROT_WRITE,
                                         MAP_PRIVATE | MAP_ANONYMOUS, -1,
                                         0);
                        ASSERT_NE(map, MAP_FAILED);
                        char *base = static_cast<char *>(map);
                        ASSERT_EQ(mprotect(base + span, page, PROT_NONE),
                                  0);
                        uint8_t *in = reinterpret_cast<uint8_t *>(
                            base + span - bytes);
                        for (int y = 0; y < h; y++)
                            std::fill_n(in + y * pitch, w * channels, 1);
                        FilterBank fb(kAmxLanes, channels, k);
                        for (int m = 0; m < kAmxLanes; m++)
                            for (int n = 0; n < channels; n++)
                                for (int i = 0; i < k; i++)
                                    for (int j = 0; j < k; j++)
                                        fb.w(m, n, i, j) = 1.0f;
                        const PackedWeightsI8 pw(
                            fb, 1, std::vector<float>(kAmxLanes, 1.0f),
                            kAmxLanes);
                        const std::vector<float> bias(kAmxLanes, 0.0f),
                            scale(kAmxLanes, 1.0f);
                        const std::vector<int32_t> zp(kAmxLanes, 0);
                        std::vector<float> dst(
                            static_cast<size_t>(kAmxLanes) * rows * count);
                        AmxRegion r;
                        r.in = in;
                        r.rowPitch = pitch;
                        r.pixStep = static_cast<int64_t>(s) * channels;
                        r.inRowStep = s * pitch;
                        r.k = k;
                        r.chunks = pw.amxChunks();
                        r.rows = rows;
                        r.count = count;
                        r.wp = pw.panel(0);
                        r.lanes = kAmxLanes;
                        r.dst = dst.data();
                        r.dstStride = static_cast<int64_t>(rows) * count;
                        r.dstRowStride = count;
                        r.bias = bias.data();
                        r.scale = scale.data();
                        r.zpTerm = zp.data();
                        simd::convRegionI8Amx(r);
                        const float want =
                            static_cast<float>(k * k * channels);
                        for (float v : dst)
                            ASSERT_EQ(v, want)
                                << "k=" << k << " s=" << s
                                << " channels=" << channels
                                << " rows=" << rows << " count=" << count;
                        munmap(map, span + page);
                    }
                }
            }
        }
    }
#endif
}

} // namespace
} // namespace flcnn
