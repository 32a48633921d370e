/**
 * @file
 * Register-tiled strip kernels: bit-exact equivalence with the
 * canonical scalar convPoint() across the kernel/stride grid, grouped
 * convolution, odd strip widths (the 8/4/2/1 remainder ladder),
 * start-row addressing, and thread counts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hh"
#include "kernels/conv_kernels.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

/** Build a random input and filter bank for one (K, stride) case. */
struct ConvCase
{
    Tensor in;
    FilterBank fb;
    int stride;
    int outW, outH;

    ConvCase(int k, int s, int channels, int filters, int out_w,
             int out_h, uint64_t seed)
        : in(Shape{channels, s * (out_h - 1) + k, s * (out_w - 1) + k}),
          fb(filters, channels, k), stride(s), outW(out_w), outH(out_h)
    {
        Rng irng(seed * 7919 + 1);
        in.fillRandom(irng);
        Rng wrng(seed * 104729 + 2);
        fb.fillRandom(wrng);
    }
};

/** Every pixel of every (m, y) output row via convRowTensor must equal
 *  the scalar convPoint — bitwise, not approximately. */
void
expectRowsMatchConvPoint(const ConvCase &c)
{
    const ConvKernel ks = resolveConvKernel(c.fb.kernel(), c.stride);
    std::vector<float> dst(static_cast<size_t>(c.outW));
    for (int m = 0; m < c.fb.numFilters(); m++) {
        for (int y = 0; y < c.outH; y++) {
            convRowTensor(ks, dst.data(), c.outW, c.in, c.fb, m, 0,
                          y * c.stride, 0);
            for (int x = 0; x < c.outW; x++) {
                const float want =
                    convPoint(c.in, c.fb, m, y * c.stride, x * c.stride,
                              1, c.fb.numFilters(), nullptr);
                ASSERT_EQ(dst[static_cast<size_t>(x)], want)
                    << "k=" << c.fb.kernel() << " s=" << c.stride
                    << " m=" << m << " y=" << y << " x=" << x;
            }
        }
    }
}

TEST(ConvKernels, SpecializedGridMatchesConvPoint)
{
    // The zoo's kernel/stride grid, all dispatched to specialized
    // variants; width 37 drives the 8/4/2/1 strip remainder ladder.
    uint64_t seed = 0;
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " s=" + std::to_string(s));
            EXPECT_TRUE(resolveConvKernel(k, s).specialized());
            expectRowsMatchConvPoint(ConvCase(k, s, 3, 4, 37, 3, ++seed));
        }
    }
}

TEST(ConvKernels, GenericFallbackMatchesConvPoint)
{
    // Shapes outside the specialization table run the runtime-K path —
    // same contract, same bits.
    uint64_t seed = 100;
    const std::pair<int, int> cases[] = {{2, 1}, {4, 3}, {13, 1}, {3, 3}};
    for (auto [k, s] : cases) {
        SCOPED_TRACE("k=" + std::to_string(k) +
                     " s=" + std::to_string(s));
        EXPECT_FALSE(resolveConvKernel(k, s).specialized());
        expectRowsMatchConvPoint(ConvCase(k, s, 2, 3, 23, 2, ++seed));
    }
}

TEST(ConvKernels, SpecializedAndGenericProduceIdenticalBits)
{
    for (int k : {1, 3, 5, 7, 11}) {
        for (int s : {1, 2, 4}) {
            ConvCase c(k, s, 3, 2, 29, 1, 1000 + k * 10 + s);
            const ConvKernel spec = resolveConvKernel(k, s);
            ASSERT_TRUE(spec.specialized());

            const int64_t ch_stride =
                static_cast<int64_t>(c.in.shape().h) * c.in.shape().w;

            std::vector<float> a(29, 0.0f), b(29, 0.0f);
            for (int x = 0; x < 29; x++)
                a[static_cast<size_t>(x)] =
                    b[static_cast<size_t>(x)] = c.fb.bias(0);
            spec.fn(a.data(), 29, c.in.rowPtr(0, 0, 0), ch_stride,
                    c.in.shape().w, c.fb.wRow(0, 0, 0),
                    c.fb.numChannels());
            ConvKernel::convStripGeneric(
                b.data(), 29, c.in.rowPtr(0, 0, 0), ch_stride, c.in.shape().w,
                c.fb.wRow(0, 0, 0), c.fb.numChannels(), k, s);
            EXPECT_EQ(a, b) << "k=" << k << " s=" << s;
        }
    }
}

TEST(ConvKernels, StripWidthsCoverEveryRemainderPath)
{
    // Strip counts 1..19 hit every combination of the 8/4/2/1 ladder.
    ConvCase c(3, 1, 3, 2, 19, 1, 77);
    const ConvKernel ks = resolveConvKernel(3, 1);
    for (int count = 1; count <= 19; count++) {
        std::vector<float> dst(static_cast<size_t>(count));
        convRowTensor(ks, dst.data(), count, c.in, c.fb, 1, 0, 0, 0);
        for (int x = 0; x < count; x++) {
            const float want =
                convPoint(c.in, c.fb, 1, 0, x, 1, 2, nullptr);
            ASSERT_EQ(dst[static_cast<size_t>(x)], want)
                << "count=" << count << " x=" << x;
        }
    }
}

TEST(ConvKernels, GroupedConvolutionMatchesConvPoint)
{
    // AlexNet-style two-group conv: filters see only their group's
    // channel slice, selected by the caller through n_base.
    const int groups = 2, total_m = 6, n_per_group = 2, k = 5;
    Tensor in(Shape{groups * n_per_group, 13, 17});
    Rng irng(31);
    in.fillRandom(irng);
    FilterBank fb(total_m, n_per_group, k);
    Rng wrng(32);
    fb.fillRandom(wrng);

    const ConvKernel ks = resolveConvKernel(k, 1);
    const int out_w = in.shape().w - k + 1;
    std::vector<float> dst(static_cast<size_t>(out_w));
    for (int m = 0; m < total_m; m++) {
        const int n_base = (m / (total_m / groups)) * n_per_group;
        for (int y = 0; y + k <= in.shape().h; y++) {
            convRowTensor(ks, dst.data(), out_w, in, fb, m, n_base, y, 0);
            for (int x = 0; x < out_w; x++) {
                const float want =
                    convPoint(in, fb, m, y, x, groups, total_m, nullptr);
                ASSERT_EQ(dst[static_cast<size_t>(x)], want)
                    << "m=" << m << " y=" << y << " x=" << x;
            }
        }
    }
}

TEST(ConvKernels, StartRowAddressingMatchesConvPoint)
{
    // The strip reads kernel row i at i * row_pitch past its start
    // pointer: starting the same kernel at each output row's first
    // input row (and a nonzero column) must give convPoint's bits.
    const int k = 3, channels = 3, out_w = 21;
    for (int s : {1, 2}) {
        ConvCase c(k, s, channels, 2, out_w + 2, 6, 55 + s);
        const ConvKernel ks = resolveConvKernel(k, s);
        const Shape &sh = c.in.shape();
        const int x0 = sh.w - (out_w - 1) * s - k;
        const int out_h = (sh.h - k) / s + 1;
        for (int y = 0; y < out_h; y++) {
            std::vector<float> got(out_w, c.fb.bias(1));
            ks.run(got.data(), out_w, c.in.rowPtr(0, y * s, x0),
                   static_cast<int64_t>(sh.h) * sh.w, sh.w,
                   c.fb.wRow(1, 0, 0), channels);
            for (int x = 0; x < out_w; x++)
                ASSERT_EQ(got[static_cast<size_t>(x)],
                          convPoint(c.in, c.fb, 1, y * s, x0 + x * s, 1, 2,
                                    nullptr))
                    << "s=" << s << " y=" << y << " x=" << x;
        }
    }
}

/** RAII: run a scope at a fixed global thread count, then restore the
 *  default so other tests are unaffected. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

TEST(ConvKernels, ReferenceExecutorBitExactAcrossThreadCounts)
{
    // The reference executor's conv path now routes through the strip
    // kernels; its output must stay invariant to the pool width for
    // every dispatch variant (the fused executors have their own
    // differential sweeps in tests/fusion and tests/accel).
    const int hw = ThreadPool::defaultThreads();
    uint64_t seed = 500;
    for (int k : {1, 3, 5, 11}) {
        for (int s : {1, 2}) {
            seed++;
            Network net("kt" + std::to_string(seed), Shape{3, 29, 31});
            net.add(LayerSpec::conv("c1", 4, k, s));
            net.add(LayerSpec::relu("r1"));

            Rng wrng(seed);
            NetworkWeights weights(net, wrng);
            Tensor input(net.inputShape());
            Rng irng(seed ^ 0x5a5a);
            input.fillRandom(irng);

            Tensor ref;
            {
                ScopedThreads serial(1);
                ref = runRange(net, weights, input, 0,
                               net.numLayers() - 1);
            }
            for (int threads : {1, 2, 4, hw}) {
                ScopedThreads scope(threads);
                Tensor out = runRange(net, weights, input, 0,
                                      net.numLayers() - 1);
                CompareResult cmp = compareTensors(ref, out);
                ASSERT_TRUE(cmp.match)
                    << "k=" << k << " s=" << s << " threads=" << threads
                    << ": " << cmp.str();
            }
        }
    }
}

} // namespace
} // namespace flcnn
