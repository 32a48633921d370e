/**
 * @file
 * The reference executor's conv path: bit-exact at every thread count
 * for every kernel dispatch variant. The kernels themselves are
 * checked against convPoint() in conv_block_kernels_test.cc.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

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
    // The reference executor's conv path routes through the blocked
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
