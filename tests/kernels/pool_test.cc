/**
 * @file
 * poolRow (kernels/pool.hh) against nn::poolPoint, compared as raw
 * bits so zero signs count: K in {1, 2, 3}, S in {1, 2, 3}, max and
 * average, every output width 1..17 (all vector-block and tail
 * splits), over inputs mixing NaN, +/-inf, -0 and ordinary values.
 * Each input row is exactly as wide as the windows need, and a
 * sentinel after each output row must survive untouched.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "kernels/pool.hh"
#include "nn/reference.hh"

namespace flcnn {
namespace {

uint32_t
bitsOf(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, 4);
    return b;
}

/** Mostly ordinary values, with every fifth an edge case. */
float
sample(Rng &rng, int i)
{
    const float edges[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        -0.0f,
        0.0f,
    };
    const float v = rng.uniformF(-2.0f, 2.0f);
    if (i % 5 == 0)
        return edges[rng.range(0, 4)];
    return v;
}

TEST(PoolRow, BitIdenticalToPoolPoint)
{
    Rng rng(4242);
    for (int k : {1, 2, 3}) {
        for (int s : {1, 2, 3}) {
            for (PoolMode mode : {PoolMode::Max, PoolMode::Avg}) {
                for (int width = 1; width <= 17; width++) {
                    const int in_w = (width - 1) * s + k;
                    Tensor in(2, k + 1, in_w);
                    for (int64_t e = 0; e < in.elems(); e++)
                        in.data()[e] = sample(rng, static_cast<int>(e));
                    for (int ch = 0; ch < 2; ch++) {
                        for (int y0 = 0; y0 + k <= in.shape().h; y0++) {
                            const float *rows[kMaxPoolKernel];
                            for (int i = 0; i < k; i++)
                                rows[i] = in.rowPtr(ch, y0 + i);
                            std::vector<float> dst(
                                static_cast<size_t>(width) + 1, 7.0f);
                            poolRow(dst.data(), width, rows, k, s,
                                    mode == PoolMode::Max);
                            for (int x = 0; x < width; x++) {
                                const float want = poolPoint(
                                    in, ch, y0, x * s, k, mode, nullptr);
                                const float got =
                                    dst[static_cast<size_t>(x)];
                                const std::string where =
                                    "k=" + std::to_string(k) +
                                    " s=" + std::to_string(s) +
                                    " max=" +
                                    std::to_string(mode == PoolMode::Max) +
                                    " width=" + std::to_string(width) +
                                    " x=" + std::to_string(x);
                                // Which NaN a sum of two NaNs returns
                                // depends on the operand order the
                                // compiler picks for a + b (x86 returns
                                // the first), so an average only has to
                                // be NaN where poolPoint's is. Max only
                                // selects inputs: every bit must match.
                                if (mode == PoolMode::Avg &&
                                    std::isnan(want)) {
                                    ASSERT_TRUE(std::isnan(got)) << where;
                                    continue;
                                }
                                ASSERT_EQ(bitsOf(got), bitsOf(want))
                                    << where;
                            }
                            EXPECT_EQ(dst.back(), 7.0f)
                                << "wrote past the row, width=" << width;
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace flcnn
