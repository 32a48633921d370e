/**
 * @file
 * reluRows (kernels/relu.hh) against the reference's scalar
 * std::max(0.0f, v), compared as raw bits so zero signs and NaN
 * payloads count: every width 1..40 (all vector-step and tail splits),
 * row strides wider than the width, in place and out of place, over
 * NaN, +/-inf, +/-0, denormals of both signs and ordinary values. A
 * sentinel after each row's last element must survive untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/relu.hh"

namespace flcnn {
namespace {

uint32_t
bitsOf(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, 4);
    return b;
}

float
fromBits(uint32_t b)
{
    float v;
    std::memcpy(&v, &b, 4);
    return v;
}

/** Cycles through the edge values and a few ordinary ones. */
float
edgeValue(int i)
{
    const float vals[] = {
        std::numeric_limits<float>::quiet_NaN(),
        fromBits(0xffc00001u),  // negative NaN with a payload
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        0.0f,
        -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        fromBits(0x007fffffu),  // largest denormal
        fromBits(0x807fffffu),
        1.5f,
        -2.25f,
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(),
        std::numeric_limits<float>::min(),
        -std::numeric_limits<float>::min(),
        3.0e-3f,
    };
    constexpr int n = sizeof(vals) / sizeof(vals[0]);
    return vals[i % n];
}

constexpr uint32_t kSentinel = 0x7fa5a5a5u;  // a signalling-NaN pattern

TEST(ReluRows, MatchesStdMaxBitForBitAtEveryWidthAndStride)
{
    const int rows = 3;
    for (int width = 1; width <= 40; width++) {
        for (int pad : {1, 3, 8}) {
            const int stride = width + pad;
            const size_t n = static_cast<size_t>(rows) * stride;
            std::vector<float> src(n), want(n);
            for (size_t e = 0; e < n; e++)
                src[e] = fromBits(kSentinel);
            for (int r = 0; r < rows; r++) {
                for (int t = 0; t < width; t++) {
                    src[static_cast<size_t>(r) * stride + t] =
                        edgeValue(r * 7 + t);
                }
            }
            want = src;
            for (int r = 0; r < rows; r++) {
                for (int t = 0; t < width; t++) {
                    float &v = want[static_cast<size_t>(r) * stride + t];
                    v = std::max(0.0f, v);
                }
            }

            // Out of place, into a sentinel-filled destination whose
            // stride differs from the source's.
            const int dstride = stride + 2;
            std::vector<float> dst(static_cast<size_t>(rows) * dstride,
                                   fromBits(kSentinel));
            reluRows(dst.data(), dstride, src.data(), stride, rows, width);
            // In place.
            std::vector<float> inplace = src;
            reluRows(inplace.data(), stride, rows, width);

            for (int r = 0; r < rows; r++) {
                for (int t = 0; t < dstride; t++) {
                    const uint32_t got =
                        bitsOf(dst[static_cast<size_t>(r) * dstride + t]);
                    const uint32_t exp =
                        t < width
                            ? bitsOf(want[static_cast<size_t>(r) * stride +
                                          t])
                            : kSentinel;
                    ASSERT_EQ(got, exp)
                        << "out of place, width " << width << " stride "
                        << stride << " row " << r << " col " << t;
                }
            }
            for (size_t e = 0; e < n; e++) {
                ASSERT_EQ(bitsOf(inplace[e]), bitsOf(want[e]))
                    << "in place, width " << width << " stride "
                    << stride << " element " << e;
            }
        }
    }
}

TEST(ReluRows, EdgeValuesClampAsTheReferenceDoes)
{
    // The documented contract, spelled out: NaN, -0 and -inf become +0,
    // +inf and positive denormals stay, negative denormals become +0.
    std::vector<float> v = {
        std::numeric_limits<float>::quiet_NaN(),
        -0.0f,
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
    };
    reluRows(v.data(), 0, 1, static_cast<int>(v.size()));
    EXPECT_EQ(bitsOf(v[0]), 0u);
    EXPECT_EQ(bitsOf(v[1]), 0u);
    EXPECT_EQ(bitsOf(v[2]), 0u);
    EXPECT_EQ(v[3], std::numeric_limits<float>::infinity());
    EXPECT_EQ(v[4], std::numeric_limits<float>::denorm_min());
    EXPECT_EQ(bitsOf(v[5]), 0u);
}

} // namespace
} // namespace flcnn
