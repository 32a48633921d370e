/**
 * @file
 * Edge values through the fused ReLU. The pyramid and line-buffer
 * executors apply a ReLU that directly follows a conv inside the conv's
 * work items; it must still equal the reference's separate
 * std::max(0.0f, v) pass on every float: NaN and -0 become +0, -inf
 * becomes +0, +inf stays. The net below makes its first conv emit NaN
 * (a NaN weight, and a NaN bias for int8, whose weight quantization
 * flushes a NaN weight to 0), +inf and -inf (weights near FLT_MAX)
 * and -0 (-0 weights and bias on a non-negative input). The +inf that
 * survives the ReLU then flows
 * through a pool, a stand-alone ReLU and the second conv, whose int8
 * staging must quantize it identically on every engine. Fused and
 * Recompute (tips {1, 5}), LineBuffer through a plan and its
 * full-width tiling directly (rows {1, 3}) at threads {1, 2, 8},
 * in fp32 and int8, must match nn::runRange bit for bit, compared as
 * raw bytes so NaN payloads and zero signs count: once on the range
 * ending at the first ReLU, whose clamped values are then the output
 * itself, once on the whole net, and on two ranges fed the conv's raw
 * edge values: one starting at that ReLU, one ending at the ReLU after
 * the pool.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fusion/fused_executor.hh"
#include "fusion/fusion_plan.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"

namespace flcnn {
namespace {

/** Restores the default pool size when a test leaves. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

Network
edgeNet()
{
    Network net("relu-edges", Shape{3, 14, 14});
    net.addConvBlock("c1", 8, 3, 1, 1);   // pad, conv, relu (epilogue)
    net.addMaxPool("p1", 2, 2);
    net.add(LayerSpec::relu("p1_relu"));  // stand-alone ReLU
    net.addConvBlock("c2", 6, 3, 1, 1);
    return net;
}

/** Seeded weights with edge filters in the first conv. */
NetworkWeights
edgeWeights(const Network &net)
{
    Rng rng(57);
    NetworkWeights w(net, rng);
    FilterBank &fb = w.bank(0);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float big = 3.0e38f;
    for (int n = 0; n < fb.numChannels(); n++) {
        for (int i = 0; i < fb.kernel(); i++) {
            for (int j = 0; j < fb.kernel(); j++) {
                fb.w(1, n, i, j) = big;    // +inf on any positive input
                fb.w(2, n, i, j) = -big;   // -inf likewise
                fb.w(3, n, i, j) = -0.0f;  // -0 * (x >= +0) = -0
            }
        }
    }
    fb.w(0, 1, 1, 1) = nan;
    fb.bias(3) = -0.0f;
    fb.bias(4) = nan;
    return w;
}

/** Bitwise equality: NaN payloads and signed zeros must match. */
::testing::AssertionResult
sameBits(const Tensor &want, const Tensor &got)
{
    if (!(want.shape() == got.shape()))
        return ::testing::AssertionFailure() << "shape mismatch";
    for (int64_t e = 0; e < want.elems(); e++) {
        uint32_t a, b;
        std::memcpy(&a, want.data() + e, 4);
        std::memcpy(&b, got.data() + e, 4);
        if (a != b) {
            return ::testing::AssertionFailure()
                   << "element " << e << ": want " << want.data()[e]
                   << " (0x" << std::hex << a << "), got "
                   << got.data()[e] << " (0x" << b << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(ReluEpilogue, EdgeValuesMatchRunRangeBitForBit)
{
    const Network net = edgeNet();
    const NetworkWeights w = edgeWeights(net);
    const int last = net.numLayers() - 1;
    Tensor in(net.inputShape());
    Rng irng(58);
    in.fillRandom(irng, 0.0f, 1.0f);

    for (Precision mode : {Precision::Fp32, Precision::Int8}) {
        const NetPrecision prec = NetPrecision::calibrate(net, w, mode);

        // The first conv really emits the edge values in this mode.
        const Tensor c1 = runRange(net, w, in, 0, 1, &prec);
        bool has_nan = false, has_pinf = false, has_ninf = false,
             has_nzero = false;
        for (int64_t e = 0; e < c1.elems(); e++) {
            const float v = c1.data()[e];
            has_nan |= std::isnan(v);
            has_pinf |= v == std::numeric_limits<float>::infinity();
            has_ninf |= v == -std::numeric_limits<float>::infinity();
            has_nzero |= v == 0.0f && std::signbit(v);
        }
        const std::string m = precisionName(mode);
        EXPECT_TRUE(has_nan) << m;
        EXPECT_TRUE(has_pinf) << m;
        EXPECT_TRUE(has_ninf) << m;
        // int8 dequantizes bias + scale * float(i32), which cannot
        // produce -0.
        if (mode == Precision::Fp32) {
            EXPECT_TRUE(has_nzero);
        }

        // Layers 0..2 end on the first ReLU, so its clamped edge values
        // are the group output; the whole net checks them downstream.
        // Downstream of c2 the +inf columns saturate every output to
        // +inf or a clamped NaN, which hides a lost stand-alone clamp,
        // so two short ranges are fed the conv's raw edge values: 2..4
        // starts at the first ReLU (no conv epilogue can stand in for
        // its clamp), 3..4 ends at the ReLU after the pool.
        const std::pair<int, int> ranges[] = {
            {0, 2}, {0, last}, {2, 4}, {3, 4}};
        for (const auto &[range_first, range_last] : ranges) {
            const Tensor &src = range_first == 0 ? in : c1;
            Tensor golden;
            {
                ScopedThreads serial(1);
                golden = runRange(net, w, src, range_first, range_last,
                                  &prec);
            }
            for (PlanEngine e : {PlanEngine::Fused, PlanEngine::Recompute,
                                 PlanEngine::LineBuffer}) {
                for (int tip : {1, 5}) {
                    if (e == PlanEngine::LineBuffer && tip > 1)
                        continue;  // a line buffer has no tip
                    PlanCompileOptions o;
                    o.engine = e;
                    o.tip = tip;
                    o.precision = &prec;
                    FusionPlan plan(net, w);
                    plan.addRange(range_first, range_last);
                    const std::string what =
                        m + " layers " + std::to_string(range_first) +
                        ".." + std::to_string(range_last) +
                        " " + planEngineName(e) + " tip " +
                        std::to_string(tip);
                    ASSERT_EQ(plan.compile(o), CompileStatus::Ok)
                        << what << ": " << plan.diagnostic();
                    for (int threads : {1, 2, 8}) {
                        ScopedThreads pin(threads);
                        EXPECT_TRUE(sameBits(golden, plan.execute(src)))
                            << what << " threads " << threads;
                    }
                }
            }
            // The rows per full-width tip change which conv work items
            // clamp which rows and how a Pad's rows split between the
            // BT strip and the fresh rows.
            for (int rows : {1, 3}) {
                FusedExecutor lb(net, w,
                                 TilePlan(net, range_first, range_last,
                                          rows,
                                          net.outShape(range_last).w));
                lb.setPrecision(&prec);
                for (int threads : {1, 2, 8}) {
                    ScopedThreads pin(threads);
                    EXPECT_TRUE(sameBits(golden, lb.run(src)))
                        << m << " layers " << range_first << ".."
                        << range_last << " full width, " << rows
                        << " rows, threads " << threads;
                }
            }
        }
    }
}

} // namespace
} // namespace flcnn
