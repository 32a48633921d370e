/**
 * @file
 * Executor-level differential for the strip kernels' masked tail
 * block. A fused pyramid hands each layer a fresh tile only a few
 * pixels wide, so at small tips nearly every conv strip ends in (or
 * is entirely) a sub-8-pixel tail. Every engine that produces such
 * tiles — Fused and Recompute at tips {1, 2, 3, 4, 5, 7}, plus
 * LineBuffer — must stay bit-identical to nn::runRange in fp32 and
 * int8 at 1 and 2 threads, on a small VGG-style net whose fresh
 * widths hit every remainder 1..7 and on the int8 AlexNet fused
 * prefix at 227x227 (conv1 11x11 s4 at width 55 = 48 + 7).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fusion/fusion_plan.hh"
#include "fusion/plan.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

constexpr int kTips[] = {1, 2, 3, 4, 5, 7};

/** VGG-style: two padded 3x3 blocks and a pool between each, so the
 *  last conv's fresh width is the tip and the earlier ones 2x and 4x
 *  it; planes of 36/18/9 add tails to the row-streaming engine. */
Network
smallVgg()
{
    Network net("tail-vgg", Shape{3, 36, 36});
    net.addConvBlock("conv1_1", 8, 3, 1, 1);
    net.addConvBlock("conv1_2", 8, 3, 1, 1);
    net.addMaxPool("pool1", 2, 2);
    net.addConvBlock("conv2_1", 12, 3, 1, 1);
    net.addConvBlock("conv2_2", 12, 3, 1, 1);
    net.addMaxPool("pool2", 2, 2);
    net.addConvBlock("conv3_1", 16, 3, 1, 1);
    return net;
}

/** Restores the default pool size when a test leaves. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) { ThreadPool::setGlobalThreads(n); }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(0); }
};

/** Compile every tail-producing engine over the whole net and check
 *  each against @p golden at 1 and 2 threads. */
void
expectEnginesMatch(const Network &net, const NetworkWeights &w,
                   const NetPrecision &prec, const Tensor &in,
                   const Tensor &golden)
{
    const int last = net.numLayers() - 1;
    std::vector<PlanCompileOptions> opts;
    for (PlanEngine e : {PlanEngine::Fused, PlanEngine::Recompute}) {
        for (int tip : kTips) {
            PlanCompileOptions o;
            o.engine = e;
            o.tip = tip;
            opts.push_back(o);
        }
    }
    PlanCompileOptions lb;
    lb.engine = PlanEngine::LineBuffer;
    opts.push_back(lb);

    for (PlanCompileOptions o : opts) {
        o.precision = &prec;
        const std::string what =
            net.name() + " " + precisionName(prec.mode()) + " " +
            planEngineName(o.engine) + " tip " + std::to_string(o.tip);
        FusionPlan plan(net, w);
        plan.addRange(0, last);
        ASSERT_EQ(plan.compile(o), CompileStatus::Ok)
            << what << ": " << plan.diagnostic();
        for (int threads : {1, 2}) {
            ScopedThreads pin(threads);
            const CompareResult cmp =
                compareTensors(golden, plan.execute(in));
            EXPECT_TRUE(cmp.match) << what << " threads " << threads
                                   << ": " << cmp.str();
        }
    }
}

TEST(StripTailDifferential, SmallVggFreshWidthsHitEveryRemainder)
{
    const Network net = smallVgg();
    std::set<int> rems;
    for (int tip : kTips) {
        const TilePlan tp(net, 0, net.numLayers() - 1, tip, tip);
        for (int li = 0; li < tp.numFusedLayers(); li++) {
            const LayerGeom &g = tp.geom(li);
            if (net.layer(g.layerIdx).kind != LayerKind::Conv)
                continue;
            for (int c = 0; c < tp.numPyramidCols(); c++)
                rems.insert(g.freshOutX(c).width() % 8);
        }
    }
    for (int r = 1; r < 8; r++)
        EXPECT_TRUE(rems.count(r)) << "no fresh width leaves " << r;
}

TEST(StripTailDifferential, SmallVggEnginesMatchRunRange)
{
    const Network net = smallVgg();
    Rng wrng(91);
    const NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(92);
    in.fillRandom(irng);

    for (Precision mode : {Precision::Fp32, Precision::Int8}) {
        const NetPrecision prec = NetPrecision::calibrate(net, w, mode);
        const Tensor golden =
            runRange(net, w, in, 0, net.numLayers() - 1, &prec);
        expectEnginesMatch(net, w, prec, in, golden);
    }
}

TEST(StripTailDifferential, AlexNetInt8PrefixEnginesMatchRunRange)
{
    const Network net = alexnetFusedPrefix();
    ASSERT_EQ(net.inputShape(), (Shape{3, 227, 227}));
    Rng wrng(93);
    const NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(94);
    in.fillRandom(irng);

    const NetPrecision prec =
        NetPrecision::calibrate(net, w, Precision::Int8);
    const Tensor golden =
        runRange(net, w, in, 0, net.numLayers() - 1, &prec);
    expectEnginesMatch(net, w, prec, in, golden);
}

} // namespace
} // namespace flcnn
