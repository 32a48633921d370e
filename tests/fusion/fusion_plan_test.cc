/**
 * @file
 * FusionPlan compile/execute contract tests.
 *
 * Two contracts dominate: every declaration error is a *typed*
 * CompileStatus (never an assert, never UB), and a rejected compile
 * never routes anywhere — no silent reference fallback, proven here by
 * the "plan" metrics scope (compile_rejected increments, executes stays
 * zero, silent_fallbacks stays zero). Execution, once pinned, is
 * bit-exact against nn::runRange at every engine x precision.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "fusion/fusion_plan.hh"
#include "fusion/plan.hh"
#include "kernels/weight_pack.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

/** Small conv/pool/relu chain with enough structure to exercise every
 *  engine quickly. */
Network
smallChain()
{
    Network net("plan-chain", Shape{3, 20, 20});
    net.addConvBlock("conv1", 8, 3, 1, 1);
    net.addMaxPool("pool1", 2, 2);
    net.addConvBlock("conv2", 12, 3, 1, 1);
    return net;
}

/** Conv followed by a fully-connected head: the FC is fine for the
 *  Reference engine but outside every fused engine's table. */
Network
convFcNet()
{
    Network net("conv-fc", Shape{2, 6, 6});
    net.add(LayerSpec::conv("c", 4, 3, 1));
    net.add(LayerSpec::relu("r"));
    net.add(LayerSpec::fullyConnected("fc", 10));
    return net;
}

TEST(FusionPlan, CompileExecuteMatchesRunRangeEveryEngine)
{
    Network net = smallChain();
    Rng wrng(5);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(6);
    in.fillRandom(irng);
    const int last = net.numLayers() - 1;
    Tensor golden = runRange(net, w, in, 0, last);

    for (PlanEngine e : {PlanEngine::Reference, PlanEngine::Fused,
                         PlanEngine::LineBuffer, PlanEngine::Recompute}) {
        SCOPED_TRACE(planEngineName(e));
        FusionPlan plan(net, w);
        plan.addRange(0, last);
        PlanCompileOptions opt;
        opt.engine = e;
        ASSERT_EQ(plan.compile(opt), CompileStatus::Ok)
            << plan.diagnostic();
        EXPECT_TRUE(plan.compiled());
        EXPECT_EQ(plan.engine(), e);
        EXPECT_EQ(plan.inShape(), net.inputShape());
        EXPECT_EQ(plan.outShape(), net.outputShape());
        EXPECT_GE(plan.compileSeconds(), 0.0);
        // Both conv layers resolved through the solver registry.
        ASSERT_EQ(plan.solvers().size(), 2u);
        EXPECT_EQ(plan.solvers()[0].substr(0, 2),
                  std::to_string(net.convLayers()[0]) + ":");

        // Execute-many: repeated runs stay bit-exact.
        for (int rep = 0; rep < 3; rep++) {
            Tensor out = plan.execute(in);
            EXPECT_TRUE(tensorsEqual(golden, out))
                << "rep " << rep << " diverged";
        }
        if (e != PlanEngine::Reference) {
            EXPECT_TRUE(plan.producesInto());
            Tensor out(plan.outShape());
            plan.executeInto(in, &out);
            EXPECT_TRUE(tensorsEqual(golden, out));
        } else {
            EXPECT_FALSE(plan.producesInto());
        }
    }
}

TEST(FusionPlan, CompileExecuteMatchesRunRangeEveryPrecision)
{
    Network net = smallChain();
    Rng wrng(7);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(8);
    in.fillRandom(irng);
    const int last = net.numLayers() - 1;

    for (Precision mode :
         {Precision::Fp32, Precision::Int8, Precision::Fp16}) {
        const NetPrecision prec = NetPrecision::calibrate(net, w, mode);
        Tensor golden = runRange(net, w, in, 0, last, &prec);
        for (PlanEngine e : {PlanEngine::Reference, PlanEngine::Fused,
                             PlanEngine::LineBuffer,
                             PlanEngine::Recompute}) {
            SCOPED_TRACE(std::string(precisionName(mode)) + " " +
                         planEngineName(e));
            FusionPlan plan(net, w);
            plan.addRange(0, last);
            PlanCompileOptions opt;
            opt.engine = e;
            opt.precision = &prec;
            ASSERT_EQ(plan.compile(opt), CompileStatus::Ok)
                << plan.diagnostic();
            EXPECT_TRUE(tensorsEqual(golden, plan.execute(in)));
        }
    }
}

TEST(FusionPlan, ReferencePlanResolvesPacksOnlyAtCompile)
{
    // A compiled Reference plan resolves each conv's pack once, through
    // the shared registry, at compile time; warm executes look nothing
    // up and pack nothing, in every precision.
    Network net = smallChain();
    Rng wrng(31);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(32);
    in.fillRandom(irng);
    const int last = net.numLayers() - 1;
    SharedPackRegistry &reg = SharedPackRegistry::global();
    const auto lookups = [&reg] { return reg.builds() + reg.sharedHits(); };
    for (Precision mode :
         {Precision::Fp32, Precision::Int8, Precision::Fp16}) {
        SCOPED_TRACE(precisionName(mode));
        const NetPrecision prec = NetPrecision::calibrate(net, w, mode);
        const Tensor golden = runRange(net, w, in, 0, last, &prec);
        FusionPlan plan(net, w);
        plan.addRange(0, last);
        PlanCompileOptions opt;
        opt.engine = PlanEngine::Reference;
        opt.precision = &prec;
        const int64_t before = lookups();
        ASSERT_EQ(plan.compile(opt), CompileStatus::Ok);
        EXPECT_EQ(lookups(), before + 2);
        for (int rep = 0; rep < 3; rep++)
            EXPECT_TRUE(tensorsEqual(golden, plan.execute(in))) << rep;
        EXPECT_EQ(lookups(), before + 2);
    }
}

TEST(FusionPlan, TypedStatusForEveryDeclarationError)
{
    Network net = smallChain();
    NetworkWeights w(net);
    PlanCompileOptions opt;

    {  // Empty op list: typed error, not an assert (satellite 2).
        FusionPlan plan(net, w);
        EXPECT_EQ(plan.compile(opt), CompileStatus::EmptyPlan);
        EXPECT_FALSE(plan.compiled());
        EXPECT_NE(plan.diagnostic().find("no ops"), std::string::npos);
    }
    {  // Out-of-range op index.
        FusionPlan plan(net, w);
        plan.addOp(99);
        EXPECT_EQ(plan.compile(opt), CompileStatus::InvalidOp);
    }
    {  // Duplicate op (satellite 2).
        FusionPlan plan(net, w);
        plan.addOp(0);
        plan.addOp(0);
        EXPECT_EQ(plan.compile(opt), CompileStatus::DuplicateOp);
        EXPECT_NE(plan.diagnostic().find("twice"), std::string::npos);
    }
    {  // Gap in the sequence.
        FusionPlan plan(net, w);
        plan.addOp(0);
        plan.addOp(2);
        EXPECT_EQ(plan.compile(opt), CompileStatus::NonContiguousOp);
    }
    {  // Descending order is also non-contiguous.
        FusionPlan plan(net, w);
        plan.addOp(1);
        plan.addOp(0);
        EXPECT_EQ(plan.compile(opt), CompileStatus::NonContiguousOp);
    }
    {  // Non-positive pyramid tip.
        FusionPlan plan(net, w);
        plan.addOp(0);
        PlanCompileOptions bad = opt;
        bad.tip = 0;
        EXPECT_EQ(plan.compile(bad), CompileStatus::UnsupportedSequence);
    }
}

TEST(FusionPlan, MultiInputJoinIsTypedRejection)
{
    Network net = residualBlock();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);  // crosses the Add join
    PlanCompileOptions opt;
    EXPECT_EQ(plan.compile(opt), CompileStatus::MultiInputOp);
    EXPECT_NE(plan.diagnostic().find("join"), std::string::npos);
    EXPECT_FALSE(plan.compiled());
}

TEST(FusionPlan, FanOutEscapeIsTypedRejection)
{
    // inceptionJoin's stem fans out to both branches; a range ending
    // between them leaks an intermediate, which no pyramid can keep
    // unmaterialized.
    Network net = inceptionJoin();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, 2);
    PlanCompileOptions opt;
    EXPECT_EQ(plan.compile(opt), CompileStatus::UnsupportedSequence);

    // The branch interior itself is a clean path and compiles.
    FusionPlan branch(net, w);
    branch.addRange(1, 2);
    EXPECT_EQ(branch.compile(opt), CompileStatus::Ok)
        << branch.diagnostic();
}

TEST(FusionPlan, FullyConnectedOnlyOnReferenceEngine)
{
    Network net = convFcNet();
    Rng rng(9);
    NetworkWeights w(net, rng);
    PlanCompileOptions opt;

    // Every fused engine rejects the FC with a typed status...
    for (PlanEngine e : {PlanEngine::Fused, PlanEngine::LineBuffer,
                         PlanEngine::Recompute}) {
        SCOPED_TRACE(planEngineName(e));
        FusionPlan plan(net, w);
        plan.addRange(0, net.numLayers() - 1);
        PlanCompileOptions fused_opt = opt;
        fused_opt.engine = e;
        EXPECT_EQ(plan.compile(fused_opt), CompileStatus::UnsupportedOp);
        EXPECT_FALSE(plan.compiled());
    }

    // ...while the Reference engine accepts it as an explicit choice.
    FusionPlan ref(net, w);
    ref.addRange(0, net.numLayers() - 1);
    PlanCompileOptions ref_opt = opt;
    ref_opt.engine = PlanEngine::Reference;
    ASSERT_EQ(ref.compile(ref_opt), CompileStatus::Ok);
    Tensor in(net.inputShape());
    Rng irng(10);
    in.fillRandom(irng);
    Tensor golden = runRange(net, w, in, 0, net.numLayers() - 1);
    EXPECT_TRUE(tensorsEqual(golden, ref.execute(in)));
}

TEST(FusionPlan, SecondCompileReturnsAlreadyCompiled)
{
    Network net = smallChain();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    PlanCompileOptions opt;
    ASSERT_EQ(plan.compile(opt), CompileStatus::Ok);
    EXPECT_EQ(plan.compile(opt), CompileStatus::AlreadyCompiled);
    // The pinned executor is unharmed by the rejected re-compile.
    EXPECT_TRUE(plan.compiled());
    Tensor in(net.inputShape());
    (void)plan.execute(in);
}

TEST(FusionPlan, CheckIsPureAndCompileMatchesIt)
{
    Network net = smallChain();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    PlanCompileOptions opt;
    EXPECT_EQ(plan.check(opt), CompileStatus::Ok);
    EXPECT_FALSE(plan.compiled());  // check() builds nothing
    EXPECT_TRUE(plan.solvers().empty());

    FusionPlan bad(net, w);
    bad.addOp(0);
    bad.addOp(2);
    EXPECT_EQ(bad.check(opt), bad.compile(opt));
}

TEST(FusionPlan, RejectedCompileNeverExecutesAndNeverFallsBack)
{
    // The no-silent-fallback contract, as CI asserts it: a rejected
    // compile bumps compile_rejected, executes stays zero, and the
    // silent_fallbacks counter exists and stays zero.
    Network net = convFcNet();
    NetworkWeights w(net);
    MetricsRegistry reg;
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    PlanCompileOptions opt;
    opt.engine = PlanEngine::Fused;
    opt.metrics = &reg;
    EXPECT_EQ(plan.compile(opt), CompileStatus::UnsupportedOp);

    EXPECT_EQ(reg.counter("plan", "compiles"), 1);
    EXPECT_EQ(reg.counter("plan", "compile_rejected"), 1);
    EXPECT_EQ(reg.counter("plan", "silent_fallbacks"), 0);
    EXPECT_EQ(reg.counter("plan", "executes"), 0);
    EXPECT_EQ(reg.counter("plan", "compile_ok"), 0);
}

TEST(FusionPlan, MetricsCountCompilesAndExecutes)
{
    Network net = smallChain();
    Rng rng(13);
    NetworkWeights w(net, rng);
    MetricsRegistry reg;

    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    PlanCompileOptions opt;
    opt.engine = PlanEngine::LineBuffer;
    opt.metrics = &reg;
    ASSERT_EQ(plan.compile(opt), CompileStatus::Ok);
    // The pre-pack zero run counts as an execute.
    const int64_t prepack = reg.counter("plan", "executes");
    Tensor in(net.inputShape());
    (void)plan.execute(in);
    (void)plan.execute(in);
    EXPECT_EQ(reg.counter("plan", "compiles"), 1);
    EXPECT_EQ(reg.counter("plan", "compile_ok"), 1);
    EXPECT_EQ(reg.counter("plan", "reference_compiles"), 0);
    EXPECT_EQ(reg.counter("plan", "executes"), prepack + 2);
    EXPECT_GE(reg.gauge("plan", "compile_seconds"), 0.0);

    // Reference compiles are counted separately — choosing the
    // reference path is explicit, never a fallback.
    FusionPlan ref(net, w);
    ref.addRange(0, net.numLayers() - 1);
    PlanCompileOptions ropt;
    ropt.engine = PlanEngine::Reference;
    ropt.metrics = &reg;
    ASSERT_EQ(ref.compile(ropt), CompileStatus::Ok);
    EXPECT_EQ(reg.counter("plan", "reference_compiles"), 1);
}

TEST(FusionPlan, CopyClonesDeclarationNotCompiledState)
{
    Network net = smallChain();
    Rng rng(15);
    NetworkWeights w(net, rng);
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    PlanCompileOptions opt;
    ASSERT_EQ(plan.compile(opt), CompileStatus::Ok);

    FusionPlan copy(plan);
    EXPECT_EQ(copy.ops(), plan.ops());
    EXPECT_FALSE(copy.compiled());  // template copy starts uncompiled
    ASSERT_EQ(copy.compile(opt), CompileStatus::Ok);

    Tensor in(net.inputShape());
    Rng irng(16);
    in.fillRandom(irng);
    EXPECT_TRUE(tensorsEqual(plan.execute(in), copy.execute(in)));
}

TEST(FusionPlan, PlansSharingALayerDoNotAliasPackEntries)
{
    // Satellite 3 regression: the executors key their weight-pack
    // caches by *absolute* layer index and dtype, so two plans over
    // overlapping ranges — at different precisions — each keep their
    // own pack of the shared conv and stay bit-exact against their own
    // reference.
    Network net = smallChain();
    Rng wrng(17);
    NetworkWeights w(net, wrng);
    Tensor in(net.inputShape());
    Rng irng(18);
    in.fillRandom(irng);
    const int last = net.numLayers() - 1;
    const NetPrecision i8 =
        NetPrecision::calibrate(net, w, Precision::Int8);

    // Plan A: fp32 over the full range. Plan B: int8 over a suffix
    // sharing conv2 with A.
    const int suffix_first = net.convLayers()[1];
    FusionPlan a(net, w), b(net, w);
    a.addRange(0, last);
    b.addRange(suffix_first, last);
    PlanCompileOptions aopt, bopt;
    aopt.engine = PlanEngine::LineBuffer;
    bopt.engine = PlanEngine::LineBuffer;
    bopt.precision = &i8;
    ASSERT_EQ(a.compile(aopt), CompileStatus::Ok);
    ASSERT_EQ(b.compile(bopt), CompileStatus::Ok);

    Tensor golden_a = runRange(net, w, in, 0, last);
    Tensor mid = runRange(net, w, in, 0, suffix_first - 1);
    Tensor golden_b = runRange(net, w, mid, suffix_first, last, &i8);

    // Interleave executions so a shared/aliased pack entry would be
    // observed by the other plan.
    for (int rep = 0; rep < 3; rep++) {
        EXPECT_TRUE(tensorsEqual(golden_a, a.execute(in))) << rep;
        EXPECT_TRUE(tensorsEqual(golden_b, b.execute(mid))) << rep;
    }
}

TEST(FusionPlan, GroupListMustCutTheOpsIntoConsecutiveRuns)
{
    // Explicit groups chain through DRAM and match runRange; a gap, or
    // groups under the Reference engine, are typed rejections.
    Network net = smallChain();
    NetworkWeights w(net);
    Tensor in(net.inputShape());
    Rng irng(22);
    in.fillRandom(irng);
    const int last = net.numLayers() - 1, mid = net.stages()[1].first;
    FusionPlan plan(net, w);
    plan.addRange(0, last);
    PlanCompileOptions opt;
    opt.engine = PlanEngine::Reference;
    EXPECT_EQ(plan.compile(opt, {TilePlan(net, 0, mid - 1),
                                 TilePlan(net, mid, last)}),
              CompileStatus::UnsupportedSchedule);
    opt.engine = PlanEngine::Recompute;
    EXPECT_EQ(plan.compile(opt, {TilePlan(net, 0, mid - 2),
                                 TilePlan(net, mid, last)}),
              CompileStatus::UnsupportedSchedule);
    ASSERT_EQ(plan.compile(opt, {TilePlan(net, 0, mid - 1, 2, 2),
                                 TilePlan(net, mid, last, 3, 1)}),
              CompileStatus::Ok);
    EXPECT_TRUE(tensorsEqual(runRange(net, w, in, 0, last),
                             plan.execute(in)));
}

TEST(FusionPlanDeath, ExecuteBeforeCompileIsFatal)
{
    Network net = smallChain();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    Tensor in(net.inputShape());
    EXPECT_EXIT((void)plan.execute(in), ::testing::ExitedWithCode(1),
                "before a successful compile");
}

TEST(FusionPlanDeath, ExecuteAfterRejectionReportsTheDiagnostic)
{
    Network net = convFcNet();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, net.numLayers() - 1);
    PlanCompileOptions opt;
    opt.engine = PlanEngine::Fused;
    ASSERT_EQ(plan.compile(opt), CompileStatus::UnsupportedOp);
    Tensor in(net.inputShape());
    EXPECT_EXIT((void)plan.execute(in), ::testing::ExitedWithCode(1),
                "unsupported_op");
}

TEST(FusionPlanDeath, AddOpAfterCompileIsFatal)
{
    Network net = smallChain();
    NetworkWeights w(net);
    FusionPlan plan(net, w);
    plan.addRange(0, 0);
    PlanCompileOptions opt;
    ASSERT_EQ(plan.compile(opt), CompileStatus::Ok);
    EXPECT_DEATH(plan.addOp(1), "addOp");
}

} // namespace
} // namespace flcnn
