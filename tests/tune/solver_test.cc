/**
 * @file
 * Solver registry and planConv(): the default chain reproduces the
 * pre-registry dispatch exactly, the fast-math tier is reachable only
 * through an explicit fastMath query, cached winners apply their
 * config (and are re-checked for applicability), and planning is
 * deterministic across repeated calls and thread counts.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "common/thread_pool.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"
#include "tune/solver.hh"
#include "tune/tune_cache.hh"

namespace flcnn {
namespace {

// The tests drive TuneCache::global() directly; force it memory-only
// before anything touches it so no file outside the build tree is
// read or written. (The environment is read once, at first use, and
// static initialization runs before any test body.)
const bool kGlobalCacheDisabled = [] {
    setenv("FLCNN_TUNE_CACHE", "", 1);
    return true;
}();

ConvQuery
query(int k, int s, Precision dtype = Precision::Fp32,
      bool fast = false)
{
    ConvQuery q;
    q.shape = ConvShape{k, s, 4, 8, 24, 8, 1};
    q.dtype = dtype;
    q.fastMath = fast;
    return q;
}

bool
sameFp32Kernels(const ConvBlockKernel &a, const ConvBlockKernel &b)
{
    if (a.k != b.k || a.sx != b.sx)
        return false;
    for (int mr = 0; mr <= kConvBlockLanes; mr++)
        if (a.fn[mr] != b.fn[mr])
            return false;
    return true;
}

bool
sameI8Kernels(const ConvBlockKernelI8 &a, const ConvBlockKernelI8 &b)
{
    if (a.k != b.k || a.sx != b.sx || a.k4 != b.k4 || a.amx != b.amx)
        return false;
    for (int mr = 0; mr <= kConvBlockLanes; mr++)
        if (a.fn[mr] != b.fn[mr])
            return false;
    return true;
}

TEST(SolverRegistry, BuiltinsArePresentUniqueAndPrioritySorted)
{
    ASSERT_TRUE(kGlobalCacheDisabled);
    const std::vector<ConvSolver> &reg = convSolverRegistry();
    ASSERT_FALSE(reg.empty());

    // Names are unique, and within each dtype family (the set
    // planConvDefault scans for a query) priority is non-increasing —
    // the first applicable solver is the intended default.
    std::set<std::string> names;
    std::map<Precision, int> last;
    for (const ConvSolver &s : reg) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate solver " << s.name;
        auto it = last.find(s.dtype);
        if (it != last.end()) {
            EXPECT_GE(it->second, s.priority) << s.name;
        }
        last[s.dtype] = s.priority;
    }

    // The always-applicable fallbacks every query can land on.
    ASSERT_NE(findConvSolver("fp32.scalar"), nullptr);
    ASSERT_NE(findConvSolver("i8.scalar"), nullptr);
    EXPECT_TRUE(findConvSolver("fp32.scalar")->isApplicable(
        query(9, 3)));  // off-table shape
    EXPECT_EQ(findConvSolver("nope"), nullptr);
}

TEST(SolverRegistry, DefaultChainReproducesLegacyFp32Dispatch)
{
    const int grid[][2] = {{1, 1}, {3, 1}, {3, 2}, {5, 1},
                           {7, 2}, {11, 4}, {9, 3}};
    for (const auto &ks : grid) {
        const ConvQuery q = query(ks[0], ks[1]);
        const ConvPlan p = planConvDefault(q);
        EXPECT_FALSE(p.tuned);
        EXPECT_EQ(p.cfg.mrCap, kConvBlockLanes);
        EXPECT_EQ(p.cfg.segW, 0);
        EXPECT_EQ(p.cfg.grain, 1);
        EXPECT_EQ(p.bk.seg, 0);

        // Same function pointers as the pre-registry resolver: the
        // cold-cache path is the legacy dispatch, instruction for
        // instruction.
        EXPECT_TRUE(sameFp32Kernels(
            p.bk, resolveConvBlockKernel(ks[0], ks[1])))
            << "k=" << ks[0] << " s=" << ks[1];

        const bool table = ks[0] == 1 || ks[0] == 3 || ks[0] == 5 ||
                           ks[0] == 7 || ks[0] == 11;
        const bool vec = convSimdEnabled() && table && ks[1] != 3;
        EXPECT_EQ(p.solver, vec ? "fp32.avx2" : "fp32.scalar");
    }
}

TEST(SolverRegistry, DefaultChainReproducesLegacyI8Dispatch)
{
    // Below the AMX tier (which takes every int8 layer it applies to)
    // the chain is the legacy resolver's.
    for (int s : {1, 4}) {
        const ConvQuery q = query(s == 4 ? 11 : 3, s, Precision::Int8);
        const ConvPlan p = planConvDefault(q);
        // 3x3 over 4 channels is 36 taps, under i8.amx's 64-tap floor.
        if (convAmxEnabled() && s == 4) {
            EXPECT_EQ(p.solver, "i8.amx");
            EXPECT_EQ(p.cfg.mrCap, kAmxLanes);
            EXPECT_TRUE(sameI8Kernels(
                p.bkI8, resolveConvBlockKernelI8Amx(q.shape.kernel, s)));
            continue;
        }
        EXPECT_TRUE(sameI8Kernels(
            p.bkI8, resolveConvBlockKernelI8(q.shape.kernel, s)));
        if (convVnniEnabled())
            EXPECT_EQ(p.solver, "i8.vnni");
        else if (convSimdEnabled())
            EXPECT_EQ(p.solver, "i8.maddubs");
        else
            EXPECT_EQ(p.solver, "i8.scalar");
    }
}

TEST(SolverRegistry, Fp16PlansThroughTheFp32Family)
{
    const ConvPlan p = planConvDefault(query(3, 1, Precision::Fp16));
    EXPECT_EQ(p.solver.rfind("fp32.", 0), 0u) << p.solver;
    EXPECT_TRUE(sameFp32Kernels(p.bk, resolveConvBlockKernel(3, 1)));
}

TEST(SolverRegistry, FastMathTierIsReachableOnlyByExplicitOptIn)
{
    // No solver may accept the fast-math tier for a default query —
    // the bit-exact contract of the default chain depends on it.
    const ConvSolver *fma = findConvSolver("fp32.fma");
    ASSERT_NE(fma, nullptr);
    for (const auto &ks :
         {std::pair<int, int>{1, 1}, {3, 1}, {5, 1}, {11, 4}})
        EXPECT_FALSE(fma->isApplicable(query(ks.first, ks.second)));

    const ConvPlan fast = planConvDefault(query(3, 1, Precision::Fp32,
                                                true));
    if (convFmaEnabled()) {
        EXPECT_EQ(fast.solver, "fp32.fma");
        EXPECT_TRUE(sameFp32Kernels(fast.bk,
                                    resolveConvBlockKernelFast(3, 1)));
    } else {
        // Without FMA the opt-in degrades to the exact chain.
        EXPECT_TRUE(sameFp32Kernels(fast.bk,
                                    resolveConvBlockKernel(3, 1)));
    }
}

TEST(SolverRegistry, ShapeKeySeparatesDtypeAndFastMath)
{
    ConvQuery q;
    q.shape = ConvShape{11, 4, 3, 96, 55, 55, 1};
    EXPECT_EQ(convShapeKey(q), "k11s4g1n3m96x55y55.f32");
    q.fastMath = true;
    EXPECT_EQ(convShapeKey(q), "k11s4g1n3m96x55y55.f32.fast");
    q.fastMath = false;
    q.dtype = Precision::Int8;
    EXPECT_EQ(convShapeKey(q), "k11s4g1n3m96x55y55.i8");
    q.dtype = Precision::Fp16;
    EXPECT_EQ(convShapeKey(q), "k11s4g1n3m96x55y55.f16");
}

TEST(PlanConv, ColdCacheEqualsDefaultChain)
{
    TuneCache::global().clear();
    const ConvQuery q = query(5, 1);
    const ConvPlan cold = planConv(q);
    const ConvPlan dflt = planConvDefault(q);
    EXPECT_FALSE(cold.tuned);
    EXPECT_EQ(cold.solver, dflt.solver);
    EXPECT_TRUE(sameFp32Kernels(cold.bk, dflt.bk));
}

TEST(PlanConv, CachedWinnerAppliesItsConfig)
{
    TuneCache::global().clear();
    const ConvQuery q = query(3, 1);
    TuneEntry e;
    e.solver = "fp32.scalar";
    e.mrCap = 2;
    e.segW = 16;
    e.grain = 2;
    TuneCache::global().store(convShapeKey(q), e);

    const ConvPlan p = planConv(q);
    EXPECT_TRUE(p.tuned);
    EXPECT_EQ(p.solver, "fp32.scalar");
    EXPECT_EQ(p.cfg.mrCap, 2);
    EXPECT_EQ(p.cfg.segW, 16);
    EXPECT_EQ(p.cfg.grain, 2);
    EXPECT_EQ(p.bk.seg, 16);
    EXPECT_TRUE(sameFp32Kernels(p.bk,
                                resolveConvBlockKernelScalar(3, 1)));
    TuneCache::global().clear();
}

TEST(PlanConv, StaleOrInapplicableEntriesDegradeToDefault)
{
    TuneCache::global().clear();
    const ConvQuery q = query(3, 1);

    // A solver name that no longer exists (hand-edited or future file).
    TuneEntry e;
    e.solver = "fp32.retired";
    TuneCache::global().store(convShapeKey(q), e);
    ConvPlan p = planConv(q);
    EXPECT_FALSE(p.tuned);
    EXPECT_EQ(p.solver, planConvDefault(q).solver);

    // An entry pinning the fast-math tier for a non-fast query: the
    // applicability re-check rejects it even though the solver exists.
    TuneCache::global().clear();
    e.solver = "fp32.fma";
    TuneCache::global().store(convShapeKey(q), e);
    p = planConv(q);
    EXPECT_FALSE(p.tuned);
    EXPECT_NE(p.solver, "fp32.fma");

    // Dtype mismatch: an fp32 winner stored under an int8 key.
    TuneCache::global().clear();
    const ConvQuery q8 = query(3, 1, Precision::Int8);
    e.solver = "fp32.scalar";
    TuneCache::global().store(convShapeKey(q8), e);
    p = planConv(q8);
    EXPECT_FALSE(p.tuned);
    EXPECT_EQ(p.solver, planConvDefault(q8).solver);
    TuneCache::global().clear();
}

TEST(PlanConv, AmxOverflowCheckFallsBackToVnni)
{
    // 255 * 63 * 11^2 * 1105 >= 2^31: an i32 sum could wrap, so i8.amx
    // declines the layer and the chain continues below it. One channel
    // fewer fits.
    TuneCache::global().clear();
    ConvQuery q = query(11, 4, Precision::Int8);
    q.shape.inC = 1105;
    EXPECT_FALSE(amxSumFitsI32(q.shape));
    const ConvPlan p = planConv(q);
    EXPECT_NE(p.solver, "i8.amx");
    EXPECT_EQ(p.bkI8.amx, nullptr);
    EXPECT_LE(p.cfg.mrCap, kConvBlockLanes);
    if (convVnniEnabled()) {
        EXPECT_EQ(p.solver, "i8.vnni");
    }
    q.shape.inC = 1104;
    EXPECT_TRUE(amxSumFitsI32(q.shape));
    EXPECT_EQ(planConv(q).solver,
              convAmxEnabled() ? "i8.amx" : p.solver);
    // Too few taps per filter (3x3 x 3 channels) stays below i8.amx.
    ConvQuery thin = query(3, 1, Precision::Int8);
    thin.shape.inC = 3;
    EXPECT_NE(planConv(thin).solver, "i8.amx");
    // Per group: two groups of 1104 fit.
    q.shape.inC = 2208;
    q.shape.groups = 2;
    EXPECT_TRUE(amxSumFitsI32(q.shape));
}

TEST(PlanConv, AmxTuneEntryDegradesWhereTheTierDoesNotApply)
{
    // A cache entry naming i8.amx is honored only where the tier
    // applies; elsewhere (a host without AMX, or a layer past the
    // overflow check) the default chain plans the layer, with the
    // 4/2/1 pack ladder — never AMX panels under another tier.
    TuneCache::global().clear();
    TuneEntry e;
    e.solver = "i8.amx";
    e.mrCap = kAmxLanes;
    e.grain = 2;
    ConvQuery big = query(11, 4, Precision::Int8);
    big.shape.inC = 1105;
    ConvQuery q = query(3, 1, Precision::Int8);
    q.shape.inC = 64;
    TuneCache::global().store(convShapeKey(big), e);
    TuneCache::global().store(convShapeKey(q), e);

    for (const bool fits : {false, true}) {
        const ConvQuery &c = fits ? q : big;
        const ConvPlan p = planConv(c);
        if (fits && convAmxEnabled()) {
            EXPECT_TRUE(p.tuned);
            EXPECT_EQ(p.solver, "i8.amx");
            EXPECT_EQ(p.cfg.grain, 2);
            continue;
        }
        const ConvPlan dflt = planConvDefault(c);
        EXPECT_FALSE(p.tuned);
        EXPECT_EQ(p.solver, dflt.solver);
        EXPECT_EQ(p.cfg.mrCap, dflt.cfg.mrCap);
        EXPECT_LE(p.cfg.mrCap, kConvBlockLanes);
        EXPECT_TRUE(sameI8Kernels(p.bkI8, dflt.bkI8));
    }

    // A vector-tier entry carrying the AMX lane count keeps the ladder.
    TuneCache::global().clear();
    e.solver = "i8.scalar";
    TuneCache::global().store(convShapeKey(q), e);
    EXPECT_EQ(planConv(q).cfg.mrCap, kConvBlockLanes);
    TuneCache::global().clear();
}

TEST(PlanConv, DeterministicAcrossCallsAndThreadCounts)
{
    TuneCache::global().clear();
    const ConvQuery q = query(3, 1);
    TuneEntry e;
    e.solver = "fp32.scalar";
    e.mrCap = 2;
    e.segW = 32;
    e.grain = 4;
    TuneCache::global().store(convShapeKey(q), e);

    const ConvPlan first = planConv(q);
    for (int threads : {1, 4, 1}) {
        ThreadPool::setGlobalThreads(threads);
        const ConvPlan p = planConv(q);
        EXPECT_EQ(p.solver, first.solver);
        EXPECT_EQ(p.cfg.mrCap, first.cfg.mrCap);
        EXPECT_EQ(p.cfg.segW, first.cfg.segW);
        EXPECT_EQ(p.cfg.grain, first.cfg.grain);
        EXPECT_EQ(p.tuned, first.tuned);
        EXPECT_TRUE(sameFp32Kernels(p.bk, first.bk));
    }
    ThreadPool::setGlobalThreads(1);
    TuneCache::global().clear();
}

TEST(PlanConv, RegisteredSolversJoinTheChainByPriority)
{
    // A test-only solver above the built-ins for one odd shape: the
    // default chain must pick it there and ignore it elsewhere.
    ConvSolver s;
    s.name = "fp32.test_k13";
    s.dtype = Precision::Fp32;
    s.priority = 99;
    s.isApplicable = [](const ConvQuery &q) {
        return q.shape.kernel == 13;
    };
    s.resolve = [](const ConvQuery &q, const ConvConfig &cfg,
                   ConvPlan *p) {
        p->bk = resolveConvBlockKernelScalar(q.shape.kernel,
                                             q.shape.stride);
        p->bk.seg = cfg.segW;
    };
    registerConvSolver(s);

    EXPECT_EQ(planConvDefault(query(13, 1)).solver, "fp32.test_k13");
    EXPECT_NE(planConvDefault(query(3, 1)).solver, "fp32.test_k13");
}

} // namespace
} // namespace flcnn
