/**
 * @file
 * Solver registry and per-layer conv planning.
 *
 * A *solver* is one implementation strategy for the conv inner loop —
 * the scalar strip ladder, the AVX2 MR x 8 block, the int8 maddubs,
 * VNNI or AMX pipelines, the opt-in fast-math FMA tier. Each registers:
 *
 *   - a name ("fp32.avx2", "i8.vnni", ...) used in the tune cache,
 *     bench labels, and logs;
 *   - an isApplicable(query) predicate — can this solver run this
 *     layer shape / dtype / fast-math setting on this host;
 *   - a resolve(query, config) hook producing the concrete kernel
 *     function table; and
 *   - a candidates(query) hook enumerating the tunable performance
 *     configs (register-block cap, strip segment width, thread-chunk
 *     grain) the autotuner should try.
 *
 * planConv() is the single dispatch point every executor calls:
 * it consults the persistent per-machine tune cache
 * (tune/tune_cache.hh) and falls back to the *default chain* — the
 * highest-priority applicable solver with its default config. The
 * default chain is constructed to reproduce the pre-registry dispatch
 * exactly (resolveConvBlockKernel / resolveConvBlockKernelI8 with the
 * full 4/2/1 ladder, whole-row strips, grain 1), so a cold cache
 * changes nothing: same kernels, same bits, same speed. The one
 * addition above it is i8.amx, which takes every int8 layer it applies
 * to on a host with AMX (same bits, its own stage and pack layout). A
 * cached winner can only have been stored by the autotuner, which
 * always includes the default as candidate zero and keeps it on ties —
 * the tuned path is never slower than the default by construction.
 *
 * Determinism: for every solver except the explicit fast-math tier,
 * solver choice and config are invisible in the output bits (the
 * per-pixel accumulation order is part of the kernel contract; mrCap,
 * segW and grain only re-partition independent work). The fast-math
 * tier is reachable only when the query says fastMath — nothing else
 * in the chain can select it.
 */

#ifndef FLCNN_TUNE_SOLVER_HH
#define FLCNN_TUNE_SOLVER_HH

#include <functional>
#include <string>
#include <vector>

#include "kernels/conv_kernels.hh"
#include "kernels/conv_kernels_i8.hh"
#include "tensor/precision.hh"

namespace flcnn {

/** The conv-layer shape a plan is keyed by. */
struct ConvShape
{
    int kernel = 3;  //!< K
    int stride = 1;  //!< SX (= SY in this repo's zoo)
    int inC = 1;     //!< input channels (total, all groups)
    int outC = 1;    //!< filters (total, all groups)
    int outW = 1;    //!< output width
    int outH = 1;    //!< output height
    int groups = 1;
};

/** What an executor asks the planner for. */
struct ConvQuery
{
    ConvShape shape;
    Precision dtype = Precision::Fp32;
    bool fastMath = false;  //!< opt-in ULP-bounded tier; never default
};

/** Tunable performance knobs — all bit-invariant (see file header). */
struct ConvConfig
{
    int mrCap = kConvBlockLanes;  //!< widest pack-ladder rung (4/2/1;
                                  //!< kAmxLanes under i8.amx)
    int segW = 0;                 //!< strip segment width, 0 = row
    int grain = 1;                //!< parallelFor thread-chunk grain
};

/** A resolved plan: the chosen solver plus ready-to-run kernels. */
struct ConvPlan
{
    std::string solver;       //!< registered solver name
    ConvConfig cfg;
    bool tuned = false;       //!< came from the tune cache (vs default)
    ConvBlockKernel bk;       //!< fp32/fp16 kernels (seg pre-set)
    ConvBlockKernelI8 bkI8;   //!< int8 kernels (seg pre-set)
};

/** One registered conv solver (see file header for the contract). */
struct ConvSolver
{
    std::string name;
    Precision dtype = Precision::Fp32;  //!< Fp16 reuses Fp32 solvers
    int priority = 0;  //!< default chain picks highest applicable

    std::function<bool(const ConvQuery &)> isApplicable;

    /** Fill plan.bk or plan.bkI8 (by dtype) for this query+config.
     *  Must not depend on anything but (query, config) and immutable
     *  host capability — planning twice must give the same kernels. */
    std::function<void(const ConvQuery &, const ConvConfig &,
                       ConvPlan *)> resolve;

    /** Configs the autotuner should measure (the default config is
     *  always prepended by the tuner regardless). */
    std::function<std::vector<ConvConfig>(const ConvQuery &)> candidates;
};

/** The registry, highest priority first. Built-ins are registered on
 *  first use; the reference is stable for the process lifetime. */
const std::vector<ConvSolver> &convSolverRegistry();

/** Register an additional solver (inserted by priority). Intended for
 *  tests and future kernel tiers; not thread-safe against concurrent
 *  planConv() — register before planning starts. */
void registerConvSolver(ConvSolver s);

/** Find a registered solver by name; nullptr when absent. */
const ConvSolver *findConvSolver(const std::string &name);

/** The i8.amx plan-time check: 255 * 63 * K^2 * C (C per group)
 *  below 2^31, so no i32 accumulator or zero-point term can wrap.
 *  Layers that fail it run i8.vnni or below, as do layers with fewer
 *  than 64 taps per filter (where i8.vnni measured faster). */
bool amxSumFitsI32(const ConvShape &s);

/** The canonical tune-cache key for a query, e.g.
 *  "k11s4g1n3m96x55y55.i8" (fast-math adds ".fast"). */
std::string convShapeKey(const ConvQuery &q);

/**
 * Plan a conv layer: tune-cache winner when one is recorded for this
 * machine + shape and still applicable, else the default chain (which
 * reproduces the pre-registry dispatch bit-for-bit and instruction-
 * for-instruction). Never fails — the scalar solvers accept every
 * query.
 */
ConvPlan planConv(const ConvQuery &q);

/** The default-chain plan, ignoring the tune cache (what a cold run
 *  executes; also the autotuner's candidate zero / tie-break winner). */
ConvPlan planConvDefault(const ConvQuery &q);

} // namespace flcnn

#endif // FLCNN_TUNE_SOLVER_HH
