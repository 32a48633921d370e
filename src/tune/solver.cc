#include "tune/solver.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "tune/tune_cache.hh"

namespace flcnn {

namespace {

/** K^2 * C (C per group): the taps of one filter. */
int64_t
amxTaps(const ConvShape &s)
{
    return static_cast<int64_t>(s.kernel) * s.kernel *
           (s.inC / std::max(s.groups, 1));
}

/** i8.amx takes a layer only when a filter has at least one 64-byte
 *  chunk of taps. Below that (VGG's 3-channel conv1_1: 27 taps) the
 *  tile work is a sliver and its channel-last stage and transposing
 *  epilogue set the time: conv1_1 ran 3.66 ms under i8.amx against
 *  2.96 ms under i8.vnni at one thread (bench/micro_kernels
 *  BM_ConvLayerI8), and 8.0 against 6.0 ms in a tip-4 pyramid. */
constexpr int64_t kAmxMinTaps = 64;

/** Kernel sizes with compile-time specialized variants (the zoo). */
bool
tableKernel(int k)
{
    return k == 1 || k == 3 || k == 5 || k == 7 || k == 11;
}

/** Shared candidate enumeration: every solver tunes the same three
 *  bit-invariant knobs, bounded by the layer's geometry. */
std::vector<ConvConfig>
defaultCandidates(const ConvQuery &q)
{
    std::vector<ConvConfig> out;
    const int out_w = q.shape.outW;
    const int rows = q.shape.outH;
    for (int mr : {kConvBlockLanes, 2}) {
        for (int seg : {0, 16, 32, 64}) {
            if (seg != 0 && seg >= out_w)
                continue;  // whole row already covered by seg = 0
            for (int grain : {1, 2, 4}) {
                if (grain > 1 && grain * 2 > rows)
                    continue;  // too coarse to spread across threads
                out.push_back(ConvConfig{mr, seg, grain});
            }
        }
    }
    return out;
}

void
resolveFp32Exact(const ConvQuery &q, const ConvConfig &cfg, ConvPlan *p)
{
    p->bk = resolveConvBlockKernel(q.shape.kernel, q.shape.stride);
    p->bk.seg = cfg.segW;
}

void
resolveFp32Scalar(const ConvQuery &q, const ConvConfig &cfg, ConvPlan *p)
{
    p->bk = resolveConvBlockKernelScalar(q.shape.kernel, q.shape.stride);
    p->bk.seg = cfg.segW;
}

void
resolveFp32Fast(const ConvQuery &q, const ConvConfig &cfg, ConvPlan *p)
{
    p->bk = resolveConvBlockKernelFast(q.shape.kernel, q.shape.stride);
    p->bk.seg = cfg.segW;
}

/** The strip tiers' pack ladder is 4/2/1: a cap outside it (a
 *  hand-edited cache naming kAmxLanes) must not select AMX panels. */
void
clampLadderCap(ConvPlan *p)
{
    p->cfg.mrCap = std::min(std::max(p->cfg.mrCap, 1), kConvBlockLanes);
}

void
resolveI8Vector(const ConvQuery &q, const ConvConfig &cfg, ConvPlan *p)
{
    p->bkI8 = resolveConvBlockKernelI8(q.shape.kernel, q.shape.stride);
    p->bkI8.seg = cfg.segW;
    clampLadderCap(p);
}

void
resolveI8Scalar(const ConvQuery &q, const ConvConfig &cfg, ConvPlan *p)
{
    p->bkI8 =
        resolveConvBlockKernelI8Scalar(q.shape.kernel, q.shape.stride);
    p->bkI8.seg = cfg.segW;
    clampLadderCap(p);
}

/** i8.amx packs AMX panels (kAmxLanes) whatever the config says; only
 *  the thread-chunk grain is tunable. */
void
resolveI8Amx(const ConvQuery &q, const ConvConfig &, ConvPlan *p)
{
    p->bkI8 = resolveConvBlockKernelI8Amx(q.shape.kernel, q.shape.stride);
    p->cfg.mrCap = kAmxLanes;
    p->cfg.segW = 0;
}

std::vector<ConvConfig>
amxCandidates(const ConvQuery &q)
{
    std::vector<ConvConfig> out;
    for (int grain : {1, 2, 4}) {
        if (grain == 1 || grain * 2 <= q.shape.outH)
            out.push_back(ConvConfig{kAmxLanes, 0, grain});
    }
    return out;
}

std::vector<ConvSolver>
builtinSolvers()
{
    std::vector<ConvSolver> v;

    // --- fp32 / fp16 family (fp16 decodes to fp32 panels and runs the
    // same strip kernels, so it shares these solvers).

    // Fast-math FMA tier: reachable only through an explicit
    // fastMath=true query, never part of the bit-exact default chain.
    v.push_back(ConvSolver{
        "fp32.fma", Precision::Fp32, 30,
        [](const ConvQuery &q) {
            return q.fastMath && convFmaEnabled() &&
                   tableKernel(q.shape.kernel) &&
                   (q.shape.stride == 1 || q.shape.stride == 2 ||
                    q.shape.stride == 4);
        },
        &resolveFp32Fast, &defaultCandidates});

    // Bit-exact AVX2 block kernels (the pre-registry default on SIMD
    // hosts); per-lane operation order identical to scalar.
    v.push_back(ConvSolver{
        "fp32.avx2", Precision::Fp32, 20,
        [](const ConvQuery &q) {
            return convSimdEnabled() && tableKernel(q.shape.kernel) &&
                   (q.shape.stride == 1 || q.shape.stride == 2 ||
                    q.shape.stride == 4);
        },
        &resolveFp32Exact, &defaultCandidates});

    // Portable scalar strip ladder; accepts everything.
    v.push_back(ConvSolver{
        "fp32.scalar", Precision::Fp32, 10,
        [](const ConvQuery &) { return true; }, &resolveFp32Scalar,
        &defaultCandidates});

    // --- int8 family (exact integer sums in every variant).

    v.push_back(ConvSolver{
        "i8.amx", Precision::Int8, 40,
        [](const ConvQuery &q) {
            return convAmxEnabled() && amxTaps(q.shape) >= kAmxMinTaps &&
                   amxSumFitsI32(q.shape);
        },
        &resolveI8Amx, &amxCandidates});

    v.push_back(ConvSolver{
        "i8.vnni", Precision::Int8, 30,
        [](const ConvQuery &q) {
            return convVnniEnabled() && tableKernel(q.shape.kernel) &&
                   (q.shape.stride == 1 || q.shape.stride == 4);
        },
        &resolveI8Vector, &defaultCandidates});

    // maddubs applies only where VNNI does not: both resolve through
    // resolveConvBlockKernelI8 (which upgrades to vpdpbusd when the
    // CPU has it), so gating on !convVnniEnabled() keeps each name an
    // honest description of the kernels actually selected.
    v.push_back(ConvSolver{
        "i8.maddubs", Precision::Int8, 20,
        [](const ConvQuery &q) {
            return convSimdEnabled() && !convVnniEnabled() &&
                   tableKernel(q.shape.kernel) &&
                   (q.shape.stride == 1 || q.shape.stride == 4);
        },
        &resolveI8Vector, &defaultCandidates});

    v.push_back(ConvSolver{
        "i8.scalar", Precision::Int8, 10,
        [](const ConvQuery &) { return true; }, &resolveI8Scalar,
        &defaultCandidates});

    return v;
}

std::vector<ConvSolver> &
registry()
{
    static std::vector<ConvSolver> r = builtinSolvers();
    return r;
}

/** fp16 plans through the fp32 solver family (same kernels). */
Precision
solverDtype(Precision dtype)
{
    return dtype == Precision::Fp16 ? Precision::Fp32 : dtype;
}

} // namespace

const std::vector<ConvSolver> &
convSolverRegistry()
{
    return registry();
}

void
registerConvSolver(ConvSolver s)
{
    FLCNN_ASSERT(s.isApplicable && s.resolve,
                 "solver needs isApplicable and resolve hooks");
    FLCNN_ASSERT(!findConvSolver(s.name), "duplicate solver name");
    if (!s.candidates)
        s.candidates = &defaultCandidates;
    auto &r = registry();
    auto it = std::find_if(r.begin(), r.end(), [&](const ConvSolver &o) {
        return o.priority < s.priority;
    });
    r.insert(it, std::move(s));
}

const ConvSolver *
findConvSolver(const std::string &name)
{
    for (const ConvSolver &s : registry()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

bool
amxSumFitsI32(const ConvShape &s)
{
    return 255 * 63 * amxTaps(s) < (int64_t{1} << 31);
}

std::string
convShapeKey(const ConvQuery &q)
{
    const char *dt = q.dtype == Precision::Int8   ? "i8"
                     : q.dtype == Precision::Fp16 ? "f16"
                                                  : "f32";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "k%ds%dg%dn%dm%dx%dy%d.%s%s",
                  q.shape.kernel, q.shape.stride, q.shape.groups,
                  q.shape.inC, q.shape.outC, q.shape.outW, q.shape.outH,
                  dt, q.fastMath ? ".fast" : "");
    return buf;
}

ConvPlan
planConvDefault(const ConvQuery &q)
{
    const Precision want = solverDtype(q.dtype);
    for (const ConvSolver &s : registry()) {
        if (s.dtype != want || !s.isApplicable(q))
            continue;
        ConvPlan p;
        p.solver = s.name;
        p.cfg = ConvConfig{};
        s.resolve(q, p.cfg, &p);
        return p;
    }
    FLCNN_ASSERT(false, "no applicable conv solver (scalar missing?)");
    return ConvPlan{};
}

ConvPlan
planConv(const ConvQuery &q)
{
    TuneEntry e;
    if (TuneCache::global().lookup(convShapeKey(q), &e)) {
        // Honor the cached winner only if its solver still exists and
        // still applies — a cache written by a SIMD build must not pin
        // vector solvers on a scalar build (the fingerprint already
        // separates those, but applicability is re-checked anyway so a
        // stale or hand-edited file degrades to the default, never to
        // a wrong kernel).
        if (const ConvSolver *s = findConvSolver(e.solver)) {
            if (s->dtype == solverDtype(q.dtype) && s->isApplicable(q)) {
                ConvPlan p;
                p.solver = s->name;
                p.cfg = ConvConfig{e.mrCap, e.segW, e.grain};
                p.tuned = true;
                s->resolve(q, p.cfg, &p);
                return p;
            }
        }
    }
    return planConvDefault(q);
}

} // namespace flcnn
