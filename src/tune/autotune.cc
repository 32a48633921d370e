#include "tune/autotune.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/conv_layer.hh"
#include "kernels/weight_pack.hh"

namespace flcnn {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Synthetic workload of exactly the queried shape, built once per
 * query and shared by every candidate so measurements differ only in
 * the knobs under test. Packs are cached per mrCap (the only config
 * knob that changes the panel layout) and int8 stages per layout.
 */
struct BenchWorkload
{
    ConvQuery q;
    FilterBank fb;
    Tensor in;                  //!< fp32 input
    Tensor out;                 //!< fp32 output planes
    ActQuant act{1.0f / 64.0f, 128};      //!< int8 input quantization
    std::map<int, ConvStage> stages;      //!< by int8 stage groups
    std::map<int, PackedWeights> packs;
    std::map<int, PackedWeightsF16> packsF16;
    std::map<int, PackedWeightsI8> packsI8;
    std::vector<float> wScales;

    explicit BenchWorkload(const ConvQuery &query) : q(query)
    {
        const ConvShape &s = q.shape;
        fb = FilterBank(s.outC, s.inC / s.groups, s.kernel);
        Rng rng(0x7a3e5c91u + static_cast<uint64_t>(s.kernel) * 131 +
                static_cast<uint64_t>(s.outC));
        fb.fillRandom(rng);
        in = Tensor(Shape{s.inC, (s.outH - 1) * s.stride + s.kernel,
                          (s.outW - 1) * s.stride + s.kernel});
        in.fillRandom(rng);
        out = Tensor(Shape{s.outC, s.outH, s.outW});
        if (q.dtype == Precision::Int8)
            wScales.assign(static_cast<size_t>(s.outC), 0.05f);
    }
};

/** The pack in @p packs for @p mr_cap, built on first use. */
template <typename Pack, typename... Args>
const Pack &
cachedPack(std::map<int, Pack> &packs, int mr_cap, const Args &...args)
{
    auto it = packs.find(mr_cap);
    if (it == packs.end())
        it = packs.emplace(mr_cap, Pack(args..., mr_cap)).first;
    return it->second;
}

/** One full pass over the synthetic layer with the candidate plan,
 *  through the driver the engines run (int8 and fp16 stage the input
 *  on every pass, as the engines do). */
void
runOnce(BenchWorkload &w, const ConvPlan &plan)
{
    const ConvShape &s = w.q.shape;
    ConvLayerRun layer;
    layer.bk = plan.bk;
    layer.bkI8 = plan.bkI8;
    layer.grain = plan.cfg.grain;
    layer.act = w.act;
    if (w.q.dtype == Precision::Int8)
        layer.pwI8 = &cachedPack(w.packsI8, plan.cfg.mrCap, w.fb,
                                 s.groups, w.wScales);
    else if (w.q.dtype == Precision::Fp16)
        layer.pwF16 = &cachedPack(w.packsF16, plan.cfg.mrCap, w.fb,
                                  s.groups);
    else
        layer.pw = &cachedPack(w.packs, plan.cfg.mrCap, w.fb, s.groups, 0);
    runConvRows(layer, w.in, 0, 0, s.outH, s.outW, w.out.data(),
                static_cast<int64_t>(s.outH) * s.outW, s.outW,
                w.stages[plan.bkI8.stageGroups(s.groups)]);
}

/** Best-of-samples seconds per pass for one candidate plan. */
double
timePlan(BenchWorkload &w, const ConvPlan &plan,
         const AutotuneOptions &opt)
{
    // Warm caches (and build the pack outside the timed region).
    runOnce(w, plan);

    // Scale reps so one sample is long enough to time reliably.
    auto t0 = Clock::now();
    runOnce(w, plan);
    double once = secondsSince(t0);
    int reps = 1;
    if (once * 1e3 < opt.minSampleMs)
        reps = static_cast<int>(opt.minSampleMs / (once * 1e3)) + 1;

    double best = 1e30;
    for (int s = 0; s < std::max(1, opt.samples); s++) {
        t0 = Clock::now();
        for (int r = 0; r < reps; r++)
            runOnce(w, plan);
        best = std::min(best, secondsSince(t0) / reps);
    }
    return best;
}

int64_t
layerMacs(const ConvShape &s)
{
    return static_cast<int64_t>(s.outC) * s.outH * s.outW *
           (s.inC / s.groups) * s.kernel * s.kernel;
}

} // namespace

AutotuneResult
autotuneConv(const ConvQuery &q, const AutotuneOptions &opt)
{
    AutotuneResult res;
    res.shapeKey = convShapeKey(q);

    TuneEntry cached;
    if (!opt.force &&
        TuneCache::global().lookup(res.shapeKey, &cached)) {
        res.winner = cached;
        res.fromCache = true;
        return res;
    }

    BenchWorkload w(q);

    // Candidate zero: the default chain's plan. A challenger must beat
    // it strictly — ties keep the default, so tuning is never-slower
    // by construction.
    const ConvPlan def = planConvDefault(q);
    double best_t = timePlan(w, def, opt);
    TuneEntry best{def.solver, def.cfg.mrCap, def.cfg.segW,
                   def.cfg.grain, 0.0};
    res.candidates = 1;

    const Precision want =
        q.dtype == Precision::Fp16 ? Precision::Fp32 : q.dtype;
    for (const ConvSolver &s : convSolverRegistry()) {
        if (s.dtype != want || !s.isApplicable(q))
            continue;
        for (const ConvConfig &cfg : s.candidates(q)) {
            if (s.name == def.solver && cfg.mrCap == def.cfg.mrCap &&
                cfg.segW == def.cfg.segW && cfg.grain == def.cfg.grain)
                continue;  // already measured as candidate zero
            ConvPlan p;
            p.solver = s.name;
            p.cfg = cfg;
            s.resolve(q, cfg, &p);
            const double t = timePlan(w, p, opt);
            res.candidates++;
            if (t < best_t) {
                best_t = t;
                best = TuneEntry{s.name, cfg.mrCap, cfg.segW,
                                 cfg.grain, 0.0};
            }
        }
    }

    best.gmacs = static_cast<double>(layerMacs(q.shape)) / best_t / 1e9;
    TuneCache::global().store(res.shapeKey, best);
    res.winner = best;
    return res;
}

AutotuneSummary
autotuneQueries(const std::vector<ConvQuery> &qs,
                const AutotuneOptions &opt)
{
    AutotuneSummary sum;
    for (const ConvQuery &q : qs) {
        const AutotuneResult r = autotuneConv(q, opt);
        if (r.fromCache)
            sum.cached++;
        else
            sum.tuned++;
    }
    return sum;
}

} // namespace flcnn
