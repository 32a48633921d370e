#include "tune/autotune.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
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
 * knob that changes the panel layout).
 */
struct BenchWorkload
{
    ConvQuery q;
    int inH = 0, inW = 0;
    int nPerGroup = 0;
    FilterBank fb;
    Tensor in;                  //!< fp32 input
    Tensor out;                 //!< fp32 output planes
    ActQuant act{1.0f / 64.0f, 128};      //!< int8 input quantization
    std::map<int, ConvStage> stages;      //!< int8, by stage layout
    std::map<int, PackedWeights> packs;
    std::map<int, PackedWeightsI8> packsI8;
    std::vector<float> wScales;

    explicit BenchWorkload(const ConvQuery &query) : q(query)
    {
        const ConvShape &s = q.shape;
        inH = (s.outH - 1) * s.stride + s.kernel;
        inW = (s.outW - 1) * s.stride + s.kernel;
        nPerGroup = s.inC / s.groups;
        fb = FilterBank(s.outC, nPerGroup, s.kernel);
        Rng rng(0x7a3e5c91u + static_cast<uint64_t>(s.kernel) * 131 +
                static_cast<uint64_t>(s.outC));
        fb.fillRandom(rng);
        in = Tensor(Shape{s.inC, inH, inW});
        in.fillRandom(rng);
        out = Tensor(Shape{s.outC, s.outH, s.outW});
        if (q.dtype == Precision::Int8)
            wScales.assign(static_cast<size_t>(s.outC), 0.05f);
    }

    /** The int8 input staged in the layout @p bk reads. */
    const ConvStage &
    stage(const ConvBlockKernelI8 &bk)
    {
        const int groups = bk.stageGroups(q.shape.groups);
        auto it = stages.find(groups);
        if (it == stages.end()) {
            it = stages.emplace(groups, ConvStage{}).first;
            it->second.configure(Precision::Int8, q.shape.inC, inH, inW,
                                 groups);
            stageConvInputI8(it->second, in, act, 0, inH);
        }
        return it->second;
    }

    const PackedWeights &
    pack(int mr_cap)
    {
        auto it = packs.find(mr_cap);
        if (it == packs.end())
            it = packs
                     .emplace(mr_cap, PackedWeights(fb, q.shape.groups,
                                                    0, mr_cap))
                     .first;
        return it->second;
    }

    const PackedWeightsI8 &
    packI8(int mr_cap)
    {
        auto it = packsI8.find(mr_cap);
        if (it == packsI8.end())
            it = packsI8
                     .emplace(mr_cap,
                              PackedWeightsI8(fb, q.shape.groups,
                                              wScales, mr_cap))
                     .first;
        return it->second;
    }
};

/** One full pass over the synthetic layer with the candidate plan. */
void
runOnce(BenchWorkload &w, const ConvPlan &plan)
{
    const ConvShape &s = w.q.shape;
    if (w.q.dtype == Precision::Int8) {
        const PackedWeightsI8 &pw = w.packI8(plan.cfg.mrCap);
        const ConvStage &st = w.stage(plan.bkI8);
        const int nb = pw.numBlocks();
        const int64_t plane =
            static_cast<int64_t>(s.outH) * s.outW;
        parallelFor(
            0, static_cast<int64_t>(nb) * s.outH,
            [&](int64_t i0, int64_t i1) {
              for (int64_t i = i0; i < i1; i++) {
                const int bi = static_cast<int>(i / s.outH);
                const int y = static_cast<int>(i % s.outH);
                convBlockRowI8(plan.bkI8, pw, bi,
                               &w.out(pw.block(bi).m0, y, 0), plane,
                               s.outW, st, y * s.stride, 0, w.act);
              }
            },
            plan.cfg.grain);
    } else {
        const PackedWeights &pw = w.pack(plan.cfg.mrCap);
        const int nb = pw.numBlocks();
        const int64_t plane =
            static_cast<int64_t>(s.outH) * s.outW;
        parallelFor(
            0, static_cast<int64_t>(nb) * s.outH,
            [&](int64_t i0, int64_t i1) {
              for (int64_t i = i0; i < i1; i++) {
                const int bi = static_cast<int>(i / s.outH);
                const int y = static_cast<int>(i % s.outH);
                convBlockRowTensor(
                    plan.bk, pw, bi,
                    &w.out(pw.block(bi).m0, y, 0), plane, s.outW,
                    w.in, y * s.stride, 0);
              }
            },
            plan.cfg.grain);
    }
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
