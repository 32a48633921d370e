/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot paths:
 * pyramid-plan construction, whole-space exploration, the balance
 * search, and the three fused executors. These are regression guards
 * for the tooling itself (the paper's "explored in just a few minutes"
 * claim is about this code path), not paper experiments.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/thread_pool.hh"
#include "dse/sweep.hh"
#include "fusion/fused_executor.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/conv_layer.hh"
#include "kernels/relu.hh"
#include "kernels/weight_pack.hh"
#include "model/balance.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tune/solver.hh"

using namespace flcnn;

namespace {

/** One output row of one filter computed naively (convPoint per
 *  pixel): the baseline for the blocked kernels below, per (K,
 *  stride). */
struct StripFixture
{
    Tensor in;
    FilterBank fb;
    int stride;
    int outW;

    StripFixture(int k, int s, int out_w = 128)
        : in(Shape{16, k, s * (out_w - 1) + k}), fb(1, 16, k), stride(s),
          outW(out_w)
    {
        Rng irng(11);
        in.fillRandom(irng);
        Rng wrng(12);
        fb.fillRandom(wrng);
    }
};

void
BM_ConvRowNaive(benchmark::State &state)
{
    StripFixture f(static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)));
    std::vector<float> dst(static_cast<size_t>(f.outW));
    for (auto _ : state) {
        for (int x = 0; x < f.outW; x++)
            dst[static_cast<size_t>(x)] =
                convPoint(f.in, f.fb, 0, 0, x * f.stride, 1, 1, nullptr);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW);
}
BENCHMARK(BM_ConvRowNaive)
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({5, 1})
    ->Args({7, 2})
    ->Args({11, 4});

/** Like StripFixture but with a 4-filter bank, for the multi-filter
 *  blocked kernels (one MR x strip register block per pass), and
 *  @p rows output rows of input. */
struct BlockFixture
{
    static constexpr int kFilters = 4;
    Tensor in;
    FilterBank fb;
    int stride;
    int outW;

    BlockFixture(int k, int s, int out_w = 128, int rows = 1)
        : in(Shape{16, s * (rows - 1) + k, s * (out_w - 1) + k}),
          fb(kFilters, 16, k), stride(s), outW(out_w)
    {
        Rng irng(11);
        in.fillRandom(irng);
        Rng wrng(12);
        fb.fillRandom(wrng);
    }
};

/** The planner's choice for a blocked-row fixture shape, as a bench
 *  label (the "label" field of --benchmark_format=json output). */
std::string
solverLabel(const BlockFixture &f, bool fast_math,
            Precision dtype = Precision::Fp32)
{
    ConvQuery q;
    q.shape = ConvShape{f.fb.kernel(), f.stride, f.in.shape().c,
                        BlockFixture::kFilters, f.outW, 1, 1};
    q.fastMath = fast_math;
    q.dtype = dtype;
    const ConvPlan plan = planConv(q);
    return "solver=" + plan.solver +
           " mr=" + std::to_string(plan.cfg.mrCap) +
           " seg=" + std::to_string(plan.cfg.segW) +
           " grain=" + std::to_string(plan.cfg.grain);
}

void
BM_ConvRowBlocked(benchmark::State &state)
{
    // Four filters in one pass from a packed panel: every loaded input
    // element is reused across the filter lanes (items = pixels x
    // filters, so items/s is comparable with the single-filter strip).
    BlockFixture f(static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)));
    const ConvBlockKernel bk =
        resolveConvBlockKernel(f.fb.kernel(), f.stride);
    const PackedWeights pw(f.fb);
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters) * f.outW);
    for (auto _ : state) {
        convBlockRowTensor(bk, pw, 0, dst.data(), f.outW, f.outW, f.in,
                           0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW *
                            BlockFixture::kFilters);
    state.SetLabel(solverLabel(f, false));
}
BENCHMARK(BM_ConvRowBlocked)
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({5, 1})
    ->Args({7, 2})
    ->Args({11, 4});

void
BM_ConvRowFast(benchmark::State &state)
{
    // The opt-in fast-math tier on the same blocked-row shape: FMA
    // with two reordered accumulators per lane (ULP-bounded, not
    // bit-exact). Compare items/s against BM_ConvRowBlocked for the
    // tier's raw kernel speedup.
    if (!convFmaEnabled()) {
        state.SkipWithError("FMA kernels unavailable on this host");
        return;
    }
    BlockFixture f(static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)));
    const ConvBlockKernel bk =
        resolveConvBlockKernelFast(f.fb.kernel(), f.stride);
    const PackedWeights pw(f.fb);
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters) * f.outW);
    for (auto _ : state) {
        convBlockRowTensor(bk, pw, 0, dst.data(), f.outW, f.outW, f.in,
                           0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW *
                            BlockFixture::kFilters);
    state.SetLabel(solverLabel(f, true));
}
BENCHMARK(BM_ConvRowFast)
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({5, 1})
    ->Args({7, 2})
    ->Args({11, 4});

void
BM_ConvRowBlockedGeneric(benchmark::State &state)
{
    // The runtime-(K, stride) multi-filter fallback (also what
    // FLCNN_SIMD=OFF builds run for specialized sizes' tails).
    BlockFixture f(static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)));
    ConvBlockKernel bk = resolveConvBlockKernel(f.fb.kernel(), f.stride);
    for (int mr = 0; mr <= kConvBlockLanes; mr++)
        bk.fn[mr] = nullptr;  // force the generic path
    const PackedWeights pw(f.fb);
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters) * f.outW);
    for (auto _ : state) {
        convBlockRowTensor(bk, pw, 0, dst.data(), f.outW, f.outW, f.in,
                           0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW *
                            BlockFixture::kFilters);
}
BENCHMARK(BM_ConvRowBlockedGeneric)->Args({3, 1})->Args({5, 1});

void
BM_ConvRowNarrow(benchmark::State &state)
{
    // A fused pyramid's fresh tile, one row per call: VGG's 3x3 s1 conv
    // over a strip 4, 8, 12 or 16 pixels wide (tip 4 at conv3_1 and
    // conv2_x, recompute at tip 8). One block-row call costs about the
    // same whatever share of the vector block the row fills, so
    // items/s falls with the width; BM_ConvRowsGrouped fills the block
    // from several rows instead.
    BlockFixture f(3, 1, static_cast<int>(state.range(0)));
    const ConvBlockKernel bk = resolveConvBlockKernel(3, 1);
    const PackedWeights pw(f.fb);
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters) * f.outW);
    for (auto _ : state) {
        convBlockRowTensor(bk, pw, 0, dst.data(), f.outW, f.outW, f.in,
                           0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW *
                            BlockFixture::kFilters);
    state.SetLabel(solverLabel(f, false));
}
BENCHMARK(BM_ConvRowNarrow)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_ConvRowNarrowI8(benchmark::State &state)
{
    // The same narrow strips through the int8 row driver (staged u8
    // input, resolved int8 kernel, dequant epilogue), one row per call.
    BlockFixture f(3, 1, static_cast<int>(state.range(0)));
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    ConvStage st;
    const Shape &s = f.in.shape();
    st.configure(Precision::Int8, s.c, s.h, s.w);
    stageConvInputI8(st, f.in, act, 0, s.h);
    const PackedWeightsI8 pw(
        f.fb, 1, std::vector<float>(BlockFixture::kFilters, 0.05f));
    const ConvBlockKernelI8 bk = resolveConvBlockKernelI8(3, 1);
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters) * f.outW);
    for (auto _ : state) {
        convBlockRowI8(bk, pw, 0, dst.data(), f.outW, f.outW, st, 0, 0,
                       act);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW *
                            BlockFixture::kFilters);
    state.SetLabel(solverLabel(f, false, Precision::Int8));
}
BENCHMARK(BM_ConvRowNarrowI8)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_ConvRowsGrouped(benchmark::State &state)
{
    // Several narrow rows in one region call ({rows, width}: 4 x 4 and
    // 2 x 8), the way the pyramid engine runs them: the kernel packs
    // pixels of several rows into one vector block. items/s against
    // BM_ConvRowNarrow at the same width is the grouping's gain.
    const int rows = static_cast<int>(state.range(0));
    BlockFixture f(3, 1, static_cast<int>(state.range(1)), rows);
    const ConvBlockKernel bk = resolveConvBlockKernel(3, 1);
    const PackedWeights pw(f.fb);
    const int64_t plane = static_cast<int64_t>(rows) * f.outW;
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters * plane));
    for (auto _ : state) {
        convBlockRowTensor(bk, pw, 0, dst.data(), plane, f.outW, f.in, 0,
                           0, rows, f.outW);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * plane *
                            BlockFixture::kFilters);
    state.SetLabel(solverLabel(f, false));
}
BENCHMARK(BM_ConvRowsGrouped)->Args({4, 4})->Args({2, 8});

void
BM_ConvRowsGroupedI8(benchmark::State &state)
{
    // The int8 row driver over a region of rows, as BM_ConvRowsGrouped.
    const int rows = static_cast<int>(state.range(0));
    BlockFixture f(3, 1, static_cast<int>(state.range(1)), rows);
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    ConvStage st;
    const Shape &s = f.in.shape();
    st.configure(Precision::Int8, s.c, s.h, s.w);
    stageConvInputI8(st, f.in, act, 0, s.h);
    const PackedWeightsI8 pw(
        f.fb, 1, std::vector<float>(BlockFixture::kFilters, 0.05f));
    const ConvBlockKernelI8 bk = resolveConvBlockKernelI8(3, 1);
    const int64_t plane = static_cast<int64_t>(rows) * f.outW;
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters * plane));
    for (auto _ : state) {
        convBlockRowI8(bk, pw, 0, dst.data(), plane, f.outW, st, 0, 0,
                       act, rows, f.outW);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * plane *
                            BlockFixture::kFilters);
    state.SetLabel(solverLabel(f, false, Precision::Int8));
}
BENCHMARK(BM_ConvRowsGroupedI8)->Args({4, 4})->Args({2, 8});

/** A whole int8 conv layer: VGG-five's five convs at 224^2 and
 *  AlexNet's conv2 (two groups of 48 channels, 5x5, 27^2 out). */
struct I8LayerShape
{
    const char *name;
    int c, m, k, out, groups;
};
constexpr I8LayerShape kI8Layers[] = {
    {"conv1_1", 3, 64, 3, 224, 1},   {"conv1_2", 64, 64, 3, 224, 1},
    {"conv2_1", 64, 128, 3, 112, 1}, {"conv2_2", 128, 128, 3, 112, 1},
    {"conv3_1", 128, 256, 3, 56, 1}, {"alex_conv2", 96, 256, 5, 27, 2},
};
constexpr const char *kI8Tiers[] = {"i8.vnni", "i8.amx"};

void
BM_ConvLayerI8(benchmark::State &state)
{
    // One thread runs the layer through runConvRows (staging, every
    // (filter block, row group) region and the epilogue) under the
    // named solver: the A/B of i8.amx against i8.vnni on real layer
    // shapes. GMAC/s counts only the layer's multiply-accumulates.
    const I8LayerShape &l = kI8Layers[state.range(0)];
    const char *tier = kI8Tiers[state.range(1)];
    ConvQuery q;
    q.shape = ConvShape{l.k, 1, l.c, l.m, l.out, l.out, l.groups};
    q.dtype = Precision::Int8;
    const ConvSolver *solver = findConvSolver(tier);
    if (!solver || !solver->isApplicable(q)) {
        state.SkipWithError("solver does not apply to this layer here");
        return;
    }
    ConvPlan plan;
    plan.solver = tier;
    solver->resolve(q, plan.cfg, &plan);
    const int side = l.out + l.k - 1;
    Tensor in(l.c, side, side);
    Rng rng(19);
    in.fillRandom(rng, -1.0f, 1.0f);
    FilterBank fb(l.m, l.c / l.groups, l.k);
    fb.fillRandom(rng);
    const PackedWeightsI8 pw(
        fb, l.groups, std::vector<float>(static_cast<size_t>(l.m), 0.05f),
        plan.cfg.mrCap);
    ConvLayerRun layer;
    layer.bkI8 = plan.bkI8;
    layer.pwI8 = &pw;
    layer.act = chooseActQuant(-1.0f, 1.0f);
    ConvStage st;
    Tensor out(l.m, l.out, l.out);
    const int64_t plane = static_cast<int64_t>(l.out) * l.out;
    ThreadPool::setGlobalThreads(1);
    for (auto _ : state) {
        runConvRows(layer, in, 0, 0, l.out, l.out, out.data(), plane, l.out,
                    st);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    ThreadPool::setGlobalThreads(0);
    const double macs = static_cast<double>(plane) * l.m * l.k * l.k *
                        (l.c / l.groups);
    state.counters["GMAC/s"] = benchmark::Counter(
        macs * 1e-9 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.SetLabel(std::string(l.name) + " " + tier);
}
BENCHMARK(BM_ConvLayerI8)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void
BM_QuantizeRowI8(benchmark::State &state)
{
    // int8 staging of a pyramid tile 6, 10 or 18 pixels wide (VGG-five
    // conv2_2 / conv2_1 / conv1_2 tiles at tip 4): 16 channels x 8
    // rows through stageConvInputI8, whose row quantizer runs 16 and
    // 8 pixels per step and ends in a masked block.
    const int w = static_cast<int>(state.range(0));
    Tensor in(16, 8, w);
    Rng rng(17);
    in.fillRandom(rng);
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    ConvStage st;
    st.configure(Precision::Int8, 16, 8, w);
    for (auto _ : state) {
        stageConvInputI8(st, in, act, 0, 8);
        benchmark::DoNotOptimize(st.u8.data());
    }
    state.SetItemsProcessed(state.iterations() * in.elems());
}
BENCHMARK(BM_QuantizeRowI8)->Arg(6)->Arg(10)->Arg(18);

/** 64 rows of @p w activations in [-1, 1), so about half clamp. */
std::vector<float>
reluInput(int w)
{
    Tensor t(64, 1, w);
    Rng rng(18);
    t.fillRandom(rng, -1.0f, 1.0f);
    return std::vector<float>(t.data(), t.data() + t.elems());
}

void
BM_ReluRows(benchmark::State &state)
{
    // The shared ReLU helper out of place, as a stand-alone line-buffer
    // ReLU runs it: 64 channel rows 4 (a narrow pyramid tile), 56
    // (VGG-five conv3_1) or 224 (conv1_x) wide.
    const int w = static_cast<int>(state.range(0));
    const std::vector<float> src = reluInput(w);
    std::vector<float> dst(src.size());
    for (auto _ : state) {
        reluRows(dst.data(), w, src.data(), w, 64, w);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_ReluRows)->Arg(4)->Arg(56)->Arg(224);

void
BM_ReluRowsScalar(benchmark::State &state)
{
    // The per-element std::max loop the executors' ReLU ran before
    // the helper, on the same rows as BM_ReluRows.
    const int w = static_cast<int>(state.range(0));
    const std::vector<float> src = reluInput(w);
    std::vector<float> dst(src.size());
    for (auto _ : state) {
        for (size_t e = 0; e < src.size(); e++)
            dst[e] = std::max(0.0f, src[e]);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_ReluRowsScalar)->Arg(4)->Arg(56)->Arg(224);

void
BM_WeightPack(benchmark::State &state)
{
    // One-time cost of repacking a VGG-sized bank into filter-
    // interleaved panels (executors amortize this over a whole run).
    const int m = static_cast<int>(state.range(0));
    FilterBank fb(m, 64, 3);
    Rng wrng(13);
    fb.fillRandom(wrng);
    for (auto _ : state) {
        PackedWeights pw(fb);
        benchmark::DoNotOptimize(pw.panel(0));
    }
    state.SetItemsProcessed(state.iterations() * fb.numFilters() *
                            fb.numChannels() * fb.kernel() * fb.kernel());
}
BENCHMARK(BM_WeightPack)->Arg(64)->Arg(256);

void
BM_TilePlanConstruction(benchmark::State &state)
{
    Network net = vggEPrefix(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        TilePlan plan(net, 0, net.numLayers() - 1);
        benchmark::DoNotOptimize(plan.reuseBufferBytes());
    }
}
BENCHMARK(BM_TilePlanConstruction)->Arg(2)->Arg(5)->Arg(8);

void
BM_DseChainSweep(benchmark::State &state)
{
    // The paper's chain space: all 2^(l-1) partitions, priced on the
    // Figure 7 axes and the full latency/energy/buffer surface.
    Network net = vggEPrefix(static_cast<int>(state.range(0)));
    dse::SweepOptions opt;
    opt.space = dse::Space::Chain;
    opt.cost.withRecompute = true;
    int64_t visited = 0;
    for (auto _ : state) {
        dse::SweepResult res = runSweep(net, opt);
        visited = res.pointsVisited;
        benchmark::DoNotOptimize(res.front.size());
    }
    state.counters["points"] = static_cast<double>(visited);
    state.counters["points_per_s"] = benchmark::Counter(
        static_cast<double>(visited) * state.iterations(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DseChainSweep)
    ->Arg(5)   // 7 stages, 64 partitions
    ->Arg(10)  // 13 stages, 4096 partitions
    ->Unit(benchmark::kMillisecond);

void
BM_DseLoopTreeSweep(benchmark::State &state)
{
    // The enlarged LoopTree space under a fixed point budget: prefix
    // DP over per-range schedule variants (tile heights, retain
    // ladders, alternate dataflows) plus the exact chain DP.
    Network net = vggEPrefix(static_cast<int>(state.range(0)));
    dse::SweepOptions opt;
    opt.space = dse::Space::LoopTree;
    opt.cost.withRecompute = true;
    opt.pointBudget = state.range(1);
    int64_t visited = 0;
    for (auto _ : state) {
        dse::SweepResult res = runSweep(net, opt);
        visited = res.pointsVisited;
        benchmark::DoNotOptimize(res.front.size());
    }
    state.counters["points"] = static_cast<double>(visited);
    state.counters["points_per_s"] = benchmark::Counter(
        static_cast<double>(visited) * state.iterations(),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DseLoopTreeSweep)
    ->Args({5, 50'000})
    ->Args({10, 200'000})
    ->Unit(benchmark::kMillisecond);

void
BM_BalanceFusedPipeline(benchmark::State &state)
{
    Network net = vggEPrefix(5);
    for (auto _ : state) {
        auto cfg = balanceFusedPipeline(net, 0, net.numLayers() - 1,
                                        static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(cfg.totalDsp);
    }
}
BENCHMARK(BM_BalanceFusedPipeline)->Arg(500)->Arg(2987);

void
BM_OptimizeBaseline(benchmark::State &state)
{
    Network net = vggEPrefix(5);
    for (auto _ : state) {
        BaselineConfig cfg = optimizeBaseline(net, 2880);
        benchmark::DoNotOptimize(cfg.tm);
    }
}
BENCHMARK(BM_OptimizeBaseline);

struct ExecFixture
{
    Network net;
    NetworkWeights weights;
    Tensor input;

    ExecFixture()
        : net(makeNet()), weights(net, rng()), input(net.inputShape())
    {
        Rng r(3);
        input.fillRandom(r);
    }

    static Network
    makeNet()
    {
        Network n("micro", Shape{3, 32, 32});
        n.addConvBlock("c1", 8, 3, 1, 1);
        n.addMaxPool("p1", 2, 2);
        n.addConvBlock("c2", 8, 3, 1, 1);
        return n;
    }

    static Rng &
    rng()
    {
        static Rng r(2);
        return r;
    }
};

void
BM_ReferenceExecutor(benchmark::State &state)
{
    ExecFixture f;
    for (auto _ : state) {
        Tensor out = runRange(f.net, f.weights, f.input, 0,
                              f.net.numLayers() - 1);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ReferenceExecutor)->Unit(benchmark::kMillisecond);

void
BM_FusedPyramidExecutor(benchmark::State &state)
{
    ExecFixture f;
    FusedExecutor exec(f.net, f.weights,
                       TilePlan(f.net, 0, f.net.numLayers() - 1));
    for (auto _ : state) {
        Tensor out = exec.run(f.input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FusedPyramidExecutor)->Unit(benchmark::kMillisecond);

void
BM_LineBufferMicro(benchmark::State &state)
{
    // The line buffer: tips of N rows across the whole output width.
    ExecFixture f;
    const int last = f.net.numLayers() - 1;
    FusedExecutor exec(f.net, f.weights,
                       TilePlan(f.net, 0, last,
                                static_cast<int>(state.range(0)),
                                f.net.outShape(last).w));
    for (auto _ : state) {
        Tensor out = exec.run(f.input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LineBufferMicro)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_RecomputeExecutorMicro(benchmark::State &state)
{
    ExecFixture f;
    FusedExecutor exec(f.net, f.weights,
                       TilePlan(f.net, 0, f.net.numLayers() - 1),
                       FusedExecutor::Halo::Recompute);
    for (auto _ : state) {
        Tensor out = exec.run(f.input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_RecomputeExecutorMicro)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
