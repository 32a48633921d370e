/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot paths:
 * pyramid-plan construction, whole-space exploration, the balance
 * search, and the three fused executors. These are regression guards
 * for the tooling itself (the paper's "explored in just a few minutes"
 * claim is about this code path), not paper experiments.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "dse/sweep.hh"
#include "fusion/fused_executor.hh"
#include "fusion/line_buffer_executor.hh"
#include "fusion/recompute_executor.hh"
#include "kernels/conv_kernels.hh"
#include "kernels/conv_layer.hh"
#include "kernels/weight_pack.hh"
#include "model/balance.hh"
#include "model/explorer.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tune/solver.hh"

using namespace flcnn;

namespace {

/** One output row computed naively (convPoint per pixel) vs as one
 *  register-tiled strip — the raw kernel speedup, per (K, stride). */
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

void
BM_ConvRowStrip(benchmark::State &state)
{
    StripFixture f(static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)));
    const ConvKernel ks = resolveConvKernel(f.fb.kernel(), f.stride);
    std::vector<float> dst(static_cast<size_t>(f.outW));
    for (auto _ : state) {
        convRowTensor(ks, dst.data(), f.outW, f.in, f.fb, 0, 0, 0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW);
}
BENCHMARK(BM_ConvRowStrip)
    ->Args({1, 1})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({5, 1})
    ->Args({7, 2})
    ->Args({11, 4});

void
BM_ConvRowStripGeneric(benchmark::State &state)
{
    // The runtime-(K, stride) fallback, for sizes with no specialized
    // variant — still strip-tiled, just without compile-time constants.
    StripFixture f(static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)));
    ConvKernel ks = resolveConvKernel(f.fb.kernel(), f.stride);
    ks.fn = nullptr;  // force the generic path
    std::vector<float> dst(static_cast<size_t>(f.outW));
    for (auto _ : state) {
        convRowTensor(ks, dst.data(), f.outW, f.in, f.fb, 0, 0, 0, 0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW);
}
BENCHMARK(BM_ConvRowStripGeneric)->Args({3, 1})->Args({5, 1});

/** Like StripFixture but with a 4-filter bank, for the multi-filter
 *  blocked kernels (one MR x strip register block per pass). */
struct BlockFixture
{
    static constexpr int kFilters = 4;
    Tensor in;
    FilterBank fb;
    int stride;
    int outW;

    BlockFixture(int k, int s, int out_w = 128)
        : in(Shape{16, k, s * (out_w - 1) + k}), fb(kFilters, 16, k),
          stride(s), outW(out_w)
    {
        Rng irng(11);
        in.fillRandom(irng);
        Rng wrng(12);
        fb.fillRandom(wrng);
    }
};

/** The planner's choice for a blocked-row fixture shape, as a bench
 *  label — run_bench.py harvests this into the solver field of each
 *  bench entry. */
std::string
solverLabel(const BlockFixture &f, bool fast_math)
{
    ConvQuery q;
    q.shape = ConvShape{f.fb.kernel(), f.stride, f.in.shape().c,
                        BlockFixture::kFilters, f.outW, 1, 1};
    q.fastMath = fast_math;
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
    // A fused pyramid's fresh tile: VGG's 3x3 s1 conv over a strip only
    // 4 or 12 pixels wide (tip 4 at conv3_1, recompute at tip 8), so
    // every pass ends in the kernels' masked tail block. items/s near
    // BM_ConvRowBlocked's {3, 1} means the tail runs at vector speed.
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
BENCHMARK(BM_ConvRowNarrow)->Arg(4)->Arg(12);

void
BM_ConvRowNarrowI8(benchmark::State &state)
{
    // The same narrow strips through the int8 row driver (staged u8
    // input, resolved int8 kernel, dequant epilogue).
    BlockFixture f(3, 1, static_cast<int>(state.range(0)));
    const ActQuant act = chooseActQuant(-1.0f, 1.0f);
    ConvStage st;
    const Shape &s = f.in.shape();
    st.configure(Precision::Int8, s.c, s.h, s.w);
    stageConvInputI8(st, f.in, act, 0, s.h);
    const PackedWeightsI8 pw(
        f.fb, 1, std::vector<float>(BlockFixture::kFilters, 0.05f));
    const ConvBlockKernelI8 bk = resolveConvBlockKernelI8(3, 1);
    const int row_idx[] = {0, 1, 2};
    std::vector<float> dst(
        static_cast<size_t>(BlockFixture::kFilters) * f.outW);
    for (auto _ : state) {
        convBlockRowI8(bk, pw, 0, dst.data(), f.outW, f.outW, st,
                       row_idx, 0, act);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * f.outW *
                            BlockFixture::kFilters);
}
BENCHMARK(BM_ConvRowNarrowI8)->Arg(4)->Arg(12);

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
BM_ExploreFusionSpace(benchmark::State &state)
{
    Network net = vggEPrefix(static_cast<int>(state.range(0)));
    ExploreOptions opt;
    opt.exactStorage = (state.range(1) != 0);
    for (auto _ : state) {
        auto res = exploreFusionSpace(net, opt);
        benchmark::DoNotOptimize(res.front.size());
    }
}
BENCHMARK(BM_ExploreFusionSpace)
    ->Args({5, 1})
    ->Args({5, 0})
    ->Args({8, 0})
    ->Args({10, 0})  // 13 stages, 4096 partitions: the group-cost
                     // cache case (one model eval per range, not per
                     // partition)
    ->Unit(benchmark::kMillisecond);

void
BM_DseChainSweep(benchmark::State &state)
{
    // The schedule-space engine restricted to the paper's chain space:
    // same 2^(l-1) enumeration as BM_ExploreFusionSpace but pricing the
    // full latency/energy/buffer surface per partition.
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
BM_LineBufferExecutorMicro(benchmark::State &state)
{
    ExecFixture f;
    LineBufferExecutor exec(f.net, f.weights, 0, f.net.numLayers() - 1,
                            static_cast<int>(state.range(0)));
    for (auto _ : state) {
        Tensor out = exec.run(f.input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LineBufferExecutorMicro)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_RecomputeExecutorMicro(benchmark::State &state)
{
    ExecFixture f;
    RecomputeExecutor exec(f.net, f.weights,
                           TilePlan(f.net, 0, f.net.numLayers() - 1));
    for (auto _ : state) {
        Tensor out = exec.run(f.input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_RecomputeExecutorMicro)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
