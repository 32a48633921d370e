/**
 * @file
 * flcnn_perfbench — the repository benchmark (see perfbench/README.md).
 *
 * One run executes three phases through the library's public entry
 * points only, and checks every output it produces:
 *
 *  - engines: VGG-E's first five convs (the paper's Table II group) at
 *    224x224, one image at a time through a compiled FusionPlan on each
 *    engine — Reference (layer by layer), LineBuffer, Fused (pyramid)
 *    and Recompute — on a 2-thread pool. Every output must be
 *    bit-identical to nn::runRange.
 *  - serve: the AlexNet fused prefix (Table I group) served in int8 on
 *    LineBuffer by an InferenceServer with two workers: an open loop at
 *    a fixed rate, each request timed from its due time, and a closed
 *    loop of four clients. Every output must equal a single-image int8
 *    FusionPlan::execute of the same input, and the ledger must hold
 *    (submitted == completed + rejected + expired + shed).
 *  - dse: dse::runSweep over the full VGG-E, chain space (2^20 points,
 *    31-point chain front) then LoopTree space. Every sweep's fronts
 *    must hash the same, and the chain front must match the digest
 *    pinned below.
 *
 * The workload picks the precision the engines phase computes in and
 * the element type the DSE cost model prices (fp32 | int8); serving is
 * int8 in both. Inputs and weights derive from --seed.
 *
 * Set-up (network and weight generation, calibration, plan compile
 * with weight pre-packing — one untimed execute per plan — and server
 * start) runs once before the timed phases and once more in every
 * other cycle; setup_s is the median. The outputs the checks compare
 * against and the DSE reference fronts are prepared once, untimed. The
 * timed phases are interleaved in cycles (see runPhases()).
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 records spans
 * around every library call, prints the per-layer metrics, a self-time
 * table (stderr) and the tracing overhead, and writes the spans to
 * --spans-out. The last stdout line is always the JSON result; the line
 * before it ("info: {...}") records solver labels, host fingerprint,
 * SIMD tier, thread counts and seed. Exit status is non-zero when any
 * correctness gate fails.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "dse/pricer.hh"
#include "dse/sweep.hh"
#include "fusion/fusion_plan.hh"
#include "model/pareto.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "serve/server.hh"
#include "tune/host_probe.hh"
#include "tune/solver.hh"

using namespace flcnn;

namespace {

// ---------------------------------------------------------------------
// Fixed benchmark constants
// ---------------------------------------------------------------------

/** Compute threads per process: the pool's size, and the serving
 *  workers' count. On a shared 4-vCPU host, four pool threads lost half
 *  their speed to two busy neighbour processes, as every per-row barrier
 *  waited on a descheduled thread, and img_s.* swung 2.5-3.3x between
 *  runs; two threads lost nothing to the same neighbours. */
constexpr int kMaxThreads = 2;
constexpr int kServeWorkers = kMaxThreads;  //!< inline intra-op
constexpr int kClosedClients = 4;   //!< closed-loop client threads
/** Open-loop rate: a fifth of the closed-loop capacity on a quiet
 *  4-vCPU host (~100 req/s) and half of it when neighbours slow the
 *  host to ~40 req/s; at 35 req/s such slow spells reached the knee. */
constexpr double kServeRate = 20.0;
constexpr int kServeImages = 8;     //!< distinct serving inputs
/** The open-loop tail percentile, and the samples per run that leave
 *  at least ten beyond it. The tail is a per-layer metric: with no
 *  queueing at this rate it is the tail of one request's compute time,
 *  which neighbours on a shared host set more than the code does (its
 *  run-to-run spread reached 0.41 of the median, against at most 0.16
 *  for the median latency). */
constexpr double kTail = 0.95;
constexpr int kMinTailSamples = 200;
constexpr int kCycles = 4;          //!< interleaved phase cycles per run
/** Seconds per engine per round; the first round sizes the others. */
constexpr double kEngineTarget = 0.2;

/** Digest (FNV-1a over scheduleHash()) of the full VGG-E chain front;
 *  the same for fp32 and int8 element types. */
constexpr uint64_t kVggEChainFrontDigest = 0xa44ba278b7313b24ull;
constexpr size_t kVggEChainFrontSize = 31;

/** Share of --seconds each timed phase gets. */
constexpr double kEnginesShare = 0.45;
constexpr double kOpenShare = 0.35;
constexpr double kClosedShare = 0.10;
constexpr double kDseShare = 0.10;

/** The engines phase's plans. The pyramid engines run above the default
 *  tip 1, where one 224x224 image takes 0.9 s (Fused) and 3.5 s
 *  (Recompute) on four threads of a quiet 4-vCPU host: a run would time
 *  too few images of each engine for a steady figure. At these tips
 *  each takes 0.7 s on two threads. */
struct EngineDesc
{
    const char *key;
    PlanEngine engine;
    int tip;
};

constexpr EngineDesc kEngines[] = {
    {"ref", PlanEngine::Reference, 1},
    {"linebuffer", PlanEngine::LineBuffer, 1},
    {"pyramid", PlanEngine::Fused, 4},
    {"recompute", PlanEngine::Recompute, 8},
};
constexpr int kNumEngines = 4;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool quick = false;        //!< reduced sizes for the self-test
    std::string corrupt;       //!< engines | serve | dse (self-test)
    std::string spansOut;      //!< span dump path (--trace 1)
    bool int8 = false;         //!< from the workload
};

double
nowS()
{
    return monotonicSeconds();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile: the smallest sample with at least q of the
 *  samples at or below it. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

/** Seconds per operation for the throughput metrics: the lower
 *  quartile of the samples. On a shared host, slow spells stretch a
 *  third to two thirds of a run's samples by up to 2.5x; the lower
 *  quartile still lands among the unstretched ones, where the median
 *  does not. */
double
fastQuartile(const std::vector<double> &v)
{
    return quantile(v, 0.25);
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.elems()) * sizeof(float)) ==
               0;
}

// ---------------------------------------------------------------------
// Result: metrics, operation ledger, correctness gate
// ---------------------------------------------------------------------

class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one operation; a failed one fails the run's ledger. */
    void
    op(bool ok)
    {
        std::lock_guard<std::mutex> lk(mu);
        attempted++;
        if (!ok)
            failed++;
    }

    /** Count one checked output; a mismatch also fails the gate. */
    void
    check(bool ok, const std::string &what)
    {
        op(ok);
        if (ok)
            return;
        std::lock_guard<std::mutex> lk(mu);
        if (correct)
            std::fprintf(stderr, "perfbench: correctness gate: %s\n",
                         what.c_str());
        correct = false;
    }

    bool ok() const { return correct; }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                    ", \"failed\": %" PRId64 ", \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (size_t i = 0; i < metrics.size(); i++) {
            const Metric &m = metrics[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(),
                        std::isfinite(m.value) ? m.value : -1.0,
                        m.unit.c_str());
        }
        std::printf("}}\n");
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    mutable std::mutex mu;
    int64_t attempted = 0;
    int64_t failed = 0;
    bool correct = true;
};

// ---------------------------------------------------------------------
// In-memory span tracer (--trace 1 only)
// ---------------------------------------------------------------------

thread_local std::vector<int64_t> tlParents;

/** Small per-thread id for the span dump. */
int
threadTag()
{
    static std::atomic<int> next{0};
    thread_local int tag = next.fetch_add(1);
    return tag;
}

class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), live(enabled)
    {
        if (on)
            spans.reserve(1 << 16);
    }

    /** The run records spans (--trace 1). */
    bool enabled() const { return on; }

    /** Spans are recorded right now (a traced run pauses recording
     *  for the untraced half of each overhead comparison). */
    bool recording() const { return live.load(std::memory_order_relaxed); }
    void setRecording(bool v) { live.store(on && v); }

    int64_t newId() { return nextId.fetch_add(1); }

    /** Record a finished span with explicit times (cross-thread
     *  request spans). */
    void
    record(int64_t id, std::string name, double t0, double t1,
           int64_t parent, int64_t req)
    {
        if (!recording())
            return;
        Rec r{id, parent, req, threadTag(), std::move(name), t0, t1};
        std::lock_guard<std::mutex> lk(mu);
        spans.push_back(std::move(r));
    }

    /** RAII span on the calling thread; nests under the thread's open
     *  span. A no-op when tracing is off. */
    class Span
    {
      public:
        Span(Tracer &t, std::string name, int64_t req = -1)
            : tr(t.recording() ? &t : nullptr)
        {
            if (!tr)
                return;
            nm = std::move(name);
            rq = req;
            sid = tr->newId();
            parent = tlParents.empty() ? -1 : tlParents.back();
            tlParents.push_back(sid);
            t0 = nowS();
        }

        ~Span()
        {
            if (!tr)
                return;
            const double t1 = nowS();
            tlParents.pop_back();
            tr->record(sid, std::move(nm), t0, t1, parent, rq);
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tr;
        std::string nm;
        int64_t sid = -1;
        int64_t parent = -1;
        int64_t rq = -1;
        double t0 = 0.0;
    };

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu);
        return spans.size();
    }

    /** Write every span as JSON (times in microseconds from the first
     *  span). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::lock_guard<std::mutex> lk(mu);
        double base = spans.empty() ? 0.0 : spans.front().t0;
        for (const Rec &r : spans)
            base = std::min(base, r.t0);
        std::fprintf(f, "{\"schema\": \"flcnn-perfbench-spans-v1\", "
                        "\"spans\": [\n");
        for (size_t i = 0; i < spans.size(); i++) {
            const Rec &r = spans[i];
            std::fprintf(f,
                         "{\"id\": %" PRId64 ", \"parent\": %" PRId64
                         ", \"req\": %" PRId64 ", \"tid\": %d, "
                         "\"name\": \"%s\", \"t0_us\": %.3f, "
                         "\"t1_us\": %.3f}%s\n",
                         r.id, r.parent, r.req, r.tid, r.name.c_str(),
                         (r.t0 - base) * 1e6, (r.t1 - base) * 1e6,
                         i + 1 < spans.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

    /** Per span name: count, total and self time (duration minus the
     *  part covered by child spans). */
    void
    printSelfTimes(std::FILE *f) const
    {
        std::lock_guard<std::mutex> lk(mu);
        std::map<int64_t, std::vector<std::pair<double, double>>> kids;
        for (const Rec &r : spans)
            if (r.parent >= 0)
                kids[r.parent].push_back({r.t0, r.t1});
        struct Row
        {
            int64_t n = 0;
            double total = 0.0;
            double self = 0.0;
        };
        std::map<std::string, Row> rows;
        for (const Rec &r : spans) {
            double covered = 0.0;
            auto it = kids.find(r.id);
            if (it != kids.end()) {
                auto iv = it->second;
                std::sort(iv.begin(), iv.end());
                double end = r.t0;
                for (auto [a, b] : iv) {
                    a = std::max(a, end);
                    b = std::min(b, r.t1);
                    if (b > a) {
                        covered += b - a;
                        end = b;
                    }
                }
            }
            Row &row = rows[r.name];
            row.n++;
            row.total += r.t1 - r.t0;
            row.self += std::max(0.0, r.t1 - r.t0 - covered);
        }
        std::fprintf(f, "%-40s %9s %12s %12s\n", "span", "count",
                     "total_ms", "self_ms");
        for (const auto &[name, row] : rows)
            std::fprintf(f, "%-40s %9" PRId64 " %12.3f %12.3f\n",
                         name.c_str(), row.n, row.total * 1e3,
                         row.self * 1e3);
    }

  private:
    struct Rec
    {
        int64_t id, parent, req;
        int tid;
        std::string name;
        double t0, t1;
    };
    const bool on;
    std::atomic<bool> live;
    std::atomic<int64_t> nextId{0};
    mutable std::mutex mu;
    std::vector<Rec> spans;
};

// ---------------------------------------------------------------------
// Networks
// ---------------------------------------------------------------------

/** VGG-E's first five convs; the self-test's reduced copy keeps the
 *  layer names at a fraction of the size. */
Network
vggFive(bool quick)
{
    if (!quick)
        return vggEPrefix(5);
    Network net("VGG-five-quick", Shape{3, 32, 32});
    net.addConvBlock("conv1_1", 8, 3, 1, 1);
    net.addConvBlock("conv1_2", 8, 3, 1, 1);
    net.addMaxPool("pool1", 2, 2);
    net.addConvBlock("conv2_1", 16, 3, 1, 1);
    net.addConvBlock("conv2_2", 16, 3, 1, 1);
    net.addMaxPool("pool2", 2, 2);
    net.addConvBlock("conv3_1", 32, 3, 1, 1);
    return net;
}

/** The AlexNet fused prefix (conv1 11x11/s4, pool, grouped conv2). */
Network
alexPrefix(bool quick)
{
    if (!quick)
        return alexnetFusedPrefix();
    Network net("AlexNet-fused2-quick", Shape{3, 67, 67});
    net.add(LayerSpec::conv("conv1", 16, 11, 4));
    net.add(LayerSpec::relu("relu1"));
    net.addMaxPool("pool1", 3, 2);
    net.add(LayerSpec::padding("conv2_pad", 2));
    net.add(LayerSpec::conv("conv2", 32, 5, 1, 2));
    net.add(LayerSpec::relu("relu2"));
    return net;
}

Network
dseNet(bool quick)
{
    return quick ? vggEPrefix(5) : vggE();
}

// ---------------------------------------------------------------------
// Phase state (built by set-up, used by the timed phases)
// ---------------------------------------------------------------------

struct EnginesPhase
{
    EnginesPhase(Network n, uint64_t seed)
        : net(std::move(n)), rng(seed), weights(net, rng)
    {
    }

    Network net;
    Rng rng;
    NetworkWeights weights;
    NetPrecision prec;
    const NetPrecision *precision = nullptr;  //!< &prec in int8
    Tensor image;
    Tensor golden;
    std::unique_ptr<FusionPlan> plans[kNumEngines];
    double compileMs[kNumEngines] = {};
};

struct ServePhase
{
    ServePhase(Network n, uint64_t seed)
        : net(std::move(n)), rng(seed), weights(net, rng)
    {
    }

    Network net;
    Rng rng;
    NetworkWeights weights;
    NetPrecision prec;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;
    std::vector<std::string> solvers;
    // Declared last: the server references everything above.
    std::unique_ptr<InferenceServer> server;
    int model = -1;
};

struct DsePhase
{
    explicit DsePhase(Network n) : net(std::move(n)) {}

    Network net;
    dse::SweepOptions chain;
    dse::SweepOptions looptree;
    int64_t chainPoints = 0;
    int64_t looptreePoints = 0;
    uint64_t chainDigest = 0;  //!< of the warm sweep's chain front
    std::vector<uint64_t> chainHashes;
    std::vector<uint64_t> looptreeHashes;
};

struct Bench
{
    std::unique_ptr<EnginesPhase> eng;
    std::unique_ptr<ServePhase> srv;
    std::unique_ptr<DsePhase> dse;
};

/** Context shared by the phases. */
struct Ctx
{
    Options opt;
    Report rep;
    Tracer tr;
    int threads = 1;

    explicit Ctx(const Options &o) : opt(o), tr(o.trace) {}
};

std::vector<uint64_t>
frontHashes(const Network &net, const std::vector<dse::SweepPoint> &front)
{
    std::vector<uint64_t> h;
    h.reserve(front.size());
    for (const dse::SweepPoint &p : front)
        h.push_back(dse::scheduleHash(net, p.schedule));
    return h;
}

uint64_t
digest(const std::vector<uint64_t> &hashes)
{
    uint64_t d = 0xcbf29ce484222325ull;
    for (uint64_t h : hashes) {
        for (int b = 0; b < 8; b++) {
            d ^= (h >> (8 * b)) & 0xff;
            d *= 0x100000001b3ull;
        }
    }
    return d;
}

std::unique_ptr<EnginesPhase>
setupEngines(Ctx &ctx)
{
    Tracer::Span span(ctx.tr, "setup.engines");
    auto st = std::make_unique<EnginesPhase>(vggFive(ctx.opt.quick),
                                             ctx.opt.seed);
    st->image = Tensor(st->net.inputShape());
    st->image.fillRandom(st->rng);
    if (ctx.opt.int8) {
        Tracer::Span s(ctx.tr, "nn.calibrate");
        st->prec = NetPrecision::calibrate(st->net, st->weights,
                                           Precision::Int8, 2,
                                           ctx.opt.seed);
        st->precision = &st->prec;
    }
    const int last = st->net.numLayers() - 1;
    for (int e = 0; e < kNumEngines; e++) {
        Tracer::Span s(ctx.tr,
                       std::string("fusion.compile:") + kEngines[e].key);
        auto plan = std::make_unique<FusionPlan>(st->net, st->weights);
        plan->addRange(0, last);
        PlanCompileOptions o;
        o.engine = kEngines[e].engine;
        o.tip = kEngines[e].tip;
        o.precision = st->precision;
        const CompileStatus cs = plan->compile(o);
        if (cs != CompileStatus::Ok)
            fatal("compile on %s: %s (%s)", kEngines[e].key,
                  compileStatusName(cs), plan->diagnostic().c_str());
        st->compileMs[e] = plan->compileSeconds() * 1e3;
        st->plans[e] = std::move(plan);
    }
    return st;
}

std::unique_ptr<ServePhase>
setupServe(Ctx &ctx)
{
    Tracer::Span span(ctx.tr, "setup.serve");
    auto st = std::make_unique<ServePhase>(alexPrefix(ctx.opt.quick),
                                           ctx.opt.seed ^ 0xa1e7);
    {
        Tracer::Span s(ctx.tr, "nn.calibrate");
        st->prec = NetPrecision::calibrate(st->net, st->weights,
                                           Precision::Int8, 2,
                                           ctx.opt.seed);
    }
    for (int i = 0; i < kServeImages; i++) {
        st->inputs.emplace_back(st->net.inputShape());
        st->inputs.back().fillRandom(st->rng);
    }

    ServeConfig cfg;
    cfg.workers = kServeWorkers;
    cfg.queueCapacity = 256;
    cfg.policy = OverflowPolicy::Reject;
    cfg.intraOp = IntraOpMode::Inline;
    // One request per batch. With the default cap of 8, the closed loop's
    // batches formed as the race between worker wake-ups and client
    // resubmits fell (mean 1.65-1.91 between slices of one run), and one
    // worker's batch of two can leave the other idle; with a cap of 1,
    // serve.rps is the two workers' compute rate.
    cfg.batch.maxBatch = 1;
    st->server = std::make_unique<InferenceServer>(cfg);
    st->model = st->server->addModel("alexnet-int8", st->net, st->weights,
                                     0, -1, &st->prec);
    {
        Tracer::Span s(ctx.tr, "serve.start");
        st->server->start();
    }
    return st;
}

/** The engines' golden output: nn::runRange over the whole network. */
void
prepareEngineChecks(Ctx &ctx, EnginesPhase &st)
{
    Tracer::Span s(ctx.tr, "nn.runRange");
    st.golden = runRange(st.net, st.weights, st.image, 0,
                         st.net.numLayers() - 1, st.precision);
}

/** The serving oracle: a single-image int8 plan on the served engine,
 *  run once per serving input. */
void
prepareServeChecks(Ctx &ctx, ServePhase &st)
{
    FusionPlan oracle(st.net, st.weights);
    oracle.addRange(0, st.net.numLayers() - 1);
    PlanCompileOptions o;
    o.engine = PlanEngine::LineBuffer;
    o.precision = &st.prec;
    {
        Tracer::Span s(ctx.tr, "fusion.compile:serve_oracle");
        const CompileStatus cs = oracle.compile(o);
        if (cs != CompileStatus::Ok)
            fatal("serving oracle compile: %s", compileStatusName(cs));
    }
    st.solvers = oracle.solvers();
    for (const Tensor &in : st.inputs) {
        Tracer::Span s(ctx.tr, "fusion.execute:serve_oracle");
        st.expected.push_back(oracle.execute(in));
    }
    if (ctx.opt.corrupt == "serve")
        st.expected[0].data()[0] += 1.0f;
}

/** The DSE phase's state, with one warm sweep per space fixing the
 *  reference fronts. */
std::unique_ptr<DsePhase>
setupDse(Ctx &ctx)
{
    Tracer::Span span(ctx.tr, "setup.dse");
    auto st = std::make_unique<DsePhase>(dseNet(ctx.opt.quick));
    const Precision dtype =
        ctx.opt.int8 ? Precision::Int8 : Precision::Fp32;
    st->chain.space = dse::Space::Chain;
    st->chain.cost.dtype = dtype;
    st->looptree.space = dse::Space::LoopTree;
    st->looptree.cost.dtype = dtype;
    // One warm sweep per space fixes the reference fronts.
    dse::SweepResult c, l;
    {
        Tracer::Span s(ctx.tr, "dse.runSweep:chain");
        c = dse::runSweep(st->net, st->chain);
    }
    {
        Tracer::Span s(ctx.tr, "dse.runSweep:looptree");
        l = dse::runSweep(st->net, st->looptree);
    }
    st->chainPoints = c.pointsVisited;
    st->looptreePoints = l.pointsVisited;
    st->chainHashes = frontHashes(st->net, c.chainFront);
    st->chainDigest = digest(st->chainHashes);
    st->looptreeHashes = frontHashes(st->net, l.front);
    if (ctx.opt.corrupt == "dse")
        st->chainHashes.push_back(0);
    return st;
}

/** Set up the engines' plans and the server into @p b and return the
 *  seconds it took. Only what a user of the engines and the server pays
 *  is timed; the outputs the checks compare against and the DSE phase
 *  are prepared once, by prepareChecks(). */
double
timedSetup(Ctx &ctx, Bench &b)
{
    Tracer::Span span(ctx.tr, "setup");
    const double a = nowS();
    b.eng = setupEngines(ctx);
    b.srv = setupServe(ctx);
    return nowS() - a;
}

void
prepareChecks(Ctx &ctx, Bench &b)
{
    prepareEngineChecks(ctx, *b.eng);
    prepareServeChecks(ctx, *b.srv);
    b.dse = setupDse(ctx);
}

// ---------------------------------------------------------------------
// Timed phases. A run is kCycles cycles; each cycle gives every phase
// one slice (engines, DSE, closed-loop and open-loop serving), so
// each metric samples the whole run rather than one window of it, and
// a slow spell on a shared host lands on every metric alike. A slice
// starts no new round once its budget is spent. With tracing, odd
// cycles run traced and even ones untraced; the difference is the
// tracing overhead.
// ---------------------------------------------------------------------

/** Chunk-observer totals for one engine (the pool layer). */
struct PoolAcc
{
    int64_t barriers = 0;  //!< parallelFor calls (chunk 0 runs)
    double busy = 0.0;     //!< summed chunk seconds
    double wall = 0.0;     //!< summed execute() seconds
    int64_t images = 0;
};

/** RAII chunk observer attributing pool chunks to the running
 *  engine. */
class PoolWatch
{
  public:
    explicit PoolWatch(PoolAcc *acc) : accs(acc)
    {
        ThreadPool::setChunkObserver(
            [this](int tid, int64_t, int64_t, double t0, double t1) {
                const int e = current.load(std::memory_order_relaxed);
                if (e < 0)
                    return;
                std::lock_guard<std::mutex> lk(mu);
                if (tid == 0)
                    accs[e].barriers++;
                accs[e].busy += t1 - t0;
            });
    }

    ~PoolWatch() { ThreadPool::setChunkObserver(nullptr); }

    PoolWatch(const PoolWatch &) = delete;
    PoolWatch &operator=(const PoolWatch &) = delete;

    void set(int e) { current.store(e, std::memory_order_relaxed); }

  private:
    PoolAcc *accs;
    std::mutex mu;
    std::atomic<int> current{-1};
};

struct EngineSamples
{
    std::vector<double> secs[kNumEngines];  //!< untraced
    std::vector<double> tracedSecs[kNumEngines];
    PoolAcc pool[kNumEngines];              //!< traced rounds only
    int perRound[kNumEngines] = {1, 1, 1, 1};
    bool calibrated = false;
};

/**
 * Engine rounds until @p budget_s is spent. A round runs every engine
 * for about the same wall time, so host noise spreads evenly over the
 * engines; the first round sizes the others.
 */
void
engineSlice(Ctx &ctx, EnginesPhase &st, double budget_s, bool traced,
            EngineSamples *out)
{
    const double target = ctx.opt.quick ? 0.01 : kEngineTarget;
    std::unique_ptr<PoolWatch> watch;
    if (traced)
        watch = std::make_unique<PoolWatch>(out->pool);
    const double t0 = nowS();
    while (nowS() - t0 < budget_s) {
        for (int e = 0; e < kNumEngines; e++) {
            for (int i = 0; i < out->perRound[e]; i++) {
                Tensor y;
                double dt;
                {
                    Tracer::Span s(ctx.tr, std::string("fusion.execute:") +
                                               kEngines[e].key);
                    if (watch)
                        watch->set(e);
                    const double a = nowS();
                    y = st.plans[e]->execute(st.image);
                    dt = nowS() - a;
                    if (watch)
                        watch->set(-1);
                }
                if (ctx.opt.corrupt == "engines" && e == 1 && i == 0)
                    y.data()[0] += 1.0f;
                ctx.rep.check(sameBits(y, st.golden),
                              std::string(kEngines[e].key) +
                                  " output differs from runRange");
                if (traced) {
                    out->tracedSecs[e].push_back(dt);
                    out->pool[e].wall += dt;
                    out->pool[e].images++;
                } else {
                    out->secs[e].push_back(dt);
                }
                if (!out->calibrated)
                    out->perRound[e] = std::clamp(
                        static_cast<int>(std::lround(target / dt)), 1, 16);
            }
        }
        out->calibrated = true;
    }
}

/**
 * Per-layer conv timing through nn::runLayer (fp32) or a one-layer
 * nn::runRange (int8), MACs from OpCount, plus the solver-planning
 * cost of each conv query.
 */
void
measureConvLayers(Ctx &ctx, const Network &net,
                  const NetworkWeights &weights, const NetPrecision *prec,
                  const Tensor &image)
{
    const int reps = ctx.opt.quick ? 2 : 5;
    Tensor x = image;
    for (int i = 0; i < net.numLayers(); i++) {
        const LayerSpec &spec = net.layer(i);
        Tensor y;
        if (spec.kind != LayerKind::Conv) {
            y = runLayer(spec, x, nullptr, nullptr, nullptr);
            x = std::move(y);
            continue;
        }
        const FilterBank &bank = weights.bankForLayer(net, i);
        std::vector<double> secs;
        for (int r = 0; r < reps; r++) {
            Tracer::Span s(ctx.tr, "nn.conv:" + spec.name);
            const double a = nowS();
            y = prec ? runRange(net, weights, x, i, i, prec)
                     : runLayer(spec, x, &bank, nullptr, nullptr);
            secs.push_back(nowS() - a);
        }
        const double sec = median(secs);
        const OpCount ops = layerOpCount(spec, net.inShape(i));
        ctx.rep.metric("nn." + spec.name + ".ms", sec * 1e3, "ms");
        ctx.rep.metric("nn." + spec.name + ".gmac_s",
                       static_cast<double>(ops.mults) / sec / 1e9,
                       "GMAC/s");

        ConvQuery q;
        q.shape.kernel = spec.kernel;
        q.shape.stride = spec.stride;
        q.shape.inC = net.inShape(i).c;
        q.shape.outC = spec.outChannels;
        q.shape.outW = net.outShape(i).w;
        q.shape.outH = net.outShape(i).h;
        q.shape.groups = spec.groups;
        q.dtype = prec ? Precision::Int8 : Precision::Fp32;
        std::vector<double> plan;
        for (int r = 0; r < 200; r++) {
            Tracer::Span s(ctx.tr, "tune.planConv");
            const double a = nowS();
            const ConvPlan p = planConv(q);
            plan.push_back(nowS() - a);
            ctx.rep.check(!p.solver.empty(), "planConv chose no solver");
        }
        ctx.rep.metric("tune.plan_conv_us." + spec.name,
                       median(plan) * 1e6, "us");
        x = std::move(y);
    }
}

/** Zero-copy submit of pool image @p img; returns the admit result
 *  and the time spent in acquireInput + submit. */
SubmitResult
submitImage(ServePhase &st, int img, double *submit_s)
{
    const double a = nowS();
    InputSlot slot = st.server->acquireInput(st.model);
    const Tensor &src = st.inputs[static_cast<size_t>(img)];
    std::memcpy(slot.tensor.data(), src.data(),
                static_cast<size_t>(src.elems()) * sizeof(float));
    SubmitResult r = st.server->submit(std::move(slot));
    *submit_s = nowS() - a;
    return r;
}

/** Wait for one request and check its output; false on any failure. */
bool
finishRequest(Ctx &ctx, ServePhase &st, const RequestHandlePtr &h, int img)
{
    const bool ok = h->wait() == RequestStatus::Ok;
    if (ok)
        ctx.rep.check(sameBits(h->output(),
                               st.expected[static_cast<size_t>(img)]),
                      "served output differs from single-image plan");
    else
        ctx.rep.op(false);
    h->releaseOutput();
    return ok;
}

struct ServeSamples
{
    // Open loop.
    std::vector<double> latency;    //!< seconds from due time
    std::vector<double> submit;     //!< acquireInput + submit seconds
    std::vector<double> queueWait;  //!< admission -> compute start
    std::vector<double> compute;
    std::vector<double> batch;      //!< batch size seen per request
    double lateMax = 0.0;           //!< generator lateness
    int64_t sent = 0;
    // Closed loop, untraced and traced.
    int64_t done[2] = {0, 0};
    double wall[2] = {0.0, 0.0};
};

/**
 * Open-loop segment: @p n requests due every 1/rate seconds regardless
 * of completions. The generator submits on schedule; a reaper retires
 * handles in order, so arena slots recycle at the completion rate.
 */
void
openSegment(Ctx &ctx, ServePhase &st, int n, ServeSamples *out)
{
    struct Pending
    {
        RequestHandlePtr h;
        double due;
        int img;
        int64_t span;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool done = false;

    std::thread reaper([&] {
        for (;;) {
            Pending p;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return done || !pending.empty(); });
                if (pending.empty())
                    return;
                p = std::move(pending.front());
                pending.pop_front();
            }
            const RequestHandle &h = *p.h;
            if (!finishRequest(ctx, st, p.h, p.img))
                continue;
            out->latency.push_back(h.endSeconds() - p.due);
            out->queueWait.push_back(h.queueWaitSeconds());
            out->compute.push_back(h.computeSeconds());
            out->batch.push_back(h.batchSize());
            ctx.tr.record(ctx.tr.newId(), "serve.queue_wait",
                          h.submitSeconds(), h.startSeconds(), p.span,
                          p.span);
            ctx.tr.record(ctx.tr.newId(), "serve.compute", h.startSeconds(),
                          h.endSeconds(), p.span, p.span);
            ctx.tr.record(p.span, "serve.request", p.due, h.endSeconds(),
                          -1, p.span);
        }
    });

    const double start = nowS() + 0.01;
    for (int i = 0; i < n; i++) {
        const double due = start + i / kServeRate;
        const double wait = due - nowS();
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        out->lateMax = std::max(out->lateMax, nowS() - due);
        const int img = static_cast<int>(out->sent++ % kServeImages);
        const int64_t span = ctx.tr.newId();
        double sub = 0.0;
        const double a = nowS();
        SubmitResult r = submitImage(st, img, &sub);
        out->submit.push_back(sub);
        ctx.tr.record(ctx.tr.newId(), "serve.acquire_submit", a, a + sub,
                      span, span);
        if (r.admit != AdmitResult::Admitted) {
            ctx.rep.op(false);
            continue;
        }
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back({std::move(r.handle), due, img, span});
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_one();
    reaper.join();
}

/** Closed-loop slice: kClosedClients threads, each waiting for its
 *  reply before sending the next request. */
void
closedSlice(Ctx &ctx, ServePhase &st, double seconds, bool traced,
            ServeSamples *out)
{
    std::atomic<int64_t> completed{0};
    const double start = nowS();
    const double stop = start + seconds;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClosedClients; c++) {
        clients.emplace_back([&, c] {
            for (int i = c; nowS() < stop; i += kClosedClients) {
                const int img = i % kServeImages;
                Tracer::Span span(ctx.tr, "serve.closed_request");
                double sub = 0.0;
                SubmitResult r = submitImage(st, img, &sub);
                if (r.admit != AdmitResult::Admitted)
                    ctx.rep.op(false);
                else if (finishRequest(ctx, st, r.handle, img))
                    completed.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    out->done[traced] += completed.load();
    out->wall[traced] += nowS() - start;
}

struct DseSamples
{
    std::vector<double> secs[2][2];  //!< [traced][chain, looptree]
    dse::SweepResult last;           //!< latest chain sweep
};

/** One checked sweep; returns its wall seconds. */
double
checkedSweep(Ctx &ctx, DsePhase &st, bool chain, dse::SweepResult *keep)
{
    dse::SweepResult r;
    double dt;
    {
        Tracer::Span s(ctx.tr, chain ? "dse.runSweep:chain"
                                     : "dse.runSweep:looptree");
        const double a = nowS();
        r = dse::runSweep(st.net, chain ? st.chain : st.looptree);
        dt = nowS() - a;
    }
    if (chain) {
        const int64_t expect = int64_t(1)
                               << (st.net.stages().size() - 1);
        const std::vector<uint64_t> h = frontHashes(st.net, r.chainFront);
        bool ok = r.pointsVisited == expect &&
                  r.pointsVisited == st.chainPoints && h == st.chainHashes;
        if (!ctx.opt.quick)
            ok = ok && r.chainFront.size() == kVggEChainFrontSize &&
                 digest(h) == kVggEChainFrontDigest;
        ctx.rep.check(ok, "chain sweep: points or front differ");
        *keep = std::move(r);
    } else {
        ctx.rep.check(r.pointsVisited == st.looptreePoints &&
                          frontHashes(st.net, r.front) ==
                              st.looptreeHashes,
                      "looptree sweep: points or front differ");
    }
    return dt;
}

/** Chain + LoopTree sweep pairs until @p budget_s is spent. */
void
dseSlice(Ctx &ctx, DsePhase &st, double budget_s, bool traced,
         DseSamples *out)
{
    const double t0 = nowS();
    while (nowS() - t0 < budget_s) {
        out->secs[traced][0].push_back(
            checkedSweep(ctx, st, true, &out->last));
        out->secs[traced][1].push_back(
            checkedSweep(ctx, st, false, nullptr));
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

void
engineMetrics(Ctx &ctx, Bench &b, const EngineSamples &s)
{
    if (!ctx.tr.enabled()) {
        for (int e = 0; e < kNumEngines; e++)
            ctx.rep.metric(std::string("img_s.") + kEngines[e].key,
                           1.0 / fastQuartile(s.secs[e]), "img/s");
        return;
    }
    double overhead = 0.0;
    for (int e = 0; e < kNumEngines; e++) {
        const std::string k = kEngines[e].key;
        const PoolAcc &p = s.pool[e];
        const double capacity = ctx.threads * p.wall;
        const double imgs =
            static_cast<double>(std::max<int64_t>(p.images, 1));
        ctx.rep.metric("pool." + k + ".chunks_per_img",
                       static_cast<double>(p.barriers) / imgs, "count");
        ctx.rep.metric("pool." + k + ".busy_frac",
                       capacity > 0 ? p.busy / capacity : 0.0, "ratio");
        ctx.rep.metric("pool." + k + ".idle_ms",
                       (capacity - p.busy) / imgs * 1e3, "ms");
        ctx.rep.metric("fusion." + k + ".compile_ms", b.eng->compileMs[e],
                       "ms");
        overhead += fastQuartile(s.tracedSecs[e]) - fastQuartile(s.secs[e]);
    }
    ctx.rep.metric("trace.overhead_ms.engines", overhead * 1e3, "ms");
    Tracer::Span span(ctx.tr, "phase.layers:engines");
    measureConvLayers(ctx, b.eng->net, b.eng->weights, b.eng->precision,
                      b.eng->image);
}

void
serveMetrics(Ctx &ctx, Bench &b, const ServeSamples &s)
{
    ServePhase &st = *b.srv;
    st.server->drainAndStop();
    const ServerStats &stats = st.server->stats();
    const int64_t submitted = stats.submitted();
    const int64_t accounted = stats.completed() + stats.rejected() +
                              stats.expired() + stats.shed();
    ctx.rep.check(submitted == accounted,
                  "serving ledger: submitted " + std::to_string(submitted) +
                      " != completed+rejected+expired+shed " +
                      std::to_string(accounted));
    if (!ctx.tr.enabled()) {
        ctx.rep.metric("serve.p50_ms", quantile(s.latency, 0.50) * 1e3,
                       "ms");
        ctx.rep.metric("serve.rps",
                       static_cast<double>(s.done[0]) / s.wall[0], "req/s");
        return;
    }
    const ArenaStats in = st.server->inputArenaStats();
    const ArenaStats out = st.server->outputArenaStats();
    ctx.rep.metric("serve.p95_ms", quantile(s.latency, kTail) * 1e3, "ms");
    ctx.rep.metric("serve.queue_wait_p50_ms",
                   quantile(s.queueWait, 0.50) * 1e3, "ms");
    ctx.rep.metric("serve.queue_wait_p95_ms",
                   quantile(s.queueWait, kTail) * 1e3, "ms");
    ctx.rep.metric("serve.compute_p50_ms", quantile(s.compute, 0.50) * 1e3,
                   "ms");
    ctx.rep.metric("serve.compute_p95_ms", quantile(s.compute, kTail) * 1e3,
                   "ms");
    double batchSum = 0.0;
    for (double v : s.batch)
        batchSum += v;
    ctx.rep.metric("serve.batch_mean",
                   batchSum / static_cast<double>(
                                  std::max<size_t>(s.batch.size(), 1)),
                   "count");
    ctx.rep.metric("serve.submit_us_p95", quantile(s.submit, kTail) * 1e6,
                   "us");
    ctx.rep.metric("serve.gen_late_ms_max", s.lateMax * 1e3, "ms");
    ctx.rep.metric("serve.arena_fallbacks",
                   static_cast<double>(
                       in.exhaustedFallbacks + in.oversizedFallbacks +
                       out.exhaustedFallbacks + out.oversizedFallbacks +
                       st.server->handleHeapFallbacks()),
                   "count");
    // Closed-loop time per request, traced minus untraced.
    ctx.rep.metric("trace.overhead_ms.serve",
                   (s.wall[1] / static_cast<double>(s.done[1]) -
                    s.wall[0] / static_cast<double>(s.done[0])) *
                       kClosedClients * 1e3,
                   "ms");
    Tracer::Span span(ctx.tr, "phase.layers:serve");
    measureConvLayers(ctx, st.net, st.weights, &st.prec, st.inputs[0]);
}

void
dseMetrics(Ctx &ctx, Bench &b, const DseSamples &s)
{
    if (!ctx.tr.enabled()) {
        ctx.rep.metric("dse.chain_s", fastQuartile(s.secs[0][0]), "s");
        ctx.rep.metric("dse.looptree_s", fastQuartile(s.secs[0][1]), "s");
        return;
    }
    DsePhase &st = *b.dse;
    ctx.rep.metric("trace.overhead_ms.dse",
                   (fastQuartile(s.secs[1][0]) + fastQuartile(s.secs[1][1]) -
                    fastQuartile(s.secs[0][0]) -
                    fastQuartile(s.secs[0][1])) *
                       1e3,
                   "ms");
    ctx.rep.metric("dse.chain.points", static_cast<double>(st.chainPoints),
                   "count");
    ctx.rep.metric("dse.looptree.points",
                   static_cast<double>(st.looptreePoints), "count");
    ctx.rep.metric("dse.looptree.front_size",
                   static_cast<double>(st.looptreeHashes.size()), "count");

    // The pricer over the chain front's schedules (tables warm first).
    Tracer::Span span(ctx.tr, "phase.layers:dse");
    const std::vector<dse::SweepPoint> &front = s.last.chainFront;
    dse::SchedulePricer pricer(st.net, st.chain.cost, st.chain.machine);
    std::vector<dse::ScheduleCost> warm;
    for (const dse::SweepPoint &p : front)
        warm.push_back(pricer.price(p.schedule));
    const int reps = 2000;
    double priceS;
    {
        Tracer::Span sp(ctx.tr, "dse.SchedulePricer.price");
        const double a = nowS();
        for (int r = 0; r < reps; r++)
            for (size_t i = 0; i < front.size(); i++)
                warm[i] = pricer.price(front[i].schedule);
        priceS = nowS() - a;
    }
    ctx.rep.metric("dse.price_ns",
                   priceS / static_cast<double>(reps * front.size()) * 1e9,
                   "ns");

    std::vector<double> pareto;
    for (int r = 0; r < 3; r++) {
        Tracer::Span sp(ctx.tr, "model.paretoFrontIndices");
        const double a = nowS();
        const std::vector<size_t> idx = paretoFrontIndices(s.last.points);
        pareto.push_back(nowS() - a);
        ctx.rep.check(idx.size() == s.last.legacyFront.size(),
                      "paretoFrontIndices differs from the sweep's front");
    }
    ctx.rep.metric("model.pareto_ms", median(pareto) * 1e3, "ms");
}

/** Every timed phase, interleaved over kCycles cycles. Every other
 *  cycle also times one more set-up, released at once, into @p setups:
 *  spread over the run like the phases, their median rides out a slow
 *  spell at the start of the run. */
void
runPhases(Ctx &ctx, Bench &b, std::vector<double> *setups)
{
    const int cycles = ctx.opt.quick ? 2 : kCycles;
    const double S = ctx.opt.seconds;
    int openN = static_cast<int>(std::lround(kServeRate * kOpenShare * S));
    if (!ctx.opt.quick)
        openN = std::max(openN, kMinTailSamples);
    EngineSamples es;
    ServeSamples ss;
    DseSamples ds;
    for (int c = 0; c < cycles; c++) {
        const bool traced = ctx.tr.enabled() && c % 2 == 1;
        ctx.tr.setRecording(traced);
        if (c % 2 == 1) {
            Bench spare;
            setups->push_back(timedSetup(ctx, spare));
        }
        engineSlice(ctx, *b.eng, kEnginesShare * S / cycles, traced, &es);
        dseSlice(ctx, *b.dse, kDseShare * S / cycles, traced, &ds);
        // The closed loop warms the serving path for the open loop.
        closedSlice(ctx, *b.srv, kClosedShare * S / cycles, traced, &ss);
        // The open loop is always traced in a traced run.
        ctx.tr.setRecording(true);
        const int n = openN * (c + 1) / cycles - openN * c / cycles;
        openSegment(ctx, *b.srv, n, &ss);
    }
    engineMetrics(ctx, b, es);
    serveMetrics(ctx, b, ss);
    dseMetrics(ctx, b, ds);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

std::string
simdTier(const HostProfile &hp)
{
    if (hp.avx2 && hp.avxVnni)
        return "avx2+avxvnni";
    return hp.avx2 ? "avx2" : "generic";
}

std::string
jsonList(const std::vector<std::string> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); i++)
        s += (i ? ", \"" : "\"") + v[i] + "\"";
    return s + "]";
}

void
printInfo(const Ctx &ctx, const Bench &b,
          const std::vector<double> &setups)
{
    const HostProfile &hp = hostProfile();
    std::string engines = "{";
    for (int e = 0; e < kNumEngines; e++)
        engines += std::string(e ? ", " : "") + "\"" + kEngines[e].key +
                   "\": " + jsonList(b.eng->plans[e]->solvers());
    engines += "}";
    std::printf("info: {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %.3f, \"trace\": %d, \"quick\": %s, "
                "\"host_fingerprint\": \"%s\", \"simd_tier\": \"%s\", "
                "\"pool_threads\": %d, \"serve_workers\": %d, "
                "\"serve_intra_op\": \"inline\", \"closed_clients\": %d, "
                "\"open_rate_rps\": %.1f, \"setup_reps\": %zu, "
                "\"setup_s_median\": %.6f, \"chain_front_digest\": \"%016" PRIx64
                "\", \"solvers\": {\"engines\": %s, "
                "\"serve\": %s}, \"spans\": %zu}\n",
                ctx.opt.workload.c_str(), ctx.opt.seed, ctx.opt.seconds,
                ctx.opt.trace ? 1 : 0, ctx.opt.quick ? "true" : "false",
                hp.fingerprint().c_str(), simdTier(hp).c_str(),
                ctx.threads, kServeWorkers, kClosedClients, kServeRate,
                setups.size(), median(setups),
                b.dse->chainDigest,
                engines.c_str(), jsonList(b.srv->solvers).c_str(),
                ctx.tr.size());
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int a = 1; a < argc; a++) {
        if (std::strcmp(argv[a], "--workload") == 0)
            opt.workload = argValue(argc, argv, &a);
        else if (std::strcmp(argv[a], "--seed") == 0)
            opt.seed = static_cast<uint64_t>(parseIntArg(
                "--seed", argValue(argc, argv, &a), 0, INT64_MAX));
        else if (std::strcmp(argv[a], "--seconds") == 0)
            opt.seconds = parseFloatArg("--seconds",
                                        argValue(argc, argv, &a), 0.1,
                                        3600.0);
        else if (std::strcmp(argv[a], "--trace") == 0)
            opt.trace = parseIntArgI("--trace", argValue(argc, argv, &a),
                                     0, 1) == 1;
        else if (std::strcmp(argv[a], "--quick") == 0)
            opt.quick = true;
        else if (std::strcmp(argv[a], "--corrupt") == 0)
            opt.corrupt = argValue(argc, argv, &a);
        else if (std::strcmp(argv[a], "--spans-out") == 0)
            opt.spansOut = argValue(argc, argv, &a);
        else
            fatal("unknown argument '%s'", argv[a]);
    }
    if (opt.workload == "int8")
        opt.int8 = true;
    else if (opt.workload != "fp32")
        fatal("--workload must be fp32 or int8, got '%s'",
              opt.workload.c_str());
    if (!opt.corrupt.empty() && opt.corrupt != "engines" &&
        opt.corrupt != "serve" && opt.corrupt != "dse")
        fatal("--corrupt must be engines, serve or dse");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Ctx ctx(parseArgs(argc, argv));
    ctx.threads = std::min(kMaxThreads, ThreadPool::cpuCount());
    ThreadPool::setGlobalThreads(ctx.threads);
    (void)hostProfile();  // probe once, outside every timed region

    Bench b;
    std::vector<double> setups{timedSetup(ctx, b)};
    prepareChecks(ctx, b);
    runPhases(ctx, b, &setups);
    if (!ctx.tr.enabled())
        ctx.rep.metric("setup_s", median(setups), "s");

    if (ctx.tr.enabled()) {
        ctx.tr.printSelfTimes(stderr);
        if (!ctx.opt.spansOut.empty() && !ctx.tr.write(ctx.opt.spansOut))
            fatal("cannot write %s", ctx.opt.spansOut.c_str());
    }
    printInfo(ctx, b, setups);
    ctx.rep.print();
    std::fflush(stdout);
    return ctx.rep.ok() ? 0 : 1;
}
