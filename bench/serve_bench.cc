/**
 * @file
 * serve_bench — load generator and latency reporter for the batched
 * serving runtime (src/serve/).
 *
 * Two load models:
 *
 *  - closed loop (--concurrency N): N client threads each submit one
 *    request, wait for it, and immediately submit the next. Blocking
 *    on a full queue is the backpressure, so nothing is rejected and
 *    the offered load self-regulates — the right model for "how fast
 *    can this box serve".
 *  - open loop (--qps X): one dispatcher submits on a deterministic
 *    fixed-interval schedule (exactly 1/X seconds apart) regardless of
 *    completions — the right model for "what does p99 look like at
 *    this arrival rate". Under the Reject policy a saturated queue
 *    sheds load, and the reject count is part of the result. A reaper
 *    thread retires handles in submit order, so arena slots and
 *    pooled handles recycle at the completion rate.
 *
 * Multi-tenant mode (--models a,b[,c...]): several models co-resident
 * on one server, request i deterministically routed to model i mod M.
 * --slo lc,be assigns SLO classes per model and --budget-ms gives
 * latency-critical models a p99 budget; the report then breaks
 * latency out per model and per class, and counts best-effort
 * requests shed to defend the budget. The ledger invariant widens to
 * submitted == admitted + rejected + cancelled + shed.
 *
 * Requests ride the zero-copy path: inputs are written straight into
 * the server's arena (acquireInput/submit), outputs come back as
 * arena views, and the arena/handle-pool fallback counters are part
 * of the result — a steady-state run on a well-sized server reports
 * zero for all of them.
 *
 * Inputs are drawn from a small seeded pool so the run is
 * reproducible. Unless --no-baseline is given (single-model runs
 * only), the same number of single-image runs is timed sequentially
 * on one engine and the serve/sequential speedup is printed.
 *
 * Output: a human table, plus optional machine artifacts —
 *   --json PATH          flcnn-serve-v1 result (latency percentiles,
 *                        counts, per-model breakdown; validated by
 *                        scripts/check_trace.py)
 *   --metrics-json PATH  flcnn-metrics-v1 report ("serve:*" scopes)
 *   --trace-json PATH    Chrome trace with per-request queue/compute
 *                        spans
 *
 * The histogram-count == completed-count invariant is asserted on
 * every run; --expect-no-rejects additionally fails the run if any
 * request was rejected (the CI closed-loop smoke).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accel/stats.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "nn/autotune_net.hh"
#include "nn/precision.hh"
#include "nn/zoo.hh"
#include "tune/autotune.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/trace_event.hh"
#include "serve/server.hh"

using namespace flcnn;

namespace {

struct Options
{
    std::vector<std::string> models;  // --models a,b (or single --net)
    std::vector<SloClass> slos;       // parallel to models
    int vggConvs = 5;
    Precision precision = Precision::Fp32;
    PlanEngine engine = PlanEngine::LineBuffer;
    int workers = 0;          // 0 = auto
    int requests = 32;
    int concurrency = 4;      // closed loop unless --qps given
    double qps = 0.0;         // > 0 selects open loop
    int batchMax = 8;
    int batchMin = 1;
    double maxDelayMs = 0.0;
    size_t queueCap = 256;
    OverflowPolicy policy = OverflowPolicy::Block;
    bool policySet = false;
    double deadlineMs = 0.0;
    double budgetMs = 0.0;    // p99 budget for LC models (0 = none)
    double shedHeadroom = 0.7;
    bool pin = false;         // core-affinity worker placement
    int arenaSlots = 32;      // per-worker output arena slots
    int threads = 0;          // intra-op pool size (0 = default)
    uint64_t seed = 1;
    bool baseline = true;
    bool expectNoRejects = false;
    bool fastMath = false;    // opt-in ULP-bounded fp32 FMA tier
    bool tune = false;        // autotune conv layers at warmup
    std::string jsonPath;
    std::string metricsPath;
    std::string tracePath;
};

Network
makeNetByName(const std::string &name, int vgg_convs)
{
    if (name == "alexnet")
        return alexnetFusedPrefix();
    if (name == "vgg")
        return vggEPrefix(vgg_convs);
    if (name == "tiny")
        return tinyNet();
    fatal("unknown model '%s' (want alexnet | vgg | tiny)",
          name.c_str());
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

SloClass
sloFromName(const std::string &s)
{
    if (s == "lc" || s == "latency_critical")
        return SloClass::LatencyCritical;
    if (s == "be" || s == "best_effort")
        return SloClass::BestEffort;
    fatal("unknown SLO class '%s' (want lc | be)", s.c_str());
}

/** One latency histogram as a JSON object body. An empty histogram has
 *  no meaningful percentiles (quantile() returns NaN, which is not
 *  valid JSON), so only the count is emitted. */
void
histJson(std::FILE *f, const char *indent, const char *key,
         const LatencyHistogram &h, bool last)
{
    if (h.count() == 0) {
        std::fprintf(f, "%s\"%s\": {\"count\": 0}%s\n", indent, key,
                     last ? "" : ",");
        return;
    }
    std::fprintf(f,
                 "%s\"%s\": {\"count\": %" PRId64
                 ", \"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, "
                 "\"p99\": %.3f, \"max\": %.3f}%s\n",
                 indent, key, h.count(), h.mean(), h.quantile(0.50),
                 h.quantile(0.95), h.quantile(0.99), h.max(),
                 last ? "" : ",");
}

/** Parse --engine: one of the planEngineName() spellings. */
PlanEngine
engineFromName(const char *name)
{
    for (PlanEngine e : {PlanEngine::Reference, PlanEngine::Fused,
                         PlanEngine::LineBuffer, PlanEngine::Recompute})
        if (std::strcmp(name, planEngineName(e)) == 0)
            return e;
    fatal("unknown engine '%s' (want reference | fused | linebuffer | "
          "recompute)",
          name);
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (size_t i = 0; i < names.size(); i++) {
        if (i)
            out += ",";
        out += names[i];
    }
    return out;
}

void
writeServeJson(const Options &opt, const InferenceServer &server,
               double wall_s, double baseline_s, int workers)
{
    const ServerStats &st = server.stats();
    std::FILE *f = std::fopen(opt.jsonPath.c_str(), "w");
    if (!f)
        fatal("cannot write %s", opt.jsonPath.c_str());
    const LatencyHistogram total = st.totalLatency();
    const LatencyHistogram queue = st.queueWait();
    const LatencyHistogram compute = st.computeTime();
    std::fprintf(f, "{\n  \"schema\": \"flcnn-serve-v1\",\n");
    std::fprintf(f,
                 "  \"config\": {\"net\": \"%s\", \"engine\": \"%s\", "
                 "\"precision\": \"%s\", "
                 "\"mode\": \"%s\", \"workers\": %d, \"requests\": %d, "
                 "\"concurrency\": %d, \"qps\": %.3f, "
                 "\"batch_max\": %d, \"batch_min\": %d, "
                 "\"queue_capacity\": %zu, \"policy\": \"%s\", "
                 "\"deadline_ms\": %.3f, \"budget_ms\": %.3f, "
                 "\"pin\": %s, \"seed\": %" PRIu64 "},\n",
                 joinNames(opt.models).c_str(),
                 planEngineName(opt.engine),
                 precisionName(opt.precision),
                 opt.qps > 0.0 ? "open" : "closed", workers,
                 opt.requests, opt.concurrency, opt.qps, opt.batchMax,
                 opt.batchMin, opt.queueCap,
                 overflowPolicyName(opt.policy), opt.deadlineMs,
                 opt.budgetMs, opt.pin ? "true" : "false", opt.seed);
    std::fprintf(f,
                 "  \"counts\": {\"submitted\": %" PRId64
                 ", \"admitted\": %" PRId64 ", \"rejected\": %" PRId64
                 ", \"expired\": %" PRId64 ", \"cancelled\": %" PRId64
                 ", \"shed\": %" PRId64
                 ", \"completed\": %" PRId64 ", \"batches\": %" PRId64
                 ", \"mean_batch\": %.3f, \"max_batch\": %.0f},\n",
                 st.submitted(), st.admitted(), st.rejected(),
                 st.expired(), st.cancelled(), st.shed(),
                 st.completed(), st.batches(), st.meanBatch(),
                 st.maxBatchSeen());
    std::fprintf(f, "  \"latency_us\": {\n");
    histJson(f, "    ", "total", total, false);
    histJson(f, "    ", "queue_wait", queue, false);
    histJson(f, "    ", "compute", compute, true);
    std::fprintf(f, "  },\n");
    // An array, not an object: --models may repeat a name (several
    // tenants of the same network), and object keys would collide.
    std::fprintf(f, "  \"models\": [\n");
    for (size_t m = 0; m < opt.models.size(); m++) {
        const LatencyHistogram h =
            st.modelLatency(static_cast<int>(m));
        std::fprintf(f, "    {\"name\": \"%s\", \"class\": \"%s\",\n",
                     opt.models[m].c_str(),
                     sloClassName(opt.slos[m]));
        histJson(f, "      ", "total_us", h, true);
        std::fprintf(f, "    }%s\n",
                     m + 1 < opt.models.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"classes\": {\n");
    histJson(f, "    ", "latency_critical",
             st.classLatency(SloClass::LatencyCritical), false);
    histJson(f, "    ", "best_effort",
             st.classLatency(SloClass::BestEffort), true);
    std::fprintf(f, "  },\n");
    const ArenaStats in = server.inputArenaStats();
    const ArenaStats out = server.outputArenaStats();
    std::fprintf(f,
                 "  \"arena\": {\"input_fallbacks\": %" PRId64
                 ", \"output_fallbacks\": %" PRId64
                 ", \"handle_heap_fallbacks\": %" PRId64
                 ", \"pinned_workers\": %d},\n",
                 in.exhaustedFallbacks + in.oversizedFallbacks,
                 out.exhaustedFallbacks + out.oversizedFallbacks,
                 server.handleHeapFallbacks(), server.pinnedWorkers());
    std::fprintf(f,
                 "  \"wall_s\": %.6f,\n  \"throughput_rps\": %.3f",
                 wall_s,
                 wall_s > 0.0 ? double(st.completed()) / wall_s : 0.0);
    if (baseline_s > 0.0)
        std::fprintf(f,
                     ",\n  \"sequential_wall_s\": %.6f,\n"
                     "  \"speedup_vs_sequential\": %.3f",
                     baseline_s, baseline_s / wall_s);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", opt.jsonPath.c_str());
}

double
quantileMs(const LatencyHistogram &h, double q)
{
    return h.quantile(q) / 1000.0;
}

/** Fill-and-submit through the zero-copy path: the image is written
 *  straight into the server's input arena, and downstream nothing
 *  copies it again. */
SubmitResult
submitZeroCopy(InferenceServer &server, int model, const Tensor &image)
{
    InputSlot slot = server.acquireInput(model);
    FLCNN_ASSERT(slot.tensor.elems() == image.elems(),
                 "input pool / model shape mismatch");
    std::memcpy(slot.tensor.data(), image.data(),
                static_cast<size_t>(image.elems()) * sizeof(float));
    return server.submit(std::move(slot));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> sloNames;
    std::string netArg;
    for (int a = 1; a < argc; a++) {
        if (std::strcmp(argv[a], "--net") == 0) {
            netArg = argValue(argc, argv, &a);
        } else if (std::strcmp(argv[a], "--models") == 0) {
            opt.models = splitCsv(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--slo") == 0) {
            sloNames = splitCsv(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--budget-ms") == 0) {
            opt.budgetMs = parseFloatArg(
                "--budget-ms", argValue(argc, argv, &a), 0.0, 1e6);
        } else if (std::strcmp(argv[a], "--shed-headroom") == 0) {
            opt.shedHeadroom = parseFloatArg(
                "--shed-headroom", argValue(argc, argv, &a), 1e-3, 10.0);
        } else if (std::strcmp(argv[a], "--pin") == 0) {
            opt.pin = true;
        } else if (std::strcmp(argv[a], "--arena-slots") == 0) {
            opt.arenaSlots = parseIntArgI(
                "--arena-slots", argValue(argc, argv, &a), 0, 1 << 20);
        } else if (std::strcmp(argv[a], "--convs") == 0) {
            opt.vggConvs = parseIntArgI("--convs",
                                        argValue(argc, argv, &a), 1, 16);
        } else if (std::strcmp(argv[a], "--precision") == 0) {
            opt.precision = precisionFromName(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--engine") == 0) {
            opt.engine = engineFromName(argValue(argc, argv, &a));
        } else if (std::strcmp(argv[a], "--workers") == 0) {
            opt.workers = parseIntArgI("--workers",
                                       argValue(argc, argv, &a), 1, 4096);
        } else if (std::strcmp(argv[a], "--requests") == 0) {
            opt.requests = parseIntArgI(
                "--requests", argValue(argc, argv, &a), 1, 1 << 24);
        } else if (std::strcmp(argv[a], "--concurrency") == 0) {
            opt.concurrency = parseIntArgI(
                "--concurrency", argValue(argc, argv, &a), 1, 4096);
        } else if (std::strcmp(argv[a], "--qps") == 0) {
            opt.qps = parseFloatArg("--qps", argValue(argc, argv, &a),
                                    1e-3, 1e9);
        } else if (std::strcmp(argv[a], "--batch-max") == 0) {
            opt.batchMax = parseIntArgI("--batch-max",
                                        argValue(argc, argv, &a), 1, 4096);
        } else if (std::strcmp(argv[a], "--batch-min") == 0) {
            opt.batchMin = parseIntArgI("--batch-min",
                                        argValue(argc, argv, &a), 1, 4096);
        } else if (std::strcmp(argv[a], "--max-delay-ms") == 0) {
            opt.maxDelayMs = parseFloatArg(
                "--max-delay-ms", argValue(argc, argv, &a), 0.0, 1e6);
        } else if (std::strcmp(argv[a], "--queue-cap") == 0) {
            opt.queueCap = static_cast<size_t>(parseIntArg(
                "--queue-cap", argValue(argc, argv, &a), 1, 1 << 24));
        } else if (std::strcmp(argv[a], "--policy") == 0) {
            const char *p = argValue(argc, argv, &a);
            if (std::strcmp(p, "block") == 0)
                opt.policy = OverflowPolicy::Block;
            else if (std::strcmp(p, "reject") == 0)
                opt.policy = OverflowPolicy::Reject;
            else
                fatal("--policy wants block | reject (got '%s')", p);
            opt.policySet = true;
        } else if (std::strcmp(argv[a], "--deadline-ms") == 0) {
            opt.deadlineMs = parseFloatArg(
                "--deadline-ms", argValue(argc, argv, &a), 0.0, 1e6);
        } else if (std::strcmp(argv[a], "--threads") == 0) {
            opt.threads = parseIntArgI("--threads",
                                       argValue(argc, argv, &a), 1,
                                       1 << 20);
        } else if (std::strcmp(argv[a], "--seed") == 0) {
            opt.seed = static_cast<uint64_t>(parseIntArg(
                "--seed", argValue(argc, argv, &a), 0, INT64_MAX));
        } else if (std::strcmp(argv[a], "--no-baseline") == 0) {
            opt.baseline = false;
        } else if (std::strcmp(argv[a], "--expect-no-rejects") == 0) {
            opt.expectNoRejects = true;
        } else if (std::strcmp(argv[a], "--fast-math") == 0) {
            opt.fastMath = true;
        } else if (std::strcmp(argv[a], "--tune") == 0) {
            opt.tune = true;
        } else if (std::strcmp(argv[a], "--json") == 0) {
            opt.jsonPath = argValue(argc, argv, &a);
        } else if (std::strcmp(argv[a], "--metrics-json") == 0) {
            opt.metricsPath = argValue(argc, argv, &a);
        } else if (std::strcmp(argv[a], "--trace-json") == 0) {
            opt.tracePath = argValue(argc, argv, &a);
        } else {
            fatal("unknown argument '%s'", argv[a]);
        }
    }
    if (opt.models.empty())
        opt.models = {netArg.empty() ? "alexnet" : netArg};
    else if (!netArg.empty())
        fatal("--net and --models are mutually exclusive");
    const int nModels = static_cast<int>(opt.models.size());
    opt.slos.assign(opt.models.size(), SloClass::LatencyCritical);
    if (!sloNames.empty()) {
        if (sloNames.size() != opt.models.size())
            fatal("--slo needs one class per model (%zu models, %zu "
                  "classes)",
                  opt.models.size(), sloNames.size());
        for (size_t m = 0; m < sloNames.size(); m++)
            opt.slos[m] = sloFromName(sloNames[m]);
    }

    ThreadPool::setGlobalThreads(opt.threads);
    const int hw = ThreadPool::global().numThreads();
    const bool open_loop = opt.qps > 0.0;
    if (!opt.policySet)
        opt.policy = open_loop ? OverflowPolicy::Reject
                               : OverflowPolicy::Block;
    int workers = opt.workers;
    if (workers == 0)
        workers = open_loop ? std::max(1, hw / 2)
                            : std::min(opt.concurrency, std::max(1, hw));

    // Build every model: network, weights, precision calibration.
    // Weight seeds differ per model so co-resident models are
    // genuinely distinct tenants.
    std::vector<Network> nets;
    std::vector<NetworkWeights> weightSets;
    std::vector<NetPrecision> precisions;
    nets.reserve(opt.models.size());
    weightSets.reserve(opt.models.size());
    precisions.reserve(opt.models.size());
    for (size_t m = 0; m < opt.models.size(); m++) {
        nets.push_back(makeNetByName(opt.models[m], opt.vggConvs));
        Rng wrng(opt.seed + m);
        weightSets.emplace_back(nets.back(), wrng);
        precisions.push_back(NetPrecision::calibrate(
            nets.back(), weightSets.back(), opt.precision));
    }

    // --tune: sweep the models' conv layers through the autotuner up
    // front (what ServeEngine::warmup() would do with tuneFirst)
    // so the cold/warm split is visible in the output — the CI smoke
    // greps for "0 newly tuned" on the warm run.
    const bool fm = opt.fastMath && opt.precision == Precision::Fp32;
    if (opt.tune) {
        int tuned = 0, cached = 0;
        for (const Network &net : nets) {
            AutotuneSummary sum = autotuneQueries(convQueriesForRange(
                net, 0, net.numLayers() - 1, opt.precision, fm));
            tuned += sum.tuned;
            cached += sum.cached;
        }
        std::printf("autotune: %d newly tuned, %d cached\n", tuned,
                    cached);
    }

    // Deterministic input pool per model: request i (for model
    // i % nModels) uses pool entry (i / nModels) % kInputPool.
    constexpr int kInputPool = 8;
    std::vector<std::vector<Tensor>> inputs(opt.models.size());
    for (size_t m = 0; m < opt.models.size(); m++) {
        Rng irng(opt.seed + 1 + m);
        inputs[m].reserve(kInputPool);
        for (int i = 0; i < kInputPool; i++) {
            inputs[m].emplace_back(nets[m].inputShape());
            inputs[m].back().fillRandom(irng);
        }
    }

    ServeConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = opt.queueCap;
    cfg.policy = opt.policy;
    cfg.batch.maxBatch = opt.batchMax;
    cfg.batch.minBatch = opt.batchMin;
    cfg.batch.maxDelaySeconds = opt.maxDelayMs / 1000.0;
    cfg.deadlineSeconds = opt.deadlineMs / 1000.0;
    cfg.engine = opt.engine;
    cfg.pinWorkers = opt.pin;
    cfg.outArenaSlots = opt.arenaSlots;
    cfg.shedHeadroom = opt.shedHeadroom;

    std::printf("== serve_bench: %s on %s (%s), %s loop ==\n",
                planEngineName(opt.engine),
                joinNames(opt.models).c_str(),
                precisionName(opt.precision),
                open_loop ? "open" : "closed");
    std::printf("workers %d%s, queue %zu (%s), batch [%d, %d], "
                "delay %.1f ms, deadline %s, %d requests, %s, "
                "intra-op threads %d\n",
                workers, opt.pin ? " (pinned)" : "", opt.queueCap,
                overflowPolicyName(opt.policy), opt.batchMin,
                opt.batchMax, opt.maxDelayMs,
                opt.deadlineMs > 0.0
                    ? (std::to_string(opt.deadlineMs) + " ms").c_str()
                    : "none",
                opt.requests,
                open_loop
                    ? (std::to_string(opt.qps) + " qps").c_str()
                    : ("concurrency " + std::to_string(opt.concurrency))
                          .c_str(),
                hw);

    InferenceServer server(cfg);
    for (size_t m = 0; m < opt.models.size(); m++) {
        const NetPrecision *precp = opt.precision == Precision::Fp32
                                        ? nullptr
                                        : &precisions[m];
        server.addModel(opt.models[m], nets[m], weightSets[m], 0, -1,
                        precp, fm, false, opt.slos[m],
                        opt.slos[m] == SloClass::LatencyCritical
                            ? opt.budgetMs
                            : 0.0);
    }
    server.start();

    const double t0 = monotonicSeconds();
    if (open_loop) {
        // Reaper: retire handles in submit order so completed
        // requests release their arena slots and pooled handles at
        // the completion rate — an open-loop client that hoarded
        // every handle would turn the bounded pools into heap
        // fallbacks and measure the wrong thing.
        std::mutex remu;
        std::condition_variable recv;
        std::deque<RequestHandlePtr> pending;
        bool doneSubmitting = false;
        std::thread reaper([&] {
            for (;;) {
                RequestHandlePtr h;
                {
                    std::unique_lock<std::mutex> lk(remu);
                    recv.wait(lk, [&] {
                        return !pending.empty() || doneSubmitting;
                    });
                    if (pending.empty())
                        return;
                    h = std::move(pending.front());
                    pending.pop_front();
                }
                h->wait();
            }
        });
        const double interval = 1.0 / opt.qps;
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < opt.requests; i++) {
            std::this_thread::sleep_until(
                start + std::chrono::duration<double>(i * interval));
            const int m = i % nModels;
            SubmitResult r = submitZeroCopy(
                server, m, inputs[m][(i / nModels) % kInputPool]);
            {
                std::lock_guard<std::mutex> lk(remu);
                pending.push_back(std::move(r.handle));
            }
            recv.notify_one();
        }
        {
            std::lock_guard<std::mutex> lk(remu);
            doneSubmitting = true;
        }
        recv.notify_one();
        reaper.join();
    } else {
        std::atomic<int> next{0};
        std::vector<std::thread> clients;
        clients.reserve(static_cast<size_t>(opt.concurrency));
        for (int c = 0; c < opt.concurrency; c++) {
            clients.emplace_back([&] {
                for (;;) {
                    const int i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= opt.requests)
                        return;
                    const int m = i % nModels;
                    SubmitResult r = submitZeroCopy(
                        server, m,
                        inputs[m][(i / nModels) % kInputPool]);
                    r.handle->wait();
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    server.drainAndStop();
    const double wall = monotonicSeconds() - t0;

    const ServerStats &st = server.stats();
    const LatencyHistogram total = st.totalLatency();
    const LatencyHistogram queue = st.queueWait();
    const LatencyHistogram compute = st.computeTime();

    // Invariants (also the CI smoke's checks): every completion is
    // recorded in every histogram exactly once, and the admission
    // ledger balances.
    if (total.count() != st.completed() ||
        queue.count() != st.completed() ||
        compute.count() != st.completed())
        fatal("histogram count %" PRId64 "/%" PRId64 "/%" PRId64
              " != completed %" PRId64,
              total.count(), queue.count(), compute.count(),
              st.completed());
    if (st.admitted() != st.completed() + st.expired())
        fatal("admitted %" PRId64 " != completed %" PRId64
              " + expired %" PRId64,
              st.admitted(), st.completed(), st.expired());
    if (st.submitted() != st.admitted() + st.rejected() +
                              st.cancelled() + st.shed())
        fatal("submitted %" PRId64 " != admitted %" PRId64
              " + rejected %" PRId64 " + cancelled %" PRId64
              " + shed %" PRId64,
              st.submitted(), st.admitted(), st.rejected(),
              st.cancelled(), st.shed());
    if (opt.expectNoRejects && st.rejected() > 0)
        fatal("--expect-no-rejects, but %" PRId64 " rejected",
              st.rejected());

    std::printf("\n%" PRId64 " submitted, %" PRId64 " completed, %" PRId64
                " rejected, %" PRId64 " expired, %" PRId64
                " shed; %" PRId64 " batches (mean %.2f, max %.0f)\n",
                st.submitted(), st.completed(), st.rejected(),
                st.expired(), st.shed(), st.batches(), st.meanBatch(),
                st.maxBatchSeen());
    std::printf("wall %.3f s, throughput %.1f req/s\n", wall,
                wall > 0.0 ? double(st.completed()) / wall : 0.0);
    const ArenaStats ain = server.inputArenaStats();
    const ArenaStats aout = server.outputArenaStats();
    std::printf("arena: input %" PRId64 " acquires / %" PRId64
                " fallbacks, output %" PRId64 " acquires / %" PRId64
                " fallbacks, handle pool %" PRId64
                " heap fallbacks, %d/%d workers pinned\n",
                ain.acquires,
                ain.exhaustedFallbacks + ain.oversizedFallbacks,
                aout.acquires,
                aout.exhaustedFallbacks + aout.oversizedFallbacks,
                server.handleHeapFallbacks(), server.pinnedWorkers(),
                workers);

    Table t({"latency (ms)", "mean", "p50", "p95", "p99", "max"});
    const struct
    {
        const char *name;
        const LatencyHistogram *h;
    } rows[] = {{"total", &total},
                {"queue wait", &queue},
                {"compute", &compute}};
    for (const auto &row : rows) {
        t.addRow({row.name, fmtF(row.h->mean() / 1000.0, 3),
                  fmtF(quantileMs(*row.h, 0.50), 3),
                  fmtF(quantileMs(*row.h, 0.95), 3),
                  fmtF(quantileMs(*row.h, 0.99), 3),
                  fmtF(row.h->max() / 1000.0, 3)});
    }
    t.print();

    // Per-model breakdown: the mixed-traffic story. p99 against the
    // declared budget is the number the SLO experiment reads.
    if (nModels > 1) {
        std::printf("\n");
        Table mt({"model", "class", "done", "mean ms", "p50", "p95",
                  "p99", "budget"});
        for (int m = 0; m < nModels; m++) {
            const LatencyHistogram h = st.modelLatency(m);
            const bool lc =
                opt.slos[static_cast<size_t>(m)] ==
                SloClass::LatencyCritical;
            mt.addRow(
                {opt.models[static_cast<size_t>(m)],
                 lc ? "lc" : "be", fmtI(h.count()),
                 h.count() ? fmtF(h.mean() / 1000.0, 3) : "-",
                 h.count() ? fmtF(quantileMs(h, 0.50), 3) : "-",
                 h.count() ? fmtF(quantileMs(h, 0.95), 3) : "-",
                 h.count() ? fmtF(quantileMs(h, 0.99), 3) : "-",
                 lc && opt.budgetMs > 0
                     ? fmtF(opt.budgetMs, 1) + " ms"
                     : "-"});
        }
        mt.print();
    }

    // Sequential baseline: N back-to-back single-image runs, each
    // rebuilding the network, weights, plan, and executor from
    // scratch — the cost profile of invoking fused_inference once per
    // image (everything the server's pinned, pre-warmed engines
    // amortize), minus process startup. Single-model runs only (the
    // multi-tenant comparison is the serve run itself).
    double baseline_s = 0.0;
    if (opt.baseline && nModels == 1) {
        const double b0 = monotonicSeconds();
        for (int i = 0; i < opt.requests; i++) {
            Network bnet = makeNetByName(opt.models[0], opt.vggConvs);
            Rng brng(opt.seed);
            NetworkWeights bweights(bnet, brng);
            NetPrecision bprec = NetPrecision::calibrate(
                bnet, bweights, opt.precision);
            ModelSpec spec;
            spec.name = bnet.name();
            spec.net = &bnet;
            spec.weights = &bweights;
            spec.firstLayer = 0;
            spec.lastLayer = bnet.numLayers() - 1;
            spec.compile.engine = opt.engine;
            spec.compile.precision = opt.precision == Precision::Fp32
                                         ? nullptr
                                         : &bprec;
            spec.compile.fastMath = fm;
            ServeEngine eng(spec);
            (void)eng.run(inputs[0][i % kInputPool]);
        }
        baseline_s = monotonicSeconds() - b0;
        std::printf("\nsequential baseline (cold executor per run): "
                    "%.3f s for %d runs "
                    "(%.1f req/s); serve speedup %.2fx\n",
                    baseline_s, opt.requests,
                    baseline_s > 0.0 ? opt.requests / baseline_s : 0.0,
                    wall > 0.0 ? baseline_s / wall : 0.0);
    }

    if (!opt.jsonPath.empty())
        writeServeJson(opt, server, wall, baseline_s, workers);
    if (!opt.metricsPath.empty()) {
        MetricsRegistry reg;
        server.registerMetrics(reg);
        MetricsReport report("serve_bench " + joinNames(opt.models));
        report.addRun("serve", AccelStats{}, reg);
        if (report.writeFile(opt.metricsPath))
            std::printf("wrote %s\n", opt.metricsPath.c_str());
    }
    if (!opt.tracePath.empty()) {
        ChromeTrace tr;
        server.appendTrace(tr, 1);
        if (tr.writeFile(opt.tracePath))
            std::printf("wrote %s\n", opt.tracePath.c_str());
    }
    return 0;
}
