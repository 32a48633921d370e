/**
 * @file
 * InferenceServer: the batched serving runtime over the fused
 * executors, assembled from the subsystem's four pieces:
 *
 *   submit() -> RequestQueue -> DynamicBatcher -> WorkerPool
 *                     \________________________________/
 *                                ServerStats
 *
 * Lifecycle: construct with a ServeConfig, addModel() for every
 * network to serve (the server hosts several models; the batcher
 * coalesces per model), start(), submit() from any number of client
 * threads, then drainAndStop() — which closes the queue, lets the
 * workers finish every admitted request, and joins them. Outputs are
 * bit-identical to single-image runs of the underlying executor at
 * every worker count and batch size: requests never share tensors,
 * and each is evaluated by exactly one pinned executor whose
 * arithmetic order is independent of batch composition.
 *
 * Steady-state hot path: with the zero-copy submit API —
 * acquireInput() / submit(InputSlot&&) — a request performs no heap
 * allocation and no feature-map copy between admission and
 * completion. Inputs are written directly into a server-wide
 * TensorArena, outputs directly into per-worker arenas
 * (ServeEngine::runInto), request handles come from a slab-backed
 * HandlePool, and the queue/batcher recycle preallocated rings.
 * Oversized shapes and exhausted pools fall back to the heap, and
 * every fallback is counted (serve:arena metrics) so deployments can
 * size the pools until the counters stay zero.
 *
 * Multi-tenancy: each model carries an SloClass. Latency-critical
 * models batch first (queue priority) and may declare a p99 budget;
 * best-effort submissions are shed at admission (RequestStatus::Shed)
 * whenever the projected latency-critical backlog, priced at the
 * observed LC compute EMA, threatens that budget.
 */

#ifndef FLCNN_SERVE_SERVER_HH
#define FLCNN_SERVE_SERVER_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "serve/arena.hh"
#include "serve/batcher.hh"
#include "serve/engine.hh"
#include "serve/request_queue.hh"
#include "serve/server_stats.hh"
#include "serve/worker_pool.hh"

namespace flcnn {

class MetricsRegistry;
class ChromeTrace;

/** Serving runtime configuration. */
struct ServeConfig
{
    int workers = 1;
    size_t queueCapacity = 64;
    OverflowPolicy policy = OverflowPolicy::Block;
    BatchPolicy batch;
    double deadlineSeconds = 0.0;   //!< <= 0: no deadline
    PlanEngine engine = PlanEngine::LineBuffer;
    IntraOpMode intraOp = IntraOpMode::Auto;
    bool warmup = true;
    int tip = 1;                    //!< pyramid tip (fused/recompute)
    size_t maxSpans = 100000;       //!< per-request trace log cap
    /** Pin worker w to the w-th allowed CPU (logged no-op where the
     *  platform lacks affinity support). */
    bool pinWorkers = false;
    /** Per-worker output-arena slots (0 disables; outputs then heap). */
    int outArenaSlots = 32;
    /** Input-arena slots; 0 = queueCapacity + workers * maxBatch. */
    size_t inputArenaSlots = 0;
    /** Shed best-effort admissions once the projected LC backlog
     *  exceeds this fraction of the tightest LC p99 budget. */
    double shedHeadroom = 0.7;
};

/** Outcome of a submit() call. */
struct SubmitResult
{
    AdmitResult admit = AdmitResult::Rejected;
    RequestHandlePtr handle;  //!< always non-null; terminal on reject
    int64_t id = -1;
};

/**
 * A writable input slot handed out by acquireInput(): fill `tensor`
 * (a view into the server's input arena, or an owning heap tensor
 * when the arena was exhausted — `fallback`) and pass the slot to
 * submit(). Dropping an unsubmitted slot returns the arena slot.
 */
struct InputSlot
{
    int model = -1;
    Tensor tensor;
    ArenaLease lease;
    bool fallback = false;  //!< heap tensor (arena exhausted/oversized)
};

/** Batched inference server over the repo's bit-exact executors. */
class InferenceServer
{
  public:
    explicit InferenceServer(ServeConfig cfg);
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Register a model covering layers [first_layer, last_layer] of
     * @p net (-1 = last layer). Must be called before start();
     * @p net and @p weights must outlive the server. Pass a calibrated
     * @p precision (which must also outlive the server) to serve the
     * model in int8 or fp16; nullptr serves plain fp32. @p fast_math
     * serves fp32 through the opt-in ULP-bounded FMA tier;
     * @p tune_at_warmup autotunes the range's conv layers during
     * worker warmup (see ModelSpec). @p slo picks the service class;
     * @p p99_budget_ms is the latency budget a latency-critical model
     * asks the shedder to defend (0 = none). Returns the model id
     * submit() takes.
     */
    int addModel(const std::string &name, const Network &net,
                 const NetworkWeights &weights, int first_layer = 0,
                 int last_layer = -1,
                 const NetPrecision *precision = nullptr,
                 bool fast_math = false, bool tune_at_warmup = false,
                 SloClass slo = SloClass::LatencyCritical,
                 double p99_budget_ms = 0.0);

    /** Build and warm every worker's engines, then begin serving. */
    void start();

    /**
     * Zero-copy submission, step 1: lease an input slot for @p model
     * and write the image straight into slot.tensor (shape = the
     * model's input shape; not zero-filled). Thread-safe; requires
     * start(). Arena exhaustion degrades to a counted heap fallback,
     * never an error.
     */
    InputSlot acquireInput(int model);

    /** Zero-copy submission, step 2: enqueue a filled slot. The slot's
     *  storage travels to the worker without a copy; its arena lease
     *  is released the moment compute finishes. */
    SubmitResult submit(InputSlot &&slot);

    /**
     * Copying submission path: submit one image for @p model by value
     * (moved in; no further copies downstream). Thread-safe. Blocks
     * only under the Block overflow policy when the queue is full.
     * Rejected / closed / shed submissions return an
     * already-completed handle.
     */
    SubmitResult submit(int model, Tensor input);

    /** Close admission, finish every admitted request, join workers.
     *  Idempotent; the destructor calls it. */
    void drainAndStop();

    const ServeConfig &config() const { return cfg; }
    const ServerStats &stats() const { return statsHub; }
    const std::vector<ModelSpec> &models() const { return specs; }
    bool started() const { return isStarted; }

    /** Input-arena counters (zero-alloc proof for the submit side). */
    ArenaStats inputArenaStats() const;

    /** Summed per-worker output-arena counters. */
    ArenaStats outputArenaStats() const;

    /** Handle-pool heap fallbacks (0 in a well-sized steady state). */
    int64_t handleHeapFallbacks() const;

    /** Workers that got pinned to a CPU (0 where unsupported). */
    int pinnedWorkers() const;

    /** Publish serving stats into @p reg ("serve:*" scopes, including
     *  "serve:arena" pool counters). */
    void registerMetrics(MetricsRegistry &reg) const;

    /** Render per-request queue/compute spans onto @p tr (pids
     *  @p pid and @p pid + 1). */
    void appendTrace(ChromeTrace &tr, int pid) const;

  private:
    SubmitResult submitImpl(int model, Tensor &&input,
                            ArenaLease &&lease);

    /** True when admitting another best-effort request would push the
     *  projected latency-critical backlog past its budget headroom. */
    bool shouldShed() const;

    ServeConfig cfg;
    std::vector<ModelSpec> specs;
    ServerStats statsHub;
    RequestQueue queue;
    DynamicBatcher batcher;
    std::unique_ptr<WorkerPool> workers;
    std::shared_ptr<TensorArena> inputArena;  //!< set by start()
    std::unique_ptr<HandlePool> handlePool;   //!< set by start()
    double minLcBudgetSeconds = 0.0;          //!< tightest LC budget
    std::atomic<int64_t> nextRequestId{0};
    bool isStarted = false;
    bool isStopped = false;
};

} // namespace flcnn

#endif // FLCNN_SERVE_SERVER_HH
