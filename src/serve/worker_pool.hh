/**
 * @file
 * WorkerPool: the serving workers that execute batches.
 *
 * Each worker is one std::thread that owns a pinned ServeEngine per
 * registered model (executor + WeightPackCache built and warmed once
 * at startup) and loops: form a batch via the DynamicBatcher, execute
 * its requests back-to-back on the matching engine, fulfill the
 * handles, record stats. Workers exit when the batcher reports the
 * queue closed and drained.
 *
 * Intra-op parallelism policy: with several workers, each worker runs
 * its executor inline (ThreadPool::InlineScope) — request-level
 * concurrency is the parallelism, and workers never contend for the
 * shared pool. A single worker instead uses the global pool, so one
 * lone worker still spreads each image across every core. Either way
 * the outputs are bit-identical (the pool's static-partition
 * contract), which the differential tests verify at 1/2/8 workers.
 *
 * Zero-copy output path: each worker owns a TensorArena sized to the
 * largest model output; request outputs are written straight into an
 * arena slot via ServeEngine::runInto and handed to the caller as a
 * view whose slot recycles when the RequestHandle is dropped. The
 * Reference engine (golden baseline) keeps returning heap tensors.
 *
 * Placement: with pinWorkers set, worker w pins itself to the w-th
 * allowed CPU (ThreadPool::pinCurrentThread), so co-resident models'
 * workers stop migrating across cores and evicting each other's
 * packed weights. On platforms without affinity support the hint
 * degrades to a logged no-op.
 */

#ifndef FLCNN_SERVE_WORKER_POOL_HH
#define FLCNN_SERVE_WORKER_POOL_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/arena.hh"
#include "serve/batcher.hh"
#include "serve/engine.hh"
#include "serve/server_stats.hh"

namespace flcnn {

/** How a serving worker runs its executor's parallel loops. */
enum class IntraOpMode
{
    Auto,    //!< Inline when workers > 1, Pool for a single worker
    Inline,  //!< always inline (one core per request)
    Pool,    //!< always through the global ThreadPool (serialized)
};

const char *intraOpModeName(IntraOpMode m);

/** Construction knobs for a WorkerPool. */
struct WorkerPoolOptions
{
    int numWorkers = 1;
    IntraOpMode intraOp = IntraOpMode::Auto;
    bool warmup = true;
    /** Pin worker w to the w-th allowed CPU (no-op where
     *  unsupported; see ThreadPool::pinCurrentThread). */
    bool pinWorkers = false;
    /** Per-worker output-arena slots; 0 disables the output arena
     *  (every output is then a heap tensor). */
    int outArenaSlots = 32;
};

/** Fixed-size pool of serving workers over one batcher. */
class WorkerPool
{
  public:
    /**
     * @param models one spec per registered model (index == the
     *   QueuedRequest::model the batcher hands out). Referenced
     *   networks/weights must outlive the pool.
     */
    WorkerPool(const WorkerPoolOptions &options,
               const std::vector<ModelSpec> &models,
               DynamicBatcher &batcher, ServerStats &stats);

    /** Spawn the workers (each builds + warms its engines first). */
    void start();

    /** Block until every worker has built (and, if enabled, warmed)
     *  its engines and is ready to take batches — so a server never
     *  serves traffic on a cold executor. */
    void waitReady();

    /** Join all workers (returns once the queue is closed and every
     *  admitted request completed). */
    void join();

    int numWorkers() const { return opt.numWorkers; }
    bool running() const { return !threads.empty(); }

    /** Summed output-arena counters across workers (valid after
     *  waitReady(); the arenas outlive the pool through leases). */
    ArenaStats outputArenaStats() const;

    /** Workers that actually got pinned (0 where unsupported). */
    int pinnedWorkers() const;

  private:
    void workerMain(int wid);

    const WorkerPoolOptions opt;
    const std::vector<ModelSpec> &models;
    DynamicBatcher &batcher;
    ServerStats &stats;
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<TensorArena>> outArenas;  //!< per worker
    mutable std::mutex readyMu;
    std::condition_variable readyCv;
    int nReady = 0;
    int nPinned = 0;
};

} // namespace flcnn

#endif // FLCNN_SERVE_WORKER_POOL_HH
