#include "serve/worker_pool.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace flcnn {

const char *
intraOpModeName(IntraOpMode m)
{
    switch (m) {
      case IntraOpMode::Auto:   return "auto";
      case IntraOpMode::Inline: return "inline";
      case IntraOpMode::Pool:   return "pool";
    }
    return "?";
}

WorkerPool::WorkerPool(const WorkerPoolOptions &options,
                       const std::vector<ModelSpec> &model_specs,
                       DynamicBatcher &b, ServerStats &st)
    : opt(options), models(model_specs), batcher(b), stats(st)
{
    if (opt.numWorkers < 1)
        fatal("worker pool needs >= 1 workers (got %d)", opt.numWorkers);
    if (opt.outArenaSlots < 0)
        fatal("outArenaSlots must be >= 0 (got %d)", opt.outArenaSlots);
}

void
WorkerPool::start()
{
    FLCNN_ASSERT(threads.empty(), "worker pool already started");
    if (models.empty())
        fatal("no models registered; nothing to serve");
    {
        std::lock_guard<std::mutex> lock(readyMu);
        nReady = 0;
        nPinned = 0;
    }
    outArenas.assign(static_cast<size_t>(opt.numWorkers), nullptr);
    threads.reserve(static_cast<size_t>(opt.numWorkers));
    for (int w = 0; w < opt.numWorkers; w++)
        threads.emplace_back([this, w] { workerMain(w); });
}

void
WorkerPool::waitReady()
{
    std::unique_lock<std::mutex> lock(readyMu);
    readyCv.wait(lock, [this] { return nReady == opt.numWorkers; });
}

void
WorkerPool::join()
{
    for (std::thread &t : threads)
        t.join();
    threads.clear();
}

ArenaStats
WorkerPool::outputArenaStats() const
{
    ArenaStats sum;
    for (const auto &a : outArenas) {
        if (!a)
            continue;
        const ArenaStats st = a->stats();
        sum.acquires += st.acquires;
        sum.releases += st.releases;
        sum.exhaustedFallbacks += st.exhaustedFallbacks;
        sum.oversizedFallbacks += st.oversizedFallbacks;
        sum.slots += st.slots;
        sum.inUse += st.inUse;
        sum.peakInUse += st.peakInUse;
        sum.slotElems = std::max(sum.slotElems, st.slotElems);
    }
    return sum;
}

int
WorkerPool::pinnedWorkers() const
{
    std::lock_guard<std::mutex> lock(readyMu);
    return nPinned;
}

void
WorkerPool::workerMain(int wid)
{
    // Placement first: engines built after the pin allocate their
    // buffers from the pinned core's NUMA node where that matters.
    if (opt.pinWorkers && ThreadPool::pinCurrentThread(wid)) {
        std::lock_guard<std::mutex> lock(readyMu);
        nPinned++;
    }

    // Inline intra-op keeps workers off the shared pool (see header);
    // the scope must cover engine construction and warmup too, so the
    // pack caches are built with the same code paths requests will use.
    const bool inline_compute =
        opt.intraOp == IntraOpMode::Inline ||
        (opt.intraOp == IntraOpMode::Auto && opt.numWorkers > 1);
    std::optional<ThreadPool::InlineScope> inliner;
    if (inline_compute)
        inliner.emplace();

    std::vector<std::unique_ptr<ServeEngine>> engines;
    engines.reserve(models.size());
    int64_t maxOutElems = 0;
    bool anyInto = false;
    for (const ModelSpec &spec : models) {
        engines.push_back(
            std::make_unique<ServeEngine>(spec));
        if (opt.warmup)
            engines.back()->warmup();
        if (engines.back()->producesInto()) {
            anyInto = true;
            maxOutElems = std::max(
                maxOutElems, engines.back()->outShape().elems());
        }
    }

    // One output arena per worker, sized to the largest model output:
    // requests of every co-resident model share the same recycled
    // slots, so slot count — not model count — bounds memory.
    std::shared_ptr<TensorArena> arena;
    if (anyInto && opt.outArenaSlots > 0)
        arena = TensorArena::create(maxOutElems, opt.outArenaSlots);

    {
        std::lock_guard<std::mutex> lock(readyMu);
        outArenas[static_cast<size_t>(wid)] = arena;
        nReady++;
    }
    readyCv.notify_all();

    Batch batch;
    while (batcher.nextBatch(&batch)) {
        ServeEngine &eng =
            *engines[static_cast<size_t>(batch.model)];
        for (QueuedRequest &qr : batch.items) {
            const double t_start = monotonicSeconds();
            Tensor out;
            ArenaLease lease;
            if (eng.producesInto()) {
                if (arena)
                    out = arena->acquireTensor(eng.outShape(), &lease);
                else
                    out = Tensor(eng.outShape());
                eng.runInto(qr.input, &out);
            } else {
                out = eng.run(qr.input);
            }
            // The input slot frees the moment compute is done — the
            // submit-side arena only has to cover queued + in-flight
            // requests, not completed ones.
            qr.inputLease.release();
            const double t_end = monotonicSeconds();
            RequestSpan span;
            span.id = qr.id;
            span.model = qr.model;
            span.worker = wid;
            span.batch = batch.id;
            span.tSubmit = qr.submitTime;
            span.tStart = t_start;
            span.tEnd = t_end;
            stats.onCompleted(span);
            qr.handle->complete(RequestStatus::Ok, std::move(out),
                                std::move(lease), t_start, t_end, wid,
                                batch.id, batch.size());
            qr.handle.reset();
        }
    }
}

} // namespace flcnn
