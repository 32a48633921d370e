#include "common/thread_pool.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

#include "common/logging.hh"

namespace flcnn {

namespace {

/** Installed chunk observer; the flag makes the disabled path one
 *  relaxed atomic load (no lock, no shared_ptr traffic). */
std::atomic<bool> observer_installed{false};
std::mutex observer_mu;
std::shared_ptr<const ThreadPool::ChunkObserver> observer;

std::shared_ptr<const ThreadPool::ChunkObserver>
currentObserver()
{
    std::lock_guard<std::mutex> lk(observer_mu);
    return observer;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** True while the current thread is executing a parallelFor chunk;
 *  nested parallelFor calls run inline instead of re-entering the pool
 *  (which would deadlock a worker waiting on itself). */
thread_local bool in_parallel_region = false;

/** Chunk t of [begin, end) among nchunks static chunks. */
void
chunkBounds(int64_t begin, int64_t end, int t, int nchunks, int64_t *lo,
            int64_t *hi)
{
    const int64_t n = end - begin;
    *lo = begin + n * t / nchunks;
    *hi = begin + n * (t + 1) / nchunks;
}

std::unique_ptr<ThreadPool> global_pool;
std::mutex global_mu;

/** The global pool a forked child inherited from its parent. */
ThreadPool *pool_of_parent = nullptr;

#if defined(__unix__) || defined(__APPLE__)
/**
 * fork() copies the global pool object into the child but none of its
 * worker threads. Left alone, the child's first pooled parallelFor
 * would wait forever for workers that do not exist, and its exit()
 * would join them and crash. So the child sets the inherited pool
 * aside, never to be used or destroyed (still reachable, so leak
 * checkers stay quiet), and builds a pool of the same width on first
 * use. The locks are held across fork() so that the child never
 * inherits them mid-update.
 */
void
lockForFork()
{
    global_mu.lock();
    observer_mu.lock();
}

void
unlockAfterFork()
{
    observer_mu.unlock();
    global_mu.unlock();
}

void
forgetParentPool()
{
    if (global_pool)
        pool_of_parent = global_pool.release();
    unlockAfterFork();
}

const int fork_handlers =
    pthread_atfork(lockForFork, unlockAfterFork, forgetParentPool);
#endif

} // namespace

ThreadPool::ThreadPool(int num_threads)
    : nthreads(num_threads > 0 ? num_threads : defaultThreads())
{
    workers.reserve(static_cast<size_t>(nthreads - 1));
    for (int t = 1; t < nthreads; t++)
        workers.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cvWork.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::runChunk(const RangeFn &body, int64_t begin, int64_t end,
                     int tid, int nchunks)
{
    int64_t lo, hi;
    chunkBounds(begin, end, tid, nchunks, &lo, &hi);
    if (lo >= hi)
        return;
    const bool saved = in_parallel_region;
    in_parallel_region = true;
    if (observer_installed.load(std::memory_order_relaxed)) {
        auto obs = currentObserver();
        if (obs && *obs) {
            const double t0 = nowSeconds();
            body(lo, hi);
            (*obs)(tid, lo, hi, t0, nowSeconds());
            in_parallel_region = saved;
            return;
        }
    }
    body(lo, hi);
    in_parallel_region = saved;
}

void
ThreadPool::workerLoop(int tid)
{
    uint64_t seen = 0;
    for (;;) {
        const RangeFn *body;
        int64_t begin, end;
        int nchunks;
        {
            std::unique_lock<std::mutex> lk(mu);
            cvWork.wait(lk, [&] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            body = fn;
            begin = jobBegin;
            end = jobEnd;
            nchunks = jobChunks;
        }
        if (tid < nchunks)
            runChunk(*body, begin, end, tid, nchunks);
        {
            std::lock_guard<std::mutex> lk(mu);
            pending--;
        }
        cvDone.notify_one();
    }
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, const RangeFn &body,
                        int64_t grain)
{
    if (end <= begin)
        return;
    FLCNN_ASSERT(grain >= 1, "grain must be positive");
    const int64_t n = end - begin;
    // Deterministic width: enough threads that each chunk holds at
    // least `grain` indices (a function of n only, never of timing).
    int width = static_cast<int>(
        std::min<int64_t>(nthreads, (n + grain - 1) / grain));
    if (width <= 1 || in_parallel_region) {
        if (!in_parallel_region) {
            // Top-level single-chunk run: go through runChunk so the
            // chunk observer still sees it (e.g. on one-core hosts).
            runChunk(body, begin, end, 0, 1);
            return;
        }
        // Nested call from inside a worker chunk: run inline,
        // unobserved — the enclosing chunk already owns the span.
        body(begin, end);
        return;
    }
    // One top-level job at a time: concurrent external callers (e.g.
    // serving workers sharing the global pool) queue here instead of
    // clobbering each other's job state.
    std::lock_guard<std::mutex> submit(submitMu);
    {
        std::lock_guard<std::mutex> lk(mu);
        fn = &body;
        jobBegin = begin;
        jobEnd = end;
        jobChunks = width;
        pending = nthreads - 1;  // every worker acknowledges the job
        generation++;
    }
    cvWork.notify_all();
    runChunk(body, begin, end, 0, width);
    std::unique_lock<std::mutex> lk(mu);
    cvDone.wait(lk, [&] { return pending == 0; });
    fn = nullptr;
}

ThreadPool::InlineScope::InlineScope() : saved(in_parallel_region)
{
    in_parallel_region = true;
}

ThreadPool::InlineScope::~InlineScope()
{
    in_parallel_region = saved;
}

void
ThreadPool::setChunkObserver(ChunkObserver obs)
{
    std::lock_guard<std::mutex> lk(observer_mu);
    if (obs) {
        observer =
            std::make_shared<const ChunkObserver>(std::move(obs));
        observer_installed.store(true, std::memory_order_relaxed);
    } else {
        observer.reset();
        observer_installed.store(false, std::memory_order_relaxed);
    }
}

int
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
    const char *env = std::getenv("FLCNN_THREADS");
    if (!env || *env == '\0')
        return fallback;
    // Strict parse: the whole string must be a positive decimal
    // integer. atoi() would silently turn "abc" into 0, accept the
    // "8" of "8garbage", and fold overflow into garbage values.
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (errno != 0 || end == env || *end != '\0') {
        warn("FLCNN_THREADS='%s' is not a valid integer; using %d "
             "hardware threads", env, fallback);
        return fallback;
    }
    if (v <= 0 || v > 1 << 20) {
        warn("FLCNN_THREADS=%ld out of range (want 1..%d); using %d "
             "hardware threads", v, 1 << 20, fallback);
        return fallback;
    }
    return static_cast<int>(v);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(global_mu);
    if (!global_pool) {
        global_pool = std::make_unique<ThreadPool>(
            pool_of_parent ? pool_of_parent->numThreads() : 0);
    }
    return *global_pool;
}

void
ThreadPool::setGlobalThreads(int num_threads)
{
    std::lock_guard<std::mutex> lk(global_mu);
    global_pool = std::make_unique<ThreadPool>(num_threads);
}

bool
ThreadPool::inParallelRegion()
{
    return in_parallel_region;
}

bool
ThreadPool::affinitySupported()
{
#if defined(__linux__)
    return true;
#else
    return false;
#endif
}

int
ThreadPool::cpuCount()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

bool
ThreadPool::pinCurrentThread(int cpu)
{
#if defined(__linux__)
    // Map the logical index onto the n-th *set* bit of the process
    // mask: containers and cpusets routinely hand out non-contiguous
    // CPU ids, so CPU_SET(cpu) directly would miss or fail.
    cpu_set_t avail;
    CPU_ZERO(&avail);
    if (sched_getaffinity(0, sizeof(avail), &avail) != 0)
        return false;
    const int n = CPU_COUNT(&avail);
    if (n <= 0)
        return false;
    const int want = ((cpu % n) + n) % n;
    int seen = 0, target = -1;
    for (int c = 0; c < CPU_SETSIZE; c++) {
        if (!CPU_ISSET(c, &avail))
            continue;
        if (seen == want) {
            target = c;
            break;
        }
        seen++;
    }
    if (target < 0)
        return false;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(target, &one);
    return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
#else
    (void)cpu;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
        warn("thread pinning is not supported on this platform; "
             "worker placement hints are a no-op");
    }
    return false;
#endif
}

void
parallelFor(int64_t begin, int64_t end, const ThreadPool::RangeFn &fn,
            int64_t grain)
{
    ThreadPool::global().parallelFor(begin, end, fn, grain);
}

} // namespace flcnn
