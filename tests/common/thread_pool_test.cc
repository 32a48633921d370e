/** @file ThreadPool: coverage, determinism, nesting, env plumbing. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/thread_pool.hh"

namespace flcnn {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 3, 8}) {
        ThreadPool pool(threads);
        for (int64_t n : {0, 1, 2, 7, 64, 1000}) {
            std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
            for (auto &h : hits)
                h = 0;
            pool.parallelFor(0, n, [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; i++)
                    hits[static_cast<size_t>(i)]++;
            });
            for (int64_t i = 0; i < n; i++)
                EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
                    << "threads=" << threads << " n=" << n << " i=" << i;
        }
    }
}

TEST(ThreadPool, OffsetRanges)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(10);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(100, 110, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++) {
            ASSERT_GE(i, 100);
            ASSERT_LT(i, 110);
            hits[static_cast<size_t>(i - 100)]++;
        }
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, StaticPartitioningIsDeterministic)
{
    // Chunk boundaries depend only on (range, threads): two identical
    // invocations record the same chunk list.
    ThreadPool pool(5);
    auto record = [&] {
        std::mutex mu;
        std::vector<std::pair<int64_t, int64_t>> chunks;
        pool.parallelFor(3, 103, [&](int64_t lo, int64_t hi) {
            std::lock_guard<std::mutex> lk(mu);
            chunks.emplace_back(lo, hi);
        });
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    auto a = record();
    auto b = record();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 5u);
    // Contiguous cover of [3, 103).
    EXPECT_EQ(a.front().first, 3);
    EXPECT_EQ(a.back().second, 103);
    for (size_t i = 1; i < a.size(); i++)
        EXPECT_EQ(a[i].first, a[i - 1].second);
}

TEST(ThreadPool, GrainBoundsChunkCount)
{
    ThreadPool pool(8);
    std::atomic<int> calls{0};
    pool.parallelFor(
        0, 10, [&](int64_t, int64_t) { calls++; }, /*grain=*/5);
    // 10 indices at grain 5 use at most 2 chunks regardless of width.
    EXPECT_LE(calls.load(), 2);
    EXPECT_GE(calls.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<int64_t> total{0};
    pool.parallelFor(0, 8, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++) {
            // A nested parallelFor from a pool thread must not
            // deadlock; it runs the body inline.
            pool.parallelFor(0, 3, [&](int64_t l2, int64_t h2) {
                total += h2 - l2;
            });
        }
    });
    EXPECT_EQ(total.load(), 8 * 3);
}

TEST(ThreadPool, ChunkLocalReductionIsBitExact)
{
    // The executors' pattern: disjoint writes, deterministic merge.
    const int64_t n = 4096;
    std::vector<double> data(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++)
        data[static_cast<size_t>(i)] =
            1.0 / static_cast<double>(i + 1);

    auto sum_with = [&](int threads) {
        ThreadPool pool(threads);
        std::vector<double> out(static_cast<size_t>(n));
        pool.parallelFor(0, n, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; i++)
                out[static_cast<size_t>(i)] =
                    data[static_cast<size_t>(i)] * 3.0;
        });
        // Serial merge in index order: identical at any thread count.
        double acc = 0.0;
        for (double v : out)
            acc += v;
        return acc;
    };
    double s1 = sum_with(1);
    for (int threads : {2, 3, 8})
        EXPECT_EQ(s1, sum_with(threads));
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, [&](int64_t, int64_t) { calls++; });
    pool.parallelFor(7, 3, [&](int64_t, int64_t) { calls++; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, DefaultThreadsHonorsEnv)
{
    ::setenv("FLCNN_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3);
    ::setenv("FLCNN_THREADS", "0", 1);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
    ::unsetenv("FLCNN_THREADS");
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, GlobalPoolCanBeResized)
{
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().numThreads(), 2);
    std::atomic<int64_t> total{0};
    parallelFor(0, 100, [&](int64_t lo, int64_t hi) {
        total += hi - lo;
    });
    EXPECT_EQ(total.load(), 100);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().numThreads(), 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs)
{
    ThreadPool pool(3);
    for (int rep = 0; rep < 200; rep++) {
        std::atomic<int64_t> total{0};
        pool.parallelFor(0, 37, [&](int64_t lo, int64_t hi) {
            total += hi - lo;
        });
        ASSERT_EQ(total.load(), 37);
    }
}

TEST(ThreadPool, ForkedChildRunsParallelForAndExitsCleanly)
{
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "ThreadSanitizer refuses to start threads in the "
                    "child of a multi-threaded fork";
#endif
    // The child inherits the started global pool but none of its
    // workers. Its parallelFor must still cover the range on the pool
    // width, and its exit() must not join the parent's workers.
    ThreadPool::setGlobalThreads(2);
    std::atomic<int64_t> total{0};
    parallelFor(0, 100, [&](int64_t lo, int64_t hi) { total += hi - lo; });
    ASSERT_EQ(total.load(), 100);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        alarm(60);  // a hang becomes a SIGALRM death, not a stuck test
        std::atomic<int64_t> sum{0};
        std::atomic<int> chunks{0};
        parallelFor(0, 100, [&](int64_t lo, int64_t hi) {
            sum += hi - lo;
            chunks++;
        });
        const bool ok = sum.load() == 100 && chunks.load() == 2 &&
                        ThreadPool::global().numThreads() == 2;
        std::exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "child died, status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0);
    ThreadPool::setGlobalThreads(0);
}

} // namespace
} // namespace flcnn
