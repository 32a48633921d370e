/**
 * @file
 * TensorArena / HandlePool: the allocation infrastructure under the
 * zero-copy serving hot path. Covers the recycle-reuse invariant
 * (freed slots come back LIFO, same storage), both degradation paths
 * (oversized shape, exhausted pool) falling back to counted heap
 * tensors, lease lifetime past the arena handle, slab-pooled request
 * handles outliving their pool, and — the PR's acceptance test — a
 * steady-state serving loop that performs zero heap allocations
 * between admission and completion.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/rng.hh"
#include "nn/zoo.hh"
#include "serve/arena.hh"
#include "serve/server.hh"
#include "tensor/tensor.hh"

// ---------------------------------------------------------------------
// Global allocation counter. The overrides are binary-wide but only
// count while armed, so the other suites in this binary are
// unaffected. AddressSanitizer interposes the allocator itself, so
// the zero-alloc assertion is compiled out under ASan.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<int64_t> g_allocs{0};
} // namespace

#if !defined(__SANITIZE_ADDRESS__)

void *
operator new(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // !__SANITIZE_ADDRESS__

namespace flcnn {
namespace {

TEST(TensorArena, RecyclesSlotsLifo)
{
    auto arena = TensorArena::create(64, 4);
    const Shape s{1, 8, 8};

    ArenaLease a = arena->acquire(s);
    ASSERT_TRUE(a.active());
    float *const pa = a.data();
    a.release();
    EXPECT_FALSE(a.active());
    a.release();  // idempotent

    // LIFO free list: the slot just freed is the next one handed out,
    // so a recycling steady state keeps touching cache-warm storage.
    ArenaLease b = arena->acquire(s);
    ASSERT_TRUE(b.active());
    EXPECT_EQ(b.data(), pa);

    const ArenaStats st = arena->stats();
    EXPECT_EQ(st.acquires, 2);
    EXPECT_EQ(st.releases, 1);
    EXPECT_EQ(st.inUse, 1);
    EXPECT_EQ(st.slots, 4);
    EXPECT_EQ(st.exhaustedFallbacks, 0);
    EXPECT_EQ(st.oversizedFallbacks, 0);
}

TEST(TensorArena, OversizedShapeFallsBackToHeap)
{
    auto arena = TensorArena::create(16, 2);
    ArenaLease lease;
    Tensor t = arena->acquireTensor(Shape{4, 8, 8}, &lease);  // 256 > 16
    EXPECT_FALSE(lease.active());
    EXPECT_TRUE(t.ownsStorage());
    EXPECT_EQ(t.shape(), (Shape{4, 8, 8}));
    EXPECT_EQ(arena->stats().oversizedFallbacks, 1);
    EXPECT_EQ(arena->stats().acquires, 0);
}

TEST(TensorArena, ExhaustionFallsBackToHeapAndRecovers)
{
    auto arena = TensorArena::create(64, 2);
    const Shape s{1, 8, 8};

    ArenaLease a = arena->acquire(s);
    ArenaLease b = arena->acquire(s);
    ASSERT_TRUE(a.active());
    ASSERT_TRUE(b.active());

    ArenaLease overflowLease;
    Tensor t = arena->acquireTensor(s, &overflowLease);
    EXPECT_FALSE(overflowLease.active());
    EXPECT_TRUE(t.ownsStorage());  // degraded, not failed
    EXPECT_EQ(arena->stats().exhaustedFallbacks, 1);
    EXPECT_EQ(arena->stats().peakInUse, 2);

    // Returning any slot makes the arena serve again.
    b.release();
    ArenaLease c = arena->acquire(s);
    EXPECT_TRUE(c.active());
    EXPECT_EQ(arena->stats().exhaustedFallbacks, 1);
}

TEST(TensorArena, AcquiredTensorAliasesSlot)
{
    auto arena = TensorArena::create(64, 2);
    ArenaLease lease;
    Tensor t = arena->acquireTensor(Shape{1, 4, 4}, &lease);
    ASSERT_TRUE(lease.active());
    EXPECT_FALSE(t.ownsStorage());
    EXPECT_EQ(t.data(), lease.data());
    t.data()[0] = 42.0f;
    EXPECT_EQ(lease.data()[0], 42.0f);
}

TEST(TensorArena, LeaseSharesArenaOwnership)
{
    // A lease held past the last external arena reference (a client
    // keeping its RequestHandle after server teardown) must stay
    // backed by live storage.
    auto arena = TensorArena::create(64, 2);
    ArenaLease lease = arena->acquire(Shape{1, 8, 8});
    ASSERT_TRUE(lease.active());
    arena.reset();
    lease.data()[0] = 1.0f;
    EXPECT_EQ(lease.data()[0], 1.0f);
    lease.release();  // returns the slot, then drops the arena
}

TEST(TensorArena, LeaseMoveTransfersSlot)
{
    auto arena = TensorArena::create(64, 2);
    ArenaLease a = arena->acquire(Shape{1, 2, 2});
    ASSERT_TRUE(a.active());
    float *const pa = a.data();

    ArenaLease b = std::move(a);
    EXPECT_FALSE(a.active());
    ASSERT_TRUE(b.active());
    EXPECT_EQ(b.data(), pa);

    ArenaLease c;
    c = std::move(b);
    EXPECT_FALSE(b.active());
    ASSERT_TRUE(c.active());
    EXPECT_EQ(arena->stats().inUse, 1);
    c.release();
    EXPECT_EQ(arena->stats().inUse, 0);
}

TEST(HandlePool, PoolsUpToCapacityThenCountsHeapFallbacks)
{
    HandlePool pool(4);
    EXPECT_EQ(pool.capacity(), 4);

    std::vector<RequestHandlePtr> held;
    for (int i = 0; i < 5; i++)
        held.push_back(pool.acquire());
    EXPECT_EQ(pool.heapFallbacks(), 1);  // 5th exceeded the slab

    // Recycling: once the pooled handles return, fresh acquires come
    // from the slab again and the fallback counter stays put.
    held.clear();
    for (int i = 0; i < 4; i++)
        held.push_back(pool.acquire());
    EXPECT_EQ(pool.heapFallbacks(), 1);
}

TEST(HandlePool, HandlesOutlivePool)
{
    std::vector<RequestHandlePtr> held;
    {
        HandlePool pool(2);
        held.push_back(pool.acquire());
        held.push_back(pool.acquire());
        held.push_back(pool.acquire());  // heap fallback
    }
    // The slab is kept alive by the pooled handles' deleters; touching
    // and destroying them after the pool is gone must be safe.
    for (const RequestHandlePtr &h : held) {
        EXPECT_FALSE(h->done());
        EXPECT_EQ(h->status(), RequestStatus::Pending);
    }
    held.clear();
}

#if !defined(__SANITIZE_ADDRESS__)

/**
 * Once the server is warm, a request makes it from admission to
 * completion with ZERO heap allocations — input written into the
 * arena, output returned as an arena view, the handle from the slab
 * pool, queue and batcher recycling preallocated rings, and the
 * engine's executor reusing its buffers across pyramids.
 */
void
expectSteadyStateAllocatesNothing(const Network &net, PlanEngine engine)
{
    Rng wrng(3);
    NetworkWeights weights(net, wrng);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 16;
    cfg.batch.maxBatch = 4;
    cfg.engine = engine;
    cfg.intraOp = IntraOpMode::Inline;  // keep compute off the shared
                                        // pool: its task dispatch may
                                        // allocate
    InferenceServer server(cfg);
    server.addModel("net", net, weights);
    server.start();

    Tensor image(net.inputShape());
    Rng irng(5);
    image.fillRandom(irng);
    const size_t imageBytes =
        static_cast<size_t>(image.elems()) * sizeof(float);

    auto oneRequest = [&] {
        InputSlot slot = server.acquireInput(0);
        EXPECT_FALSE(slot.fallback);
        std::memcpy(slot.tensor.data(), image.data(), imageBytes);
        SubmitResult r = server.submit(std::move(slot));
        EXPECT_EQ(r.handle->wait(), RequestStatus::Ok);
        // Handle drops here: output slot and handle block recycle.
    };

    // Warmup: first-touch growth (per-model queue ring, batcher item
    // vector, worker bookkeeping) happens on the first few requests
    // and is amortized away.
    for (int i = 0; i < 24; i++)
        oneRequest();

    g_allocs.store(0);
    g_countAllocs.store(true);
    for (int i = 0; i < 64; i++)
        oneRequest();
    g_countAllocs.store(false);

    EXPECT_EQ(g_allocs.load(), 0)
        << "steady-state serving touched the heap";

    server.drainAndStop();
    const ArenaStats in = server.inputArenaStats();
    const ArenaStats out = server.outputArenaStats();
    EXPECT_EQ(in.exhaustedFallbacks + in.oversizedFallbacks, 0);
    EXPECT_EQ(out.exhaustedFallbacks + out.oversizedFallbacks, 0);
    EXPECT_EQ(server.handleHeapFallbacks(), 0);
}

TEST(ServeArena, SteadyStateServingAllocatesNothing)
{
    expectSteadyStateAllocatesNothing(tinyNet(), PlanEngine::LineBuffer);
}

/** Every fusable layer kind: pad, conv with its ReLU epilogue, LRN,
 *  pool and a stand-alone ReLU. */
Network
everyKindNet()
{
    Network net("fused-steady", Shape{3, 16, 16});
    net.addConvBlock("c1", 6, 3, 1, 1);
    net.add(LayerSpec::lrn("n1"));
    net.addMaxPool("p1", 2, 2);
    net.add(LayerSpec::relu("p1_relu"));
    net.addConvBlock("c2", 4, 3, 1, 1);
    return net;
}

TEST(ServeArena, SteadyStateFusedServingAllocatesNothing)
{
    expectSteadyStateAllocatesNothing(everyKindNet(), PlanEngine::Fused);
}

TEST(ServeArena, SteadyStateRecomputeServingAllocatesNothing)
{
    // The pyramid engine with no boundary retained: every pyramid
    // recomputes its halo from buffers sized at construction.
    expectSteadyStateAllocatesNothing(everyKindNet(),
                                      PlanEngine::Recompute);
}

TEST(ServeArena, SteadyStateLineBufferEveryKindAllocatesNothing)
{
    // The same layer kinds through the row cascade: a Pad writing into
    // the conv's ring, the ReLU forwarding the conv's clamped rows and
    // the stand-alone ReLU clamping into its own row buffer.
    expectSteadyStateAllocatesNothing(everyKindNet(),
                                      PlanEngine::LineBuffer);
}

#endif // !__SANITIZE_ADDRESS__

} // namespace
} // namespace flcnn
