/**
 * @file
 * Differential suite for the serving runtime: everything that comes
 * out of the batched server must be bit-identical to running each
 * image alone through nn::runRange, at every worker count, batch
 * size, engine kind, and intra-op mode. Batching is grouping — it
 * must never change a single bit of any request's output.
 *
 * The grids follow the PR's test matrix: AlexNet's fused prefix and
 * the VGG-E first-five-conv pyramid, workers {1, 2, 8} x batch
 * {1, 3, 8}. The full-resolution networks are exercised once each;
 * the grids run at reduced spatial scale (identical layer
 * parameters) to keep the suite fast. SIMD on/off coverage comes
 * from CI building and running this suite in both configurations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "serve/server.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

/** AlexNet's fused prefix (real conv/pool/pad parameters) at a
 *  reduced input scale. */
Network
alexPrefixScaled(int hw)
{
    Network net("alex-prefix", Shape{3, hw, hw});
    net.add(LayerSpec::conv("conv1", 96, 11, 4));
    net.add(LayerSpec::relu("relu1"));
    net.addMaxPool("pool1", 3, 2);
    net.add(LayerSpec::padding("conv2_pad", 2));
    net.add(LayerSpec::conv("conv2", 256, 5, 1, 2));
    net.add(LayerSpec::relu("relu2"));
    return net;
}

/** VGG-E first five convolution stages at a reduced input scale. */
Network
vggFiveScaled(int hw)
{
    Network net("vggE-first5", Shape{3, hw, hw});
    net.addConvBlock("conv1_1", 64, 3, 1, 1);
    net.addConvBlock("conv1_2", 64, 3, 1, 1);
    net.addMaxPool("pool1", 2, 2);
    net.addConvBlock("conv2_1", 128, 3, 1, 1);
    net.addConvBlock("conv2_2", 128, 3, 1, 1);
    net.addMaxPool("pool2", 2, 2);
    net.addConvBlock("conv3_1", 256, 3, 1, 1);
    return net;
}

/**
 * Push @p requests images through a server with the given shape and
 * compare every output bit-for-bit against the per-image reference.
 */
void
runDifferential(const Network &net, int workers, int batch_max,
                int requests, PlanEngine engine,
                IntraOpMode intra_op = IntraOpMode::Auto)
{
    SCOPED_TRACE(std::string(net.name()) + " workers=" +
                 std::to_string(workers) + " batch=" +
                 std::to_string(batch_max) + " engine=" +
                 planEngineName(engine));

    Rng wrng(7);
    NetworkWeights weights(net, wrng);

    constexpr int kPool = 4;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;
    Rng irng(11);
    const int last = net.numLayers() - 1;
    for (int i = 0; i < kPool; i++) {
        inputs.emplace_back(net.inputShape());
        inputs.back().fillRandom(irng);
        expected.push_back(
            runRange(net, weights, inputs.back(), 0, last));
    }

    ServeConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 64;
    cfg.policy = OverflowPolicy::Block;
    cfg.batch.maxBatch = batch_max;
    cfg.engine = engine;
    cfg.intraOp = intra_op;
    cfg.warmup = false;  // bit-exactness must not depend on warmup

    InferenceServer server(cfg);
    server.addModel(net.name(), net, weights);
    server.start();

    std::vector<RequestHandlePtr> handles;
    for (int i = 0; i < requests; i++)
        handles.push_back(
            server.submit(0, Tensor(inputs[i % kPool])).handle);
    for (int i = 0; i < requests; i++) {
        ASSERT_EQ(handles[i]->wait(), RequestStatus::Ok);
        const CompareResult cr =
            compareTensors(expected[i % kPool], handles[i]->output());
        EXPECT_TRUE(cr.match)
            << "request " << i << ": max abs diff " << cr.maxAbsDiff;
        EXPECT_GE(handles[i]->workerId(), 0);
        EXPECT_LT(handles[i]->workerId(), workers);
        EXPECT_GE(handles[i]->batchSize(), 1);
        EXPECT_LE(handles[i]->batchSize(), batch_max);
        EXPECT_GE(handles[i]->computeSeconds(), 0.0);
        EXPECT_GE(handles[i]->queueWaitSeconds(), 0.0);
    }
    server.drainAndStop();

    const ServerStats &st = server.stats();
    EXPECT_EQ(st.completed(), requests);
    EXPECT_EQ(st.totalLatency().count(), st.completed());
}

TEST(ServeDifferential, AlexNetPrefixGrid)
{
    Network net = alexPrefixScaled(67);
    for (int workers : {1, 2, 8})
        for (int batch : {1, 3, 8})
            runDifferential(net, workers, batch, 10,
                            PlanEngine::LineBuffer);
}

TEST(ServeDifferential, VggFirstFiveGrid)
{
    Network net = vggFiveScaled(40);
    for (int workers : {1, 2, 8})
        for (int batch : {1, 3, 8})
            runDifferential(net, workers, batch, 10,
                            PlanEngine::Fused);
}

TEST(ServeDifferential, FullScaleAlexNetPrefix)
{
    // The real 227x227 network, once, through the batched server.
    Network net = alexnetFusedPrefix();
    runDifferential(net, 2, 3, 6, PlanEngine::LineBuffer);
}

TEST(ServeDifferential, FullScaleVggFirstFive)
{
    Network net = vggEPrefix(5);
    runDifferential(net, 2, 8, 4, PlanEngine::LineBuffer);
}

TEST(ServeDifferential, EveryEngineMatches)
{
    Network net = alexPrefixScaled(67);
    for (PlanEngine kind :
         {PlanEngine::Reference, PlanEngine::Fused,
          PlanEngine::LineBuffer, PlanEngine::Recompute})
        runDifferential(net, 2, 3, 6, kind);
}

TEST(ServeDifferential, IntraOpModesMatch)
{
    // Inline and pooled intra-op execution must produce identical
    // bits (the ThreadPool static-partition contract).
    Network net = vggFiveScaled(40);
    for (IntraOpMode mode :
         {IntraOpMode::Inline, IntraOpMode::Pool, IntraOpMode::Auto})
        runDifferential(net, 2, 3, 8, PlanEngine::LineBuffer, mode);
}

TEST(ServeDifferential, DeterministicBatchFormation)
{
    // minBatch == maxBatch: formation is count-driven, so batch
    // compositions are a pure function of the request sequence.
    Network net = alexPrefixScaled(67);
    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(11);
    input.fillRandom(irng);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.batch.maxBatch = 4;
    cfg.batch.minBatch = 4;
    cfg.warmup = false;
    InferenceServer server(cfg);
    server.addModel(net.name(), net, weights);
    server.start();

    std::vector<RequestHandlePtr> handles;
    for (int i = 0; i < 8; i++)
        handles.push_back(server.submit(0, Tensor(input)).handle);
    for (const RequestHandlePtr &h : handles)
        ASSERT_EQ(h->wait(), RequestStatus::Ok);
    server.drainAndStop();

    for (const RequestHandlePtr &h : handles)
        EXPECT_EQ(h->batchSize(), 4);
    EXPECT_EQ(server.stats().batches(), 2);
}

TEST(ServeDifferential, RejectPolicySurfacesBackpressure)
{
    Network net = alexPrefixScaled(67);
    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(11);
    input.fillRandom(irng);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 1;
    cfg.policy = OverflowPolicy::Reject;
    cfg.batch.maxBatch = 1;
    // Hold batch formation back so submits outrun the worker.
    cfg.batch.minBatch = 1;
    cfg.warmup = false;
    InferenceServer server(cfg);
    server.addModel(net.name(), net, weights);
    server.start();

    int rejected = 0;
    std::vector<RequestHandlePtr> handles;
    for (int i = 0; i < 32; i++) {
        SubmitResult r = server.submit(0, Tensor(input));
        if (r.admit == AdmitResult::Rejected) {
            rejected++;
            // Rejected handles are terminal immediately.
            EXPECT_EQ(r.handle->wait(), RequestStatus::Rejected);
        } else {
            handles.push_back(r.handle);
        }
    }
    for (const RequestHandlePtr &h : handles)
        EXPECT_EQ(h->wait(), RequestStatus::Ok);
    server.drainAndStop();
    EXPECT_EQ(server.stats().rejected(), rejected);
    EXPECT_EQ(server.stats().completed(),
              static_cast<int64_t>(handles.size()));
}

TEST(ServeDifferential, SubmitAfterDrainIsCancelled)
{
    Network net = alexPrefixScaled(67);
    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    Tensor input(net.inputShape());
    Rng irng(11);
    input.fillRandom(irng);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.warmup = false;
    InferenceServer server(cfg);
    server.addModel(net.name(), net, weights);
    server.start();
    server.drainAndStop();

    SubmitResult r = server.submit(0, Tensor(input));
    EXPECT_EQ(r.admit, AdmitResult::Closed);
    EXPECT_EQ(r.handle->wait(), RequestStatus::Cancelled);
}

} // namespace
} // namespace flcnn
