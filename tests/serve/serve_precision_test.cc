/**
 * @file
 * Differential suite for the precision modes through the batched
 * server. The contract mirrors the fp32 differential suite with one
 * twist per mode:
 *
 *  - Within a precision, serving is still *bit-exact*: every output
 *    must equal the precision reference (runRange with the same
 *    NetPrecision) bit-for-bit at every worker count, batch size, and
 *    engine kind. Quantization changes the numbers once, at the conv
 *    boundaries — never differently per executor or thread count.
 *  - Against fp32, outputs stay within the documented error bounds:
 *    int8 within 5e-2 absolute and fp16 within 5e-3 on these O(1)
 *    activations (measured deviations are orders of magnitude
 *    smaller; see README "Precision").
 *
 * Grids: AlexNet prefix and VGG-E first five convs, workers {1, 2, 8}
 * x batch {1, 3, 8}, reduced spatial scale; the full-resolution
 * networks run once each. SIMD on/off coverage comes from CI building
 * this suite in both configurations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/precision.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "serve/server.hh"
#include "tensor/compare.hh"

namespace flcnn {
namespace {

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

/** Absolute error bound vs the fp32 reference (see file comment). */
double
absBound(Precision mode)
{
    return mode == Precision::Int8 ? 5e-2 : 5e-3;
}

/**
 * Serve @p requests images under @p mode and check both contracts:
 * bit-equality against the precision reference, bounded deviation
 * against the fp32 reference.
 */
void
runPrecisionDifferential(const Network &net, Precision mode, int workers,
                         int batch_max, int requests, PlanEngine engine)
{
    SCOPED_TRACE(std::string(net.name()) + " " + precisionName(mode) +
                 " workers=" + std::to_string(workers) + " batch=" +
                 std::to_string(batch_max) + " engine=" +
                 planEngineName(engine));

    Rng wrng(7);
    NetworkWeights weights(net, wrng);
    const NetPrecision prec =
        NetPrecision::calibrate(net, weights, mode);

    constexpr int kPool = 4;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;  // precision reference (bit-exact)
    std::vector<Tensor> fp32ref;   // plain reference (bounded)
    Rng irng(11);
    const int last = net.numLayers() - 1;
    for (int i = 0; i < kPool; i++) {
        inputs.emplace_back(net.inputShape());
        inputs.back().fillRandom(irng);
        expected.push_back(
            runRange(net, weights, inputs.back(), 0, last, &prec));
        fp32ref.push_back(
            runRange(net, weights, inputs.back(), 0, last));
    }

    ServeConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 64;
    cfg.policy = OverflowPolicy::Block;
    cfg.batch.maxBatch = batch_max;
    cfg.engine = engine;
    cfg.warmup = false;

    InferenceServer server(cfg);
    server.addModel(net.name(), net, weights, 0, -1, &prec);
    server.start();

    std::vector<RequestHandlePtr> handles;
    for (int i = 0; i < requests; i++)
        handles.push_back(
            server.submit(0, Tensor(inputs[i % kPool])).handle);
    for (int i = 0; i < requests; i++) {
        ASSERT_EQ(handles[i]->wait(), RequestStatus::Ok);
        const Tensor &out = handles[i]->output();
        EXPECT_TRUE(tensorsEqual(expected[i % kPool], out))
            << "request " << i
            << " diverged from the precision reference";
        const CompareResult cr =
            compareTensors(fp32ref[i % kPool], out, 0.0, absBound(mode));
        EXPECT_TRUE(cr.match) << "request " << i << " vs fp32: max abs "
                              << cr.maxAbsDiff;
    }
    server.drainAndStop();
}

TEST(ServePrecision, Int8AlexNetPrefixGrid)
{
    Network net = alexPrefixScaled(67);
    for (int workers : {1, 2, 8})
        for (int batch : {1, 3, 8})
            runPrecisionDifferential(net, Precision::Int8, workers,
                                     batch, 10, PlanEngine::LineBuffer);
}

TEST(ServePrecision, Int8VggFirstFiveGrid)
{
    Network net = vggFiveScaled(40);
    for (int workers : {1, 2, 8})
        for (int batch : {1, 3, 8})
            runPrecisionDifferential(net, Precision::Int8, workers,
                                     batch, 10, PlanEngine::Fused);
}

TEST(ServePrecision, Fp16AlexNetPrefixGrid)
{
    Network net = alexPrefixScaled(67);
    for (int workers : {1, 2, 8})
        for (int batch : {1, 3, 8})
            runPrecisionDifferential(net, Precision::Fp16, workers,
                                     batch, 10, PlanEngine::LineBuffer);
}

TEST(ServePrecision, Fp16VggFirstFiveGrid)
{
    Network net = vggFiveScaled(40);
    for (int workers : {1, 2, 8})
        for (int batch : {1, 3, 8})
            runPrecisionDifferential(net, Precision::Fp16, workers,
                                     batch, 10, PlanEngine::Fused);
}

TEST(ServePrecision, EveryEngineMatchesEveryMode)
{
    Network net = alexPrefixScaled(67);
    for (Precision mode : {Precision::Int8, Precision::Fp16})
        for (PlanEngine kind :
             {PlanEngine::Reference, PlanEngine::Fused,
              PlanEngine::LineBuffer, PlanEngine::Recompute})
            runPrecisionDifferential(net, mode, 2, 3, 6, kind);
}

TEST(ServePrecision, FullScaleAlexNetPrefixInt8)
{
    Network net = alexnetFusedPrefix();
    runPrecisionDifferential(net, Precision::Int8, 2, 3, 6,
                             PlanEngine::LineBuffer);
}

TEST(ServePrecision, FullScaleVggFirstFiveInt8)
{
    Network net = vggEPrefix(5);
    runPrecisionDifferential(net, Precision::Int8, 2, 8, 4,
                             PlanEngine::LineBuffer);
}

} // namespace
} // namespace flcnn
