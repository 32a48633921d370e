/**
 * @file
 * Quickstart: define a small CNN, fuse its layers, and verify that the
 * fused evaluation is bit-identical to the conventional layer-by-layer
 * one while transferring a fraction of the data.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/units.hh"
#include "fusion/fused_executor.hh"
#include "nn/reference.hh"
#include "nn/zoo.hh"
#include "tensor/compare.hh"

using namespace flcnn;

int
main()
{
    // 1. Describe a network: two padded 3x3 convolutions and a 2x2
    //    max-pool over a 3x64x64 input.
    Network net("quickstart", Shape{3, 64, 64});
    net.addConvBlock("conv1", 16, /*k=*/3, /*s=*/1, /*pad=*/1);
    net.addConvBlock("conv2", 16, 3, 1, 1);
    net.addMaxPool("pool1", 2, 2);
    std::printf("%s\n", net.str().c_str());

    // 2. Give it (synthetic, seeded) weights and an input image.
    Rng rng(1234);
    NetworkWeights weights(net, rng);
    Tensor image(net.inputShape());
    image.fillRandom(rng);

    // 3. Plan the fusion of all layers into one pyramid. The plan
    //    reports the geometry: per-layer tiles, overlaps, buffers.
    TilePlan plan(net, 0, net.numLayers() - 1);
    std::printf("%s\n", plan.str().c_str());

    // 4. Run fused and compare against the layer-by-layer reference.
    FusedExecutor fused(net, weights, std::move(plan));
    RunStats stats;
    Tensor out = fused.run(image, &stats);
    Tensor ref = runNetwork(net, weights, image);

    CompareResult cmp = compareTensors(ref, out);
    std::printf("fused vs reference: %s\n\n", cmp.str().c_str());

    // 5. The payoff: DRAM traffic with and without fusion.
    int64_t layer_by_layer = 0;
    for (int i = 0; i < net.numLayers(); i++) {
        if (net.layer(i).windowed()) {
            layer_by_layer += net.inShape(i).bytes();
            layer_by_layer += net.outShape(i).bytes();
        }
    }
    std::printf("layer-by-layer transfer : %s\n",
                formatBytes(layer_by_layer).c_str());
    std::printf("fused transfer          : %s (in %s + out %s)\n",
                formatBytes(stats.loadedBytes + stats.storedBytes).c_str(),
                formatBytes(stats.loadedBytes).c_str(),
                formatBytes(stats.storedBytes).c_str());
    std::printf("on-chip reuse buffers   : %s\n",
                formatBytes(stats.reuseBytes).c_str());
    std::printf("arithmetic              : %s mult-adds (same as "
                "unfused)\n",
                formatScaled(static_cast<double>(stats.ops.multAdds()))
                    .c_str());
    return cmp.match ? 0 : 1;
}
