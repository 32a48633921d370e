#include "accel/partition_executor.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace flcnn {

PartitionExecutor::PartitionExecutor(const Network &network,
                                     const NetworkWeights &weights,
                                     Partition partition, int tip)
    : net(network), part(std::move(partition))
{
    std::string err = validatePartition(
        part, static_cast<int>(net.stages().size()));
    if (!err.empty())
        fatal("invalid partition: %s", err.c_str());

    execs.reserve(part.size());
    for (const StageGroup &g : part) {
        int first_layer, last_layer;
        groupLayerRange(net, g, first_layer, last_layer);
        execs.emplace_back(net, weights,
                           TilePlan(net, first_layer, last_layer, tip,
                                    tip));
    }
}

Tensor
PartitionExecutor::run(const Tensor &input, RunStats *stats)
{
    RunStats cur;
    Tensor data = input;
    for (FusedExecutor &exec : execs) {
        RunStats gs;
        data = exec.run(data, &gs);
        cur.loadedBytes += gs.loadedBytes;
        cur.storedBytes += gs.storedBytes;
        cur.reuseBytes += gs.reuseBytes;
        cur.workingBytes += gs.workingBytes;
        cur.pyramids += gs.pyramids;
        cur.ops += gs.ops;
    }
    if (stats)
        *stats = cur;
    return data;
}

void
PartitionExecutor::setMetrics(MetricsRegistry *m)
{
    for (size_t g = 0; g < execs.size(); g++) {
        execs[g].setMetrics(
            m, m ? MetricsRegistry::groupPrefix(static_cast<int>(g))
                 : std::string());
    }
}

int64_t
PartitionExecutor::reuseBufferBytes() const
{
    int64_t bytes = 0;
    for (const FusedExecutor &exec : execs)
        bytes += exec.plan().reuseBufferBytes();
    return bytes;
}

} // namespace flcnn
