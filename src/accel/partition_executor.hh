/**
 * @file
 * PartitionExecutor: evaluate a whole fusion partition (the paper's
 * Figure 4 multi-pyramid organization) end to end.
 *
 * Each stage group becomes one fused pyramid evaluated with the reuse
 * model; between groups the intermediate feature maps travel through
 * "DRAM" (counted). A partition of all-singleton groups degenerates to
 * conventional layer-by-layer evaluation; the single full-fusion group
 * is the paper's point-C design. The measured inter-group traffic
 * equals the analytic partitionTransferBytes() model exactly, which
 * the test suite asserts (DESIGN.md invariant 3 at partition scope).
 */

#ifndef FLCNN_ACCEL_PARTITION_EXECUTOR_HH
#define FLCNN_ACCEL_PARTITION_EXECUTOR_HH

#include <vector>

#include "fusion/fused_executor.hh"
#include "model/partition.hh"
#include "nn/weights.hh"

namespace flcnn {

/** Executes a partition of a network's fusable stages. */
class PartitionExecutor
{
  public:
    /**
     * @param partition groups over net.stages(); validated fatally.
     * @param tip       pyramid tip size used for every group.
     */
    PartitionExecutor(const Network &net, const NetworkWeights &weights,
                      Partition partition, int tip = 1);

    /** Evaluate all groups in order on @p input; @p stats receives
     *  the sum of the groups' RunStats (per-group figures are in the
     *  "group:<g>:" metric scopes, see setMetrics()). */
    Tensor run(const Tensor &input, RunStats *stats = nullptr);

    int numGroups() const { return static_cast<int>(execs.size()); }
    const Partition &partition() const { return part; }

    /** Total reuse-buffer bytes across groups (the Figure 7 x-axis,
     *  under the executor's include-first-input convention). */
    int64_t reuseBufferBytes() const;

    /**
     * Record breakdowns of subsequent runs into @p m: every group's
     * executor reports under a "group:<g>:" scope prefix (e.g.
     * "group:1:layer:0:conv2"), so one registry's dram_read_bytes /
     * dram_write_bytes sums cover the whole partition. Pass nullptr
     * to detach.
     */
    void setMetrics(MetricsRegistry *m);

  private:
    const Network &net;
    Partition part;
    std::vector<FusedExecutor> execs;
};

} // namespace flcnn

#endif // FLCNN_ACCEL_PARTITION_EXECUTOR_HH
