#include "accel/fused_accel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "model/resource.hh"
#include "obs/metrics.hh"

namespace flcnn {

FusedAccelerator::FusedAccelerator(const Network &network,
                                   const NetworkWeights &weights,
                                   int first_layer, int last_layer,
                                   FusedPipelineConfig pipeline_cfg,
                                   DramModel dram_model)
    : net(network), pcfg(std::move(pipeline_cfg)), dram(dram_model),
      exec(network, weights, TilePlan(network, first_layer, last_layer)),
      first(first_layer), last(last_layer)
{
}

int64_t
FusedAccelerator::stageCycles(int li, int r, int c) const
{
    const TilePlan &plan = exec.plan();
    const LayerGeom &g = plan.geom(li);
    const LayerSpec &spec = net.layer(g.layerIdx);

    int64_t fresh = static_cast<int64_t>(g.freshOutY(r).width()) *
                    g.freshOutX(c).width();
    if (fresh == 0)
        return 0;

    switch (spec.kind) {
      case LayerKind::Conv: {
        int tm = 1, tn = 1;
        for (const LayerUnroll &u : pcfg.unrolls) {
            if (u.layerIdx == g.layerIdx) {
                tm = u.tm;
                tn = u.tn;
                break;
            }
        }
        const Shape &in = g.inPlane;
        int m_per_group = spec.outChannels / spec.groups;
        int n_per_group = in.c / spec.groups;
        return spec.groups * ceilDiv(m_per_group, tm) *
               ceilDiv(n_per_group, tn) * fresh * spec.kernel *
               spec.kernel;
      }
      case LayerKind::Pool:
        // One comparator per channel: fresh window work per point.
        return fresh * spec.kernel * spec.kernel;
      default:
        // Padding and pointwise layers are absorbed into their
        // neighbors' pipelines (the paper's assumption for the
        // baseline is applied symmetrically here).
        return 0;
    }
}

Tensor
FusedAccelerator::run(const Tensor &input, AccelStats *stats)
{
    RunStats fstats;
    Tensor out = exec.run(input, &fstats);

    const TilePlan &plan = exec.plan();
    const int n_layers = plan.numFusedLayers();
    const int pcols = plan.numPyramidCols();
    const LayerGeom &g0 = plan.geom(0);
    const LayerGeom &gl = plan.geom(n_layers - 1);

    // Stages: Load, each fused layer, Store.
    const int n_stages = n_layers + 2;
    auto cycles = [&](int64_t p, int s) -> int64_t {
        int r = static_cast<int>(p / pcols);
        int c = static_cast<int>(p % pcols);
        if (s == 0) {
            int64_t bytes = static_cast<int64_t>(g0.inPlane.c) *
                            g0.freshInY(r).width() *
                            g0.freshInX(c).width() * 4;
            return dram.transferCycles(bytes);
        }
        if (s == n_stages - 1) {
            int64_t bytes = static_cast<int64_t>(gl.outPlane.c) *
                            gl.freshOutY(r).width() *
                            gl.freshOutX(c).width() * 4;
            return dram.transferCycles(bytes);
        }
        return stageCycles(s - 1, r, c);
    };

    // Keep slots only for small schedules (Gantt inspection). The Load
    // and Store stages share one DRAM channel and serialize against
    // each other.
    bool keep = plan.numPyramids() * n_stages <= 4096;
    std::vector<int> resources(static_cast<size_t>(n_stages), -1);
    resources.front() = 0;
    resources.back() = 0;
    sched = schedulePyramidPipeline(plan.numPyramids(), n_stages, cycles,
                                    keep, resources);
    hasSchedule = true;

    AccelStats res;
    const int64_t weight_bytes = net.weightBytesInRange(first, last);
    res.dramReadBytes = fstats.loadedBytes + weight_bytes;
    res.dramWriteBytes = fstats.storedBytes;
    for (int li = 0; li < n_layers; li++)
        res.computeCycles += sched.stageBusy(li + 1);
    res.makespanCycles = sched.makespan();

    if (metrics) {
        // The executor already attributed the feature-map DRAM bytes
        // to its layer scopes; only the once-per-group weight stream
        // and the schedule's timing remain, so one registry's sums
        // still match AccelStats exactly.
        metrics->addCounter("", "dram_read_bytes", weight_bytes);
        metrics->addCounter("", "weight_read_bytes", weight_bytes);
        metrics->addCounter("", "makespan_cycles", res.makespanCycles);
        const std::vector<std::string> names = stageNames();
        for (int s = 0; s < n_stages; s++) {
            const std::string scope = MetricsRegistry::stageScope(
                s, names[static_cast<size_t>(s)]);
            metrics->addCounter(scope, "busy_cycles",
                                sched.stageBusy(s));
            if (s >= 1 && s <= n_layers)
                metrics->addCounter(scope, "compute_cycles",
                                    sched.stageBusy(s));
            metrics->setGauge(scope, "utilization",
                              sched.stageUtilization(s));
        }
    }

    ResourceUsage use = fusedResources(net, first, last, pcfg.unrolls);
    res.dsp = use.dsp;
    res.bram = use.bram;
    res.lut = use.lut;
    res.ff = use.ff;
    res.bufferBytes = use.bufferBytes;

    if (stats)
        *stats = res;
    return out;
}

const PipelineSchedule &
FusedAccelerator::schedule() const
{
    FLCNN_ASSERT(hasSchedule, "run() has not been called yet");
    return sched;
}

std::vector<std::string>
FusedAccelerator::stageNames() const
{
    const TilePlan &plan = exec.plan();
    std::vector<std::string> names;
    names.reserve(static_cast<size_t>(plan.numFusedLayers()) + 2);
    names.push_back("load");
    for (int li = 0; li < plan.numFusedLayers(); li++)
        names.push_back(net.layer(plan.geom(li).layerIdx).name);
    names.push_back("store");
    return names;
}

} // namespace flcnn
