/**
 * @file
 * MetricsRegistry: named, scoped counters and gauges for the
 * executable accelerator models.
 *
 * The flat RunStats (below) and AccelStats structs report one number
 * per run; the registry keeps the *breakdown* — per fused layer, per
 * accelerator stage, per partition group — that makes a regression
 * attributable. A metric is identified by (scope, name):
 *
 *  - scope: where the value was measured. Executors use
 *    "layer:<i>:<layer-name>" for per-fused-layer values, accelerator
 *    models use "stage:<s>:<stage-name>", FusionPlan::setMetrics
 *    prefixes the former with "group:<g>:", "" holds run values.
 *  - name: what was measured ("dram_read_bytes", "compute_cycles",
 *    "pack_misses", ...).
 *
 * Counters are int64 and accumulate with addCounter(); gauges are
 * double and either accumulate (addGauge, e.g. wall seconds) or
 * overwrite (setGauge, e.g. buffer capacities). sumCounters(name)
 * folds a counter across every scope — the cross-check the test suite
 * leans on: the per-scope breakdown of dram_read_bytes /
 * dram_write_bytes / compute_cycles must sum bit-exactly to the
 * RunStats or AccelStats totals of the same run.
 *
 * The registry is not thread-safe; executors update it only from the
 * serial portions of their runs (the same discipline the OpCount
 * tallies already follow). Attaching a registry is optional and
 * attaching none costs a null-pointer test on the instrumented paths.
 */

#ifndef FLCNN_OBS_METRICS_HH
#define FLCNN_OBS_METRICS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/opcount.hh"

namespace flcnn {

/**
 * Totals of one fused-executor run, the same fields for every engine
 * (FusedExecutor under either halo strategy and any tip, the line
 * buffer included, and a FusionPlan's sum over its groups). With a
 * registry attached to the run, each counted field equals the sum of
 * its counter over every scope: loadedBytes =
 * sumCounters("dram_read_bytes"), storedBytes =
 * sumCounters("dram_write_bytes"), pyramids = sumCounters("pyramids"),
 * and ops = the "mults" / "adds" / "compares" sums.
 */
struct RunStats
{
    int64_t loadedBytes = 0;   //!< DRAM bytes read (incl. re-reads)
    int64_t storedBytes = 0;   //!< DRAM bytes written
    int64_t reuseBytes = 0;    //!< BL + BT capacity (the paper's cost;
                               //!< BT alone for the line buffer)
    int64_t workingBytes = 0;  //!< tile + fresh-output buffer capacity
    int64_t pyramids = 0;      //!< pyramids evaluated
    OpCount ops;               //!< arithmetic performed, including any
                               //!< recomputation
};

/** One named value: either an int64 counter or a double gauge. */
struct Metric
{
    std::string scope;
    std::string name;
    bool isGauge = false;
    int64_t count = 0;   //!< counter value (isGauge == false)
    double value = 0.0;  //!< gauge value (isGauge == true)
};

/** Insertion-ordered registry of scoped counters and gauges. */
class MetricsRegistry
{
  public:
    /** Add @p delta to counter (scope, name), creating it at zero. */
    void addCounter(const std::string &scope, const std::string &name,
                    int64_t delta);

    /** Add @p delta to gauge (scope, name), creating it at zero. */
    void addGauge(const std::string &scope, const std::string &name,
                  double delta);

    /** Set gauge (scope, name) to @p value, creating it. */
    void setGauge(const std::string &scope, const std::string &name,
                  double value);

    /** Counter value, or 0 when absent (gauges do not alias). */
    int64_t counter(const std::string &scope,
                    const std::string &name) const;

    /** Gauge value, or 0.0 when absent. */
    double gauge(const std::string &scope, const std::string &name) const;

    /** Sum of counter @p name over every scope holding it. */
    int64_t sumCounters(const std::string &name) const;

    /** Sum of gauge @p name over every scope holding it. */
    double sumGauges(const std::string &name) const;

    /** All metrics in insertion order. */
    const std::vector<Metric> &items() const { return metrics; }

    bool empty() const { return metrics.empty(); }
    size_t size() const { return metrics.size(); }
    void clear();

    /** Scopes in first-appearance order. */
    std::vector<std::string> scopes() const;

    /**
     * Render as a JSON object keyed by scope (insertion order), each
     * scope an object of name -> value. Counters emit as integers so
     * byte-exact totals survive a round trip.
     */
    std::string json(int indent = 0) const;

    /** Canonical scope strings (keep the formats in one place). */
    static std::string layerScope(int index, const std::string &name);
    static std::string stageScope(int index, const std::string &name);
    static std::string groupPrefix(int index);

  private:
    Metric &fetch(const std::string &scope, const std::string &name,
                  bool gauge);

    std::vector<Metric> metrics;
    std::unordered_map<std::string, size_t> lookup;  //!< scope + '\n' + name
};

} // namespace flcnn

#endif // FLCNN_OBS_METRICS_HH
