/**
 * @file
 * Metrics report files: the JSON envelope shared by the examples and
 * the table benches (--metrics-json), validated by
 * scripts/check_trace.py.
 *
 * Shape (schema "flcnn-metrics-v1"):
 *
 *   {
 *     "schema": "flcnn-metrics-v1",
 *     "label": "fused_inference vgg 5",
 *     "runs": [
 *       {
 *         "name": "fused",
 *         "totals": { "compute_cycles": ..., "dram_read_bytes": ... },
 *         "metrics": { "<scope>": { "<name>": value, ... }, ... }
 *       },
 *       ...
 *     ]
 *   }
 *
 * "totals" carries the flat AccelStats of the run; "metrics" is the
 * MetricsRegistry breakdown. The invariant the validator checks: for
 * every run, summing dram_read_bytes / dram_write_bytes /
 * compute_cycles across the metrics scopes reproduces the totals
 * bit-exactly.
 */

#ifndef FLCNN_OBS_REPORT_HH
#define FLCNN_OBS_REPORT_HH

#include <string>
#include <vector>

#include "obs/trace_event.hh"

namespace flcnn {

struct AccelStats;
class MetricsRegistry;

/** AccelStats as named JSON literals (report "totals" and trace
 *  "otherData" share this rendering). */
std::vector<TraceArg> accelStatsArgs(const AccelStats &stats);

/** Accumulates (name, totals, metrics) runs and writes the envelope. */
class MetricsReport
{
  public:
    explicit MetricsReport(std::string label) : label(std::move(label)) {}

    /** Append one run's totals and registry breakdown. */
    void addRun(const std::string &name, const AccelStats &stats,
                const MetricsRegistry &reg);

    /** Render the full envelope document. */
    std::string json() const;

    /** Write json() to @p path; false (with a warning) on failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Run
    {
        std::string name;
        std::vector<TraceArg> totals;
        std::string metrics_json;
    };

    std::string label;
    std::vector<Run> runs;
};

} // namespace flcnn

#endif // FLCNN_OBS_REPORT_HH
