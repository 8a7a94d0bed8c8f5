// Turns measured cells into the benchmark's metrics and prints the result.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics printed with --trace 0, in order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics printed with --trace 1, in order.
const std::vector<MetricDef>& per_layer_metrics();

using MetricValues = std::vector<std::pair<std::string, double>>;

/// Everything one untraced run measured.
struct UntracedRun {
  double setup_s = 0;
  double peak_rss_mb = 0;
  /// wall[cell][pass]: seconds to run the cell once.
  std::vector<std::vector<double>> wall;
  /// ratio[cell][pass]: that time over the reference kernel's time just
  /// before it (reference.hpp).
  std::vector<std::vector<double>> ratio;
  /// First-pass result of each cell.
  std::vector<CellResult> cells;
  CellTally tally;
};

/// Everything one traced run measured.
struct TracedRun {
  std::vector<std::vector<double>> untraced_ratio;  // [cell][pass]
  std::vector<std::vector<double>> traced_ratio;    // [cell][pass]
  std::vector<std::vector<double>> traced_wall;     // [cell][pass], seconds
  std::vector<CellResult> reference;  // first-pass untraced result per cell
  /// traced[cell][pass]
  std::vector<std::vector<CellResult>> traced;
  double kosr_gen_s = 0;     // per set-up of every cell (median)
  double safe_faulty_s = 0;  // per set-up of every cell (median)
  CellTally tally;
};

/// Sum over cells of the median over passes of each cell's value.
double sum_of_medians(const std::vector<std::vector<double>>& per_cell);
/// Sum over cells of the minimum over passes of each cell's value.
double sum_of_minima(const std::vector<std::vector<double>>& per_cell);

MetricValues end_to_end_values(const UntracedRun& run, Tail* decide_tail);
MetricValues per_layer_values(const TracedRun& run, Tail* sink_tail);

/// Engine self time of one traced cell: the caller's run_until span minus
/// its handler spans, plus each shard worker's drain time minus the spans
/// recorded on that worker (thread-summed on the sharded engine).
double engine_self_s(const CellResult& traced);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, const CellTally& tally,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values);

}  // namespace perfbench
