// The benchmark's workloads and the two ways of running one cell (one seed
// of a workload): untraced, through the library's public entry points
// (core::run_scenario, or a LedgerNode chain assembled from public parts),
// and traced, assembled the same way from Traced<> nodes and a TimingModel.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool chain = false;        // LedgerNode chain instead of one instance
  std::size_t cells = 1;     // cells per run
  std::size_t slots = 0;     // chain length (chain workloads)
  // Parameters of the k-OSR graph and fault placement (both scenario
  // families derive them the same way).
  std::size_t n = 0;
  std::size_t f = 1;
  double sink_fraction = 0.5;
  bool churn = false;        // churn_partition_scenario instead of large_scale
  std::size_t shards = 0;
  scup::core::ProtocolKind protocol = scup::core::ProtocolKind::kStellarSd;
  /// One-line config, printed in repro lines.
  std::string shape;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// Seed of cell `index` of a run with workload seed `seed`.
std::uint64_t cell_seed(std::uint64_t seed, std::size_t index);

struct Cell {
  std::uint64_t seed = 0;
  scup::core::ScenarioConfig config;
};

/// Generates a cell's config through the library's scenario factory.
Cell make_cell(const WorkloadSpec& w, std::uint64_t seed);

struct CellResult {
  bool ok = false;
  std::string failure;  // first failed check
  std::uint64_t fingerprint = 0;
  std::uint64_t metrics_digest = 0;
  scup::sim::SimMetrics metrics;
  /// Per process: decision time (chain: close time of slot 1); inf for
  /// faulty or undecided processes.
  std::vector<scup::SimTime> decide_ticks;
  /// The samples behind decide_*_ticks: every correct decision time
  /// (chain: every interval between a correct replica's consecutive slot
  /// closes — the steady-state close rate; slot 1 also waits for the sink
  /// and is left out).
  std::vector<scup::SimTime> latency_ticks;
  /// Decisions for traffic normalisation (chain: replicas x slots).
  std::size_t decisions = 0;
  std::uint64_t chain_digest = 0;

  // ---- traced runs only ----
  std::vector<scup::SimTime> sink_ticks;  // per correct process, or inf
  scup::sim::ShardStats shard;
  TraceTotals spans;
};

/// Runs a cell untraced and checks every consensus property.
CellResult run_cell(const WorkloadSpec& w, const Cell& cell);
/// Runs a cell traced and checks the same properties.
CellResult run_cell_traced(const WorkloadSpec& w, const Cell& cell);

/// Empty when `traced` describes the same run as `reference` (Notary
/// fingerprint, SimMetrics, decision times, chain digest); else why not.
std::string identity_mismatch(const CellResult& reference,
                              const CellResult& traced);

struct GraphTiming {
  double kosr_gen_s = 0;
  double safe_faulty_s = 0;
  bool matches = false;  // same graph and placement as the factory's
};
/// Times the graph-layer calls a cell's set-up makes (k-OSR generation and
/// safe fault placement), re-deriving them from the workload parameters,
/// and checks the result against the factory's config.
GraphTiming time_graph_layer(const WorkloadSpec& w, const Cell& cell);

/// Order-independent digest of every SimMetrics field (per-type counts
/// keyed by type name, so it is comparable across processes).
std::uint64_t metrics_digest(const scup::sim::SimMetrics& m);

}  // namespace perfbench
