// perfbench — the repository benchmark. One process runs one workload as
// a closed loop: its cells (one seed each) run back to back, one at a time,
// pass after pass, until --seconds is used up.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics of untraced cells; --trace 1
// runs every cell untraced and traced, requires the two runs to be the
// same run, and prints the per-layer metrics. The last stdout line is the
// JSON result; '#' lines before it are the host record, the per-cell
// determinism witness and one-line repros of failed cells. The exit code is
// 0 only when every check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "reference.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::CellResult;
using perfbench::WorkloadSpec;

/// Timed repetitions of the graph-layer calls in a traced run.
constexpr std::size_t kGraphRepetitions = 5;
/// No run measures longer than this, whatever --seconds says.
constexpr double kMaxSeconds = 120;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const WorkloadSpec& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

double elapsed_s(std::uint64_t t0) {
  return static_cast<double>(perfbench::mono_ns() - t0) * 1e-9;
}

/// Closed-loop pass scheduler: keeps running passes while another one of
/// average length still fits in the budget (always at least one).
class PassBudget {
 public:
  explicit PassBudget(double seconds)
      : seconds_(std::min(seconds, kMaxSeconds)), t0_(perfbench::mono_ns()) {}
  bool another(std::size_t done) const {
    if (done == 0) return true;
    const double used = elapsed_s(t0_);
    return used + used / static_cast<double>(done) <= seconds_;
  }

 private:
  double seconds_;
  std::uint64_t t0_;
};

void print_repro(const WorkloadSpec& w, const Options& opt,
                 const perfbench::Cell& cell, std::size_t index,
                 std::size_t pass, const std::string& why) {
  std::printf(
      "# FAIL workload=%s seed=%llu cell=%zu cell_seed=%llu pass=%zu "
      "check=\"%s\" config: %s\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), index,
      static_cast<unsigned long long>(cell.seed), pass, why.c_str(),
      w.shape.c_str());
}

/// The determinism witness of a cell (its first-pass result), with its
/// fastest wall time and median reference ratio.
void print_witness(std::size_t index, const perfbench::Cell& cell,
                   const CellResult& r, const std::vector<double>& wall,
                   const std::vector<double>& ratio) {
  std::vector<double> ticks(r.latency_ticks.begin(), r.latency_ticks.end());
  std::printf("# cell %zu cell_seed=%llu fingerprint=%016llx "
              "simmetrics=%016llx decisions=%zu decide_p50_ticks=%g "
              "fastest_s=%.4f wall_ref=%.3f ok=%d\n",
              index, static_cast<unsigned long long>(cell.seed),
              static_cast<unsigned long long>(r.fingerprint),
              static_cast<unsigned long long>(r.metrics_digest), r.decisions,
              perfbench::median(ticks), perfbench::sum_of_minima({wall}),
              perfbench::median(ratio), r.ok ? 1 : 0);
}

/// Threads a cell of `w` runs on; the reference kernel runs on as many.
std::size_t threads_of(const WorkloadSpec& w) {
  return w.shards > 0 ? w.shards : 1;
}

/// Runs one cell; an exception is a failed cell, not a crashed run.
template <typename Fn>
CellResult guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    CellResult r;
    r.failure = std::string("exception: ") + e.what();
    return r;
  }
}

/// Checks a later pass against the first: every simulated statistic must
/// repeat exactly.
std::string repeat_mismatch(const CellResult& first, const CellResult& again) {
  if (first.fingerprint != again.fingerprint) return "fingerprint changed";
  if (first.metrics_digest != again.metrics_digest) return "SimMetrics changed";
  return {};
}

void print_tail(const char* metric, const perfbench::Tail& t) {
  std::printf("# %s = %s of %zu samples (%zu beyond)%s\n", metric,
              perfbench::percentile_label(t.per10k).c_str(), t.samples,
              t.beyond, t.beyond < 10 ? " [fewer than 10 beyond]" : "");
}

/// Set-up: generates every cell's config (graph, fault placement, churn
/// and partition schedule) into `cells` (when non-null); returns its host
/// seconds. Set-up is single-threaded.
double set_up(const WorkloadSpec& w, std::uint64_t seed,
              std::vector<perfbench::Cell>* cells) {
  const std::uint64_t t0 = perfbench::mono_ns();
  std::vector<perfbench::Cell> generated;
  for (std::size_t i = 0; i < w.cells; ++i) {
    generated.push_back(perfbench::make_cell(w, perfbench::cell_seed(seed, i)));
  }
  const double seconds = elapsed_s(t0);
  if (cells != nullptr) *cells = std::move(generated);
  return seconds;
}

/// One timed set-up, preceded by the one-thread reference kernel.
struct SetupSample {
  double host_s = 0;
  double reference_s = 0;
};

SetupSample timed_set_up(const WorkloadSpec& w, std::uint64_t seed,
                         std::vector<perfbench::Cell>* cells) {
  SetupSample sample;
  sample.reference_s = perfbench::reference_seconds(1);
  sample.host_s = set_up(w, seed, cells);
  return sample;
}

int run_untraced(const WorkloadSpec& w, const Options& opt,
                 const std::vector<perfbench::Cell>& cells,
                 const SetupSample& first_setup) {
  perfbench::UntracedRun run;
  // Set-up is repeated once after every pass, so its median, setup_s,
  // samples the host over the whole run like the cells do.
  std::vector<SetupSample> setups = {first_setup};
  run.wall.assign(cells.size(), {});
  run.ratio.assign(cells.size(), {});
  const PassBudget budget(opt.seconds);
  for (std::size_t pass = 0; budget.another(pass); ++pass) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double ref = perfbench::reference_seconds(threads_of(w));
      const std::uint64_t t0 = perfbench::mono_ns();
      CellResult r = guarded([&] { return perfbench::run_cell(w, cells[i]); });
      run.wall[i].push_back(elapsed_s(t0));
      run.ratio[i].push_back(run.wall[i].back() / ref);
      std::string why = r.ok ? std::string() : r.failure;
      if (pass == 0) {
        run.cells.push_back(std::move(r));
      } else if (why.empty()) {
        why = repeat_mismatch(run.cells[i], r);
      }
      run.tally.record(why.empty());
      if (!why.empty()) print_repro(w, opt, cells[i], i, pass, why);
    }
    setups.push_back(timed_set_up(w, opt.seed, nullptr));
  }
  std::vector<double> setup_host, setup_scaled;
  for (const SetupSample& sample : setups) {
    setup_host.push_back(sample.host_s);
    setup_scaled.push_back(
        perfbench::at_reference_speed(sample.host_s, sample.reference_s));
  }
  run.setup_s = perfbench::median(setup_scaled);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    print_witness(i, cells[i], run.cells[i], run.wall[i], run.ratio[i]);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  perfbench::Tail tail;
  const auto values = perfbench::end_to_end_values(run, &tail);
  print_tail("decide_tail_ticks", tail);
  std::printf("# passes=%zu cells=%zu\n", run.wall.front().size(),
              cells.size());
  std::printf("# host seconds (not gated): cells fastest=%.6f median=%.6f "
              "setup median=%.6f\n",
              perfbench::sum_of_minima(run.wall),
              perfbench::sum_of_medians(run.wall),
              perfbench::median(setup_host));
  const bool correct = run.tally.failed == 0;
  std::printf("%s\n", perfbench::result_json(correct, run.tally,
                                             perfbench::end_to_end_metrics(),
                                             values)
                          .c_str());
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& w, const Options& opt,
               const std::vector<perfbench::Cell>& cells) {
  perfbench::TracedRun run;
  // Graph-layer spans of set-up.
  std::vector<double> kosr, faulty;
  bool graph_matches = true;
  for (std::size_t rep = 0; rep < kGraphRepetitions; ++rep) {
    double k = 0, f = 0;
    for (const perfbench::Cell& cell : cells) {
      const perfbench::GraphTiming t = perfbench::time_graph_layer(w, cell);
      k += t.kosr_gen_s;
      f += t.safe_faulty_s;
      graph_matches = graph_matches && t.matches;
    }
    kosr.push_back(k);
    faulty.push_back(f);
  }
  run.kosr_gen_s = perfbench::median(kosr);
  run.safe_faulty_s = perfbench::median(faulty);
  if (!graph_matches) {
    std::printf("# FAIL workload=%s seed=%llu check=\"graph layer differs "
                "from the scenario factory\" config: %s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                w.shape.c_str());
  }

  run.untraced_ratio.assign(cells.size(), {});
  run.traced_ratio.assign(cells.size(), {});
  run.traced_wall.assign(cells.size(), {});
  std::vector<std::vector<double>> untraced_wall(cells.size());
  run.traced.assign(cells.size(), {});
  const PassBudget budget(opt.seconds);
  for (std::size_t pass = 0; budget.another(pass); ++pass) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      double ref = perfbench::reference_seconds(threads_of(w));
      std::uint64_t t0 = perfbench::mono_ns();
      CellResult plain =
          guarded([&] { return perfbench::run_cell(w, cells[i]); });
      untraced_wall[i].push_back(elapsed_s(t0));
      run.untraced_ratio[i].push_back(untraced_wall[i].back() / ref);
      ref = perfbench::reference_seconds(threads_of(w));
      t0 = perfbench::mono_ns();
      CellResult traced =
          guarded([&] { return perfbench::run_cell_traced(w, cells[i]); });
      run.traced_wall[i].push_back(elapsed_s(t0));
      run.traced_ratio[i].push_back(run.traced_wall[i].back() / ref);

      std::string why = plain.ok ? std::string() : plain.failure;
      if (pass == 0) {
        run.reference.push_back(std::move(plain));
      } else if (why.empty()) {
        why = repeat_mismatch(run.reference[i], plain);
      }
      if (why.empty() && !traced.ok) why = "traced: " + traced.failure;
      if (why.empty()) {
        const std::string diff =
            perfbench::identity_mismatch(run.reference[i], traced);
        if (!diff.empty()) why = "traced run differs: " + diff;
      }
      run.tally.record(why.empty());
      if (!why.empty()) print_repro(w, opt, cells[i], i, pass, why);
      run.traced[i].push_back(std::move(traced));
    }
  }

  for (std::size_t i = 0; i < cells.size(); ++i) {
    print_witness(i, cells[i], run.reference[i], untraced_wall[i],
                  run.untraced_ratio[i]);
  }
  perfbench::Tail tail;
  const auto values = perfbench::per_layer_values(run, &tail);
  print_tail("sinkdetector.sink_tail_ticks", tail);
  std::printf("# passes=%zu cells=%zu\n", run.traced.front().size(),
              cells.size());
  const bool correct = run.tally.failed == 0 && graph_matches;
  std::printf("%s\n",
              perfbench::result_json(correct, run.tally,
                                     perfbench::per_layer_metrics(), values)
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage("bad arguments");
  const WorkloadSpec* found = perfbench::find_workload(opt.workload);
  if (found == nullptr) return usage("unknown workload");
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report wall times from an "
               "assert-enabled build (configure with "
               "-DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  const WorkloadSpec& w = *found;
  std::printf("# host cores=%u compiler=\"%s\" build=%s workload=%s "
              "seed=%llu trace=%d cells=%zu\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, w.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              w.cells);
  std::printf("# config: %s\n", w.shape.c_str());

  std::vector<perfbench::Cell> cells;
  try {
    const SetupSample first_setup = timed_set_up(w, opt.seed, &cells);
    return opt.trace ? run_traced(w, opt, cells)
                     : run_untraced(w, opt, cells, first_setup);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
