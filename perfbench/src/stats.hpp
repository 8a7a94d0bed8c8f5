// Pure bookkeeping of the benchmark: percentiles and the tail rule, cell
// pass/fail tallies, metric-name validation, span self-time accounting and
// the digest used as a determinism witness. Nothing here touches the
// library, so tests/test_perfbench.cpp exercises it on synthetic input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile of `sorted` (ascending), `per10k` in
/// ten-thousandths (9000 = p90). `sorted` must be non-empty.
double nearest_rank(const std::vector<double>& sorted, unsigned per10k);

/// Samples strictly beyond the nearest-rank percentile `per10k` of `n`.
std::size_t samples_beyond(std::size_t n, unsigned per10k);

struct Tail {
  unsigned per10k = 0;      // chosen percentile, ten-thousandths
  double value = 0;         // its nearest-rank value
  std::size_t samples = 0;  // sample count
  std::size_t beyond = 0;   // samples beyond the chosen percentile
};

/// The highest percentile of the ladder p50, p75, p90, p95, p99, p99.5,
/// p99.9, p99.95, p99.99 that still has at least ten samples beyond it.
/// With fewer than 20 samples no rung qualifies; the result is then p50
/// and `beyond` (< 10) says so.
Tail tail_percentile(std::vector<double> samples);

/// "p90", "p99.9", ...
std::string percentile_label(unsigned per10k);

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

/// Counts cell executions and the ones that failed a check.
struct CellTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double fail_frac() const;
  double pass_frac() const { return attempted == 0 ? 0.0 : 1.0 - fail_frac(); }
};

/// Self-time accounting over a stack of nested spans. A span's self time
/// is its duration minus the durations of its direct children; a closed
/// child adds its whole duration to the parent's child time. Times are
/// caller-supplied nanoseconds, so the rule is testable without a clock.
class SpanAccount {
 public:
  explicit SpanAccount(std::size_t layers = 0);

  void open(std::size_t layer, std::uint64_t now_ns);
  /// Closes the innermost open span.
  void close(std::uint64_t now_ns);

  void count(std::size_t counter, std::uint64_t delta) {
    if (counter >= counters_.size()) counters_.resize(counter + 1, 0);
    counters_[counter] += delta;
  }

  std::uint64_t self_ns(std::size_t layer) const { return self_[layer]; }
  std::uint64_t counter(std::size_t c) const {
    return c < counters_.size() ? counters_[c] : 0;
  }
  std::size_t depth() const { return stack_.size(); }

  /// Zeroes every total (open spans must be closed).
  void reset();
  /// Adds another account's totals into this one.
  void absorb(const SpanAccount& other);

 private:
  struct Open {
    std::size_t layer;
    std::uint64_t start;
    std::uint64_t child;
  };
  std::vector<Open> stack_;
  std::vector<std::uint64_t> self_;
  std::vector<std::uint64_t> counters_;
};

/// 64-bit FNV-1a, for witness digests printed per cell.
class Fnv1a {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Shortest round-trip decimal form of `v` (all its digits, no rounding).
std::string format_number(double v);

}  // namespace perfbench
