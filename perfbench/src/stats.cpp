#include "stats.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/// Nearest rank (1-based): ceil(per10k * n / 10000), at least 1.
std::size_t rank_of(std::size_t n, unsigned per10k) {
  const std::size_t rank = (static_cast<std::size_t>(per10k) * n + 9999) / 10000;
  return std::max<std::size_t>(rank, 1);
}

constexpr std::array<unsigned, 9> kLadder = {5000, 7500, 9000, 9500, 9900,
                                             9950, 9990, 9995, 9999};
constexpr std::size_t kMinBeyond = 10;

}  // namespace

double nearest_rank(const std::vector<double>& sorted, unsigned per10k) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  return sorted[rank_of(sorted.size(), per10k) - 1];
}

std::size_t samples_beyond(std::size_t n, unsigned per10k) {
  return n == 0 ? 0 : n - rank_of(n, per10k);
}

Tail tail_percentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  tail.per10k = kLadder.front();
  for (unsigned p : kLadder) {
    if (samples_beyond(samples.size(), p) >= kMinBeyond) tail.per10k = p;
  }
  tail.value = nearest_rank(samples, tail.per10k);
  tail.beyond = samples_beyond(samples.size(), tail.per10k);
  return tail;
}

std::string percentile_label(unsigned per10k) {
  std::string digits = std::to_string(per10k / 100);
  unsigned frac = per10k % 100;
  if (frac == 0) return "p" + digits;
  std::string f = std::to_string(frac);
  if (frac < 10) f = "0" + f;
  if (f.back() == '0') f.pop_back();
  return "p" + digits + "." + f;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double CellTally::fail_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

SpanAccount::SpanAccount(std::size_t layers) : self_(layers, 0) {}

void SpanAccount::open(std::size_t layer, std::uint64_t now_ns) {
  if (layer >= self_.size()) {
    throw std::out_of_range("SpanAccount::open: layer out of range");
  }
  stack_.push_back({layer, now_ns, 0});
}

void SpanAccount::close(std::uint64_t now_ns) {
  if (stack_.empty()) throw std::logic_error("SpanAccount::close: no span");
  const Open span = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = now_ns >= span.start ? now_ns - span.start : 0;
  // A child's clock reads lie inside its parent's, so child <= dur; the
  // clamp only guards against a non-monotonic caller.
  self_[span.layer] += dur >= span.child ? dur - span.child : 0;
  if (!stack_.empty()) stack_.back().child += dur;
}

void SpanAccount::reset() {
  if (!stack_.empty()) throw std::logic_error("SpanAccount::reset: open span");
  std::fill(self_.begin(), self_.end(), 0);
  std::fill(counters_.begin(), counters_.end(), 0);
}

void SpanAccount::absorb(const SpanAccount& other) {
  if (other.self_.size() > self_.size()) self_.resize(other.self_.size(), 0);
  for (std::size_t i = 0; i < other.self_.size(); ++i) {
    self_[i] += other.self_[i];
  }
  for (std::size_t c = 0; c < other.counters_.size(); ++c) {
    count(c, other.counters_[c]);
  }
}

void Fnv1a::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

std::string format_number(double v) {
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

}  // namespace perfbench
