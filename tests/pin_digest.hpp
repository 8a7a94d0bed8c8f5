// Shared digests for the behaviour-identity pin suites (test_scp_pin,
// test_discovery_pin): a stable FNV-1a fold and a digest of every
// SimMetrics figure.
#pragma once

#include <cstdint>
#include <string>

#include "sim/metrics.hpp"

namespace scup::pin {

/// FNV-1a over 64-bit words and strings (stable across standard libraries).
class Fold {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Every SimMetrics figure, the protocol counters by name included.
inline std::uint64_t metrics_digest(const sim::SimMetrics& m) {
  Fold h;
  h.add(m.messages_sent);
  h.add(m.bytes_sent);
  h.add(m.timer_fires);
  h.add(m.events_processed);
  h.add(m.messages_dropped);
  h.add(m.messages_duplicated);
  for (const auto& [name, count] : m.messages_by_type()) {
    h.add(name);
    h.add(count);
  }
  for (const auto& [name, bytes] : m.bytes_by_type()) {
    h.add(name);
    h.add(bytes);
  }
  for (const auto& [name, value] : m.protocol_counters_by_name()) {
    h.add(name);
    h.add(value);
  }
  return h.value();
}

}  // namespace scup::pin
