// Outside-in tracing: spans are taken only around calls into the library's
// public functions, from the benchmark's own code.
//
//  - Traced<Node> subclasses a protocol node and times start / on_message /
//    on_timer; the span's layer comes from the message's type name
//    (cup.*, cup.get_sink|sink_value, scp.*, pbft.*, bftcup.*) or the
//    timer id.
//  - TimingModel decorates the simulator's NetworkModel and times on_send.
//  - The workload code opens the run_until span around Simulation::run_until.
//
// Spans nest cell -> run_until -> handler -> on_send on one thread; each
// thread (the caller and every shard worker) keeps its own SpanAccount, and
// collect() sums them after the simulation's threads are gone.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "common/types.hpp"
#include "sim/message.hpp"
#include "sim/network_model.hpp"
#include "stats.hpp"

namespace perfbench {

enum Layer : std::size_t {
  kRunUntil = 0,
  kCupHandler,
  kSinkDetectorHandler,
  kScpHandler,
  kScpTimer,
  kPbftHandler,
  kDissemHandler,
  kBftTimer,
  kOtherHandler,
  kOnSend,
  kLayerCount,
};

/// Per-thread counters recorded next to the spans.
enum TraceCounter : std::size_t {
  kNetSends = 0,
  kNetDropped,
  kNetDuplicated,
};

/// Layer of a message type name (the handler layer it is charged to).
Layer layer_of_type(std::string_view type_name);
/// Layer of a timer id.
Layer layer_of_timer(int timer_id);

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TraceTotals {
  SpanAccount main{kLayerCount};     // the thread that called collect()
  SpanAccount workers{kLayerCount};  // every other thread, summed
};

class Tracer {
 public:
  /// This thread's account (registered on first use).
  static SpanAccount& local();
  /// Sums every account into main/workers, then zeroes the calling thread's
  /// account and forgets the others. Call only when no other thread is
  /// recording (after the traced Simulation is destroyed).
  static TraceTotals collect();
};

class Span {
 public:
  explicit Span(Layer layer) : account_(Tracer::local()) {
    account_.open(layer, mono_ns());
  }
  ~Span() { account_.close(mono_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanAccount& account_;
};

/// Layer of a message, cached per interned type id on each thread.
Layer layer_of(const scup::sim::Message& msg);

/// Times and counts every on_send of the wrapped model; forwards the
/// lookahead and draw-plan queries unchanged so the run is the same.
class TimingModel final : public scup::sim::NetworkModel {
 public:
  explicit TimingModel(std::unique_ptr<scup::sim::NetworkModel> inner)
      : inner_(std::move(inner)) {}

  Verdict on_send(scup::ProcessId from, scup::ProcessId to, scup::SimTime now,
                  scup::StreamRng& rng) override;
  std::uint64_t draws_per_send(scup::SimTime now) const override {
    return inner_->draws_per_send(now);
  }
  scup::SimTime min_latency() const override { return inner_->min_latency(); }
  scup::SimTime min_latency(scup::ProcessId from,
                            scup::ProcessId to) const override {
    return inner_->min_latency(from, to);
  }
  scup::SimTime base_min_latency() const override {
    return inner_->base_min_latency();
  }
  std::vector<LatencyOverride> latency_overrides() const override {
    return inner_->latency_overrides();
  }

 private:
  std::unique_ptr<scup::sim::NetworkModel> inner_;
};

/// A protocol node whose handlers are timed. Records the simulated time at
/// which its sink detector first returns.
template <typename Node>
class Traced final : public Node {
 public:
  template <typename... Args>
  explicit Traced(Args&&... args) : Node(std::forward<Args>(args)...) {}

  void start() override {
    const Span span(kCupHandler);
    Node::start();
    observe();
  }
  void on_message(scup::ProcessId from,
                  const scup::sim::MessagePtr& msg) override {
    const Span span(layer_of(*msg));
    Node::on_message(from, msg);
    observe();
  }
  void on_timer(int timer_id) override {
    const Span span(layer_of_timer(timer_id));
    Node::on_timer(timer_id);
    observe();
  }

  scup::SimTime sink_time() const { return sink_time_; }

 private:
  void observe() {
    if (sink_time_ == scup::kTimeInfinity && this->sink_detected()) {
      sink_time_ = this->now();
    }
  }

  scup::SimTime sink_time_ = scup::kTimeInfinity;
};

}  // namespace perfbench
