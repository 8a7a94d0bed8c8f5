#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/counters.hpp"

namespace perfbench {

namespace sim = scup::sim;
using scup::kTimeInfinity;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_ref", "ref"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"decide_p50_ticks", "ticks"},
      {"decide_tail_ticks", "ticks"},
      {"msgs_per_decision", "count"},
      {"bytes_per_decision", "B"},
      {"pass_frac", "frac"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.kosr_gen_s", "s"},
      {"graph.safe_faulty_s", "s"},
      {"sim.events", "count"},
      {"sim.timer_fires", "count"},
      {"sim.engine_self_s", "s"},
      {"sim.net.sends", "count"},
      {"sim.net.dropped", "count"},
      {"sim.net.duplicated", "count"},
      {"sim.net.on_send_s", "s"},
      {"sim.wire.encodes", "count"},
      {"sim.wire.cached_sends", "count"},
      {"sim.wire.sends_per_encode", "ratio"},
      {"sim.shard.windows", "count"},
      {"sim.shard.mean_window_ticks", "ticks"},
      {"sim.shard.window_s", "s"},
      {"sim.shard.merge_s", "s"},
      {"sim.shard.replay_s", "s"},
      {"sim.shard.drain_imbalance", "ratio"},
      {"sim.shard.msgs_per_upcall", "ratio"},
      {"cup.handler_s", "s"},
      {"cup.msgs", "count"},
      {"cup.bytes", "B"},
      {"cup.payload_share_ratio", "ratio"},
      {"sinkdetector.handler_s", "s"},
      {"sinkdetector.msgs", "count"},
      {"sinkdetector.sink_p50_ticks", "ticks"},
      {"sinkdetector.sink_tail_ticks", "ticks"},
      {"fbqs.closure_runs", "count"},
      {"fbqs.closure_hit_ratio", "ratio"},
      {"fbqs.qset_evals", "count"},
      {"fbqs.eval_savings", "ratio"},
      {"fbqs.support_rebuilds", "count"},
      {"scp.handler_s", "s"},
      {"scp.timer_s", "s"},
      {"scp.msgs", "count"},
      {"scp.bytes", "B"},
      {"scp.p50_ticks", "ticks"},
      {"scp.ledger.slot_wraps", "count"},
      {"scp.ledger.wrap_share_ratio", "ratio"},
      {"bftcup.pbft_handler_s", "s"},
      {"bftcup.pbft_msgs", "count"},
      {"bftcup.dissem_handler_s", "s"},
      {"bftcup.dissem_msgs", "count"},
      {"bftcup.timer_s", "s"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

namespace {

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double counter(const sim::SimMetrics& m, sim::ProtoCounter c) {
  return static_cast<double>(m.protocol_counter(c));
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

double sum_of_medians(const std::vector<std::vector<double>>& per_cell) {
  double total = 0;
  for (const auto& per_pass : per_cell) total += median(per_pass);
  return total;
}

double sum_of_minima(const std::vector<std::vector<double>>& per_cell) {
  double total = 0;
  for (const auto& per_pass : per_cell) {
    if (!per_pass.empty()) {
      total += *std::min_element(per_pass.begin(), per_pass.end());
    }
  }
  return total;
}

MetricValues end_to_end_values(const UntracedRun& run, Tail* decide_tail) {
  std::vector<double> decide;
  double msgs = 0, bytes = 0, decisions = 0;
  for (const CellResult& c : run.cells) {
    for (scup::SimTime t : c.latency_ticks) {
      decide.push_back(static_cast<double>(t));
    }
    msgs += static_cast<double>(c.metrics.messages_sent);
    bytes += static_cast<double>(c.metrics.bytes_sent);
    decisions += static_cast<double>(c.decisions);
  }
  const Tail tail = tail_percentile(decide);
  if (decide_tail != nullptr) *decide_tail = tail;
  return {
      {"wall_ref", sum_of_medians(run.ratio)},
      {"setup_s", run.setup_s},
      {"peak_rss_mb", run.peak_rss_mb},
      {"decide_p50_ticks", decide.empty() ? 0.0 : median(decide)},
      {"decide_tail_ticks", tail.value},
      {"msgs_per_decision", ratio(msgs, decisions)},
      {"bytes_per_decision", ratio(bytes, decisions)},
      {"pass_frac", run.tally.pass_frac()},
  };
}

double engine_self_s(const CellResult& traced) {
  const double caller = ns_to_s(traced.spans.main.self_ns(kRunUntil));
  std::uint64_t worker_drain = 0;
  for (std::size_t k = 1; k < traced.shard.shard_drain_ns.size(); ++k) {
    worker_drain += traced.shard.shard_drain_ns[k];
  }
  // Self times partition each thread's root spans, so their sum is the
  // traced time on the worker threads.
  std::uint64_t worker_spans = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    worker_spans += traced.spans.workers.self_ns(l);
  }
  return caller + (worker_drain > worker_spans
                       ? ns_to_s(worker_drain - worker_spans)
                       : 0.0);
}

MetricValues per_layer_values(const TracedRun& run, Tail* sink_tail) {
  // Counts come from the first pass (they repeat exactly). Times come from
  // each cell's fastest traced pass, the run its wall-time share describes.
  SpanAccount spans(kLayerCount);
  double engine_s = 0;
  double window_s = 0, merge_s = 0, replay_s = 0;
  std::vector<double> drain_by_shard;
  for (std::size_t i = 0; i < run.traced.size(); ++i) {
    if (run.traced[i].empty()) continue;
    const auto& wall = run.traced_wall[i];
    const auto fastest = static_cast<std::size_t>(
        std::min_element(wall.begin(), wall.end()) - wall.begin());
    const CellResult& r = run.traced[i][fastest];
    spans.absorb(r.spans.main);
    spans.absorb(r.spans.workers);
    engine_s += engine_self_s(r);
    window_s += ns_to_s(r.shard.window_ns);
    merge_s += ns_to_s(r.shard.merge_ns);
    replay_s += ns_to_s(r.shard.replay_ns);
    if (drain_by_shard.size() < r.shard.shard_drain_ns.size()) {
      drain_by_shard.resize(r.shard.shard_drain_ns.size(), 0.0);
    }
    for (std::size_t k = 0; k < r.shard.shard_drain_ns.size(); ++k) {
      drain_by_shard[k] += ns_to_s(r.shard.shard_drain_ns[k]);
    }
  }
  auto layer_s = [&](Layer l) { return ns_to_s(spans.self_ns(l)); };

  sim::SimMetrics m;
  double events = 0, timers = 0, sends = 0, dropped = 0, duplicated = 0;
  double windows = 0, width = 0, upcalls = 0, batched = 0;
  std::vector<double> sink, scp_ticks;
  double msgs[kLayerCount] = {}, bytes[kLayerCount] = {};
  for (const auto& cell : run.traced) {
    if (cell.empty()) continue;
    const CellResult& r = cell.front();
    events += static_cast<double>(r.metrics.events_processed);
    timers += static_cast<double>(r.metrics.timer_fires);
    for (std::size_t c = 0; c < sim::kProtoCounterCount; ++c) {
      m.protocol_counters[c] += r.metrics.protocol_counters[c];
    }
    for (const auto& [name, count] : r.metrics.messages_by_type()) {
      msgs[layer_of_type(name)] += static_cast<double>(count);
    }
    for (const auto& [name, b] : r.metrics.bytes_by_type()) {
      bytes[layer_of_type(name)] += static_cast<double>(b);
    }
    const SpanAccount& main = r.spans.main;
    const SpanAccount& workers = r.spans.workers;
    sends += static_cast<double>(main.counter(kNetSends) +
                                 workers.counter(kNetSends));
    dropped += static_cast<double>(main.counter(kNetDropped) +
                                   workers.counter(kNetDropped));
    duplicated += static_cast<double>(main.counter(kNetDuplicated) +
                                      workers.counter(kNetDuplicated));
    windows += static_cast<double>(r.shard.windows);
    width += static_cast<double>(r.shard.window_width_sum);
    upcalls += static_cast<double>(r.shard.batch_upcalls);
    batched += static_cast<double>(r.shard.batched_messages);
    for (std::size_t i = 0; i < r.sink_ticks.size(); ++i) {
      if (r.sink_ticks[i] == kTimeInfinity) continue;
      sink.push_back(static_cast<double>(r.sink_ticks[i]));
      if (r.decide_ticks[i] != kTimeInfinity) {
        scp_ticks.push_back(
            static_cast<double>(r.decide_ticks[i] - r.sink_ticks[i]));
      }
    }
  }
  const Tail tail = tail_percentile(sink);
  if (sink_tail != nullptr) *sink_tail = tail;

  double drain_max = 0, drain_sum = 0;
  for (double d : drain_by_shard) {
    drain_max = std::max(drain_max, d);
    drain_sum += d;
  }
  const double drain_mean =
      drain_by_shard.empty()
          ? 0.0
          : drain_sum / static_cast<double>(drain_by_shard.size());

  using PC = sim::ProtoCounter;
  const double encodes = counter(m, PC::kWireEncodes);
  const double cached = counter(m, PC::kWireCachedSends);
  const double builds = counter(m, PC::kDiscoveryPayloadBuilds);
  const double shared = counter(m, PC::kDiscoveryPayloadShared);
  const double runs = counter(m, PC::kQuorumClosureRuns);
  const double hits = counter(m, PC::kQuorumClosureCacheHits);
  const double evals = counter(m, PC::kQsetEvals);
  const double wraps = counter(m, PC::kSlotWraps);
  const double wraps_shared = counter(m, PC::kSlotWrapsShared);

  const double untraced = sum_of_medians(run.untraced_ratio);
  const double traced = sum_of_medians(run.traced_ratio);

  return {
      {"graph.kosr_gen_s", run.kosr_gen_s},
      {"graph.safe_faulty_s", run.safe_faulty_s},
      {"sim.events", events},
      {"sim.timer_fires", timers},
      {"sim.engine_self_s", engine_s},
      {"sim.net.sends", sends},
      {"sim.net.dropped", dropped},
      {"sim.net.duplicated", duplicated},
      {"sim.net.on_send_s", layer_s(kOnSend)},
      {"sim.wire.encodes", encodes},
      {"sim.wire.cached_sends", cached},
      {"sim.wire.sends_per_encode", ratio(encodes + cached, encodes)},
      {"sim.shard.windows", windows},
      {"sim.shard.mean_window_ticks", ratio(width, windows)},
      {"sim.shard.window_s", window_s},
      {"sim.shard.merge_s", merge_s},
      {"sim.shard.replay_s", replay_s},
      {"sim.shard.drain_imbalance", ratio(drain_max, drain_mean)},
      {"sim.shard.msgs_per_upcall", ratio(batched, upcalls)},
      {"cup.handler_s", layer_s(kCupHandler)},
      {"cup.msgs", msgs[kCupHandler]},
      {"cup.bytes", bytes[kCupHandler]},
      {"cup.payload_share_ratio", ratio(builds + shared, builds)},
      {"sinkdetector.handler_s", layer_s(kSinkDetectorHandler)},
      {"sinkdetector.msgs", msgs[kSinkDetectorHandler]},
      {"sinkdetector.sink_p50_ticks", sink.empty() ? 0.0 : median(sink)},
      {"sinkdetector.sink_tail_ticks", tail.value},
      {"fbqs.closure_runs", runs},
      {"fbqs.closure_hit_ratio", ratio(hits, runs + hits)},
      {"fbqs.qset_evals", evals},
      {"fbqs.eval_savings",
       ratio(counter(m, PC::kQsetEvalsBaseline), evals)},
      {"fbqs.support_rebuilds", counter(m, PC::kSupportRebuilds)},
      {"scp.handler_s", layer_s(kScpHandler)},
      {"scp.timer_s", layer_s(kScpTimer)},
      {"scp.msgs", msgs[kScpHandler]},
      {"scp.bytes", bytes[kScpHandler]},
      // Decision minus sink-known measures SCP only where SCP ran; the
      // BFT-CUP decision path is PBFT plus dissemination.
      {"scp.p50_ticks",
       msgs[kScpHandler] == 0 || scp_ticks.empty() ? 0.0 : median(scp_ticks)},
      {"scp.ledger.slot_wraps", wraps},
      {"scp.ledger.wrap_share_ratio", ratio(wraps + wraps_shared, wraps)},
      {"bftcup.pbft_handler_s", layer_s(kPbftHandler)},
      {"bftcup.pbft_msgs", msgs[kPbftHandler]},
      {"bftcup.dissem_handler_s", layer_s(kDissemHandler)},
      {"bftcup.dissem_msgs", msgs[kDissemHandler]},
      {"bftcup.timer_s", layer_s(kBftTimer)},
      {"trace.overhead_frac", ratio(traced, untraced) - 1.0},
  };
}

std::string result_json(bool correct, const CellTally& tally,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values) {
  if (defs.size() != values.size()) {
    throw std::logic_error("result_json: metric list mismatch");
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (values[i].first != defs[i].name || !valid_metric_name(defs[i].name)) {
      throw std::logic_error("result_json: bad metric " + values[i].first);
    }
    if (!std::isfinite(values[i].second)) {
      throw std::logic_error("result_json: non-finite " + values[i].first);
    }
    if (i > 0) out += ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
           format_number(values[i].second) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
