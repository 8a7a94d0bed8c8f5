#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bftcup/bftcup_node.hpp"
#include "core/adversaries.hpp"
#include "core/ledger_node.hpp"
#include "core/stellar_cup_node.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/simulation.hpp"
#include "sinkdetector/slice_builder.hpp"

namespace perfbench {

namespace core = scup::core;
namespace sim = scup::sim;
using scup::kTimeInfinity;
using scup::NodeSet;
using scup::ProcessId;
using scup::SimTime;
using scup::Value;

namespace {

/// The per-slot proposal of replica i in a chain cell: 16 contending
/// proposals per slot, the E13 value space.
Value chain_proposal(std::uint64_t seed, std::uint64_t slot, ProcessId i) {
  return scup::hash_mix(0xE13, seed ^ slot, i % 16) | 1;
}

void fail(CellResult& r, const std::string& why) {
  if (r.ok) {
    r.ok = false;
    r.failure = why;
  }
}

std::unique_ptr<sim::Simulation> make_simulation(const core::ScenarioConfig& cfg,
                                                 bool traced) {
  const std::size_t n = cfg.graph.node_count();
  if (!traced) return std::make_unique<sim::Simulation>(n, cfg.net);
  sim::NetworkConfig net = cfg.net;
  // Barrier-phase timing of the sharded engine; outside the identity
  // contract, so the run stays the same.
  if (cfg.shards > 0) net.shard_timing = true;
  return std::make_unique<sim::Simulation>(
      n, net, std::make_unique<TimingModel>(
                  std::make_unique<sim::UniformModel>(net)));
}

/// Simulation::run_until, inside a run_until span when traced.
template <typename Pred>
void run_until(sim::Simulation& s, Pred&& pred, SimTime deadline,
               std::size_t stride, bool traced) {
  std::optional<Span> span;
  if (traced) span.emplace(kRunUntil);
  s.run_until(std::forward<Pred>(pred), deadline, stride);
}

/// One consensus instance assembled from `Node` (the library's node or its
/// Traced subclass) the way core::run_scenario assembles it.
template <typename Node>
CellResult scenario_traced(const core::ScenarioConfig& cfg) {
  if (cfg.adversary != core::AdversaryKind::kSilent || !cfg.crashes.empty() ||
      !cfg.values.empty()) {
    throw std::logic_error("traced cells support silent faults only");
  }
  const std::size_t n = cfg.graph.node_count();
  const NodeSet correct = cfg.faulty.complement();
  CellResult r;
  r.ok = true;
  {
    auto s = make_simulation(cfg, /*traced=*/true);
    std::vector<Node*> nodes(n, nullptr);
    scup::cup::DiscoveryConfig discovery;
    discovery.requery_interval = cfg.discovery_requery;
    for (ProcessId i = 0; i < n; ++i) {
      if (cfg.faulty.contains(i)) {
        s->emplace_process<core::SilentNode>(i);
        continue;
      }
      const NodeSet pd = cfg.graph.pd_of(i);
      if constexpr (std::is_base_of_v<core::StellarCupNode, Node>) {
        core::StellarCupConfig node_config;
        node_config.discovery = discovery;
        nodes[i] = &s->template emplace_process<Node>(
            i, pd, cfg.f, core::default_value(i), node_config);
      } else {
        nodes[i] = &s->template emplace_process<Node>(
            i, pd, cfg.f, core::default_value(i),
            scup::bftcup::PbftConfig{}, discovery);
      }
    }
    for (ProcessId i = 0; i < n && i < cfg.activations.size(); ++i) {
      if (cfg.activations[i] > 0) s->activate(i, cfg.activations[i]);
    }
    s->set_shards(cfg.shards);
    s->start();
    run_until(
        *s,
        [&] {
          for (ProcessId i : correct) {
            if (!nodes[i]->decided()) return false;
          }
          return true;
        },
        cfg.deadline, 1, /*traced=*/true);

    const NodeSet sink = scup::graph::unique_sink_component(cfg.graph);
    r.decide_ticks.assign(n, kTimeInfinity);
    r.sink_ticks.assign(n, kTimeInfinity);
    std::optional<Value> agreed;
    for (ProcessId i : correct) {
      const Node& node = *nodes[i];
      r.sink_ticks[i] = node.sink_time();
      if (!node.decided()) {
        fail(r, "termination: process " + std::to_string(i) + " undecided");
        continue;
      }
      r.decide_ticks[i] = node.decision_time();
      r.latency_ticks.push_back(node.decision_time());
      ++r.decisions;
      if (!agreed) agreed = node.decision();
      if (*agreed != node.decision()) fail(r, "agreement");
      if (!node.sink_detected()) {
        fail(r, "sink detector did not return at " + std::to_string(i));
      } else {
        if (!(node.sink_result().sink == sink)) fail(r, "sink not exact");
        if (node.sink_result().is_sink_member != sink.contains(i)) {
          fail(r, "sink flag wrong");
        }
      }
    }
    bool valid = false;
    for (ProcessId i = 0; agreed && i < n; ++i) {
      if (*agreed == core::default_value(i)) valid = true;
    }
    if (!valid) fail(r, "validity");
    r.fingerprint = s->notary().fingerprint();
    r.metrics = s->metrics();
    r.shard = s->shard_stats();
  }
  r.spans = Tracer::collect();
  r.metrics_digest = metrics_digest(r.metrics);
  return r;
}

/// The Algorithm-2 quorum set a process with sink estimate `sink` uses.
scup::fbqs::QSet expected_qset(const NodeSet& sink, ProcessId i,
                               std::size_t f) {
  scup::sinkdetector::GetSinkResult result;
  result.is_sink_member = sink.contains(i);
  result.sink = sink;
  return scup::sinkdetector::build_slices(result, f).to_qset();
}

/// A LedgerNode chain (the E13 shape). `Node` is core::LedgerNode or its
/// Traced subclass.
template <typename Node>
CellResult run_chain(const WorkloadSpec& w, const Cell& cell, bool traced) {
  const core::ScenarioConfig& cfg = cell.config;
  const std::size_t n = cfg.graph.node_count();
  const std::size_t slots = w.slots;
  const NodeSet correct = cfg.faulty.complement();
  CellResult r;
  r.ok = true;
  {
    auto s = make_simulation(cfg, traced);
    sim::Simulation* simulation = s.get();
    std::vector<Node*> nodes(n, nullptr);
    std::vector<std::vector<SimTime>> closes(n);  // per replica, per slot
    for (ProcessId i = 0; i < n; ++i) {
      if (cfg.faulty.contains(i)) {
        s->template emplace_process<core::SilentNode>(i);
        continue;
      }
      nodes[i] = &s->template emplace_process<Node>(i, cfg.graph.pd_of(i),
                                                    cfg.f, slots);
      const std::uint64_t seed = cell.seed;
      nodes[i]->set_value_provider([seed, i](std::uint64_t slot) {
        return chain_proposal(seed, slot, i);
      });
      // Record each slot's close time next to the node's own bookkeeping.
      auto& mux = nodes[i]->ledger();
      mux.on_slot_decided = [inner = mux.on_slot_decided, simulation,
                             close = &closes[i]](std::uint64_t slot, Value v) {
        inner(slot, v);
        close->push_back(simulation->now());
      };
    }
    s->set_shards(cfg.shards);
    s->start();
    run_until(
        *s,
        [&] {
          for (ProcessId i : correct) {
            if (nodes[i]->decided_slots() < slots) return false;
          }
          return true;
        },
        cfg.deadline * 4, /*stride=*/64, traced);

    const NodeSet sink = scup::graph::unique_sink_component(cfg.graph);
    r.decide_ticks.assign(n, kTimeInfinity);
    r.sink_ticks.assign(n, kTimeInfinity);
    const ProcessId first = correct.min_member();
    r.chain_digest = nodes[first]->chain_digest();
    NodeSet qset_seen(n);
    for (ProcessId i : correct) {
      const Node& node = *nodes[i];
      if constexpr (!std::is_same_v<Node, core::LedgerNode>) {
        r.sink_ticks[i] = node.sink_time();
      }
      if (!node.sink_detected()) {
        fail(r, "sink detector did not return at " + std::to_string(i));
      }
      if (node.decided_slots() < slots) {
        fail(r, "termination: replica " + std::to_string(i) + " closed " +
                    std::to_string(node.decided_slots()) + " slots");
        continue;
      }
      const std::vector<SimTime>& close = closes[i];
      if (close.size() < slots || close.back() != node.last_close_time()) {
        fail(r, "slot close times disagree with last_close_time");
        continue;
      }
      r.decide_ticks[i] = close.front();
      for (std::size_t k = 1; k < close.size(); ++k) {
        r.latency_ticks.push_back(close[k] - close[k - 1]);
      }
      r.decisions += slots;
      if (node.chain_digest() != r.chain_digest) fail(r, "chain digests differ");
      for (std::uint64_t slot = 1; slot <= slots; ++slot) {
        const Value v = node.slot_decision(slot);
        if (v != nodes[first]->slot_decision(slot)) fail(r, "agreement");
        bool proposed = false;
        for (ProcessId p = 0; p < 16 && !proposed; ++p) {
          proposed = v == chain_proposal(cell.seed, slot, p);
        }
        if (!proposed) fail(r, "validity: slot " + std::to_string(slot));
      }
      // The node keeps its sink estimate private; its effect is the quorum
      // set every replica announces. Each announced set must be the
      // Algorithm-2 set of the true sink and the sender's true flag.
      const scup::scp::ScpNode* slot1 = node.ledger().slot_node(1);
      if (slot1 == nullptr) {
        fail(r, "slot 1 missing at " + std::to_string(i));
        continue;
      }
      for (const auto& [sender, envelope] : slot1->ballot_envelopes()) {
        if (!correct.contains(sender)) continue;
        qset_seen.add(sender);
        if (!(envelope.qset == expected_qset(sink, sender, cfg.f))) {
          fail(r, "sink not exact at " + std::to_string(sender));
        }
      }
    }
    if (!(qset_seen == correct)) fail(r, "some replica's quorum set unseen");
    r.fingerprint = s->notary().fingerprint();
    r.metrics = s->metrics();
    r.shard = s->shard_stats();
  }
  if (traced) r.spans = Tracer::collect();
  r.metrics_digest = metrics_digest(r.metrics);
  return r;
}

std::string describe_shape(const WorkloadSpec& w) {
  std::string s = w.churn ? "churn_partition_scenario" : "large_scale_scenario";
  s += " n=" + std::to_string(w.n) + " f=" + std::to_string(w.f) +
       " sink_fraction=" + format_number(w.sink_fraction);
  if (w.churn) {
    s += " late_fraction=0.5 partition=half-sink-until-gst gst=2000"
         " pre_gst_drop=0.1 requery=250";
  }
  s += w.chain ? " node=LedgerNode slots=" + std::to_string(w.slots) +
                     " proposals_per_slot=16"
               : w.protocol == core::ProtocolKind::kStellarSd
                     ? " protocol=stellar_sd"
                     : " protocol=bftcup";
  s += " adversary=silent shards=" + std::to_string(w.shards);
  return s;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = [] {
    std::vector<WorkloadSpec> t;
    WorkloadSpec stellar;
    stellar.name = "stellar_oneshot";
    stellar.cells = 64;
    stellar.n = 16;
    stellar.protocol = core::ProtocolKind::kStellarSd;
    t.push_back(stellar);

    WorkloadSpec bft;
    bft.name = "bftcup_scale";
    bft.cells = 2;
    bft.n = 128;
    bft.protocol = core::ProtocolKind::kBftCup;
    t.push_back(bft);

    WorkloadSpec churn;
    churn.name = "churn_sharded";
    churn.cells = 3;
    churn.n = 128;
    churn.sink_fraction = 0.4;  // the churn_partition_scenario default
    churn.churn = true;
    churn.shards = 4;
    churn.protocol = core::ProtocolKind::kBftCup;
    t.push_back(churn);

    WorkloadSpec ledger;
    ledger.name = "ledger_chain";
    ledger.cells = 16;
    ledger.n = 16;
    ledger.chain = true;
    ledger.slots = 6;
    t.push_back(ledger);

    for (WorkloadSpec& w : t) w.shape = describe_shape(w);
    return t;
  }();
  return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t cell_seed(std::uint64_t seed, std::size_t index) {
  return seed * 1000 + index + 1;
}

Cell make_cell(const WorkloadSpec& w, std::uint64_t seed) {
  Cell cell;
  cell.seed = seed;
  if (w.churn) {
    core::ChurnPartitionParams p;
    p.n = w.n;
    p.f = w.f;
    p.sink_fraction = w.sink_fraction;
    p.protocol = w.protocol;
    p.late_fraction = 0.5;
    p.with_partition = true;
    p.pre_gst_drop = 0.1;
    p.gst = 2'000;
    p.seed = seed;
    cell.config = core::churn_partition_scenario(p);
  } else {
    core::LargeScaleParams p;
    p.n = w.n;
    p.f = w.f;
    p.sink_fraction = w.sink_fraction;
    p.seed = seed;
    p.protocol = w.protocol;
    cell.config = core::large_scale_scenario(p);
  }
  cell.config.shards = w.shards;
  return cell;
}

CellResult run_cell(const WorkloadSpec& w, const Cell& cell) {
  if (w.chain) return run_chain<core::LedgerNode>(w, cell, /*traced=*/false);
  const core::ScenarioReport report = core::run_scenario(cell.config);
  CellResult r;
  r.ok = true;
  if (!report.all_decided) fail(r, "termination");
  if (!report.agreement) fail(r, "agreement");
  if (!report.validity) fail(r, "validity");
  if (!report.sd_all_returned) fail(r, "sink detector did not return");
  if (!report.sd_sink_exact) fail(r, "sink not exact");
  if (!report.sd_flags_correct) fail(r, "sink flag wrong");
  const NodeSet correct = cell.config.faulty.complement();
  r.decide_ticks.assign(report.decision_times.size(), kTimeInfinity);
  for (ProcessId i : correct) {
    r.decide_ticks[i] = report.decision_times[i];
    if (report.decision_times[i] != kTimeInfinity) {
      r.latency_ticks.push_back(report.decision_times[i]);
      ++r.decisions;
    }
  }
  r.fingerprint = report.notary_fingerprint;
  r.metrics = report.metrics;
  r.metrics_digest = metrics_digest(r.metrics);
  return r;
}

CellResult run_cell_traced(const WorkloadSpec& w, const Cell& cell) {
  if (w.chain) {
    return run_chain<Traced<core::LedgerNode>>(w, cell, /*traced=*/true);
  }
  if (w.protocol == core::ProtocolKind::kStellarSd) {
    return scenario_traced<Traced<core::StellarCupNode>>(cell.config);
  }
  return scenario_traced<Traced<scup::bftcup::BftCupNode>>(cell.config);
}

std::string identity_mismatch(const CellResult& reference,
                              const CellResult& traced) {
  if (reference.fingerprint != traced.fingerprint) return "notary fingerprint";
  if (!(reference.metrics == traced.metrics)) return "SimMetrics";
  if (reference.decide_ticks != traced.decide_ticks ||
      reference.latency_ticks != traced.latency_ticks) {
    return "decision times";
  }
  if (reference.chain_digest != traced.chain_digest) return "chain digest";
  return {};
}

GraphTiming time_graph_layer(const WorkloadSpec& w, const Cell& cell) {
  const auto fraction = static_cast<std::size_t>(
      static_cast<double>(w.n) * w.sink_fraction);
  const std::size_t sink_size = std::clamp(fraction, 3 * w.f + 1, w.n - 1);
  scup::graph::KosrGenParams gen;
  gen.sink_size = sink_size;
  gen.non_sink_size = w.n - sink_size;
  gen.k = 2 * w.f + 1;
  gen.seed = cell.seed;

  GraphTiming t;
  const std::uint64_t t0 = mono_ns();
  const scup::graph::Digraph g = scup::graph::random_kosr_graph(gen);
  const std::uint64_t t1 = mono_ns();
  const NodeSet sink = scup::graph::unique_sink_component(g);
  scup::Rng rng(cell.seed ^ 0xfa17ULL);
  const NodeSet faulty = scup::graph::pick_safe_faulty_set(
      g, sink, w.f, /*allow_in_sink=*/true, rng);
  const std::uint64_t t2 = mono_ns();
  t.kosr_gen_s = static_cast<double>(t1 - t0) * 1e-9;
  t.safe_faulty_s = static_cast<double>(t2 - t1) * 1e-9;

  const scup::graph::Digraph& expected = cell.config.graph;
  t.matches = g.node_count() == expected.node_count() &&
              faulty == cell.config.faulty;
  for (ProcessId i = 0; t.matches && i < g.node_count(); ++i) {
    t.matches = g.pd_of(i) == expected.pd_of(i);
  }
  return t;
}

std::uint64_t metrics_digest(const sim::SimMetrics& m) {
  Fnv1a h;
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

}  // namespace perfbench
