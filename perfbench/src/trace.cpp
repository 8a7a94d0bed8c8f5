#include "trace.hpp"

#include <mutex>
#include <thread>
#include <vector>

#include "bftcup/pbft.hpp"
#include "cup/sink_discovery.hpp"
#include "scp/ledger.hpp"
#include "scp/scp_node.hpp"

namespace perfbench {

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<std::pair<std::thread::id, std::shared_ptr<SpanAccount>>>
      accounts;  // guarded by mutex
};

Registry& registry() {
  static Registry r;
  return r;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

Layer layer_of_type(std::string_view type_name) {
  if (type_name == "cup.get_sink" || type_name == "cup.sink_value") {
    return kSinkDetectorHandler;
  }
  if (starts_with(type_name, "cup.")) return kCupHandler;
  if (starts_with(type_name, "scp.")) return kScpHandler;
  if (starts_with(type_name, "pbft.")) return kPbftHandler;
  if (starts_with(type_name, "bftcup.")) return kDissemHandler;
  return kOtherHandler;
}

Layer layer_of_timer(int timer_id) {
  if (timer_id == scup::cup::kDiscoveryRequeryTimerId) return kCupHandler;
  if (timer_id == scup::scp::kScpBallotTimerId ||
      timer_id >= scup::scp::kLedgerTimerBase) {
    return kScpTimer;
  }
  if (timer_id == scup::bftcup::kPbftTimerId) return kBftTimer;
  return kOtherHandler;
}

Layer layer_of(const scup::sim::Message& msg) {
  thread_local std::vector<std::int8_t> cache;
  const std::uint32_t id = msg.metrics_type_id();
  if (id >= cache.size()) cache.resize(id + 1, -1);
  if (cache[id] < 0) {
    cache[id] = static_cast<std::int8_t>(
        layer_of_type(scup::sim::MessageTypeRegistry::name_of(id)));
  }
  return static_cast<Layer>(cache[id]);
}

SpanAccount& Tracer::local() {
  thread_local std::shared_ptr<SpanAccount> account;
  if (!account) {
    account = std::make_shared<SpanAccount>(kLayerCount);
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.accounts.emplace_back(std::this_thread::get_id(), account);
  }
  return *account;
}

TraceTotals Tracer::collect() {
  TraceTotals totals;
  SpanAccount& mine = local();
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& [thread, account] : r.accounts) {
    if (account.get() == &mine) {
      totals.main.absorb(*account);
    } else {
      totals.workers.absorb(*account);
    }
  }
  mine.reset();
  std::erase_if(r.accounts,
                [&](const auto& entry) { return entry.second.get() != &mine; });
  return totals;
}

TimingModel::Verdict TimingModel::on_send(scup::ProcessId from,
                                          scup::ProcessId to,
                                          scup::SimTime now,
                                          scup::StreamRng& rng) {
  SpanAccount& account = Tracer::local();
  Verdict verdict;
  {
    const Span span(kOnSend);
    verdict = inner_->on_send(from, to, now, rng);
  }
  account.count(kNetSends, 1);
  if (verdict.dropped) account.count(kNetDropped, 1);
  if (verdict.duplicated) account.count(kNetDuplicated, 1);
  return verdict;
}

}  // namespace perfbench
