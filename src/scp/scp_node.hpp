// Single-slot SCP state machine: nomination protocol + ballot protocol with
// federated voting (vote → accept → confirm) over the node's quorum set.
//
// Faithfulness notes (vs. the SCP whitepaper / stellar-core):
//  - Quorum checks use the Algorithm-1 closure over the quorum sets attached
//    to envelopes; acceptance uses quorum OR v-blocking, confirmation uses
//    quorum ratification.
//  - Nomination uses "echo everything seen": every value appearing in a
//    received NOMINATE is added to our own voted set. This keeps the
//    protocol leaderless and convergent; the composite value of the
//    confirmed candidate set is their maximum (any deterministic combine
//    works for the paper's theorems).
//  - Ballot bumping: a timer that grows linearly with the ballot counter;
//    after GST all correct nodes eventually share a long enough round to
//    confirm commit (standard partial-synchrony argument).
//  - A node stuck in nomination adopts the value of the highest ballot of a
//    v-blocking set that has moved on (stellar-core's catch-up rule), which
//    lets non-sink nodes follow the sink.
//
// Evaluation strategy: federated-voting checks run on a fbqs::QuorumEngine
// (shared across slots when hosted by a LedgerMultiplexer). Derived state is
// kept incrementally, so an envelope costs work in proportion to what it can
// change rather than to everything the node has stored:
//  - a sorted value -> mention-count index over nom_voted_ and every stored
//    NOMINATE replaces the "everything anyone has mentioned" set that a
//    nomination step would otherwise rebuild; a replaced statement moves
//    the counts by its delta only;
//  - materialized support sets per queried predicate, split by stream: a
//    NOMINATE update touches only the nomination views of values whose
//    membership changed, a ballot update only the ballot-class views
//    (nomination predicates never hold on ballot statements and vice
//    versa);
//  - the engine memoizes the Algorithm-1 closure on the support-set
//    fingerprint, so the many predicates of one advance() fixpoint
//    (candidate ballots × vote/accept classes) are answered by a handful of
//    closure runs.
// The QuorumEngine sees the same queries, with the same arguments and in the
// same order, as a formulation that rescans every envelope on every step;
// tests/test_scp_pin.cpp pins the resulting counters and traces.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/node_set.hpp"
#include "fbqs/qset.hpp"
#include "fbqs/quorum_engine.hpp"
#include "scp/envelope.hpp"
#include "sim/host.hpp"

namespace scup::scp {

/// Timer id used by ScpNode; the composed host must route this id's
/// on_timer back into on_ballot_timer().
inline constexpr int kScpBallotTimerId = 100;

struct ScpConfig {
  /// Base ballot timeout; round k times out after base * (k+1).
  SimTime ballot_timeout_base = 100;
  /// Upper bound on the per-round timeout growth.
  std::uint32_t timeout_growth_cap = 50;
};

/// Adds the engine-stat growth since `last` to the host's SimMetrics
/// protocol counters and advances `last`. Called by whoever owns the engine
/// (a standalone ScpNode, or the LedgerMultiplexer for its shared engine).
void flush_quorum_counters(sim::ProtocolHost& host,
                           const fbqs::QuorumEngineStats& now,
                           fbqs::QuorumEngineStats& last);

class ScpNode {
 public:
  /// `universe` is the total number of process ids (needed at construction
  /// time, before the host is attached to a simulation). `engine` is the
  /// shared quorum-evaluation layer; when null the node owns a private one
  /// (and flushes its counters to the host itself).
  ScpNode(sim::ProtocolHost& host, std::size_t universe, fbqs::QSet qset,
          Value own_value, ScpConfig config = {},
          fbqs::QuorumEngine* engine = nullptr);

  /// Replaces the quorum set (used when slices only become known after the
  /// sink detector returns). Must be called before start().
  void set_qset(fbqs::QSet qset);

  /// Replaces the proposal value (used by the ledger multiplexer, which
  /// learns a slot's proposal only when the previous slot closes). Must be
  /// called before start().
  void set_proposal(Value value);

  /// Adds a peer; if already started, our latest envelope is retransmitted
  /// to it so late-discovered processes catch up.
  void add_peer(ProcessId peer);
  const NodeSet& peers() const { return peers_; }

  /// Begins nomination (votes for own value).
  void start();
  bool started() const { return started_; }

  /// Feeds a received message; returns true if consumed (it was an SCP
  /// envelope).
  bool handle(ProcessId from, const sim::Message& msg);

  /// Must be called by the host when kScpBallotTimerId fires.
  void on_ballot_timer();

  bool decided() const { return decided_.has_value(); }
  Value decision() const;

  /// Externalization callback (fired once).
  std::function<void(Value)> on_decide;

  // ---- Introspection for tests and experiments ----
  std::uint32_t ballot_counter() const { return b_.n; }
  const std::set<Value>& candidates() const { return candidates_; }
  std::size_t envelopes_emitted() const { return seq_; }

  enum class Phase { kNominate, kPrepare, kConfirm, kExternalize };
  Phase phase() const { return phase_; }

  const fbqs::QuorumEngine& engine() const { return *engine_; }

  /// Per-sender budget of qset *rebinds* (announcing a structurally new
  /// qset after the first binding). Correct senders rebind at most once —
  /// when their ballot stream takes over from nomination — while a
  /// Byzantine sender rotating a fresh qset per envelope would otherwise
  /// grow the engine's intern table without bound. Past the budget the
  /// sender keeps its current binding.
  static constexpr std::size_t kMaxQsetRebinds = 8;

  /// Latest ballot-protocol envelopes by sender (self included) — lets
  /// tests audit every statement this node currently believes / has
  /// emitted (e.g. the PREPARE commit-range invariant).
  const std::map<ProcessId, Envelope>& ballot_envelopes() const {
    return latest_ballot_;
  }

  /// Debug: rebuilds every materialized support view from scratch and
  /// compares against the incrementally maintained one. True iff all agree
  /// (the from-scratch equivalence the unit suite pins).
  bool support_views_consistent() const;

  /// Debug: rebuilds the set of every value anyone has mentioned (our own
  /// votes plus each stored NOMINATE's voted and accepted values) and the
  /// mention count of each, and compares them with the incremental index.
  bool nomination_index_consistent() const;

  /// Test hook (see fbqs::QuorumEngine::debug_rehash): scrambles the
  /// support views' bucket order. Behaviour must be unchanged — the loops
  /// over the views are annotated order-insensitive and the determinism
  /// regression suite pins it. const because the views are a mutable cache
  /// and the ledger hands out const slot pointers.
  void debug_rehash(std::size_t bucket_count) const {
    nom_support_.rehash(bucket_count);
    ballot_support_.rehash(bucket_count);
  }

 private:
  // -- federated voting over stored envelopes (self included) --

  /// A predicate over statements, in first-order form so support for it can
  /// be materialized and updated incrementally: class + (n, x) parameters.
  enum class PredClass : std::uint8_t {
    kNomVote,         // votes-or-accepts nominate(x)
    kNomAccept,       // accepts nominate(x)
    kPrepareVote,     // votes prepare((n,x)) or accepts prepared((n,x))
    kPrepareAccept,   // accepts prepared((n,x))
    kCommitVote,      // votes commit(n,x) or accepts commit(n,x)
    kCommitAccept,    // accepts commit(n,x)
    kBallotStream,    // has moved to the ballot protocol (any statement)
  };
  struct PredKey {
    PredClass cls = PredClass::kBallotStream;
    std::uint32_t n = 0;
    Value x = 0;
    bool operator==(const PredKey&) const = default;
  };
  struct PredKeyHash {
    std::size_t operator()(const PredKey& k) const;
  };

  static bool pred_holds(const PredKey& key, const Statement& s);

  bool is_quorum_satisfying(const PredKey& pred) const;
  bool is_vblocking(const PredKey& pred) const;
  bool federated_accept(const PredKey& votes_or_accepts,
                        const PredKey& accepts) const;
  bool federated_ratify(const PredKey& accepts) const;

  /// The materialized support set for a predicate: which senders' current
  /// statements (either stream) imply it. Built by one scan on first query,
  /// then kept fresh by the store_* paths below.
  const NodeSet& support_view(const PredKey& key) const;

  /// Replace sender `id`'s latest statement in one stream and refresh what
  /// depends on it: the mention index and the nomination views of the
  /// values whose membership changed (store_nomination), or every
  /// ballot-class view (store_ballot); then the effective qset id.
  void store_nomination(ProcessId id, const Envelope& env);
  void store_ballot(ProcessId id, const Envelope& env);
  /// Drops every view once the tracked-predicate cap is passed, counts the
  /// update and rebinds the sender's effective qset.
  void finish_statement_update(ProcessId id);

  /// Adds `delta` mentions of `v` to the value index (erasing at zero).
  void add_mention(Value v, int delta);
  /// Applies a sender's NOMINATE change from `before` (null: none yet) to
  /// (voted, accepted) to the value index and the kNomVote/kNomAccept views.
  void apply_nomination_delta(ProcessId id, const NominateStmt* before,
                              const std::set<Value>& voted,
                              const std::set<Value>& accepted);
  /// Re-evaluates every ballot-class view for sender `id`'s statement `s`.
  void refresh_ballot_views(ProcessId id, const Statement& s);
  /// nom_voted_.insert(v), counting a new vote in the value index.
  bool vote_nominate(Value v);

  /// Re-binds the sender's effective qset (ballot stream wins) and clears
  /// the closure cache when the interned id actually changes.
  void bind_qset(ProcessId id, const fbqs::QSet& q);

  void advance();          // run protocol steps to fixpoint
  bool step_nomination();  // returns true if state changed
  bool step_ballot();
  bool attempt_accept_prepared();
  bool attempt_confirm_prepared();
  bool attempt_accept_commit();
  bool attempt_confirm_commit();
  bool maybe_start_ballot();

  void emit_nomination();  // store + broadcast our nomination envelope
  void emit_ballot();      // store + broadcast our ballot envelope
  /// Sends `env` (our latest statement of one stream) to every peer.
  void broadcast(const Envelope& env);
  Statement ballot_statement() const;
  Value composite_candidate() const;
  /// Fill and return the scratch vectors below; the result stays valid
  /// until the next call.
  const std::vector<Ballot>& candidate_ballots();
  const std::vector<std::uint32_t>& commit_boundaries(Value x);
  void arm_ballot_timer();
  void flush_counters();

  sim::ProtocolHost& host_;
  fbqs::QSet qset_;
  Value own_value_;
  ScpConfig config_;

  NodeSet peers_;
  bool started_ = false;
  std::uint64_t seq_ = 0;

  // Nomination state.
  std::set<Value> nom_voted_;
  std::set<Value> nom_accepted_;
  std::set<Value> candidates_;
  /// Every value anyone has mentioned, ascending, with its mention count:
  /// one for membership in nom_voted_, plus one for each voted and each
  /// accepted entry of each stored NOMINATE. Flat because it holds a slot's
  /// handful of proposals and is walked on every nomination step.
  std::vector<std::pair<Value, std::uint32_t>> nom_mentions_;

  // Ballot state.
  Phase phase_ = Phase::kNominate;
  Ballot b_;        // current ballot
  Ballot p_;        // highest accepted prepared
  Ballot p_prime_;  // highest accepted prepared incompatible with p_
  Ballot h_;        // highest confirmed prepared
  Ballot c_;        // lowest ballot we vote commit for
  std::uint32_t commit_c_n_ = 0;  // accepted commit range (CONFIRM phase)
  std::uint32_t commit_h_n_ = 0;
  std::uint32_t ext_c_n_ = 0;  // confirmed commit range (EXTERNALIZE)
  std::uint32_t ext_h_n_ = 0;
  std::optional<Value> decided_;

  // Nomination and ballot protocols are separate message streams (as in
  // stellar-core): a sender's latest envelope of each kind is stored
  // independently, so progress on one never erases evidence for the other.
  std::map<ProcessId, Envelope> latest_nom_;
  std::map<ProcessId, Envelope> latest_ballot_;

  // -- quorum evaluation layer --
  std::unique_ptr<fbqs::QuorumEngine> owned_engine_;  // null when shared
  fbqs::QuorumEngine* engine_;
  fbqs::QSetId own_qset_id_ = fbqs::kNoQSetId;
  /// Effective interned qset per sender (ballot-stream envelope wins; they
  /// are the same for correct senders anyway). kNoQSetId = never heard.
  std::vector<fbqs::QSetId> sender_qset_id_;
  /// Rebinds consumed per sender, capped at kMaxQsetRebinds (fits a byte).
  std::vector<std::uint8_t> qset_rebinds_;
  /// Materialized support views, nomination classes and ballot classes
  /// apart so an update of one stream never walks the other's views;
  /// `mutable` because they are a cache over the envelope maps, lazily
  /// extended by const query paths.
  mutable std::unordered_map<PredKey, NodeSet, PredKeyHash> nom_support_;
  mutable std::unordered_map<PredKey, NodeSet, PredKeyHash> ballot_support_;
  /// Scratch for candidate_ballots() / commit_boundaries().
  std::vector<Ballot> ballots_scratch_;
  std::vector<std::uint32_t> boundaries_scratch_;
  /// Last stats snapshot flushed to SimMetrics (owned-engine nodes only).
  fbqs::QuorumEngineStats flushed_;
};

}  // namespace scup::scp
