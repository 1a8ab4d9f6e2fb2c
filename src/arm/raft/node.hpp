// Replicated ARM: one Raft replica hosting the lease state machine.
//
// The single ARM of the paper's Section III.B.2 is a single point of
// failure for the whole cluster's resource management. This deployment
// replaces it with a small replica group (3–5 fabric nodes) running the
// lease machine behind a Raft-style replicated log: clients still speak the
// unchanged ARM protocol to whichever replica they believe is the leader,
// followers redirect them (ArmResult::kNotLeader + a leader hint), and a
// leader kill loses neither the lease table nor queued acquisitions — the
// new leader's machine is rebuilt from the same committed log.
//
// Everything is deterministic (DESIGN.md §11): election timeouts come from
// a per-replica seeded RNG over simulated time, log entries carry the
// leader's proposal timestamp so replicas apply with identical `now`
// values, and only the leader-at-apply executes effects or feeds the lease
// machine's metrics. Two runs with the same seed elect the same leaders in
// the same terms at the same simulated times on every execution backend.
//
// The replica group also has to let the discrete-event engine drain: a run
// ends when no events remain, so the replicas cannot heartbeat forever.
// While the cluster has no active jobs and the log is fully committed and
// acked everywhere, the leader flags its (empty) AppendEntries with
// `quiesce`; followers that have applied everything park on the cluster's
// activity gate after acking, and the leader parks once every live peer
// acked the final commit. Submitting a job notifies the gates and the
// group resumes — the leader opens with a fresh (amnesty) liveness sweep
// so the idle gap never reads as missed heartbeats.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arm/lease_machine.hpp"
#include "arm/raft/wire.hpp"
#include "dmpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "rpc/channel.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::arm::raft {

// Consensus timing, sized for the middleware's sub-millisecond fabric:
// elections settle within a few milliseconds of a leader death, and the
// AppendEntries cadence stays well under the client-side failover window.

/// Leader AppendEntries cadence (also the liveness heartbeat of the
/// consensus layer itself).
inline constexpr SimDuration kAppendInterval = 400'000;  // 400 us
/// Election timeout drawn uniformly from [kElectionMin, kElectionMax] —
/// per-replica seeded RNG, so ties are deterministic, not metastable.
inline constexpr SimDuration kElectionMin = 1'500'000;  // 1.5 ms
inline constexpr SimDuration kElectionMax = 3'000'000;  // 3 ms
/// Consecutive unanswered AppendEntries rounds before the leader stops
/// waiting on a peer for quiescence purposes (the peer is presumed killed;
/// a reply instantly revives it).
inline constexpr std::uint32_t kDeadRounds = 8;

/// Per-group consensus settings.
struct RaftParams {
  /// Group-wide seed; each replica derives its own stream from it.
  std::uint64_t seed = 0xDACC'5EEDull;
  /// Applied entries retained before the log is compacted into a machine
  /// snapshot (per replica, independently).
  std::uint32_t snapshot_threshold = 128;
};

/// One ARM replica. Construct one per replica rank, spawn run() as an
/// engine daemon on that rank's fabric node.
class RaftNode {
 public:
  enum class Role : std::uint32_t { kFollower = 0, kCandidate = 1, kLeader = 2 };

  RaftNode(dmpi::World& world, dmpi::Rank self_world_rank, int replica_index,
           std::vector<dmpi::Rank> replica_ranks,
           std::vector<AcceleratorInfo> pool, QueuePolicy policy,
           RaftParams params, HeartbeatParams heartbeat,
           PlacementMap placement = {});

  /// Wires the cluster's activity signal: `active()` says whether any job
  /// is running (read from the replica's own context — the cluster's
  /// counter is global-band serial state), `gate` is notified on job
  /// submission. Without a gate the node never parks (manual harnesses
  /// that drive the engine with run_until).
  void set_activity_gate(std::function<bool()> active, sim::WaitQueue* gate);

  /// Service loop (engine daemon). Returns after halt() or an applied
  /// kShutdown command.
  void run(sim::Context& ctx);

  /// Marks the replica killed: the loop exits at its next wakeup and never
  /// touches the network again. Call from the serial global band (chaos
  /// schedules), paired with failing the replica's fabric link.
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  // --- introspection (tests/harnesses; read between engine steps) ---------
  Role role() const { return role_; }
  std::uint64_t term() const { return term_; }
  std::uint64_t commit_index() const { return commit_; }
  std::uint64_t last_applied() const { return applied_; }
  std::uint64_t last_log_index() const { return snap_index_ + log_.size(); }
  std::uint64_t snapshot_index() const { return snap_index_; }
  std::uint64_t elections_started() const { return elections_; }
  const LeaseMachine& machine() const { return machine_; }

 private:
  /// Leader-side replication progress for one peer.
  struct Peer {
    std::uint64_t next = 1;          ///< next log index to send
    std::uint64_t match = 0;         ///< highest index known replicated
    std::uint64_t acked_commit = 0;  ///< follower's acked commit index
    std::uint32_t unacked = 0;       ///< AE rounds since the last reply
    bool dead = false;               ///< presumed killed (quiescence only)
  };

  // Log addressing: log_[i] holds absolute index snap_index_ + 1 + i.
  std::uint64_t term_at(std::uint64_t index) const;
  const LogEntry& entry(std::uint64_t index) const {
    return log_.at(static_cast<std::size_t>(index - snap_index_ - 1));
  }

  SimDuration draw_timeout();
  bool should_park() const;
  void wake(sim::Context& ctx);
  int index_of(dmpi::Rank replica) const;
  void trace(sim::Context& ctx, const std::string& label);
  void send_peer(dmpi::Mpi& mpi, dmpi::Rank to, util::Buffer frame);

  void become_follower(std::uint64_t term);
  /// Election-timeout entry point: pre-vote probe first when enabled (and
  /// the group has peers to probe), otherwise a real election.
  void maybe_start_election(sim::Context& ctx, dmpi::Mpi& mpi);
  void begin_prevote(sim::Context& ctx, dmpi::Mpi& mpi);
  void start_election(sim::Context& ctx, dmpi::Mpi& mpi);
  void become_leader(sim::Context& ctx);
  void propose_sweep(sim::Context& ctx, bool fresh);
  void append_entry(LogEntry entry);
  void leader_tick(sim::Context& ctx, dmpi::Mpi& mpi);
  void broadcast_append(dmpi::Mpi& mpi, bool count_round);
  void send_append_to(dmpi::Mpi& mpi, int peer);
  void advance_commit();
  void apply_committed(sim::Context& ctx, rpc::ServerChannel& channel);
  void maybe_compact();

  void handle_raft(sim::Context& ctx, dmpi::Mpi& mpi, rpc::Inbound& in);
  void handle_client(sim::Context& ctx, rpc::ServerChannel& channel,
                     dmpi::Mpi& mpi, rpc::Inbound& in);
  void on_request_vote(sim::Context& ctx, dmpi::Mpi& mpi,
                       const RequestVote& m);
  void on_vote_reply(sim::Context& ctx, const VoteReply& m);
  void on_append_entries(sim::Context& ctx, dmpi::Mpi& mpi, AppendEntries m);
  void on_append_reply(dmpi::Mpi& mpi, const AppendReply& m);
  void on_install_snapshot(sim::Context& ctx, dmpi::Mpi& mpi,
                           InstallSnapshot m);
  void on_snapshot_reply(const SnapshotReply& m);
  void on_pre_vote(sim::Context& ctx, dmpi::Mpi& mpi, const PreVote& m);
  void on_pre_vote_reply(sim::Context& ctx, dmpi::Mpi& mpi,
                         const PreVoteReply& m);

  dmpi::World& world_;
  dmpi::Rank self_;
  int index_;
  std::vector<dmpi::Rank> replicas_;
  RaftParams params_;
  HeartbeatParams heartbeat_;
  util::Rng rng_;
  LeaseMachine machine_;

  // --- persistent Raft state (would be on disk in a real deployment) ------
  Role role_ = Role::kFollower;
  std::uint64_t term_ = 0;
  dmpi::Rank voted_for_ = -1;
  std::vector<LogEntry> log_;
  std::uint64_t snap_index_ = 0;  ///< log compacted through this index
  std::uint64_t snap_term_ = 0;
  util::Buffer snap_;  ///< machine snapshot at snap_index_

  // --- volatile state -----------------------------------------------------
  dmpi::Rank leader_hint_ = -1;
  std::uint64_t commit_ = 0;
  std::uint64_t applied_ = 0;
  std::vector<Peer> peers_;    ///< parallel to replicas_; self entry unused
  std::vector<bool> votes_;    ///< parallel to replicas_ (candidate state)
  SimTime election_deadline_ = 0;
  SimTime ae_deadline_ = 0;
  SimTime next_sweep_at_ = 0;
  std::uint64_t elections_ = 0;

  // --- pre-vote state (dissertation §9.6) ---------------------------------
  bool prevote_active_ = false;
  std::uint64_t prevote_term_ = 0;     ///< term the probe campaigns for
  std::vector<bool> prevotes_;         ///< parallel to replicas_
  /// Last time a live leader was heard (valid AppendEntries or
  /// InstallSnapshot, or a gate wakeup). Pre-vote grants require this to be
  /// at least kElectionMin stale — NOT our own election deadline, which we
  /// reset on our own timeout and would livelock symmetric probes.
  SimTime last_leader_contact_ = 0;

  // --- parking / lifecycle ------------------------------------------------
  std::function<bool()> active_;
  sim::WaitQueue* gate_ = nullptr;
  bool activated_ = false;    ///< woken by the gate at least once
  bool quiesce_ok_ = false;   ///< follower: last AE carried the quiesce flag
  bool halted_ = false;
  bool shutdown_ = false;

  // Metrics, registered at construction (no-op handles without a registry).
  obs::Counter m_elections_;
  obs::Gauge m_term_;
  obs::Histogram m_commit_lag_ns_;
  // Raft SLO observability: how long elections take, how often leadership
  // moves, and how far replication/apply trail the log head. All values are
  // simulated-time-derived, so they stay inside the deterministic snapshot.
  obs::Counter m_leader_changes_;
  obs::Histogram m_election_latency_ns_;
  obs::Gauge m_commit_index_;
  obs::Gauge m_replication_lag_;
  SimTime election_began_ = 0;  ///< candidacy start (election latency metric)
};

}  // namespace dacc::arm::raft
