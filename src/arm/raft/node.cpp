#include "arm/raft/node.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "arm/arm.hpp"
#include "obs/flight.hpp"
#include "sim/trace.hpp"

namespace dacc::arm::raft {

using proto::WireReader;
using proto::WireWriter;

namespace {
/// Splitmix-style stream split: replicas share one group seed but must not
/// share a random stream, or every election timeout would tie.
std::uint64_t replica_seed(std::uint64_t group_seed, int replica_index) {
  return group_seed ^
         (0x9E37'79B9'7F4A'7C15ull * static_cast<std::uint64_t>(replica_index + 1));
}
}  // namespace

RaftNode::RaftNode(dmpi::World& world, dmpi::Rank self_world_rank,
                   int replica_index, std::vector<dmpi::Rank> replica_ranks,
                   std::vector<AcceleratorInfo> pool, QueuePolicy policy,
                   RaftParams params, HeartbeatParams heartbeat,
                   PlacementMap placement)
    : world_(world),
      self_(self_world_rank),
      index_(replica_index),
      replicas_(std::move(replica_ranks)),
      params_(params),
      heartbeat_(heartbeat),
      rng_(replica_seed(params.seed, replica_index)),
      machine_(std::move(pool), policy, std::move(placement)),
      peers_(replicas_.size()),
      votes_(replicas_.size(), false),
      prevotes_(replicas_.size(), false) {
  obs::Registry* const reg = world.engine().metrics();
  if (reg == nullptr) return;
  const std::string labels = obs::labeled("", "replica", std::to_string(index_));
  m_elections_ = reg->counter("dacc_raft_elections_total" + labels);
  m_term_ = reg->gauge("dacc_raft_term" + labels);
  m_commit_lag_ns_ =
      reg->histogram("dacc_raft_commit_lag_ns" + labels, obs::latency_bounds_ns());
  m_leader_changes_ = reg->counter("dacc_raft_leader_changes_total" + labels);
  m_election_latency_ns_ = reg->histogram(
      "dacc_raft_election_latency_ns" + labels, obs::latency_bounds_ns());
  m_commit_index_ = reg->gauge("dacc_raft_commit_index" + labels);
  m_replication_lag_ = reg->gauge("dacc_raft_replication_lag" + labels);
}

void RaftNode::set_activity_gate(std::function<bool()> active,
                                 sim::WaitQueue* gate) {
  active_ = std::move(active);
  gate_ = gate;
}

std::uint64_t RaftNode::term_at(std::uint64_t index) const {
  if (index == 0) return 0;
  if (index == snap_index_) return snap_term_;
  return entry(index).term;
}

SimDuration RaftNode::draw_timeout() {
  const std::uint64_t span =
      static_cast<std::uint64_t>(kElectionMax - kElectionMin + 1);
  return kElectionMin + static_cast<SimDuration>(rng_.next_below(span));
}

int RaftNode::index_of(dmpi::Rank replica) const {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == replica) return static_cast<int>(i);
  }
  return -1;
}

void RaftNode::trace(sim::Context& ctx, const std::string& label) {
  // Role transitions are exactly the events a post-mortem wants: mirror
  // every raft trace label into the flight recorder (independent of whether
  // a Tracer is attached).
  if (obs::FlightRecorder* fr = world_.engine().flight()) {
    fr->note(ctx.now(), "raft", label,
             world_.engine().current_trace().trace_id);
  }
  if (sim::Tracer* tracer = world_.engine().tracer()) {
    tracer->record("raft", label, ctx.now(), ctx.now());
  }
}

void RaftNode::send_peer(dmpi::Mpi& mpi, dmpi::Rank to, util::Buffer frame) {
  mpi.send(world_.world_comm(), to, kArmRequestTag, std::move(frame));
}

bool RaftNode::should_park() const {
  if (gate_ == nullptr || halted_ || shutdown_) return false;
  if (active_ && active_()) return false;
  switch (role_) {
    case Role::kLeader: {
      if (commit_ != last_log_index() || applied_ != commit_) return false;
      for (std::size_t i = 0; i < replicas_.size(); ++i) {
        if (static_cast<int>(i) == index_) continue;
        const Peer& p = peers_[i];
        if (p.dead) continue;
        if (p.match < last_log_index() || p.acked_commit < commit_) {
          return false;
        }
      }
      return true;
    }
    case Role::kCandidate:
      // An election in flight never parks; with a quorum of live replicas
      // it resolves in bounded simulated time, and the winner quiesces the
      // group. (Chaos schedules must keep a quorum alive, like real Raft.)
      return false;
    case Role::kFollower:
      return !activated_ || (quiesce_ok_ && applied_ == commit_);
  }
  return false;
}

void RaftNode::wake(sim::Context& ctx) {
  activated_ = true;
  quiesce_ok_ = false;
  for (Peer& p : peers_) {
    p.unacked = 0;
    p.dead = false;
  }
  if (role_ == Role::kLeader) {
    // Re-open with an amnesty sweep: the idle gap must not read as missed
    // heartbeats (same rule as the single-ARM monitor's `fresh` flag).
    if (heartbeat_.enabled) propose_sweep(ctx, true);
    next_sweep_at_ = ctx.now() + heartbeat_.period;
    ae_deadline_ = ctx.now();
  } else {
    election_deadline_ = ctx.now() + draw_timeout();
    // The idle gap is leader silence by design, not failure: refresh the
    // contact clock so the first post-wake timeout doesn't instantly pass
    // every peer's pre-vote staleness check at once.
    last_leader_contact_ = ctx.now();
  }
}

// ---------------------------------------------------------------------------
// Role transitions
// ---------------------------------------------------------------------------

void RaftNode::become_follower(std::uint64_t term) {
  if (term > term_) {
    term_ = term;
    voted_for_ = -1;
    leader_hint_ = -1;
    m_term_.set(static_cast<std::int64_t>(term_));
  }
  if (role_ == Role::kLeader) machine_.bind_metrics(nullptr);
  role_ = Role::kFollower;
}

void RaftNode::maybe_start_election(sim::Context& ctx, dmpi::Mpi& mpi) {
  // Pre-vote (Raft dissertation §9.6): before bumping its term, a timed-out
  // follower probes whether an election could succeed, so a replica
  // rejoining after a partition cannot depose a healthy leader just by
  // having inflated its term while isolated. Probing needs peers; a
  // single-replica group elects itself directly.
  if (replicas_.size() == 1) {
    start_election(ctx, mpi);
    return;
  }
  begin_prevote(ctx, mpi);
}

void RaftNode::begin_prevote(sim::Context& ctx, dmpi::Mpi& mpi) {
  if (role_ == Role::kLeader) return;
  // A candidate whose election timed out falls back to probing: its term is
  // already bumped, so the probe campaigns at term_+1 like any other.
  role_ = Role::kFollower;
  prevote_active_ = true;
  prevote_term_ = term_ + 1;
  prevotes_.assign(replicas_.size(), false);
  prevotes_[static_cast<std::size_t>(index_)] = true;
  election_deadline_ = ctx.now() + draw_timeout();
  trace(ctx, "prevote-r" + std::to_string(index_) + "-term" +
                 std::to_string(prevote_term_));
  PreVote pv;
  pv.term = prevote_term_;
  pv.candidate = self_;
  pv.last_log_index = last_log_index();
  pv.last_log_term = term_at(last_log_index());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == index_) continue;
    send_peer(mpi, replicas_[i], pv.encode());
  }
}

void RaftNode::start_election(sim::Context& ctx, dmpi::Mpi& mpi) {
  if (role_ == Role::kLeader) return;
  prevote_active_ = false;
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = self_;
  leader_hint_ = -1;
  votes_.assign(replicas_.size(), false);
  votes_[static_cast<std::size_t>(index_)] = true;
  ++elections_;
  m_elections_.add(1);
  m_term_.set(static_cast<std::int64_t>(term_));
  election_began_ = ctx.now();
  trace(ctx, "election-r" + std::to_string(index_) + "-term" +
                 std::to_string(term_));
  election_deadline_ = ctx.now() + draw_timeout();
  RequestVote rv;
  rv.term = term_;
  rv.candidate = self_;
  rv.last_log_index = last_log_index();
  rv.last_log_term = term_at(last_log_index());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == index_) continue;
    send_peer(mpi, replicas_[i], rv.encode());
  }
  if (replicas_.size() == 1) become_leader(ctx);
}

void RaftNode::become_leader(sim::Context& ctx) {
  role_ = Role::kLeader;
  prevote_active_ = false;
  leader_hint_ = self_;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Peer& p = peers_[i];
    p.next = last_log_index() + 1;
    p.match = static_cast<int>(i) == index_ ? last_log_index() : 0;
    p.acked_commit = 0;
    p.unacked = 0;
    p.dead = false;
  }
  // The lease machine's series ("dacc_arm_*") must count each event exactly
  // once across the group, so only the leader keeps them bound.
  machine_.bind_metrics(world_.engine().metrics());
  m_leader_changes_.add(1);
  if (election_began_ != 0) {
    m_election_latency_ns_.observe(
        static_cast<std::uint64_t>(ctx.now() - election_began_));
    election_began_ = 0;
  }
  trace(ctx, "leader-r" + std::to_string(index_) + "-term" +
                 std::to_string(term_));
  // Term-start barrier entry (Raft §5.4.2: a leader only counts replicas
  // for entries of its own term, so it commits one immediately). Doubling
  // as a fresh liveness sweep grants beat amnesty across the disruption
  // that got us elected.
  propose_sweep(ctx, /*fresh=*/true);
  next_sweep_at_ = ctx.now() + heartbeat_.period;
  ae_deadline_ = ctx.now();  // heartbeat the group right away
}

// ---------------------------------------------------------------------------
// Log / replication
// ---------------------------------------------------------------------------

void RaftNode::propose_sweep(sim::Context& ctx, bool fresh) {
  Command cmd;
  cmd.client = self_;
  cmd.reply_tag = 0;
  cmd.op = static_cast<std::uint32_t>(ArmOp::kSweep);
  WireWriter body;
  SweepRequest{.period = heartbeat_.period,
               .miss_threshold = heartbeat_.miss_threshold,
               .fresh = fresh}
      .encode_body(body);
  cmd.body = body.finish();
  LogEntry e;
  e.term = term_;
  e.at = ctx.now();
  e.cmd = std::move(cmd);
  append_entry(std::move(e));
}

void RaftNode::append_entry(LogEntry entry) {
  log_.push_back(std::move(entry));
  peers_[static_cast<std::size_t>(index_)].match = last_log_index();
}

void RaftNode::leader_tick(sim::Context& ctx, dmpi::Mpi& mpi) {
  if (heartbeat_.enabled && active_ && active_() &&
      ctx.now() >= next_sweep_at_) {
    propose_sweep(ctx, /*fresh=*/false);
    next_sweep_at_ = ctx.now() + heartbeat_.period;
  }
  broadcast_append(mpi, /*count_round=*/true);
  ae_deadline_ = ctx.now() + kAppendInterval;
}

void RaftNode::broadcast_append(dmpi::Mpi& mpi, bool count_round) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == index_) continue;
    Peer& p = peers_[i];
    if (p.dead) continue;
    if (count_round && ++p.unacked > kDeadRounds) {
      p.dead = true;
      continue;
    }
    send_append_to(mpi, static_cast<int>(i));
  }
}

void RaftNode::send_append_to(dmpi::Mpi& mpi, int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.next <= snap_index_) {
    InstallSnapshot is;
    is.term = term_;
    is.leader = self_;
    is.last_index = snap_index_;
    is.last_term = snap_term_;
    is.snapshot = snap_.view();
    send_peer(mpi, replicas_[static_cast<std::size_t>(peer)], is.encode());
    return;
  }
  AppendEntries ae;
  ae.term = term_;
  ae.leader = self_;
  ae.prev_index = p.next - 1;
  ae.prev_term = term_at(ae.prev_index);
  ae.commit = commit_;
  ae.quiesce = !(active_ && active_()) && commit_ == last_log_index();
  for (std::uint64_t idx = p.next; idx <= last_log_index(); ++idx) {
    ae.entries.push_back(entry(idx));
  }
  send_peer(mpi, replicas_[static_cast<std::size_t>(peer)], ae.encode());
}

void RaftNode::advance_commit() {
  if (role_ != Role::kLeader) return;
  for (std::uint64_t n = last_log_index(); n > commit_; --n) {
    if (term_at(n) != term_) break;  // only own-term entries commit by count
    int count = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (peers_[i].match >= n) ++count;
    }
    if (count * 2 > static_cast<int>(replicas_.size())) {
      commit_ = n;
      break;
    }
  }
}

void RaftNode::apply_committed(sim::Context& ctx, rpc::ServerChannel& channel) {
  while (applied_ < commit_) {
    const LogEntry& e = entry(applied_ + 1);
    ApplyResult result;
    try {
      // Applied with the leader's proposal timestamp, never local time:
      // every replica's time-derived state stays bit-identical.
      result = machine_.apply(e.cmd, e.at);
    } catch (const proto::WireError&) {
      // Leaders validate before appending, so a committed entry can only
      // throw if every replica's copy does — skipping is deterministic.
    }
    ++applied_;
    m_commit_lag_ns_.observe(static_cast<std::uint64_t>(ctx.now() - e.at));
    if (result.shutdown) shutdown_ = true;
    if (role_ == Role::kLeader) {
      execute_effects(ctx, channel, result.effects);
    }
  }
  m_commit_index_.set(static_cast<std::int64_t>(commit_));
  m_replication_lag_.set(
      static_cast<std::int64_t>(last_log_index() - commit_));
  machine_.sample_assigned();
  maybe_compact();
}

void RaftNode::maybe_compact() {
  if (applied_ - snap_index_ < params_.snapshot_threshold) return;
  snap_ = machine_.snapshot();
  snap_term_ = term_at(applied_);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(applied_ - snap_index_));
  snap_index_ = applied_;
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

void RaftNode::on_request_vote(sim::Context& ctx, dmpi::Mpi& mpi,
                               const RequestVote& m) {
  if (m.term > term_) become_follower(m.term);
  bool grant = false;
  if (m.term == term_ && role_ != Role::kLeader &&
      (voted_for_ == -1 || voted_for_ == m.candidate)) {
    const std::uint64_t my_last_term = term_at(last_log_index());
    grant = m.last_log_term > my_last_term ||
            (m.last_log_term == my_last_term &&
             m.last_log_index >= last_log_index());
  }
  if (grant) {
    voted_for_ = m.candidate;
    election_deadline_ = ctx.now() + draw_timeout();
  }
  VoteReply rep;
  rep.term = term_;
  rep.voter = self_;
  rep.granted = grant;
  send_peer(mpi, m.candidate, rep.encode());
}

void RaftNode::on_vote_reply(sim::Context& ctx, const VoteReply& m) {
  if (m.term > term_) {
    become_follower(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  const int i = index_of(m.voter);
  if (i < 0) return;
  votes_[static_cast<std::size_t>(i)] = true;
  int count = 0;
  for (const bool v : votes_) count += v ? 1 : 0;
  if (count * 2 > static_cast<int>(replicas_.size())) become_leader(ctx);
}

void RaftNode::on_append_entries(sim::Context& ctx, dmpi::Mpi& mpi,
                                 AppendEntries m) {
  AppendReply rep;
  rep.follower = self_;
  if (m.term < term_) {
    rep.term = term_;
    rep.success = false;
    rep.acked_commit = commit_;
    send_peer(mpi, m.leader, rep.encode());
    return;
  }
  if (m.term > term_ || role_ != Role::kFollower) become_follower(m.term);
  leader_hint_ = m.leader;
  election_deadline_ = ctx.now() + draw_timeout();
  last_leader_contact_ = ctx.now();
  prevote_active_ = false;  // a live leader moots any probe in flight
  rep.term = term_;

  // Consistency check against the entry preceding the batch.
  const std::uint64_t prev = m.prev_index;
  bool ok = true;
  if (prev >= snap_index_) {  // anything older is committed state here
    ok = prev <= last_log_index() && term_at(prev) == m.prev_term;
  }
  if (!ok) {
    rep.success = false;
    rep.acked_commit = commit_;
    quiesce_ok_ = false;
    send_peer(mpi, m.leader, rep.encode());
    return;
  }

  std::uint64_t idx = prev;
  for (LogEntry& e : m.entries) {
    ++idx;
    if (idx <= snap_index_) continue;  // covered by our snapshot
    if (idx <= last_log_index()) {
      if (term_at(idx) == e.term) continue;  // already have it
      // Conflict: an uncommitted suffix from a deposed leader dies here.
      log_.resize(static_cast<std::size_t>(idx - snap_index_ - 1));
    }
    log_.push_back(std::move(e));
  }
  if (m.commit > commit_) {
    commit_ = m.commit < last_log_index() ? m.commit : last_log_index();
  }
  rep.success = true;
  rep.match_index =
      std::max<std::uint64_t>(prev + m.entries.size(), snap_index_);
  rep.acked_commit = commit_;
  quiesce_ok_ = m.quiesce;
  send_peer(mpi, m.leader, rep.encode());
}

void RaftNode::on_append_reply(dmpi::Mpi& mpi, const AppendReply& m) {
  if (m.term > term_) {
    become_follower(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  const int i = index_of(m.follower);
  if (i < 0) return;
  Peer& p = peers_[static_cast<std::size_t>(i)];
  p.unacked = 0;
  p.dead = false;
  if (m.acked_commit > p.acked_commit) p.acked_commit = m.acked_commit;
  if (m.success) {
    if (m.match_index > p.match) p.match = m.match_index;
    if (p.match + 1 > p.next) p.next = p.match + 1;
  } else {
    // Back up one entry and retry immediately; once next falls to the
    // snapshot boundary the retry becomes an InstallSnapshot.
    if (p.next > 1) --p.next;
    send_append_to(mpi, i);
  }
}

void RaftNode::on_install_snapshot(sim::Context& ctx, dmpi::Mpi& mpi,
                                   InstallSnapshot m) {
  SnapshotReply rep;
  rep.follower = self_;
  if (m.term < term_) {
    rep.term = term_;
    rep.match_index = 0;
    send_peer(mpi, m.leader, rep.encode());
    return;
  }
  if (m.term > term_ || role_ != Role::kFollower) become_follower(m.term);
  leader_hint_ = m.leader;
  election_deadline_ = ctx.now() + draw_timeout();
  last_leader_contact_ = ctx.now();
  prevote_active_ = false;
  rep.term = term_;
  if (m.last_index > applied_) {
    // restore() before touching any member: a corrupted snapshot frame must
    // throw out of the handler with this replica's state fully intact.
    util::Buffer bytes = std::move(m.snapshot);
    WireReader r(bytes.view());
    machine_ = LeaseMachine::restore(r);
    snap_ = std::move(bytes);
    log_.clear();
    snap_index_ = m.last_index;
    snap_term_ = m.last_term;
    applied_ = m.last_index;
    if (m.last_index > commit_) commit_ = m.last_index;
    rep.match_index = m.last_index;
  } else {
    // Already past it: the committed prefix is guaranteed to match.
    rep.match_index = commit_;
  }
  send_peer(mpi, m.leader, rep.encode());
}

void RaftNode::on_snapshot_reply(const SnapshotReply& m) {
  if (m.term > term_) {
    become_follower(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  const int i = index_of(m.follower);
  if (i < 0) return;
  Peer& p = peers_[static_cast<std::size_t>(i)];
  p.unacked = 0;
  p.dead = false;
  if (m.match_index > p.match) p.match = m.match_index;
  if (p.match + 1 > p.next) p.next = p.match + 1;
}

void RaftNode::on_pre_vote(sim::Context& ctx, dmpi::Mpi& mpi,
                           const PreVote& m) {
  // Advisory probe: grants never touch term_ or voted_for_, and never
  // reset our election deadline — a denied probe must not disturb us.
  PreVoteReply rep;
  rep.term = m.term;
  rep.voter = self_;
  bool grant = false;
  if (m.term > term_ && role_ != Role::kLeader) {
    const std::uint64_t my_last_term = term_at(last_log_index());
    const bool log_ok = m.last_log_term > my_last_term ||
                        (m.last_log_term == my_last_term &&
                         m.last_log_index >= last_log_index());
    // Deny while a live leader is heartbeating us. Measured against the
    // last real leader contact, not our own election deadline (which we
    // reset ourselves on timeout — symmetric probes would livelock).
    const bool leader_stale =
        ctx.now() - last_leader_contact_ >= kElectionMin;
    grant = log_ok && leader_stale;
  }
  rep.granted = grant;
  send_peer(mpi, m.candidate, rep.encode());
}

void RaftNode::on_pre_vote_reply(sim::Context& ctx, dmpi::Mpi& mpi,
                                 const PreVoteReply& m) {
  if (!prevote_active_ || role_ != Role::kFollower ||
      m.term != prevote_term_ || !m.granted) {
    return;
  }
  const int i = index_of(m.voter);
  if (i < 0) return;
  prevotes_[static_cast<std::size_t>(i)] = true;
  int count = 0;
  for (const bool v : prevotes_) count += v ? 1 : 0;
  if (count * 2 > static_cast<int>(replicas_.size())) {
    // A majority would vote for us at prevote_term_: campaign for real.
    start_election(ctx, mpi);
  }
}

void RaftNode::handle_raft(sim::Context& ctx, dmpi::Mpi& mpi,
                           rpc::Inbound& in) {
  switch (in.op<RaftOp>()) {
    case RaftOp::kRequestVote:
      on_request_vote(ctx, mpi, RequestVote::decode(in.body));
      break;
    case RaftOp::kVoteReply:
      on_vote_reply(ctx, VoteReply::decode(in.body));
      break;
    case RaftOp::kAppendEntries:
      on_append_entries(ctx, mpi, AppendEntries::decode(in.body));
      break;
    case RaftOp::kAppendReply:
      on_append_reply(mpi, AppendReply::decode(in.body));
      break;
    case RaftOp::kInstallSnapshot:
      on_install_snapshot(ctx, mpi, InstallSnapshot::decode(in.body));
      break;
    case RaftOp::kSnapshotReply:
      on_snapshot_reply(SnapshotReply::decode(in.body));
      break;
    case RaftOp::kPreVote:
      on_pre_vote(ctx, mpi, PreVote::decode(in.body));
      break;
    case RaftOp::kPreVoteReply:
      on_pre_vote_reply(ctx, mpi, PreVoteReply::decode(in.body));
      break;
  }
}

void RaftNode::handle_client(sim::Context& ctx, rpc::ServerChannel& channel,
                             dmpi::Mpi& mpi, rpc::Inbound& in) {
  Command cmd = command_of(in);
  if (role_ != Role::kLeader) {
    // Redirect; one-way frames (heartbeats) are simply dropped — the
    // pacers broadcast to every replica, so the leader has its own copy.
    if (cmd.reply_tag != 0) {
      util::Buffer rep =
          WireWriter{}
              .u32(static_cast<std::uint32_t>(ArmResult::kNotLeader))
              .u64(static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(leader_hint_)))
              .finish();
      channel.reply(cmd.client, cmd.reply_tag, std::move(rep));
    }
    return;
  }
  // Refuse garbage before it reaches the log: a committed entry must apply
  // cleanly on every replica or never be appended at all.
  try {
    LeaseMachine::validate(cmd);
  } catch (const proto::WireError&) {
    return;  // dropped whole, like the single ARM
  }
  if (cmd.reply_tag != 0) {
    if (machine_.seen(cmd.client, cmd.reply_tag)) {
      // At-least-once resend of an already-processed request: apply() only
      // re-emits the cached reply (or stays silent for a still-queued
      // acquire) without mutating state, so no new log entry is needed.
      ApplyResult result = machine_.apply(cmd, ctx.now());
      execute_effects(ctx, channel, result.effects);
      return;
    }
    for (std::uint64_t idx = applied_ + 1; idx <= last_log_index(); ++idx) {
      const Command& logged = entry(idx).cmd;
      if (logged.client == cmd.client && logged.reply_tag == cmd.reply_tag) {
        return;  // duplicate of an entry still in flight
      }
    }
  }
  LogEntry e;
  e.term = term_;
  e.at = ctx.now();
  e.cmd = std::move(cmd);
  append_entry(std::move(e));
  broadcast_append(mpi, /*count_round=*/false);
}

// ---------------------------------------------------------------------------
// Service loop
// ---------------------------------------------------------------------------

void RaftNode::run(sim::Context& ctx) {
  dmpi::Mpi mpi(world_, ctx, self_);
  rpc::ServerChannel channel(
      mpi, world_.world_comm(),
      rpc::ServerChannel::Options{kArmRequestTag, /*min_reply_tag=*/0});
  // One posted receive serves peers and clients alike; it stays posted
  // across parked phases, so messages arriving while the group is idle are
  // buffered losslessly and handled at the next wakeup.
  dmpi::Request inbox =
      mpi.irecv(world_.world_comm(), dmpi::kAnySource, kArmRequestTag);
  election_deadline_ = ctx.now() + draw_timeout();
  for (;;) {
    if (halted_) return;
    if (gate_ != nullptr && should_park()) {
      while (should_park()) gate_->wait(ctx);
      if (halted_) return;
      wake(ctx);
    }
    const SimTime deadline =
        role_ == Role::kLeader ? ae_deadline_ : election_deadline_;
    if (mpi.wait_until(inbox, deadline)) {
      const dmpi::Rank source = inbox.status().source;
      util::Buffer msg = inbox.take_payload();
      inbox = mpi.irecv(world_.world_comm(), dmpi::kAnySource, kArmRequestTag);
      // Bookkeeping cost of one management request (same as the single ARM).
      ctx.wait_for(1'000);
      if (halted_) return;
      try {
        rpc::Inbound in = channel.decode(source, std::move(msg));
        if (is_raft_op(in.op_word)) {
          handle_raft(ctx, mpi, in);
        } else {
          handle_client(ctx, channel, mpi, in);
        }
      } catch (const proto::WireError&) {
        // Malformed or truncated frame (fuzzed, corrupted): drop it whole
        // and keep serving — never partially applied.
      }
    } else if (role_ == Role::kLeader) {
      leader_tick(ctx, mpi);
    } else {
      maybe_start_election(ctx, mpi);
    }
    advance_commit();
    apply_committed(ctx, channel);
    if (shutdown_) return;
  }
}

}  // namespace dacc::arm::raft
