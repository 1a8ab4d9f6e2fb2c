// The ARM lease state machine, factored out of the server loop.
//
// The paper's pool manager (Section III.B.2) is a pure function of the
// requests it has processed: slots, the pending queue, revoked lease ids and
// the counters are all derived from the command stream. This file makes
// that explicit. A `Command` is one client request (op word + body, plus
// where the answer goes); `LeaseMachine::apply` consumes it and returns
// `Effect`s — messages to send and trace notes to record — instead of
// touching the network itself.
//
// The split is what makes the ARM replicable (DESIGN.md §11): a Raft
// replica appends Commands to its log and applies them only once committed,
// every replica's machine stays bit-identical, and only the leader executes
// the effects. The single-ARM server (arm.hpp) drives the same machine
// directly, so both deployments share one implementation of the lease
// semantics.
//
// Scheduling model (DESIGN.md §13): acquisitions are typed
// `ResourceRequest`s — device class, minimum memory, count, gang flag,
// priority, locality hint. Free slots are indexed per (kind, memory) class
// and per placement zone; pending requests sit in a (priority, arrival)
// ordered map; assigned slots carry a mirror (class, priority) index so
// arrival-triggered preemption finds its victims without a slot scan.
// Every scheduling decision is O(log n) in the pool/queue size; only
// liveness sweeps walk the slot table.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arm/placement.hpp"
#include "dmpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "proto/wire.hpp"
#include "util/buffer.hpp"
#include "util/fifo.hpp"
#include "util/units.hpp"

namespace dacc::arm {

/// Tags for ARM traffic on the middleware communicator. Requests carry a
/// reply tag from the client rank's one tag space
/// (rpc::Channel::next_reply_tag), so several clients sharing one rank
/// endpoint (a job launcher and a running session, say) can never receive
/// each other's responses. Revocation notices are pushed (unsolicited) to
/// the lease holder on kArmRevokeTagBase + daemon_rank.
inline constexpr int kArmRequestTag = 200;
inline constexpr int kArmRevokeTagBase = 3'000'000;

enum class ArmOp : std::uint32_t {
  kAcquire = 1,
  kRelease = 2,
  kReleaseJob = 3,
  kReportBroken = 4,
  kStats = 5,
  kShutdown = 6,
  kHeartbeat = 7,  ///< daemon liveness beat (one-way, no reply)
  kSweep = 8,      ///< monitor tick: revoke slots whose beats went missing
  kReplaced = 9,   ///< front-end reports a completed transparent replacement
};

enum class ArmResult : std::uint32_t {
  kOk = 0,
  kInsufficient = 1,   ///< not enough free accelerators (non-waiting mode)
  kUnknownHandle = 2,
  kNotOwner = 3,
  kRevoked = 4,  ///< the lease was already revoked by the liveness sweep
  kNotLeader = 5,  ///< replicated ARM: retry against the hinted leader
};

const char* to_string(ArmResult r);

// --- request model ---------------------------------------------------------

/// Priority classes. Any value up to kMaxPriority is legal on the wire
/// (strict ordering among all values); the named classes are what metrics
/// label and the runtime exposes.
inline constexpr std::uint32_t kPriorityBatch = 0;
inline constexpr std::uint32_t kPriorityNormal = 1;
inline constexpr std::uint32_t kPriorityHigh = 2;
inline constexpr std::uint32_t kPriorityUrgent = 3;
/// Wire bound: a decoded priority above this is a malformed frame.
inline constexpr std::uint32_t kMaxPriority = 7;
/// Number of labelled metric classes (priorities above clamp to the last).
inline constexpr std::uint32_t kPriorityClasses = 4;
const char* priority_class_name(std::uint32_t priority);

/// Version word of the kAcquire body extension (see encode_body).
inline constexpr std::uint32_t kAcquireExtVersion = 1;

/// One typed acquisition.
struct ResourceRequest {
  std::uint64_t job = 0;
  std::uint32_t count = 1;
  bool wait = false;           ///< queue when not immediately satisfiable
  std::string kind;            ///< device class constraint; empty = any
  std::uint64_t memory_bytes = 0;  ///< minimum device memory; 0 = any
  bool gang = true;            ///< all-or-nothing; false = partial grant ok
  std::uint32_t priority = kPriorityNormal;
  std::int64_t locality = -1;  ///< fabric node to place near; -1 = requester

  // Builder-style setters so call sites read as one fluent request.
  ResourceRequest& with_job(std::uint64_t j) { job = j; return *this; }
  ResourceRequest& with_count(std::uint32_t c) { count = c; return *this; }
  ResourceRequest& with_wait(bool w = true) { wait = w; return *this; }
  ResourceRequest& with_kind(std::string k) { kind = std::move(k); return *this; }
  ResourceRequest& with_memory(std::uint64_t b) { memory_bytes = b; return *this; }
  ResourceRequest& with_gang(bool g) { gang = g; return *this; }
  ResourceRequest& with_priority(std::uint32_t p) { priority = p; return *this; }
  ResourceRequest& with_locality(std::int64_t node) { locality = node; return *this; }

  /// kAcquire body codec. The layout is a prefix (job, count, wait, kind)
  /// followed by a versioned extension (version word, memory, priority,
  /// gang, locality). Every frame must carry the complete, version-1,
  /// in-range extension and nothing after it, or the whole decode throws
  /// proto::WireError — no partial application.
  void encode_body(proto::WireWriter& w) const;
  static ResourceRequest decode_body(proto::WireReader& r);
};

/// Liveness protocol knobs (paper Section III.A: failed accelerators leave
/// the pool without taking the compute node down). Daemon-side pacers beat
/// every `period`; the monitor sweeps on the same period and revokes a slot
/// once its last beat is older than `miss_threshold` periods.
struct HeartbeatParams {
  bool enabled = false;
  SimDuration period = 1_ms;
  std::uint32_t miss_threshold = 3;
};

// --- liveness wire messages (flat frames on kArmRequestTag) ----------------

/// One daemon liveness beat. `device_ok == false` short-circuits the miss
/// threshold: the daemon itself reports its device dead (ECC error).
struct Heartbeat {
  dmpi::Rank daemon_rank = -1;
  std::uint64_t seq = 0;
  bool device_ok = true;
  /// Simulated send time stamped by the pacer; the ARM turns it into the
  /// heartbeat-delivery-latency metric.
  SimTime sent_at = 0;

  util::Buffer encode() const;
  static Heartbeat decode(proto::WireReader& r);
};

/// Monitor tick. Carries the policy so the ARM itself stays stateless about
/// timing; `fresh` grants one round of amnesty after an idle phase (every
/// slot's beat clock restarts instead of tripping on stale timestamps).
struct SweepRequest {
  SimDuration period = 0;
  std::uint32_t miss_threshold = 0;
  bool fresh = false;

  /// The whole one-way frame (header + body), as the monitor sends it.
  util::Buffer encode() const;
  /// The body alone, as a replicated leader proposes it.
  void encode_body(proto::WireWriter& w) const;
  static SweepRequest decode(proto::WireReader& r);
};

/// Why a lease was revoked: the slot died, or a higher-priority request
/// preempted it (the slot itself is healthy and returns to the free pool).
inline constexpr std::uint32_t kRevokeFailure = 0;
inline constexpr std::uint32_t kRevokePreempted = 1;

/// Unsolicited push to a lease owner when its slot is revoked.
struct RevokeNotice {
  dmpi::Rank daemon_rank = -1;
  std::uint64_t lease_id = 0;
  std::uint64_t job = 0;
  SimTime revoked_at = 0;
  std::uint32_t reason = kRevokeFailure;

  util::Buffer encode() const;
  static RevokeNotice decode(proto::WireReader& r);
};

/// Front-end -> ARM report that a transparent replacement completed and what
/// the replay cost (surfaces in PoolStats::replacements and the trace).
struct ReplayReport {
  dmpi::Rank failed_rank = -1;
  dmpi::Rank replacement_rank = -1;
  std::uint64_t job = 0;
  std::uint32_t replayed_ops = 0;
  std::uint64_t replayed_bytes = 0;

  util::Buffer encode(int reply_tag) const;
  static ReplayReport decode(proto::WireReader& r);
};

/// One accelerator as the ARM sees it.
struct AcceleratorInfo {
  dmpi::Rank daemon_rank = -1;
  std::string device_name;
  std::string kind = "gpu";  ///< constraint key for heterogeneous pools
  std::uint64_t memory_bytes = 0;  ///< device memory (0 = unreported)
};

/// An exclusive lease on one accelerator, identified by the daemon's world
/// rank; the lease id guards against stale releases.
struct Lease {
  dmpi::Rank daemon_rank = -1;
  std::uint64_t lease_id = 0;
};

struct PoolStats {
  std::uint32_t total = 0;
  std::uint32_t free = 0;
  std::uint32_t assigned = 0;
  std::uint32_t broken = 0;
  std::uint64_t acquisitions = 0;
  std::uint32_t queued_requests = 0;
  std::uint64_t heartbeats = 0;     ///< liveness beats processed
  std::uint32_t revocations = 0;    ///< leases revoked by the sweep
  std::uint32_t replacements = 0;   ///< transparent replacements reported
  std::uint32_t preemptions = 0;    ///< leases revoked by priority preemption
};

/// How queued (waiting) acquisitions are served when accelerators free up.
/// Within a priority level; higher priorities always drain first.
enum class QueuePolicy {
  kFcfs,      ///< strict order: the head request blocks everything behind
  kBackfill,  ///< any satisfiable queued request may run (EASY-style)
};

/// One client request as the state machine consumes it: who asked, where
/// the answer goes, and the undecoded op body. This is also the payload of
/// one replicated-log entry — encode/decode round-trip it through the Raft
/// wire format.
struct Command {
  dmpi::Rank client = -1;  ///< origin rank; reply destination
  int reply_tag = 0;       ///< 0 = one-way (heartbeats, sweeps)
  std::uint32_t op = 0;    ///< ArmOp word
  util::Buffer body;       ///< op payload, without the rpc header

  util::Buffer encode() const;
  /// Throws proto::WireError on truncation.
  static Command decode(proto::WireReader& r);
};

/// One externally visible consequence of applying a command. The machine
/// never touches the network: the host (single ARM server, or the Raft
/// leader — followers discard effects) executes these in order.
struct Effect {
  enum class Kind : std::uint32_t {
    kReply,   ///< send `frame` to rank `to` on tag `tag`
    kNotice,  ///< unsolicited push (revocation) to rank `to` on tag `tag`
    kTrace,   ///< record `label` against the ARM trace component
  };
  Kind kind = Kind::kReply;
  dmpi::Rank to = -1;
  int tag = 0;
  util::Buffer frame;
  std::string label;
};

struct ApplyResult {
  std::vector<Effect> effects;
  bool shutdown = false;  ///< the command was kShutdown
};

/// Deterministic lease state machine. All methods are pure with respect to
/// simulated time: `now` comes in as an argument, never from a clock, so
/// replicas applying the same committed command stream at different engine
/// steps still converge on bit-identical state (fingerprint()).
class LeaseMachine {
 public:
  LeaseMachine(std::vector<AcceleratorInfo> pool, QueuePolicy policy,
               PlacementMap placement = {});

  /// Applies one command, returning the messages to send. Commands carrying
  /// a reply tag are idempotent: a re-applied (client, reply_tag) pair
  /// re-emits the cached reply instead of mutating state again — the
  /// at-least-once resend path of the replicated deployment. Throws
  /// proto::WireError on a malformed body (state untouched).
  ApplyResult apply(const Command& cmd, SimTime now);

  /// Header-decodes `cmd`'s body without applying it. Throws
  /// proto::WireError on garbage, so a Raft leader can refuse to append a
  /// command that could never apply cleanly ("no partial application" —
  /// a log entry either applies fully on every replica or is never logged).
  static void validate(const Command& cmd);

  /// True when (client, reply_tag) is already queued at the pool or has a
  /// cached reply — the duplicate-resend test the replicated leader runs
  /// before appending a fresh log entry.
  bool seen(dmpi::Rank client, int reply_tag) const;

  PoolStats stats() const;
  /// Fraction of [0, now] each accelerator spent assigned; index = pool slot.
  std::vector<double> utilization(SimTime now) const;
  std::int64_t assigned_count() const;

  /// Whole-state snapshot: Raft log compaction, InstallSnapshot transfer,
  /// and the chaos tier's cross-backend state comparison all use this one
  /// byte format.
  util::Buffer snapshot() const;
  /// Rebuilds a machine from snapshot() bytes in the current format.
  /// Throws proto::WireError on any other version and on truncated or
  /// out-of-range input. Metrics stay unbound.
  static LeaseMachine restore(proto::WireReader& r);
  /// FNV-1a over snapshot() — the value replicas compare in tests.
  std::uint64_t fingerprint() const;

  /// Registers the machine's "dacc_arm_*" series against `reg`
  /// (idempotent re-bind, plain pointer compare; nullptr unbinds). A Raft
  /// group keeps them bound on its leader only, so each event counts once.
  void bind_metrics(obs::Registry* reg);
  /// Samples the assigned-slot gauge (no-op when unbound). The host calls
  /// this after every served request.
  void sample_assigned();

 private:
  enum class State : std::uint32_t { kFree = 0, kAssigned = 1, kBroken = 2 };
  struct Slot {
    AcceleratorInfo info;
    State state = State::kFree;
    std::uint64_t job = 0;
    std::uint64_t lease_id = 0;
    dmpi::Rank owner = -1;  ///< client world rank holding the lease
    std::uint32_t priority = kPriorityNormal;  ///< of the granting request
    SimTime assigned_since = 0;
    SimDuration assigned_total = 0;
    SimTime last_beat = 0;
  };
  /// (kind, memory) equivalence class of slots — the free-index bucket key.
  /// A pool has as many classes as distinct device models, so walking all
  /// classes is O(1) for any real pool.
  using ClassKey = std::pair<std::string, std::uint64_t>;
  /// Free slots of one class, bucketed per placement zone, ascending ids.
  struct FreeClass {
    std::vector<std::set<std::uint32_t>> zone;
    std::uint32_t total = 0;
  };
  /// Assigned slots of one class, bucketed per owner priority, ascending
  /// ids — the preemption victim index. preempt_for counts and picks
  /// victims (lowest priority, lowest slot) from here instead of scanning
  /// the slot table. Buckets cover the full wire range (strict ordering
  /// among raw values, not just the labelled metric classes).
  struct AssignedClass {
    std::array<std::set<std::uint32_t>, kMaxPriority + 1> by_prio;
  };
  /// Queue order: higher priority first, then arrival (ticket) order.
  struct PendingKey {
    std::uint32_t priority = 0;
    std::uint64_t ticket = 0;
    bool operator<(const PendingKey& o) const {
      if (priority != o.priority) return priority > o.priority;
      return ticket < o.ticket;
    }
  };
  struct PendingAcquire {
    dmpi::Rank client = -1;
    int reply_tag = 0;
    ResourceRequest req;
    SimTime enqueued_at = 0;  ///< for the assignment-wait metric
  };
  struct CachedReply {
    int reply_tag = 0;
    util::Buffer frame;
  };
  /// Bounded per-client reply cache (newest last). Insertion order, so
  /// snapshots are byte-identical across replicas.
  struct ClientReplies {
    dmpi::Rank client = -1;
    util::Fifo<CachedReply> replies;
  };

  LeaseMachine() = default;  // for restore()

  void emit_reply(std::vector<Effect>& out, dmpi::Rank client, int reply_tag,
                  util::Buffer frame);
  void handle_acquire(std::vector<Effect>& out, dmpi::Rank client,
                      int reply_tag, const ResourceRequest& req, SimTime now);
  bool try_grant(std::vector<Effect>& out, dmpi::Rank client, int reply_tag,
                 const ResourceRequest& req, SimTime now);
  void drain_queue(std::vector<Effect>& out, SimTime now);
  /// Revokes enough strictly-lower-priority leases (healthy slots return to
  /// the free pool) to make `req` grantable, or does nothing. Arrival-
  /// triggered only; returns whether anything was preempted.
  bool preempt_for(std::vector<Effect>& out, const ResourceRequest& req,
                   SimTime now);
  void enqueue_pending(dmpi::Rank client, int reply_tag,
                       const ResourceRequest& req, SimTime now);
  static bool class_matches(const ClassKey& key, const ResourceRequest& req);
  /// Free slots a request could be granted right now / could ever be
  /// granted (non-broken). Both walk the class map, not the slots.
  std::uint32_t free_matching(const ResourceRequest& req) const;
  std::uint32_t alive_matching(const ResourceRequest& req) const;
  std::uint32_t requester_zone(const ResourceRequest& req,
                               dmpi::Rank client) const;
  Slot* find_slot(dmpi::Rank daemon_rank);
  std::int64_t slot_index(dmpi::Rank daemon_rank) const;
  void release_slot(std::uint32_t idx, SimTime now);
  /// Slot leaves the pool for good (fault path): frees the index entry,
  /// decrements the class's alive count, marks kBroken.
  void break_slot(std::uint32_t idx, SimTime now);
  void handle_heartbeat(std::vector<Effect>& out, const Heartbeat& hb,
                        SimTime now);
  void handle_sweep(std::vector<Effect>& out, const SweepRequest& sweep,
                    SimTime now);
  /// Marks the slot broken; an assigned slot additionally has its lease
  /// revoked: the owner is notified and the lease id remembered so a late
  /// release gets kRevoked instead of kUnknownHandle.
  void revoke_slot(std::vector<Effect>& out, std::uint32_t idx, SimTime now,
                   const char* cause);
  /// Preemption flavour of revoke_slot: same notice + revoked-lease
  /// bookkeeping, but the slot is healthy and returns to kFree.
  void preempt_slot(std::vector<Effect>& out, std::uint32_t idx, SimTime now);
  /// After the pool shrinks, queued acquires that can never be satisfied any
  /// more (count > surviving slots of that class) are failed immediately.
  void fail_unsatisfiable(std::vector<Effect>& out);
  bool was_revoked(std::uint64_t lease_id) const;
  const CachedReply* cached(dmpi::Rank client, int reply_tag) const;
  void observe_wait(std::uint32_t priority, std::uint64_t ns);
  static ClassKey key_of(const Slot& s);
  void index_insert_free(std::uint32_t idx);
  void index_erase_free(std::uint32_t idx);
  /// Mirror maintenance for the assigned index. Insert runs after the
  /// slot's owner priority is set; erase runs before it is reset.
  void index_insert_assigned(std::uint32_t idx);
  void index_erase_assigned(std::uint32_t idx);
  /// Mirror maintenance for the per-class pending index: a queued request
  /// is listed under every device class that could satisfy it, so backfill
  /// asks "lowest pending this free class can serve" instead of scanning
  /// the queue.
  void pending_index_insert(const PendingKey& key, const ResourceRequest& rq);
  void pending_index_erase(const PendingKey& key, const ResourceRequest& rq);
  /// Derives every index (rank map, free classes, alive counts, zone
  /// orders, pending-by-client) from the authoritative state. Called from
  /// the constructor and restore(); the snapshot carries no index data.
  void rebuild_indexes();

  QueuePolicy policy_ = QueuePolicy::kFcfs;
  std::vector<Slot> slots_;
  std::map<PendingKey, PendingAcquire> queue_;
  std::vector<std::uint64_t> revoked_leases_;
  std::vector<ClientReplies> reply_cache_;
  PlacementMap placement_;
  std::uint64_t next_lease_ = 1;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint32_t revocations_ = 0;
  std::uint32_t replacements_ = 0;
  std::uint32_t preemptions_ = 0;

  // Derived indexes (never snapshotted; rebuild_indexes() restores them).
  std::map<dmpi::Rank, std::uint32_t> slot_by_rank_;
  std::map<ClassKey, FreeClass> free_;
  std::map<ClassKey, AssignedClass> assigned_idx_;
  std::map<ClassKey, std::uint32_t> alive_;
  std::map<ClassKey, std::set<PendingKey>> pending_by_class_;
  std::map<std::pair<dmpi::Rank, int>, PendingKey> pending_by_client_;
  std::vector<std::vector<std::uint32_t>> zone_order_;
  std::uint32_t free_total_ = 0;
  std::uint32_t broken_total_ = 0;

  // Metrics (lazy-bound, no-op handles when no registry is attached).
  obs::Registry* metrics_bound_ = nullptr;
  obs::Gauge m_assigned_;
  obs::Histogram m_assign_wait_ns_;
  obs::Histogram m_wait_by_class_[kPriorityClasses];
  obs::Histogram m_heartbeat_latency_ns_;
  obs::Counter m_revocations_;
  obs::Counter m_preemptions_;
};

}  // namespace dacc::arm
