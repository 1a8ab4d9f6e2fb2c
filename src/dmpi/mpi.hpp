// dmpi — the message-passing substrate of the dynamic accelerator cluster.
//
// The paper's middleware communicates exclusively over MPI (Section IV): the
// front-end on a compute node exchanges request/response message pairs with
// the daemon on each accelerator, and the application itself uses MPI for
// compute-node-to-compute-node parallelism. dmpi implements the MPI subset
// those components need, on top of the simulated fabric:
//
//   * communicators with rank translation (the paper notes that the compute
//     node process and the accelerator daemon "have to reside in the same
//     MPI communicator", created with the help of the ARM),
//   * blocking and nonblocking point-to-point with tag/source matching
//     (including wildcards) and the eager/rendezvous protocol switch that
//     shapes the bandwidth-vs-size curve,
//   * a few collectives (barrier, bcast, allreduce) used by the workloads.
//
// Timing calibration lives in MpiParams; the defaults reproduce the paper's
// testbed: ~2 us small-message latency and ~2660 MiB/s PingPong peak
// (Section V.A).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/buffer.hpp"
#include "util/units.hpp"

namespace dacc::dmpi {

using Rank = int;

inline constexpr Rank kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Tags at or above this value are reserved for internal use (collectives).
inline constexpr int kMaxUserTag = 0x0fffffff;

struct MpiParams {
  /// Messages up to this size go eager (sent immediately, buffered at the
  /// receiver); larger ones use the rendezvous handshake.
  std::uint64_t eager_threshold = 12_KiB;

  /// CPU cost of posting a send (charged to the sender process).
  SimDuration send_overhead = 400;  // ns

  /// Matching/completion cost at the receiver.
  SimDuration recv_overhead = 400;  // ns

  /// Size of RTS/CTS control messages and per-message envelope.
  std::uint64_t ctrl_bytes = 64;

  /// Copy-out rate from the eager receive buffer to the user buffer.
  double eager_copy_mib_s = 5000.0;
};

struct Status {
  Rank source = kAnySource;  ///< Comm rank of the sender.
  int tag = kAnyTag;
  std::uint64_t bytes = 0;
};

class World;
class Comm;
class Mpi;

/// Handle to an in-flight nonblocking operation. Copyable; all copies refer
/// to the same operation.
class Request {
 public:
  Request() = default;

  bool valid() const { return state_ != nullptr || sent_; }
  bool done() const;
  const Status& status() const;  ///< Valid once done().

  /// Removes and returns the received payload (recv requests, once done).
  util::Buffer take_payload();

 private:
  friend class World;
  friend class Mpi;
  struct State;
  explicit Request(std::shared_ptr<State> state) : state_(std::move(state)) {}
  explicit Request(const Status& sent) : sent_status_(sent), sent_(true) {}
  std::shared_ptr<State> state_;
  // An eager send is complete once posted: it keeps its Status here and
  // has no State.
  Status sent_status_{};
  bool sent_ = false;
};

/// A communicator: an ordered group of world ranks plus a context id that
/// isolates its traffic from other communicators'.
class Comm {
 public:
  int size() const { return static_cast<int>(members_.size()); }
  int context_id() const { return context_id_; }

  /// World rank of comm rank `r`.
  Rank world_rank(Rank r) const;
  /// Comm rank of world rank `w`, or kAnySource if not a member.
  Rank comm_rank(Rank w) const;
  bool contains_world_rank(Rank w) const;

 private:
  friend class World;
  Comm(int context_id, std::vector<Rank> members);
  int context_id_ = 0;
  std::vector<Rank> members_;  // comm rank -> world rank
  // World rank lowest_ + i -> comm rank (kAnySource for a non-member), over
  // the members' span of world ranks.
  Rank lowest_ = 0;
  std::vector<Rank> ranks_;
};

/// The set of all communicating processes. Created once per simulated
/// cluster; each rank is pinned to a fabric node (several ranks may share a
/// node, e.g. the ARM co-located with a service node).
class World {
 public:
  World(sim::Engine& engine, net::Fabric& fabric,
        std::vector<net::NodeId> rank_nodes, MpiParams params = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(rank_nodes_.size()); }
  const Comm& world_comm() const { return *world_comm_; }
  const MpiParams& params() const { return params_; }
  sim::Engine& engine() { return engine_; }

  /// Creates a communicator over the given world ranks (in that order).
  const Comm& create_comm(std::vector<Rank> world_ranks);

  net::NodeId node_of(Rank world_rank) const;

 private:
  friend class Mpi;
  struct Endpoint;

  // Internal message plumbing (world-rank addressed). Defined in mpi.cpp.
  Request post_send(sim::Context& ctx, Rank src_w, Rank dst_w, int context_id,
                    int tag, util::Buffer data);
  std::shared_ptr<Request::State> post_recv(Rank me_w, int context_id,
                                            Rank src_w, int tag);
  bool probe_unexpected(Rank me_w, int context_id, Rank src_w, int tag,
                        Status* status) const;
  void arrive_eager(Rank dst_w, int context_id, Rank src_w, int tag,
                    util::Buffer payload);
  void arrive_rts(Rank dst_w, int context_id, Rank src_w, int tag,
                  std::uint64_t send_id, std::uint64_t bytes);
  void arrive_cts(Rank src_w, std::uint64_t send_id,
                  std::shared_ptr<Request::State> recv_state);
  void send_cts(Rank dst_w, Rank src_w, std::uint64_t send_id,
                std::shared_ptr<Request::State> recv_state);
  void complete_recv(std::shared_ptr<Request::State> state, Rank src_w,
                     int tag, util::Buffer payload, SimDuration extra_delay);
  void cancel_request(Rank me_w, const std::shared_ptr<Request::State>& state);

  /// Per-rank send accounting (msgs/bytes, eager vs rendezvous), on the
  /// sender. No-op when the engine had no registry at construction.
  void count_send(Rank src_w, std::uint64_t bytes, bool eager);
  /// Mints a NIC span id on `rank`'s endpoint counter (shard-owned, so the
  /// sequence is deterministic under every backend).
  std::uint64_t next_nic_span(Rank rank);
  /// Records the receive-side NIC span of a traced message at the current
  /// (arrival) time on the destination's node.
  void record_nic_rx(Rank dst_w, std::uint64_t trace_id,
                     std::uint64_t parent_span);

  sim::Engine& engine_;
  net::Fabric& fabric_;
  MpiParams params_;
  std::vector<net::NodeId> rank_nodes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Comm>> comms_;
  const Comm* world_comm_ = nullptr;
  int next_context_id_ = 0;

  struct RankSendMetrics {
    obs::Counter msgs;
    obs::Counter bytes;
    obs::Counter eager;
    obs::Counter rendezvous;
  };
  std::vector<RankSendMetrics> send_metrics_;  ///< per rank; empty = unmetered
};

/// Per-process MPI view: binds (world, my rank, my sim context). All calls
/// must be made from the owning process.
class Mpi {
 public:
  Mpi(World& world, sim::Context& ctx, Rank world_rank);

  Rank world_rank() const { return rank_; }
  World& world() { return world_; }
  sim::Context& context() { return ctx_; }

  /// Rank of this process within `comm` (kAnySource if not a member).
  Rank rank(const Comm& comm) const { return comm.comm_rank(rank_); }

  // --- point to point (ranks are comm ranks) -----------------------------
  void send(const Comm& comm, Rank dst, int tag, util::Buffer data);
  util::Buffer recv(const Comm& comm, Rank src, int tag,
                    Status* status = nullptr);
  Request isend(const Comm& comm, Rank dst, int tag, util::Buffer data);
  Request irecv(const Comm& comm, Rank src, int tag);
  /// Nonblocking completion check (MPI_Test).
  bool test(const Request& request) const { return request.done(); }
  /// Nonblocking probe of the unexpected queue (MPI_Iprobe): reports the
  /// oldest matching pending message without receiving it.
  bool iprobe(const Comm& comm, Rank src, int tag, Status* status = nullptr);
  void wait(Request& request);
  void wait_all(std::span<Request> requests);
  /// Waits for any one request to finish; returns its index.
  std::size_t wait_any(std::span<Request> requests);
  /// Waits until `request` completes or the simulated clock reaches
  /// `deadline`; returns whether it completed. On timeout the request is
  /// left pending — cancel() it before abandoning the handle, or the
  /// message can still match later. `kSimTimeNever` waits forever.
  bool wait_until(Request& request, SimTime deadline);
  bool wait_for(Request& request, SimDuration timeout) {
    return wait_until(request, ctx_.now() + timeout);
  }
  /// Cancels a pending nonblocking operation (MPI_Cancel): a not-yet-matched
  /// receive is removed from the posted queue; an unanswered rendezvous send
  /// is withdrawn. Completed or already-matched requests are left alone (the
  /// data is in flight and will land; the caller simply ignores it).
  void cancel(Request& request);

  /// Monotonic per-rank sequence behind the rank's one reply-tag space
  /// (rpc::Channel::next_reply_tag). Shared by every Mpi view of this
  /// rank — several processes may borrow one endpoint (job launchers
  /// queueing concurrent acquires, the proxies of several jobs on one CN)
  /// and must never mint the same tag. All of them execute on the rank's
  /// home shard, so the counter needs no lock and its values are
  /// deterministic under every backend.
  std::uint64_t fresh_tag_seed();

  /// Combined send + receive (halo-exchange staple): posts the send,
  /// receives, then waits for the send. Opposing sendrecvs never deadlock,
  /// because an isend never waits for its receiver.
  util::Buffer sendrecv(const Comm& comm, Rank dst, int send_tag,
                        util::Buffer data, Rank src, int recv_tag,
                        Status* status = nullptr);

  // --- collectives (every member must call) ------------------------------
  void barrier(const Comm& comm);
  /// Root's `data` is distributed; non-roots receive and return it.
  util::Buffer bcast(const Comm& comm, Rank root, util::Buffer data);
  double allreduce_sum(const Comm& comm, double value);
  std::uint64_t allreduce_max(const Comm& comm, std::uint64_t value);
  /// Root receives every member's contribution, ordered by comm rank
  /// (root's own included); non-roots get an empty vector.
  std::vector<util::Buffer> gather(const Comm& comm, Rank root,
                                   util::Buffer data);
  /// Root distributes chunks[i] to comm rank i; returns this rank's chunk.
  util::Buffer scatter(const Comm& comm, Rank root,
                       std::vector<util::Buffer> chunks);
  /// Every member sends chunks[i] to comm rank i and returns what it
  /// received, ordered by source rank.
  std::vector<util::Buffer> alltoall(const Comm& comm,
                                     std::vector<util::Buffer> chunks);

 private:
  Rank require_member(const Comm& comm) const;

  World& world_;
  sim::Context& ctx_;
  Rank rank_;
};

}  // namespace dacc::dmpi
