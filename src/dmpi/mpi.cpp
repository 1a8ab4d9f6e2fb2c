#include "dmpi/mpi.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "sim/trace.hpp"

namespace dacc::dmpi {

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

struct Request::State {
  explicit State(sim::Engine& eng) : engine(&eng) {}

  sim::Engine* engine;
  bool done = false;
  bool reserved = false;  // recv matched to a rendezvous sender, data inbound
  Status status{};        // source stored as WORLD rank until completion
  int context_id = 0;
  Rank match_src = kAnySource;  // world rank or wildcard (recv side)
  int match_tag = kAnyTag;
  util::Buffer payload;
  std::vector<sim::Process*> waiters;

  void complete(Status st, util::Buffer data) {
    done = true;
    status = st;
    payload = std::move(data);
    for (sim::Process* w : waiters) engine->wake(*w);
    waiters.clear();
  }
};

bool Request::done() const {
  return state_ != nullptr && state_->done;
}

const Status& Request::status() const {
  if (!done()) throw std::logic_error("Request::status before completion");
  return state_->status;
}

util::Buffer Request::take_payload() {
  if (!done()) throw std::logic_error("Request::take_payload before done");
  return std::move(state_->payload);
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

Comm::Comm(int context_id, std::vector<Rank> members)
    : context_id_(context_id), members_(std::move(members)) {}

Rank Comm::world_rank(Rank r) const {
  if (r < 0 || r >= size()) throw std::out_of_range("Comm: bad comm rank");
  return members_[static_cast<std::size_t>(r)];
}

Rank Comm::comm_rank(Rank w) const {
  const auto it = std::find(members_.begin(), members_.end(), w);
  if (it == members_.end()) return kAnySource;
  return static_cast<Rank>(it - members_.begin());
}

bool Comm::contains_world_rank(Rank w) const {
  return comm_rank(w) != kAnySource;
}

// ---------------------------------------------------------------------------
// World internals
// ---------------------------------------------------------------------------

namespace {

bool matches(Rank want_src, int want_tag, Rank src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

}  // namespace

struct World::Endpoint {
  struct Posted {
    std::shared_ptr<Request::State> state;
  };
  struct Unexpected {
    int context_id;
    Rank src_w;
    int tag;
    std::uint64_t bytes;
    bool rendezvous;
    std::uint64_t send_id;  // rendezvous only
    util::Buffer payload;   // eager only
  };
  std::deque<Posted> posted;
  std::deque<Unexpected> unexpected;
  // Rendezvous bookkeeping lives on the *sender's* endpoint: post_send,
  // arrive_cts (the CTS is delivered to the sender's node) and
  // cancel_request all run in that rank's node context, so under the
  // parallel backend no two shards ever touch the same send list.
  std::uint64_t next_send_id = 1;
  std::vector<std::unique_ptr<PendingSend>> pending_sends;
  // User-level tag seed (Mpi::fresh_tag_seed); same shard-ownership
  // argument as above.
  std::uint64_t next_tag_seed = 0;
  // NIC trace-span ids minted by this rank (tx at post time, rx at arrival;
  // both run in the rank's node context, so the sequence is deterministic).
  std::uint64_t next_span_seed = 0;
};

struct World::PendingSend {
  std::uint64_t id;
  Rank src_w;
  Rank dst_w;
  util::Buffer data;
  std::shared_ptr<Request::State> send_state;
  // Causal trace of the send, carried across the rendezvous handshake so
  // the data delivery can record its receive-side NIC span.
  std::uint64_t trace_id = 0;
  std::uint64_t nic_span = 0;
};

World::World(sim::Engine& engine, net::Fabric& fabric,
             std::vector<net::NodeId> rank_nodes, MpiParams params)
    : engine_(engine),
      fabric_(fabric),
      params_(params),
      rank_nodes_(std::move(rank_nodes)) {
  if (rank_nodes_.empty()) {
    throw std::invalid_argument("World: need at least one rank");
  }
  for (net::NodeId n : rank_nodes_) {
    if (n < 0 || n >= fabric_.num_nodes()) {
      throw std::out_of_range("World: rank pinned to invalid node");
    }
  }
  endpoints_.reserve(rank_nodes_.size());
  for (std::size_t i = 0; i < rank_nodes_.size(); ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>());
  }
  std::vector<Rank> all(rank_nodes_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<Rank>(i);
  world_comm_ = &create_comm(std::move(all));
}

World::~World() = default;

const Comm& World::create_comm(std::vector<Rank> world_ranks) {
  for (Rank w : world_ranks) {
    if (w < 0 || w >= size()) {
      throw std::out_of_range("create_comm: invalid world rank");
    }
  }
  comms_.push_back(std::unique_ptr<Comm>(
      new Comm(next_context_id_++, std::move(world_ranks))));
  return *comms_.back();
}

net::NodeId World::node_of(Rank world_rank) const {
  if (world_rank < 0 || world_rank >= size()) {
    throw std::out_of_range("node_of: invalid world rank");
  }
  return rank_nodes_[static_cast<std::size_t>(world_rank)];
}

void World::bind_metrics(obs::Registry* reg) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  if (metrics_bound_.load(std::memory_order_relaxed) == reg) return;
  send_metrics_.clear();
  send_metrics_.resize(rank_nodes_.size());
  for (std::size_t r = 0; r < rank_nodes_.size(); ++r) {
    const std::string label = "{rank=\"" + std::to_string(r) + "\"}";
    send_metrics_[r].msgs = reg->counter("dacc_dmpi_msgs_total" + label);
    send_metrics_[r].bytes = reg->counter("dacc_dmpi_bytes_total" + label);
    send_metrics_[r].eager = reg->counter("dacc_dmpi_eager_total" + label);
    send_metrics_[r].rendezvous =
        reg->counter("dacc_dmpi_rendezvous_total" + label);
  }
  metrics_bound_.store(reg, std::memory_order_release);
}

void World::count_send(Rank src_w, std::uint64_t bytes, bool eager) {
  obs::Registry* const reg = engine_.metrics();
  if (reg == nullptr) return;
  if (metrics_bound_.load(std::memory_order_acquire) != reg) {
    bind_metrics(reg);
  }
  RankSendMetrics& m = send_metrics_[static_cast<std::size_t>(src_w)];
  m.msgs.add();
  m.bytes.add(bytes);
  (eager ? m.eager : m.rendezvous).add();
}

std::uint64_t World::next_nic_span(Rank rank) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(rank)];
  return (std::uint64_t{3} << 56) | (static_cast<std::uint64_t>(rank) << 40) |
         ++ep.next_span_seed;
}

void World::record_nic_rx(Rank dst_w, std::uint64_t trace_id,
                          std::uint64_t parent_span) {
  sim::Tracer* const tracer = engine_.tracer();
  if (tracer == nullptr) return;
  const SimTime now = engine_.now();
  tracer->record("nic-r" + std::to_string(dst_w), "rx", now,
                 now + params_.recv_overhead, trace_id, next_nic_span(dst_w),
                 parent_span);
}

std::shared_ptr<Request::State> World::post_send(sim::Context& ctx,
                                                 Rank src_w, Rank dst_w,
                                                 int context_id, int tag,
                                                 util::Buffer data) {
  // Posting a send costs CPU time on the sender.
  const SimTime post_begin = ctx.now();
  ctx.wait_for(params_.send_overhead);

  auto state = std::make_shared<Request::State>(engine_);
  const std::uint64_t bytes = data.size();
  const net::NodeId src_node = node_of(src_w);
  const net::NodeId dst_node = node_of(dst_w);
  const bool eager = bytes <= params_.eager_threshold;
  count_send(src_w, bytes, eager);

  // Inside an active causal trace, the send's NIC hop becomes a child span
  // of the caller (tx here on the sender's track, rx at arrival on the
  // receiver's); untraced traffic records nothing.
  sim::Tracer* const tracer = engine_.tracer();
  const sim::TraceCtx tc = engine_.current_trace();
  std::uint64_t nic_span = 0;
  if (tracer != nullptr && tc.active()) {
    nic_span = next_nic_span(src_w);
    tracer->record("nic-r" + std::to_string(src_w), eager ? "tx" : "tx rdv",
                   post_begin, engine_.now(), tc.trace_id, nic_span,
                   tc.span_id);
  }

  if (eager) {
    // Eager: inject immediately; the send is buffered and completes locally.
    // The payload moves through the event — no shared_ptr wrapper, no copy.
    fabric_.deliver(src_node, dst_node, bytes + params_.ctrl_bytes,
                    engine_.now(),
                    [this, dst_w, context_id, src_w, tag,
                     trace_id = tc.trace_id, nic_span,
                     payload = std::move(data)]() mutable {
                      if (nic_span != 0) {
                        record_nic_rx(dst_w, trace_id, nic_span);
                      }
                      arrive_eager(dst_w, context_id, src_w, tag,
                                   std::move(payload));
                    });
    state->complete(Status{src_w, tag, bytes}, util::Buffer{});
    return state;
  }

  // Rendezvous: RTS -> (match) -> CTS -> data.
  Endpoint& sender_ep = *endpoints_[static_cast<std::size_t>(src_w)];
  auto pending = std::make_unique<PendingSend>();
  pending->id = sender_ep.next_send_id++;
  pending->src_w = src_w;
  pending->dst_w = dst_w;
  pending->data = std::move(data);
  pending->send_state = state;
  pending->trace_id = tc.trace_id;
  pending->nic_span = nic_span;
  const std::uint64_t send_id = pending->id;
  sender_ep.pending_sends.push_back(std::move(pending));

  fabric_.deliver(src_node, dst_node, params_.ctrl_bytes, engine_.now(),
                  [this, dst_w, context_id, src_w, tag, send_id, bytes] {
                    arrive_rts(dst_w, context_id, src_w, tag, send_id, bytes);
                  });
  return state;
}

std::shared_ptr<Request::State> World::post_recv(Rank me_w, int context_id,
                                                 Rank src_w, int tag) {
  auto state = std::make_shared<Request::State>(engine_);
  state->context_id = context_id;
  state->match_src = src_w;
  state->match_tag = tag;

  Endpoint& ep = *endpoints_[static_cast<std::size_t>(me_w)];
  // Oldest matching unexpected message wins (MPI ordering).
  for (auto it = ep.unexpected.begin(); it != ep.unexpected.end(); ++it) {
    if (it->context_id != context_id ||
        !matches(src_w, tag, it->src_w, it->tag)) {
      continue;
    }
    if (it->rendezvous) {
      state->reserved = true;
      send_cts(/*dst_w=*/it->src_w, /*src_w=*/me_w, it->send_id, it->tag,
               state);
    } else {
      const SimDuration copy =
          transfer_time(it->bytes, params_.eager_copy_mib_s);
      complete_recv(state, it->src_w, context_id, it->tag,
                    std::move(it->payload), copy + params_.recv_overhead);
    }
    ep.unexpected.erase(it);
    return state;
  }
  ep.posted.push_back(Endpoint::Posted{state});
  return state;
}

bool World::probe_unexpected(Rank me_w, int context_id, Rank src_w, int tag,
                             Status* status) const {
  const Endpoint& ep = *endpoints_[static_cast<std::size_t>(me_w)];
  for (const auto& u : ep.unexpected) {
    if (u.context_id != context_id || !matches(src_w, tag, u.src_w, u.tag)) {
      continue;
    }
    if (status != nullptr) {
      status->source = u.src_w;  // world rank; Mpi::iprobe translates
      status->tag = u.tag;
      status->bytes = u.bytes;
    }
    return true;
  }
  return false;
}

void World::arrive_eager(Rank dst_w, int context_id, Rank src_w, int tag,
                         util::Buffer payload) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(dst_w)];
  for (auto it = ep.posted.begin(); it != ep.posted.end(); ++it) {
    Request::State& st = *it->state;
    if (st.reserved || st.context_id != context_id ||
        !matches(st.match_src, st.match_tag, src_w, tag)) {
      continue;
    }
    auto state = it->state;
    ep.posted.erase(it);
    const SimDuration copy =
        transfer_time(payload.size(), params_.eager_copy_mib_s);
    complete_recv(state, src_w, context_id, tag, std::move(payload),
                  copy + params_.recv_overhead);
    return;
  }
  ep.unexpected.push_back(Endpoint::Unexpected{
      context_id, src_w, tag, payload.size(), /*rendezvous=*/false,
      /*send_id=*/0, std::move(payload)});
}

void World::arrive_rts(Rank dst_w, int context_id, Rank src_w, int tag,
                       std::uint64_t send_id, std::uint64_t bytes) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(dst_w)];
  for (auto it = ep.posted.begin(); it != ep.posted.end(); ++it) {
    Request::State& st = *it->state;
    if (st.reserved || st.context_id != context_id ||
        !matches(st.match_src, st.match_tag, src_w, tag)) {
      continue;
    }
    auto state = it->state;
    state->reserved = true;
    ep.posted.erase(it);
    send_cts(/*dst_w=*/src_w, /*src_w=*/dst_w, send_id, tag, state);
    return;
  }
  ep.unexpected.push_back(Endpoint::Unexpected{context_id, src_w, tag, bytes,
                                               /*rendezvous=*/true, send_id,
                                               util::Buffer{}});
}

void World::send_cts(Rank dst_w, Rank src_w, std::uint64_t send_id, int tag,
                     std::shared_ptr<Request::State> recv_state) {
  fabric_.deliver(node_of(src_w), node_of(dst_w), params_.ctrl_bytes,
                  engine_.now(),
                  [this, dst_w, send_id, tag, recv_state]() mutable {
                    arrive_cts(dst_w, send_id, tag, std::move(recv_state));
                  });
}

void World::arrive_cts(Rank src_w, std::uint64_t send_id, int tag,
                       std::shared_ptr<Request::State> recv_state) {
  Endpoint& sender_ep = *endpoints_[static_cast<std::size_t>(src_w)];
  auto& sends = sender_ep.pending_sends;
  const auto it = std::find_if(
      sends.begin(), sends.end(),
      [&](const auto& p) { return p->id == send_id && p->src_w == src_w; });
  if (it == sends.end()) {
    // The sender cancelled (timeout/retry path) between RTS and CTS; the
    // receiver's reserved recv stays pending — its owner times out too.
    return;
  }
  auto pending = std::move(*it);
  sends.erase(it);

  // The callable carries the whole PendingSend behind one pointer, so it
  // fits the event node's inline storage (no heap fallback per message).
  const std::uint64_t bytes = pending->data.size();
  const Rank dst_w = pending->dst_w;
  fabric_.deliver(
      node_of(src_w), node_of(dst_w), bytes + params_.ctrl_bytes,
      engine_.now(),
      [this, recv_state = std::move(recv_state), pending = std::move(pending),
       tag]() mutable {
        const Rank sender = pending->src_w;
        const std::uint64_t size = pending->data.size();
        if (pending->nic_span != 0) {
          record_nic_rx(pending->dst_w, pending->trace_id, pending->nic_span);
        }
        // This runs at the receiver. The send request belongs to the sender,
        // so its completion (and the wake of anyone waiting on it) is posted
        // back to the sender's node — under the parallel backend the state is
        // only ever touched from its owner's shard.
        engine_.post(node_of(sender), engine_.now(),
                     [send_state = std::move(pending->send_state), sender, tag,
                      size] {
                       send_state->complete(Status{sender, tag, size},
                                            util::Buffer{});
                     });
        complete_recv(recv_state, sender, recv_state->context_id, tag,
                      std::move(pending->data), params_.recv_overhead);
      });
}

void World::cancel_request(Rank me_w,
                           const std::shared_ptr<Request::State>& state) {
  if (state->done) return;
  // Posted-but-unmatched receive?
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(me_w)];
  for (auto it = ep.posted.begin(); it != ep.posted.end(); ++it) {
    if (it->state == state) {
      ep.posted.erase(it);
      return;
    }
  }
  // Unanswered rendezvous send? Withdraw it; a CTS arriving later finds no
  // pending send and is ignored.
  auto& sends = ep.pending_sends;
  for (auto it = sends.begin(); it != sends.end(); ++it) {
    if ((*it)->send_state == state) {
      sends.erase(it);
      return;
    }
  }
  // Reserved recv (data already inbound) or eager send: nothing to undo.
}

void World::complete_recv(std::shared_ptr<Request::State> state, Rank src_w,
                          int context_id, int tag, util::Buffer payload,
                          SimDuration extra_delay) {
  (void)context_id;
  const std::uint64_t bytes = payload.size();
  engine_.schedule_in(extra_delay,
                      [state = std::move(state), src_w, tag, bytes,
                       payload = std::move(payload)]() mutable {
    state->complete(Status{src_w, tag, bytes}, std::move(payload));
  });
}

// ---------------------------------------------------------------------------
// Mpi — per-process view
// ---------------------------------------------------------------------------

Mpi::Mpi(World& world, sim::Context& ctx, Rank world_rank)
    : world_(world), ctx_(ctx), rank_(world_rank) {
  if (world_rank < 0 || world_rank >= world.size()) {
    throw std::out_of_range("Mpi: invalid world rank");
  }
}

std::uint64_t Mpi::fresh_tag_seed() {
  return world_.endpoints_[static_cast<std::size_t>(rank_)]->next_tag_seed++;
}

Rank Mpi::require_member(const Comm& comm) const {
  const Rank r = comm.comm_rank(rank_);
  if (r == kAnySource) {
    throw std::logic_error("Mpi: calling rank is not a member of this comm");
  }
  return r;
}

Request Mpi::isend(const Comm& comm, Rank dst, int tag, util::Buffer data) {
  require_member(comm);
  if (tag < 0 || tag > kMaxUserTag * 2) {
    throw std::invalid_argument("isend: invalid tag");
  }
  const Rank dst_w = comm.world_rank(dst);
  return Request(world_.post_send(ctx_, rank_, dst_w, comm.context_id(), tag,
                                  std::move(data)));
}

Request Mpi::irecv(const Comm& comm, Rank src, int tag) {
  const Rank me_w = rank_;
  require_member(comm);
  const Rank src_w = src == kAnySource ? kAnySource : comm.world_rank(src);
  return Request(world_.post_recv(me_w, comm.context_id(), src_w, tag));
}

bool Mpi::iprobe(const Comm& comm, Rank src, int tag, Status* status) {
  require_member(comm);
  const Rank src_w = src == kAnySource ? kAnySource : comm.world_rank(src);
  Status raw;
  if (!world_.probe_unexpected(rank_, comm.context_id(), src_w, tag, &raw)) {
    return false;
  }
  if (status != nullptr) {
    *status = raw;
    status->source = comm.comm_rank(raw.source);
  }
  return true;
}

void Mpi::wait(Request& request) {
  if (!request.valid()) throw std::logic_error("wait on invalid request");
  sim::Process* self = &ctx_.self();
  while (!request.state_->done) {
    auto& w = request.state_->waiters;
    if (std::find(w.begin(), w.end(), self) == w.end()) w.push_back(self);
    ctx_.suspend();
  }
  // Drop any leftover registration (spurious wake before completion).
  auto& w = request.state_->waiters;
  w.erase(std::remove(w.begin(), w.end(), self), w.end());
}

void Mpi::wait_all(std::span<Request> requests) {
  for (Request& r : requests) wait(r);
}

std::size_t Mpi::wait_any(std::span<Request> requests) {
  if (requests.empty()) throw std::logic_error("wait_any on empty set");
  sim::Process* self = &ctx_.self();
  while (true) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].done()) {
        // Deregister from the others before returning.
        for (Request& r : requests) {
          if (!r.valid() || r.state_->done) continue;
          auto& w = r.state_->waiters;
          w.erase(std::remove(w.begin(), w.end(), self), w.end());
        }
        return i;
      }
    }
    for (Request& r : requests) {
      auto& w = r.state_->waiters;
      if (std::find(w.begin(), w.end(), self) == w.end()) w.push_back(self);
    }
    ctx_.suspend();
  }
}

bool Mpi::wait_until(Request& request, SimTime deadline) {
  if (!request.valid()) {
    throw std::logic_error("wait_until on invalid request");
  }
  if (deadline == kSimTimeNever) {
    wait(request);
    return true;
  }
  sim::Process* self = &ctx_.self();
  bool timer_armed = false;
  while (!request.state_->done && ctx_.now() < deadline) {
    if (!timer_armed) {
      // One wake event at the deadline; if the request completes first the
      // event fires as a harmless spurious wake (banked permit).
      timer_armed = true;
      sim::Engine& eng = world_.engine();
      eng.schedule_at(deadline, [&eng, self] { eng.wake(*self); });
    }
    auto& w = request.state_->waiters;
    if (std::find(w.begin(), w.end(), self) == w.end()) w.push_back(self);
    ctx_.suspend();
  }
  auto& w = request.state_->waiters;
  w.erase(std::remove(w.begin(), w.end(), self), w.end());
  return request.state_->done;
}

void Mpi::cancel(Request& request) {
  if (!request.valid()) throw std::logic_error("cancel on invalid request");
  world_.cancel_request(rank_, request.state_);
}

void Mpi::send(const Comm& comm, Rank dst, int tag, util::Buffer data) {
  Request r = isend(comm, dst, tag, std::move(data));
  wait(r);
}

util::Buffer Mpi::recv(const Comm& comm, Rank src, int tag, Status* status) {
  Request r = irecv(comm, src, tag);
  wait(r);
  if (status != nullptr) {
    *status = r.status();
    // Translate the world source rank to a comm rank for the caller.
    status->source = comm.comm_rank(r.status().source);
  }
  return r.take_payload();
}

util::Buffer Mpi::sendrecv(const Comm& comm, Rank dst, int send_tag,
                           util::Buffer data, Rank src, int recv_tag,
                           Status* status) {
  Request r = irecv(comm, src, recv_tag);
  Request s = isend(comm, dst, send_tag, std::move(data));
  wait(r);
  wait(s);
  if (status != nullptr) {
    *status = r.status();
    status->source = comm.comm_rank(r.status().source);
  }
  return r.take_payload();
}

// --- collectives -----------------------------------------------------------

namespace {
constexpr int kBarrierTag = kMaxUserTag + 1;
constexpr int kBcastTag = kMaxUserTag + 2;
constexpr int kReduceTag = kMaxUserTag + 3;
constexpr int kGatherTag = kMaxUserTag + 4;
constexpr int kScatterTag = kMaxUserTag + 5;
constexpr int kAlltoallTag = kMaxUserTag + 6;
}  // namespace

void Mpi::barrier(const Comm& comm) {
  // Dissemination barrier: log2(n) rounds of sendrecv with hop 2^k.
  const Rank me = require_member(comm);
  const int n = comm.size();
  for (int hop = 1; hop < n; hop <<= 1) {
    const Rank to = (me + hop) % n;
    const Rank from = (me - hop % n + n) % n;
    Request s = isend(comm, to, kBarrierTag, util::Buffer{});
    Request r = irecv(comm, from, kBarrierTag);
    wait(s);
    wait(r);
  }
}

util::Buffer Mpi::bcast(const Comm& comm, Rank root, util::Buffer data) {
  // Binomial tree rooted at `root` (ranks relative to root).
  const Rank me = require_member(comm);
  const int n = comm.size();
  const int rel = (me - root + n) % n;
  for (int hop = 1; hop < n; hop <<= 1) {
    if (rel < hop) {
      const int child = rel + hop;
      if (child < n) {
        // Zero-copy alias: each child gets a view of the same store.
        send(comm, (child + root) % n, kBcastTag, data.view());
      }
    } else if (rel < 2 * hop) {
      // This is the round in which we receive from our parent; afterwards we
      // forward to our own children in later rounds.
      data = recv(comm, (rel - hop + root) % n, kBcastTag);
    }
  }
  return data;
}

namespace {

// Binomial-tree reduce-to-root-0-then-bcast pattern shared by the typed
// allreduce helpers.
template <typename T, typename Op>
T allreduce_impl(Mpi& mpi, const Comm& comm, T value, Op op, int tag) {
  const Rank me = mpi.rank(comm);
  const int n = comm.size();
  // Reduce to rank 0: at round k, ranks with bit k set send to rank - 2^k.
  for (int hop = 1; hop < n; hop <<= 1) {
    if ((me & hop) != 0) {
      std::vector<T> one{value};
      mpi.send(comm, me - hop, tag, util::Buffer::of<T>(std::span(one)));
      break;
    }
    if (me + hop < n) {
      util::Buffer b = mpi.recv(comm, me + hop, tag);
      value = op(value, b.template as<T>()[0]);
    }
  }
  std::vector<T> one{value};
  util::Buffer out =
      mpi.bcast(comm, 0, util::Buffer::of<T>(std::span(one)));
  return out.template as<T>()[0];
}

}  // namespace

double Mpi::allreduce_sum(const Comm& comm, double value) {
  return allreduce_impl<double>(
      *this, comm, value, [](double a, double b) { return a + b; },
      kReduceTag);
}

std::uint64_t Mpi::allreduce_max(const Comm& comm, std::uint64_t value) {
  return allreduce_impl<std::uint64_t>(
      *this, comm, value,
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; },
      kReduceTag);
}

std::vector<util::Buffer> Mpi::gather(const Comm& comm, Rank root,
                                      util::Buffer data) {
  const Rank me = require_member(comm);
  if (me != root) {
    send(comm, root, kGatherTag, std::move(data));
    return {};
  }
  std::vector<util::Buffer> out(static_cast<std::size_t>(comm.size()));
  std::vector<Request> recvs;
  for (Rank r = 0; r < comm.size(); ++r) {
    if (r == root) continue;
    recvs.push_back(irecv(comm, r, kGatherTag));
  }
  out[static_cast<std::size_t>(root)] = std::move(data);
  std::size_t next = 0;
  for (Rank r = 0; r < comm.size(); ++r) {
    if (r == root) continue;
    wait(recvs[next]);
    out[static_cast<std::size_t>(r)] = recvs[next].take_payload();
    ++next;
  }
  return out;
}

util::Buffer Mpi::scatter(const Comm& comm, Rank root,
                          std::vector<util::Buffer> chunks) {
  const Rank me = require_member(comm);
  if (me == root) {
    if (chunks.size() != static_cast<std::size_t>(comm.size())) {
      throw std::invalid_argument("scatter: need one chunk per rank");
    }
    std::vector<Request> sends;
    for (Rank r = 0; r < comm.size(); ++r) {
      if (r == root) continue;
      sends.push_back(isend(comm, r, kScatterTag,
                            std::move(chunks[static_cast<std::size_t>(r)])));
    }
    wait_all(sends);
    return std::move(chunks[static_cast<std::size_t>(root)]);
  }
  return recv(comm, root, kScatterTag);
}

std::vector<util::Buffer> Mpi::alltoall(const Comm& comm,
                                        std::vector<util::Buffer> chunks) {
  const Rank me = require_member(comm);
  const int n = comm.size();
  if (chunks.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("alltoall: need one chunk per rank");
  }
  std::vector<util::Buffer> out(static_cast<std::size_t>(n));
  out[static_cast<std::size_t>(me)] =
      std::move(chunks[static_cast<std::size_t>(me)]);
  std::vector<Request> recvs;
  std::vector<Request> sends;
  for (Rank r = 0; r < n; ++r) {
    if (r == me) continue;
    recvs.push_back(irecv(comm, r, kAlltoallTag));
  }
  for (Rank r = 0; r < n; ++r) {
    if (r == me) continue;
    sends.push_back(isend(comm, r, kAlltoallTag,
                          std::move(chunks[static_cast<std::size_t>(r)])));
  }
  std::size_t next = 0;
  for (Rank r = 0; r < n; ++r) {
    if (r == me) continue;
    wait(recvs[next]);
    out[static_cast<std::size_t>(r)] = recvs[next].take_payload();
    ++next;
  }
  wait_all(sends);
  return out;
}

}  // namespace dacc::dmpi
