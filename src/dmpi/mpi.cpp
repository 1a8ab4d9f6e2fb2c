#include "dmpi/mpi.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/fifo.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dacc::dmpi {

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

// A receive, or a rendezvous send until its data is delivered. An eager send
// has none: it is complete when posted.
struct Request::State {
  explicit State(sim::Engine& eng) : completion(eng) {}

  sim::Completion completion;
  bool reserved = false;  // recv matched to a rendezvous sender, data inbound
  // Source stored as WORLD rank until completion; a rendezvous send holds
  // the status it completes with from the moment it is posted.
  Status status{};
  int context_id = 0;
  Rank match_src = kAnySource;  // world rank or wildcard (recv side)
  int match_tag = kAnyTag;
  // The received data, or a rendezvous send's data until it leaves.
  util::Buffer payload;
  // Rendezvous send: its id on the sender's endpoint, its destination, and
  // the causal trace carried across the handshake so the data delivery can
  // record its receive-side NIC span.
  std::uint64_t send_id = 0;
  Rank dst_w = kAnySource;
  std::uint64_t trace_id = 0;
  std::uint64_t nic_span = 0;

  void complete(Status st, util::Buffer data) {
    status = st;
    payload = std::move(data);
    completion.complete();
  }
};

bool Request::done() const {
  return sent_ || (state_ != nullptr && state_->completion.done());
}

const Status& Request::status() const {
  if (!done()) throw std::logic_error("Request::status before completion");
  return sent_ ? sent_status_ : state_->status;
}

util::Buffer Request::take_payload() {
  if (!done()) throw std::logic_error("Request::take_payload before done");
  if (sent_) return {};
  return std::move(state_->payload);
}

namespace {

// Request states are recycled: each thread keeps a free list of
// fixed-size blocks, and std::allocate_shared builds the state and its
// control block in one. A block returns to the list of the thread that
// drops the last reference, which under the parallel backend is nearly
// always the shard worker that made it (a state lives on its owner's node);
// a thread keeps at most kMaxFreeStates blocks and hands the rest back to
// the heap, so the lists stay bounded by the states in flight. Under ASan a
// free block is poisoned until it is handed out again.
constexpr std::size_t kStateBlockBytes = 256;
constexpr std::size_t kMaxFreeStates = 4096;

void poison_block(void* block) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(block, kStateBlockBytes);
#else
  (void)block;
#endif
}

void unpoison_block(void* block) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(block, kStateBlockBytes);
#else
  (void)block;
#endif
}

struct FreeStates {
  void* head = nullptr;  // each free block starts with the next one's address
  std::size_t count = 0;

  ~FreeStates() {
    while (head != nullptr) {
      void* block = head;
      unpoison_block(block);
      head = *static_cast<void**>(block);
      ::operator delete(block);
    }
    count = kMaxFreeStates;  // a state dropped later goes to the heap
  }
};

// Not inlined: a process body can resume on another worker thread, so the
// thread's list is looked up on every call, never through an address kept
// across a process switch.
[[gnu::noinline]] FreeStates& free_states() {
  thread_local FreeStates list;
  return list;
}

void* take_state_block() {
  FreeStates& list = free_states();
  void* block = list.head;
  if (block == nullptr) return ::operator new(kStateBlockBytes);
  unpoison_block(block);
  list.head = *static_cast<void**>(block);
  --list.count;
  return block;
}

void give_state_block(void* block) {
  FreeStates& list = free_states();
  if (list.count == kMaxFreeStates) {
    ::operator delete(block);
    return;
  }
  *static_cast<void**>(block) = list.head;
  poison_block(block);
  list.head = block;
  ++list.count;
}

template <typename T>
struct StateAllocator {
  using value_type = T;
  StateAllocator() = default;
  template <typename U>
  StateAllocator(const StateAllocator<U>&) {}  // NOLINT: rebinding

  T* allocate(std::size_t n) {
    static_assert(sizeof(T) <= kStateBlockBytes &&
                      alignof(T) <= alignof(std::max_align_t),
                  "a request state and its control block fit one block");
    if (n != 1) throw std::bad_alloc();
    return static_cast<T*>(take_state_block());
  }
  void deallocate(T* p, std::size_t) { give_state_block(p); }

  template <typename U>
  bool operator==(const StateAllocator<U>&) const {
    return true;
  }
};

// Templated so World's members, Request's friends, name the state type.
template <typename State>
std::shared_ptr<State> new_state(sim::Engine& engine) {
  return std::allocate_shared<State>(StateAllocator<State>{}, engine);
}

}  // namespace

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

Comm::Comm(int context_id, std::vector<Rank> members)
    : context_id_(context_id), members_(std::move(members)) {
  if (members_.empty()) return;
  const auto [lo, hi] = std::minmax_element(members_.begin(), members_.end());
  lowest_ = *lo;
  ranks_.assign(static_cast<std::size_t>(*hi - *lo) + 1, kAnySource);
  // Backwards, so a repeated world rank maps to its first comm rank.
  for (Rank r = size() - 1; r >= 0; --r) {
    ranks_[static_cast<std::size_t>(members_[static_cast<std::size_t>(r)] -
                                    lowest_)] = r;
  }
}

Rank Comm::world_rank(Rank r) const {
  if (r < 0 || r >= size()) throw std::out_of_range("Comm: bad comm rank");
  return members_[static_cast<std::size_t>(r)];
}

Rank Comm::comm_rank(Rank w) const {
  const auto i = static_cast<std::uint64_t>(std::int64_t{w} - lowest_);
  return i < ranks_.size() ? ranks_[static_cast<std::size_t>(i)] : kAnySource;
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
  struct Unexpected {
    int context_id = 0;
    Rank src_w = kAnySource;
    int tag = kAnyTag;
    std::uint64_t bytes = 0;
    bool rendezvous = false;
    std::uint64_t send_id = 0;  // rendezvous only
    util::Buffer payload;       // eager only
  };
  // Receives, oldest first.
  util::Fifo<std::shared_ptr<Request::State>> posted;
  util::Fifo<Unexpected> unexpected;
  // Rendezvous sends awaiting their CTS, in posting order. They live on the
  // *sender's* endpoint: post_send, arrive_cts (the CTS is delivered to the
  // sender's node) and cancel_request all run in that rank's node context,
  // so under the parallel backend no two shards ever touch the same list.
  // A receiver matches a stream of sends in order, so a CTS almost always
  // answers the front one.
  std::uint64_t next_send_id = 1;
  util::Fifo<std::shared_ptr<Request::State>> pending_sends;
  // User-level tag seed (Mpi::fresh_tag_seed); same shard-ownership
  // argument as above.
  std::uint64_t next_tag_seed = 0;
  // NIC trace-span ids minted by this rank (tx at post time, rx at arrival;
  // both run in the rank's node context, so the sequence is deterministic).
  std::uint64_t next_span_seed = 0;
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
  if (obs::Registry* reg = engine_.metrics()) {
    send_metrics_.resize(rank_nodes_.size());
    for (std::size_t r = 0; r < rank_nodes_.size(); ++r) {
      const std::string label = "{rank=\"" + std::to_string(r) + "\"}";
      RankSendMetrics& m = send_metrics_[r];
      m.msgs = reg->counter("dacc_dmpi_msgs_total" + label);
      m.bytes = reg->counter("dacc_dmpi_bytes_total" + label);
      m.eager = reg->counter("dacc_dmpi_eager_total" + label);
      m.rendezvous = reg->counter("dacc_dmpi_rendezvous_total" + label);
    }
  }
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

void World::count_send(Rank src_w, std::uint64_t bytes, bool eager) {
  if (send_metrics_.empty()) return;
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

Request World::post_send(sim::Context& ctx, Rank src_w, Rank dst_w,
                         int context_id, int tag, util::Buffer data) {
  // Posting a send costs CPU time on the sender.
  const SimTime post_begin = ctx.now();
  ctx.wait_for(params_.send_overhead);

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
    // Eager: inject immediately; the send is buffered and completes locally,
    // so its request needs no state. The payload moves through the event —
    // no shared_ptr wrapper, no copy.
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
    return Request(Status{src_w, tag, bytes});
  }

  // Rendezvous: RTS -> (match) -> CTS -> data. The state holds the data
  // until the CTS sends it.
  Endpoint& sender_ep = *endpoints_[static_cast<std::size_t>(src_w)];
  auto state = new_state<Request::State>(engine_);
  state->status = Status{src_w, tag, bytes};
  state->payload = std::move(data);
  state->send_id = sender_ep.next_send_id++;
  state->dst_w = dst_w;
  state->trace_id = tc.trace_id;
  state->nic_span = nic_span;
  sender_ep.pending_sends.push_back(state);

  fabric_.deliver(src_node, dst_node, params_.ctrl_bytes, engine_.now(),
                  [this, dst_w, context_id, src_w, tag,
                   send_id = state->send_id, bytes] {
                    arrive_rts(dst_w, context_id, src_w, tag, send_id, bytes);
                  });
  return Request(std::move(state));
}

std::shared_ptr<Request::State> World::post_recv(Rank me_w, int context_id,
                                                 Rank src_w, int tag) {
  auto state = new_state<Request::State>(engine_);
  state->context_id = context_id;
  state->match_src = src_w;
  state->match_tag = tag;

  Endpoint& ep = *endpoints_[static_cast<std::size_t>(me_w)];
  // Oldest matching unexpected message wins (MPI ordering).
  for (std::size_t i = 0; i < ep.unexpected.size(); ++i) {
    const Endpoint::Unexpected& u = ep.unexpected[i];
    if (u.context_id != context_id || !matches(src_w, tag, u.src_w, u.tag)) {
      continue;
    }
    Endpoint::Unexpected msg = ep.unexpected.take(i);
    if (msg.rendezvous) {
      state->reserved = true;
      send_cts(/*dst_w=*/msg.src_w, /*src_w=*/me_w, msg.send_id, state);
    } else {
      const SimDuration copy =
          transfer_time(msg.bytes, params_.eager_copy_mib_s);
      complete_recv(state, msg.src_w, msg.tag, std::move(msg.payload),
                    copy + params_.recv_overhead);
    }
    return state;
  }
  ep.posted.push_back(state);
  return state;
}

bool World::probe_unexpected(Rank me_w, int context_id, Rank src_w, int tag,
                             Status* status) const {
  const Endpoint& ep = *endpoints_[static_cast<std::size_t>(me_w)];
  for (std::size_t i = 0; i < ep.unexpected.size(); ++i) {
    const Endpoint::Unexpected& u = ep.unexpected[i];
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

namespace {

/// Index of the oldest posted receive that matches, or `posted.size()`.
template <typename Posted>
std::size_t find_posted(const Posted& posted, int context_id, Rank src_w,
                        int tag) {
  std::size_t i = 0;
  for (; i < posted.size(); ++i) {
    const auto& st = *posted[i];
    if (!st.reserved && st.context_id == context_id &&
        matches(st.match_src, st.match_tag, src_w, tag)) {
      break;
    }
  }
  return i;
}

}  // namespace

void World::arrive_eager(Rank dst_w, int context_id, Rank src_w, int tag,
                         util::Buffer payload) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(dst_w)];
  const std::size_t i = find_posted(ep.posted, context_id, src_w, tag);
  if (i < ep.posted.size()) {
    const SimDuration copy =
        transfer_time(payload.size(), params_.eager_copy_mib_s);
    complete_recv(ep.posted.take(i), src_w, tag, std::move(payload),
                  copy + params_.recv_overhead);
    return;
  }
  const std::uint64_t bytes = payload.size();
  ep.unexpected.push_back(Endpoint::Unexpected{
      context_id, src_w, tag, bytes, /*rendezvous=*/false,
      /*send_id=*/0, std::move(payload)});
}

void World::arrive_rts(Rank dst_w, int context_id, Rank src_w, int tag,
                       std::uint64_t send_id, std::uint64_t bytes) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(dst_w)];
  const std::size_t i = find_posted(ep.posted, context_id, src_w, tag);
  if (i < ep.posted.size()) {
    auto state = ep.posted.take(i);
    state->reserved = true;
    send_cts(/*dst_w=*/src_w, /*src_w=*/dst_w, send_id, std::move(state));
    return;
  }
  ep.unexpected.push_back(Endpoint::Unexpected{context_id, src_w, tag, bytes,
                                               /*rendezvous=*/true, send_id,
                                               util::Buffer{}});
}

void World::send_cts(Rank dst_w, Rank src_w, std::uint64_t send_id,
                     std::shared_ptr<Request::State> recv_state) {
  fabric_.deliver(node_of(src_w), node_of(dst_w), params_.ctrl_bytes,
                  engine_.now(),
                  [this, dst_w, send_id,
                   recv_state = std::move(recv_state)]() mutable {
                    arrive_cts(dst_w, send_id, std::move(recv_state));
                  });
}

void World::arrive_cts(Rank src_w, std::uint64_t send_id,
                       std::shared_ptr<Request::State> recv_state) {
  auto& sends = endpoints_[static_cast<std::size_t>(src_w)]->pending_sends;
  std::size_t i = 0;
  while (i < sends.size() && sends[i]->send_id != send_id) ++i;
  if (i == sends.size()) {
    // The sender cancelled (timeout/retry path) between RTS and CTS; the
    // receiver's reserved recv stays pending — its owner times out too.
    return;
  }
  std::shared_ptr<Request::State> send = sends.take(i);

  // The callable carries both states behind their pointers, so it fits the
  // event node's inline storage (no heap fallback per message).
  const Rank dst_w = send->dst_w;
  const std::uint64_t bytes = send->status.bytes;
  fabric_.deliver(
      node_of(src_w), node_of(dst_w), bytes + params_.ctrl_bytes,
      engine_.now(),
      [this, recv_state = std::move(recv_state),
       send = std::move(send)]() mutable {
        const Status st = send->status;
        if (send->nic_span != 0) {
          record_nic_rx(send->dst_w, send->trace_id, send->nic_span);
        }
        util::Buffer data = std::move(send->payload);
        // This runs at the receiver. The send request belongs to the sender,
        // so its completion (and the wake of anyone waiting on it) is posted
        // back to the sender's node — under the parallel backend the state's
        // completion is only ever touched from its owner's shard.
        engine_.post(node_of(st.source), engine_.now(),
                     [send = std::move(send), st] {
                       send->complete(st, util::Buffer{});
                     });
        complete_recv(std::move(recv_state), st.source, st.tag,
                      std::move(data), params_.recv_overhead);
      });
}

void World::cancel_request(Rank me_w,
                           const std::shared_ptr<Request::State>& state) {
  if (state->completion.done()) return;
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(me_w)];
  // Posted-but-unmatched receive?
  for (std::size_t i = 0; i < ep.posted.size(); ++i) {
    if (ep.posted[i] == state) {
      ep.posted.take(i);
      return;
    }
  }
  // Unanswered rendezvous send? Withdraw it; a CTS arriving later finds no
  // pending send and is ignored.
  for (std::size_t i = 0; i < ep.pending_sends.size(); ++i) {
    if (ep.pending_sends[i] == state) {
      ep.pending_sends.take(i);
      return;
    }
  }
  // Reserved recv (data already inbound): nothing to undo.
}

void World::complete_recv(std::shared_ptr<Request::State> state, Rank src_w,
                          int tag, util::Buffer payload,
                          SimDuration extra_delay) {
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
  return world_.post_send(ctx_, rank_, dst_w, comm.context_id(), tag,
                          std::move(data));
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
  // An eager send has no state: it is complete when posted.
  if (request.state_ != nullptr) request.state_->completion.wait(ctx_);
}

void Mpi::wait_all(std::span<Request> requests) {
  for (Request& r : requests) wait(r);
}

std::size_t Mpi::wait_any(std::span<Request> requests) {
  if (requests.empty()) throw std::logic_error("wait_any on empty set");
  for (const Request& r : requests) {
    if (!r.valid()) throw std::logic_error("wait_any on invalid request");
  }
  const auto first_done = [&] {
    std::size_t i = 0;
    while (i < requests.size() && !requests[i].done()) ++i;
    return i;
  };
  std::size_t i = first_done();
  if (i < requests.size()) return i;
  // None is done, so every one has a state. Wait on all of them; the one
  // that completes drops us from its list, the others are left here.
  sim::Process& self = ctx_.self();
  for (Request& r : requests) r.state_->completion.waiters().add(self);
  while ((i = first_done()) == requests.size()) ctx_.suspend();
  for (Request& r : requests) {
    if (!r.done()) r.state_->completion.waiters().remove(self);
  }
  return i;
}

bool Mpi::wait_until(Request& request, SimTime deadline) {
  if (!request.valid()) {
    throw std::logic_error("wait_until on invalid request");
  }
  return request.state_ == nullptr ||  // an eager send: complete when posted
         request.state_->completion.wait_until(ctx_, deadline);
}

void Mpi::cancel(Request& request) {
  if (!request.valid()) throw std::logic_error("cancel on invalid request");
  if (request.state_ == nullptr) return;  // an eager send: nothing to undo
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
  Request s = isend(comm, dst, send_tag, std::move(data));
  util::Buffer in = recv(comm, src, recv_tag, status);
  wait(s);
  return in;
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
