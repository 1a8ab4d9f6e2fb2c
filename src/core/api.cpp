#include "core/api.hpp"

#include <algorithm>
#include <optional>

#include "obs/flight.hpp"
#include "proto/transfer.hpp"
#include "rpc/batch.hpp"
#include "sim/trace.hpp"

namespace dacc::core {

using gpu::Result;
using proto::Op;
using proto::WireReader;
using proto::WireWriter;

// ---------------------------------------------------------------------------
// Future
// ---------------------------------------------------------------------------

struct Future::State {
  explicit State(sim::Engine& eng) : completion(eng) {}

  sim::Completion completion;
  Result status = Result::kSuccess;
  gpu::DevPtr ptr = gpu::kNullDevPtr;
  util::Buffer data;
  DeviceInfo info;

  void complete(Result r) {
    status = r;
    completion.complete();
  }
};

bool Future::done() const {
  return state_ != nullptr && state_->completion.done();
}

Result Future::status() const {
  if (!done()) throw std::logic_error("Future::status before completion");
  return state_->status;
}

gpu::DevPtr Future::ptr() const {
  if (!done()) throw std::logic_error("Future::ptr before completion");
  return state_->ptr;
}

util::Buffer Future::take_data() {
  if (!done()) throw std::logic_error("Future::take_data before completion");
  return std::move(state_->data);
}

void Future::wait(sim::Context& ctx) {
  if (!valid()) throw std::logic_error("wait on invalid Future");
  state_->completion.wait(ctx);
}

void Future::get(sim::Context& ctx) {
  wait(ctx);
  if (state_->status != Result::kSuccess) {
    throw AcError(state_->status, "accelerator operation failed");
  }
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

void Kernel::run(const gpu::LaunchConfig& config) {
  acc_->launch(name_, config, args_);
}

Future Kernel::run_async(const gpu::LaunchConfig& config) {
  return acc_->launch_async(name_, config, args_);
}

// ---------------------------------------------------------------------------
// Accelerator
// ---------------------------------------------------------------------------

namespace {
/// Metric labels of the served ops, indexed by proto::Op value - 1
/// (kMemAlloc .. kPeerSend; stable, label-safe).
constexpr const char* kOpLabel[] = {"alloc", "free",   "h2d",  "d2h",
                                    "check", "launch", "info", "peer"};
constexpr std::size_t op_index(Op op) {
  return static_cast<std::size_t>(op) - 1;
}
}  // namespace

struct Accelerator::ProxyOp {
  Op op = Op::kShutdown;  ///< kShutdown stops the proxy
  std::uint64_t bytes = 0;
  gpu::DevPtr dst = gpu::kNullDevPtr;
  gpu::DevPtr src = gpu::kNullDevPtr;
  util::Buffer data;
  /// kKernelCreate / kKernelRun: the request body, with app-level pointers.
  rpc::BatchItem call;
  dmpi::Rank peer = -1;
  gpu::DevPtr peer_dst = gpu::kNullDevPtr;
  proto::TransferConfig transfer;
  std::shared_ptr<Future::State> result;
  /// The latest answered exchange's status, and an alloc's device pointer.
  /// A D2H's data and a device query's info go straight to `result` when
  /// they succeed; the Future completes once the op is final.
  rpc::BatchResult reply;
};

Accelerator::Accelerator(Session& session, arm::Lease lease)
    : session_(&session),
      lease_(lease),
      transfer_(session.config().transfer),
      ops_(std::make_unique<sim::Mailbox<std::unique_ptr<ProxyOp>>>(
          session.world_.engine())) {
  sim::Engine& engine = session.world_.engine();
  proxy_ = &engine.spawn(
      "fe-proxy-r" + std::to_string(session.self_) + "-ac" +
          std::to_string(lease_.daemon_rank),
      [this](sim::Context& ctx) { proxy_main(ctx); });
  engine.set_daemon(*proxy_);
}

Accelerator::~Accelerator() { stop_proxy(); }

void Accelerator::stop_proxy(sim::Context* ctx) {
  if (stopped_) return;
  stopped_ = true;
  auto op = std::make_unique<ProxyOp>();
  auto state = std::make_shared<Future::State>(session_->world_.engine());
  op->result = state;
  ops_->put(std::move(op));
  if (ctx != nullptr) Future(state).wait(*ctx);
}

Future Accelerator::enqueue(ProxyOp op) {
  if (stopped_) {
    throw std::logic_error("Accelerator used after release");
  }
  auto state = std::make_shared<Future::State>(session_->world_.engine());
  op.result = state;
  ops_->put(std::make_unique<ProxyOp>(std::move(op)));
  return Future(state);
}

void Accelerator::bind_metrics(obs::Registry* reg) {
  const auto bounds = obs::latency_bounds_ns();
  for (std::size_t k = 0; k < op_latency_.size(); ++k) {
    op_latency_[k] = reg->histogram(
        std::string("dacc_fe_op_latency_ns{op=\"") + kOpLabel[k] + "\"}",
        bounds);
  }
  metrics_bound_ = reg;
}

void Accelerator::proxy_main(sim::Context& ctx) {
  dmpi::Mpi mpi(session_->world_, ctx, session_->self_);
  rpc::Channel ch(mpi, session_->comm_, lease_.daemon_rank,
                  rpc::Channel::frontend(session_->self_));
  const rpc::StreamConfig& stream = session_->config().batch;
  const std::size_t watermark = stream.enabled ? stream.watermark : 1;

  // Greedy flush rule: a batchable op takes everything batchable already
  // enqueued at this instant with it (up to the watermark). A synchronous
  // caller blocks on its future, so its op is always alone here and goes
  // out as a flush of one; async bursts build real batches.
  std::vector<std::unique_ptr<ProxyOp>> flush;
  // An op pulled off the mailbox while coalescing that cannot join the
  // flush; it starts the next one, before the proxy blocks again.
  std::unique_ptr<ProxyOp> held;
  for (;;) {
    flush.push_back(held != nullptr ? std::move(held) : ops_->get(ctx));
    if (flush.front()->op == Op::kShutdown) {
      flush.front()->result->complete(Result::kSuccess);
      return;
    }
    while (rpc::batchable(flush.front()->op) && flush.size() < watermark) {
      std::optional<std::unique_ptr<ProxyOp>> next = ops_->try_get();
      if (!next.has_value()) break;
      if (!rpc::batchable((*next)->op)) {  // includes kShutdown
        held = std::move(*next);
        break;
      }
      flush.push_back(std::move(*next));
    }
    serve(ch, ctx, flush);
    flush.clear();  // free the served ops and payloads before blocking
  }
}

void Accelerator::serve(rpc::Channel& ch, sim::Context& ctx, Flush flush) {
  const proto::ProtoParams& pp = session_->config().proto;
  sim::Engine& engine = session_->world_.engine();
  const SimTime begin = ctx.now();
  // Request marshalling costs the CN CPU once per op; batching amortises
  // the messaging, not the encoding.
  ctx.wait_for(pp.fe_marshal * static_cast<SimDuration>(flush.size()));
  // Causal trace context: one trace per flush. The root span id doubles as
  // the trace id; it rides the request headers into the daemon (and its NIC
  // hops) so the whole chain stitches together.
  sim::Tracer* const tracer = engine.tracer();
  std::uint64_t trace_id = 0;
  if (tracer != nullptr) {
    trace_id = (std::uint64_t{1} << 56) |
               (static_cast<std::uint64_t>(session_->self_) << 40) |
               (static_cast<std::uint64_t>(lease_.daemon_rank) << 24) |
               ++trace_seq_;
    engine.set_current_trace({trace_id, trace_id});
  }
  run_ladder(ch, ctx, flush, trace_id);
  if (tracer != nullptr) {
    engine.set_current_trace({});
    const std::string track = "fe-r" + std::to_string(session_->self_) +
                              "-ac" + std::to_string(lease_.daemon_rank);
    if (flush.size() == 1) {
      tracer->record(track, op_label(*flush.front()), begin, ctx.now(),
                     trace_id, trace_id, /*parent_id=*/0);
    } else {
      tracer->record(track, "batch[" + std::to_string(flush.size()) + "]",
                     begin, ctx.now(), trace_id, trace_id, /*parent_id=*/0);
      // One child span per sub-op under the batch span. The id is derived
      // the same way on the daemon side (rpc::batch_sub_span), so its
      // per-sub-op spans parent on these and flow arrows stitch each small
      // op through the batch frame it rode in.
      for (std::size_t i = 0; i < flush.size(); ++i) {
        tracer->record(track, op_label(*flush[i]), begin, ctx.now(),
                       trace_id,
                       rpc::batch_sub_span(trace_id,
                                           static_cast<std::uint32_t>(i)),
                       /*parent_id=*/trace_id);
      }
    }
  }
  if (obs::Registry* reg = engine.metrics()) {
    if (metrics_bound_ != reg) bind_metrics(reg);
    const auto elapsed = static_cast<std::uint64_t>(ctx.now() - begin);
    for (const std::unique_ptr<ProxyOp>& op : flush) {
      op_latency_[op_index(op->op)].observe(elapsed);
    }
  }
}

void Accelerator::run_ladder(rpc::Channel& ch, sim::Context& ctx, Flush flush,
                             std::uint64_t trace_id) {
  const rpc::RetryPolicy& rp = session_->config().retry;
  std::uint32_t reason = arm::kRevokeFailure;
  if (rp.replace_on_failure && consume_revocation(ch, &reason) &&
      !try_replace(ch, ctx, reason != arm::kRevokePreempted)) {
    // Our lease was revoked — by the liveness sweep (slot dead) or by a
    // higher-priority preemption (slot healthy, not ours to break) — and
    // no replacement could be had before touching the wire.
    for (const std::unique_ptr<ProxyOp>& op : flush) {
      op->result->complete(Result::kUnavailable);
    }
    return;
  }
  const bool answered = exchange_with_retry(ch, ctx, flush);
  // Commit the successes first: they belong to the replay log, so a
  // replacement triggered by a failed sibling reconstructs them too. A
  // silent server or a dead device asks for a replacement.
  bool broken = !answered;
  std::size_t failed = 0;
  for (const std::unique_ptr<ProxyOp>& op : flush) {
    rpc::BatchResult& reply = op->reply;
    if (!answered) reply.status = Result::kUnavailable;
    if (reply.status != Result::kSuccess) {
      ++failed;
      broken = broken || reply.status == Result::kEccError;
      continue;
    }
    commit(*op);
    op->result->ptr = reply.ptr;
    op->result->complete(Result::kSuccess);
  }
  if (failed == 0) return;
  obs::FlightRecorder* const fr = session_->world_.engine().flight();
  if (broken && flush.size() > 1 && fr != nullptr) {
    const std::string ac = "ac" + std::to_string(lease_.daemon_rank);
    fr->note(ctx.now(), "fe",
             answered ? "batch: ecc failure on " + ac + ", " +
                            std::to_string(failed) +
                            " sub-op(s) need a replacement"
                      : "batch[" + std::to_string(flush.size()) +
                            "]: retry ladder exhausted on " + ac,
             trace_id);
  }
  const bool replaced = broken && try_replace(ch, ctx, /*broken=*/true);
  for (std::size_t i = 0; i < flush.size(); ++i) {
    const Result status = flush[i]->reply.status;
    if (status == Result::kSuccess) continue;
    if (replaced) {
      // State replayed: run the op again, alone, on the replacement.
      run_ladder(ch, ctx, flush.subspan(i, 1), trace_id);
    } else {
      flush[i]->result->complete(status);
    }
  }
}

bool Accelerator::exchange_with_retry(rpc::Channel& ch, sim::Context& ctx,
                                      Flush flush) {
  const bool answered =
      rpc::with_retry(ctx, session_->config().retry, [&](SimTime deadline) {
        return attempt(ch, flush, deadline);
      });
  if (answered) ch.note_flush(static_cast<std::uint32_t>(flush.size()));
  return answered;
}

const rpc::BatchItem& Accelerator::wire_item(const ProxyOp& op,
                                             rpc::BatchItem& scratch) const {
  switch (op.op) {
    case Op::kMemAlloc:
    case Op::kMemFree:
      scratch = rpc::BatchItem{};
      scratch.op = op.op;
      scratch.arg = op.op == Op::kMemAlloc ? op.bytes : to_device(op.dst);
      return scratch;
    case Op::kKernelCreate:
      return op.call;
    case Op::kKernelRun:
      if (allocs_.empty()) return op.call;  // to_device is the identity
      scratch = op.call;
      for (gpu::KernelArg& a : scratch.args) {
        if (auto* p = std::get_if<gpu::DevPtr>(&a)) *p = to_device(*p);
      }
      return scratch;
    default:
      throw std::logic_error("wire_item: op is not batchable");
  }
}

gpu::DevPtr Accelerator::to_device(gpu::DevPtr app) const {
  if (allocs_.empty()) return app;  // policy off or nothing tracked: identity
  auto it = allocs_.upper_bound(app);
  if (it == allocs_.begin()) return app;
  --it;
  const gpu::DevPtr base = it->first;
  const AllocSpan& span = it->second;
  if (app >= base + span.bytes) return app;
  return span.device_ptr + (app - base);  // interior pointers translate too
}

bool Accelerator::attempt(rpc::Channel& ch, Flush flush, SimTime deadline) {
  // One request/response exchange on this attempt's private tag pair (bulk
  // data on reply_tag + 1). The reply receive is posted before the request
  // goes out; on deadline expiry it is cancelled, so a late response parks
  // harmlessly on an abandoned tag. Requests are rebuilt per attempt:
  // pointer translation must see the table the current lease's replay
  // produced.
  const int reply_tag = ch.next_reply_tag();
  const int data_tag = reply_tag + 1;
  auto exchange = [&](util::Buffer request) {
    return ch.exchange(std::move(request), reply_tag, deadline);
  };
  auto header = [&](Op o) { return ch.request(o, reply_tag); };

  if (flush.size() > 1) {
    std::vector<rpc::BatchItem> scratch(flush.size());
    std::vector<const rpc::BatchItem*> items;
    items.reserve(flush.size());
    for (std::size_t i = 0; i < flush.size(); ++i) {
      items.push_back(&wire_item(*flush[i], scratch[i]));
    }
    WireWriter w = header(Op::kBatch);
    rpc::encode_batch(w, items);
    auto resp = exchange(w.finish());
    if (!resp) return false;
    const std::vector<rpc::BatchResult> results =
        rpc::decode_batch_reply(std::move(*resp), flush.size());
    for (std::size_t i = 0; i < flush.size(); ++i) {
      flush[i]->reply = results[i];
    }
    return true;
  }

  ProxyOp& op = *flush.front();
  rpc::BatchResult& out = op.reply;
  if (rpc::batchable(op.op)) {
    WireWriter w = header(op.op);
    rpc::BatchItem scratch;
    rpc::encode_item(w, wire_item(op, scratch));
    auto resp = exchange(w.finish());
    if (!resp) return false;
    WireReader r(std::move(*resp));
    out.status = r.result();
    if (op.op == Op::kMemAlloc) out.ptr = r.u64();
    return true;
  }
  switch (op.op) {
    case Op::kMemcpyHtoD: {
      dmpi::Request reply = ch.post_reply(reply_tag);
      ch.send_request(header(Op::kMemcpyHtoD)
                          .u64(to_device(op.dst))
                          .u64(op.data.size())
                          .transfer_config(op.transfer)
                          .finish());
      try {
        // view(): the payload stays in the op so a retry (or a replacement
        // replay) can resend it.
        proto::send_blocks(ch.mpi(), ch.comm(), ch.server(), op.data.view(),
                           op.transfer, data_tag, deadline);
      } catch (const proto::TransferTimeout&) {
        ch.mpi().cancel(reply);
        return false;
      }
      if (!ch.finish(reply, deadline)) return false;
      out.status = WireReader(reply.take_payload()).result();
      return true;
    }
    case Op::kMemcpyDtoH: {
      auto resp = exchange(header(Op::kMemcpyDtoH)
                               .u64(to_device(op.src))
                               .u64(op.bytes)
                               .transfer_config(op.transfer)
                               .finish());
      if (!resp) return false;
      const Result pre = WireReader(std::move(*resp)).result();
      if (pre != Result::kSuccess) {
        out.status = pre;
        return true;
      }
      util::Buffer data;
      try {
        data = proto::recv_assemble(ch.mpi(), ch.comm(), ch.server(),
                                    op.bytes, op.transfer, data_tag,
                                    deadline);
      } catch (const proto::TransferTimeout&) {
        return false;
      }
      dmpi::Request fin = ch.post_reply(reply_tag);
      if (!ch.finish(fin, deadline)) return false;
      out.status = WireReader(fin.take_payload()).result();
      if (out.status == Result::kSuccess) op.result->data = std::move(data);
      return true;
    }
    case Op::kDeviceInfo: {
      auto resp = exchange(header(Op::kDeviceInfo).finish());
      if (!resp) return false;
      WireReader r(std::move(*resp));
      out.status = r.result();
      if (out.status == Result::kSuccess) {
        DeviceInfo& info = op.result->info;
        info.name = r.str();
        info.memory_bytes = r.u64();
        info.memory_free = r.u64();
      }
      return true;
    }
    case Op::kPeerSend: {
      auto resp = exchange(
          header(Op::kPeerSend)
              .u64(to_device(op.src))
              .u64(op.bytes)
              .u64(static_cast<std::uint64_t>(op.peer))
              .u64(session_->peer_device_ptr(op.peer, op.peer_dst))
              .transfer_config(op.transfer)
              .finish());
      if (!resp) return false;
      out.status = WireReader(std::move(*resp)).result();
      return true;
    }
    default:
      throw std::logic_error("attempt: op never reaches the wire");
  }
}

bool Accelerator::consume_revocation(rpc::Channel& ch, std::uint32_t* reason) {
  // Only ARM ranks send on the revoke tag, and a replicated ARM's notice
  // comes from whichever replica led when the revocation committed: probe
  // any source.
  const int tag = arm::kArmRevokeTagBase + lease_.daemon_rank;
  if (!ch.mpi().iprobe(session_->comm_, dmpi::kAnySource, tag)) return false;
  util::Buffer frame = ch.mpi().recv(session_->comm_, dmpi::kAnySource, tag);
  *reason = arm::kRevokeFailure;
  try {
    WireReader r(frame.view());
    *reason = arm::RevokeNotice::decode(r).reason;
  } catch (const proto::WireError&) {
    // A garbled notice still means the lease is gone; treat as failure.
  }
  return true;
}

bool Accelerator::replay(rpc::Channel& ch, sim::Context& ctx,
                         std::uint32_t* ops, std::uint64_t* bytes) {
  // Rebuild the virtual->physical table from scratch; entries re-insert in
  // original order, so interleaved alloc/free histories replay cleanly.
  allocs_.clear();
  for (const std::unique_ptr<ProxyOp>& e : replay_log_) {
    if (!exchange_with_retry(ch, ctx, Flush(&e, 1))) return false;
    if (e->reply.status != Result::kSuccess) return false;
    switch (e->op) {
      case Op::kMemAlloc:
        allocs_[e->dst] = AllocSpan{e->bytes, e->reply.ptr};
        break;
      case Op::kMemFree:
        allocs_.erase(e->dst);
        break;
      default:
        break;
    }
    ++*ops;
    if (e->op == Op::kMemcpyHtoD) *bytes += e->data.size();
  }
  return true;
}

bool Accelerator::try_replace(rpc::Channel& ch, sim::Context& ctx,
                              bool broken) {
  const rpc::RetryPolicy& rp = session_->config().retry;
  if (!rp.replace_on_failure || replacements_ >= rp.max_replacements) {
    return false;
  }

  const arm::Lease failed = lease_;
  const std::uint64_t job = session_->config().job_id;
  const SimTime begin = ctx.now();
  arm::ArmClient arm_client(ch.mpi(), session_->comm_,
                            session_->config().arm_ranks);

  // Make sure the pool knows (idempotent if the liveness sweep beat us to
  // it), give the dead lease back, and take any healthy accelerator. A
  // preempted slot is NOT broken — it is free (or already re-assigned to
  // the preemptor), so reporting it would break a healthy accelerator.
  if (broken) (void)arm_client.report_broken(failed.daemon_rank);
  (void)arm_client.release(job, failed);  // kRevoked/kUnknownHandle: fine
  arm::ResourceRequest rq;
  rq.job = job;
  rq.count = 1;
  rq.wait = true;
  rq.priority = session_->config().priority;
  rq.locality = static_cast<std::int64_t>(session_->self_);
  const std::vector<arm::Lease> leases = arm_client.acquire(rq);
  if (leases.empty()) return false;  // pool can never satisfy us again
  lease_ = leases[0];
  ch.set_server(lease_.daemon_rank);
  ++replacements_;

  // Drop a revocation notice for the dead lease that raced with us.
  const int stale_tag = arm::kArmRevokeTagBase + failed.daemon_rank;
  while (ch.mpi().iprobe(session_->comm_, dmpi::kAnySource, stale_tag)) {
    (void)ch.mpi().recv(session_->comm_, dmpi::kAnySource, stale_tag);
  }

  std::uint32_t replayed_ops = 0;
  std::uint64_t replayed_bytes = 0;
  if (!replay(ch, ctx, &replayed_ops, &replayed_bytes)) return false;

  arm::ReplayReport report;
  report.failed_rank = failed.daemon_rank;
  report.replacement_rank = lease_.daemon_rank;
  report.job = job;
  report.replayed_ops = replayed_ops;
  report.replayed_bytes = replayed_bytes;
  (void)arm_client.report_replaced(report);

  if (sim::Tracer* tracer = session_->world_.engine().tracer()) {
    tracer->record("fe-r" + std::to_string(session_->self_) + "-ac" +
                       std::to_string(failed.daemon_rank),
                   "replace-ac" + std::to_string(failed.daemon_rank) +
                       "->ac" + std::to_string(lease_.daemon_rank),
                   begin, ctx.now());
  }
  return true;
}

void Accelerator::commit(ProxyOp& op) {
  if (!session_->config().retry.replace_on_failure) return;
  ProxyOp clone;
  clone.op = op.op;
  switch (op.op) {
    case Op::kMemAlloc: {
      // Hand the app a virtual pointer; the physical one goes in the table
      // so a replacement can rebind every later use. Alignment mirrors the
      // device allocator so interior arithmetic stays in range.
      const gpu::DevPtr app = next_virtual_;
      next_virtual_ += ((op.bytes + 255) / 256) * 256 + 256;
      allocs_[app] = AllocSpan{op.bytes, op.reply.ptr};
      clone.bytes = op.bytes;
      clone.dst = app;
      op.reply.ptr = app;
      break;
    }
    case Op::kMemFree:
      allocs_.erase(op.dst);
      clone.dst = op.dst;
      break;
    case Op::kMemcpyHtoD:
      clone.dst = op.dst;
      clone.data = op.data.view();  // shares the payload store, no copy
      clone.transfer = op.transfer;
      break;
    case Op::kKernelRun:
      clone.call = op.call;  // app-level pointers; translated per attempt
      break;
    default:
      // D2H / info / kernel-create are reads, peer copies are not replayable
      // (the peer's memory is not ours to restore — documented limitation).
      return;
  }
  replay_log_.push_back(std::make_unique<ProxyOp>(std::move(clone)));
}

std::string Accelerator::op_label(const ProxyOp& op) {
  auto size_suffix = [&] {
    const std::uint64_t bytes =
        op.op == Op::kMemcpyHtoD ? op.data.size() : op.bytes;
    if (bytes >= 1024 * 1024) {
      return " " + std::to_string(bytes / (1024 * 1024)) + "MiB";
    }
    return " " + std::to_string(bytes) + "B";
  };
  switch (op.op) {
    case Op::kMemAlloc:
      return "alloc" + size_suffix();
    case Op::kMemFree:
      return "free";
    case Op::kMemcpyHtoD:
      return "h2d" + size_suffix();
    case Op::kMemcpyDtoH:
      return "d2h" + size_suffix();
    case Op::kKernelRun:
      return "launch " + op.call.kernel;
    case Op::kKernelCreate:
      return "kernel_create " + op.call.kernel;
    case Op::kDeviceInfo:
      return "device_info";
    case Op::kPeerSend:
      return "peer_copy" + size_suffix();
    default:
      return "?";
  }
}

Future Accelerator::mem_alloc_async(std::uint64_t bytes) {
  ProxyOp op;
  op.op = Op::kMemAlloc;
  op.bytes = bytes;
  return enqueue(std::move(op));
}

Future Accelerator::memcpy_h2d_async(gpu::DevPtr dst, util::Buffer src) {
  ProxyOp op;
  op.op = Op::kMemcpyHtoD;
  op.dst = dst;
  op.data = std::move(src);
  op.transfer = transfer_;
  return enqueue(std::move(op));
}

Future Accelerator::memcpy_d2h_async(gpu::DevPtr src, std::uint64_t bytes) {
  ProxyOp op;
  op.op = Op::kMemcpyDtoH;
  op.src = src;
  op.bytes = bytes;
  op.transfer = transfer_;
  return enqueue(std::move(op));
}

Future Accelerator::launch_async(const std::string& kernel,
                                 const gpu::LaunchConfig& config,
                                 gpu::KernelArgs args) {
  ProxyOp op;
  op.op = Op::kKernelRun;
  op.call.op = Op::kKernelRun;
  op.call.kernel = kernel;
  op.call.launch = config;
  op.call.args = std::move(args);
  return enqueue(std::move(op));
}

Future Accelerator::copy_to_peer_async(gpu::DevPtr src, Accelerator& peer,
                                       gpu::DevPtr peer_dst,
                                       std::uint64_t bytes) {
  ProxyOp op;
  op.op = Op::kPeerSend;
  op.src = src;
  op.bytes = bytes;
  op.peer = peer.daemon_rank();
  op.peer_dst = peer_dst;
  op.transfer = transfer_;
  return enqueue(std::move(op));
}

gpu::DevPtr Accelerator::mem_alloc(std::uint64_t bytes) {
  Future f = mem_alloc_async(bytes);
  f.get(session_->ctx_);
  return f.ptr();
}

void Accelerator::mem_free(gpu::DevPtr ptr) {
  ProxyOp op;
  op.op = Op::kMemFree;
  op.dst = ptr;
  enqueue(std::move(op)).get(session_->ctx_);
}

void Accelerator::memcpy_h2d(gpu::DevPtr dst, util::Buffer src) {
  memcpy_h2d_async(dst, std::move(src)).get(session_->ctx_);
}

util::Buffer Accelerator::memcpy_d2h(gpu::DevPtr src, std::uint64_t bytes) {
  Future f = memcpy_d2h_async(src, bytes);
  f.get(session_->ctx_);
  return f.take_data();
}

void Accelerator::launch(const std::string& kernel,
                         const gpu::LaunchConfig& config,
                         gpu::KernelArgs args) {
  launch_async(kernel, config, std::move(args)).get(session_->ctx_);
}

Kernel Accelerator::kernel_create(const std::string& name) {
  ProxyOp op;
  op.op = Op::kKernelCreate;
  op.call.op = Op::kKernelCreate;
  op.call.kernel = name;
  enqueue(std::move(op)).get(session_->ctx_);
  return Kernel(*this, name);
}

DeviceInfo Accelerator::info() {
  ProxyOp op;
  op.op = Op::kDeviceInfo;
  Future f = enqueue(std::move(op));
  f.get(session_->ctx_);
  return f.state_->info;
}

void Accelerator::copy_to_peer(gpu::DevPtr src, Accelerator& peer,
                               gpu::DevPtr peer_dst, std::uint64_t bytes) {
  copy_to_peer_async(src, peer, peer_dst, bytes).get(session_->ctx_);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(dmpi::World& world, sim::Context& ctx, dmpi::Rank self,
                 const dmpi::Comm& comm, Config config)
    : world_(world),
      ctx_(ctx),
      self_(self),
      comm_(comm),
      config_(config),
      mpi_(world, ctx, self),
      arm_client_(mpi_, comm, config.arm_ranks) {}

Session::~Session() {
  // Best effort: stop the proxies (no blocking in a destructor). Proper
  // shutdown — including returning leases to the ARM — is close().
  for (auto& acc : accelerators_) acc->stop_proxy();
}

std::vector<Accelerator*> Session::acquire(std::uint32_t count, bool wait,
                                           const std::string& kind) {
  arm::ResourceRequest rq;
  rq.count = count;
  rq.wait = wait;
  rq.kind = kind;
  return acquire(std::move(rq));
}

std::vector<Accelerator*> Session::acquire(arm::ResourceRequest req) {
  if (req.job == 0) req.job = config_.job_id;
  if (req.priority == arm::kPriorityNormal) req.priority = config_.priority;
  if (req.locality < 0) req.locality = static_cast<std::int64_t>(self_);
  const std::vector<arm::Lease> leases = arm_client_.acquire(req);
  std::vector<Accelerator*> out;
  out.reserve(leases.size());
  for (const arm::Lease& lease : leases) out.push_back(attach(lease));
  return out;
}

Accelerator* Session::attach(arm::Lease lease) {
  accelerators_.push_back(
      std::unique_ptr<Accelerator>(new Accelerator(*this, lease)));
  return accelerators_.back().get();
}

void Session::release(Accelerator* acc) {
  const auto it = std::find_if(
      accelerators_.begin(), accelerators_.end(),
      [&](const auto& p) { return p.get() == acc; });
  if (it == accelerators_.end()) {
    throw std::logic_error("release: accelerator not owned by this session");
  }
  // Drain in-flight operations, then return the lease.
  acc->stop_proxy(&ctx_);
  const arm::Lease lease = acc->lease();
  accelerators_.erase(it);
  (void)arm_client_.release(config_.job_id, lease);
}

void Session::close() {
  if (closed_) return;
  closed_ = true;
  for (auto& acc : accelerators_) {
    acc->stop_proxy(&ctx_);
  }
  accelerators_.clear();
  (void)arm_client_.release_job(config_.job_id);
}

gpu::DevPtr Session::peer_device_ptr(dmpi::Rank peer_daemon,
                                     gpu::DevPtr app) const {
  for (const auto& acc : accelerators_) {
    if (acc->lease_.daemon_rank == peer_daemon) return acc->to_device(app);
  }
  return app;  // peer unknown to this session: assume a physical pointer
}

void Session::wait_all(std::vector<Future>& futures) {
  for (Future& f : futures) f.wait(ctx_);
}

}  // namespace dacc::core
