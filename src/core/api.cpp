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
  explicit State(sim::Engine& eng) : engine(&eng) {}

  sim::Engine* engine;
  bool done = false;
  Result status = Result::kSuccess;
  gpu::DevPtr ptr = gpu::kNullDevPtr;
  util::Buffer data;
  DeviceInfo info;
  std::vector<sim::Process*> waiters;

  void complete(Result r) {
    done = true;
    status = r;
    for (sim::Process* w : waiters) engine->wake(*w);
    waiters.clear();
  }
};

bool Future::done() const { return state_ != nullptr && state_->done; }

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
  sim::Process* self = &ctx.self();
  while (!state_->done) {
    auto& w = state_->waiters;
    if (std::find(w.begin(), w.end(), self) == w.end()) w.push_back(self);
    ctx.suspend();
  }
  auto& w = state_->waiters;
  w.erase(std::remove(w.begin(), w.end(), self), w.end());
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

struct Accelerator::ProxyOp {
  enum class Kind {
    kAlloc,
    kFree,
    kH2D,
    kD2H,
    kLaunch,
    kKernelCheck,
    kInfo,
    kPeer,
    kStop,
  };

  Kind kind = Kind::kStop;
  std::uint64_t bytes = 0;
  gpu::DevPtr dst = gpu::kNullDevPtr;
  gpu::DevPtr src = gpu::kNullDevPtr;
  util::Buffer data;
  std::string kernel;
  gpu::LaunchConfig launch;
  gpu::KernelArgs args;
  dmpi::Rank peer = -1;
  gpu::DevPtr peer_dst = gpu::kNullDevPtr;
  proto::TransferConfig transfer;
  std::shared_ptr<Future::State> result;
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
  op->kind = ProxyOp::Kind::kStop;
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

/// What one wire exchange produced (exec_op copies it into the Future once
/// the op is final — only then do virtual-pointer rewrites apply).
struct Accelerator::AttemptOut {
  Result status = Result::kSuccess;
  gpu::DevPtr ptr = gpu::kNullDevPtr;
  util::Buffer data;
  DeviceInfo info;
};

namespace {
/// Short op-kind labels for metric names (stable, label-safe).
constexpr const char* kOpKindLabel[] = {
    "alloc", "free", "h2d",  "d2h", "launch",
    "check", "info", "peer", "stop"};
}  // namespace

void Accelerator::bind_metrics(obs::Registry* reg) {
  const auto bounds = obs::latency_bounds_ns();
  for (std::size_t k = 0; k + 1 < op_latency_.size(); ++k) {  // skip kStop
    op_latency_[k] = reg->histogram(
        std::string("dacc_fe_op_latency_ns{op=\"") + kOpKindLabel[k] + "\"}",
        bounds);
  }
  metrics_bound_ = reg;
}

bool Accelerator::batchable_op(const ProxyOp& op) {
  switch (op.kind) {
    case ProxyOp::Kind::kAlloc:
    case ProxyOp::Kind::kFree:
    case ProxyOp::Kind::kLaunch:
    case ProxyOp::Kind::kKernelCheck:
      return true;
    default:
      return false;
  }
}

void Accelerator::proxy_main(sim::Context& ctx) {
  dmpi::Mpi mpi(session_->world_, ctx, session_->self_);
  rpc::Channel ch(mpi, session_->comm_, lease_.daemon_rank,
                  rpc::Channel::frontend(session_->self_));
  const rpc::StreamConfig& stream = session_->config().batch;

  // An op pulled off the mailbox while coalescing that cannot join the
  // batch; it is served right after the flush, before blocking again.
  std::unique_ptr<ProxyOp> held;
  for (;;) {
    std::unique_ptr<ProxyOp> op =
        held != nullptr ? std::move(held) : ops_->get(ctx);
    if (op->kind == ProxyOp::Kind::kStop) {
      op->result->complete(Result::kSuccess);
      return;
    }
    if (stream.enabled && batchable_op(*op)) {
      // Greedy flush-rule implementation: everything already enqueued at
      // this instant coalesces (up to the watermark). A synchronous caller
      // blocks on its future, so its op is always alone here and goes out
      // on its own single-op frame; async bursts build real batches.
      std::vector<std::unique_ptr<ProxyOp>> group;
      group.push_back(std::move(op));
      while (group.size() < stream.watermark) {
        std::optional<std::unique_ptr<ProxyOp>> next = ops_->try_get();
        if (!next.has_value()) break;
        if (!batchable_op(**next)) {  // includes kStop
          held = std::move(*next);
          break;
        }
        group.push_back(std::move(*next));
      }
      if (group.size() == 1) {
        execute_one(ch, ctx, *group.front());
      } else {
        execute_batch(ch, ctx, group);
      }
      continue;
    }
    execute_one(ch, ctx, *op);
  }
}

void Accelerator::execute_one(rpc::Channel& ch, sim::Context& ctx,
                              ProxyOp& op) {
  const proto::ProtoParams& pp = session_->config().proto;
  sim::Engine& engine = session_->world_.engine();
  const SimTime op_begin = ctx.now();
  ctx.wait_for(pp.fe_marshal);  // request marshalling on the CN CPU
  sim::Tracer* const tracer = engine.tracer();
  const std::string label = tracer != nullptr ? op_label(op) : std::string{};
  // Causal trace context: one trace per front-end API call. The root span
  // id doubles as the trace id; it rides the request headers into the
  // daemon (and its NIC hops) so the whole chain stitches together.
  std::uint64_t trace_id = 0;
  if (tracer != nullptr) {
    trace_id = (std::uint64_t{1} << 56) |
               (static_cast<std::uint64_t>(session_->self_) << 40) |
               (static_cast<std::uint64_t>(lease_.daemon_rank) << 24) |
               ++trace_seq_;
    engine.set_current_trace({trace_id, trace_id});
  }
  exec_op(ch, ctx, op);
  if (tracer != nullptr) {
    engine.set_current_trace({});
    const std::string track = "fe-r" + std::to_string(session_->self_) +
                              "-ac" + std::to_string(lease_.daemon_rank);
    tracer->record(track, label, op_begin, ctx.now(), trace_id, trace_id,
                   /*parent_id=*/0);
  }
  if (obs::Registry* reg = engine.metrics()) {
    if (metrics_bound_ != reg) bind_metrics(reg);
    op_latency_[static_cast<std::size_t>(op.kind)].observe(
        static_cast<std::uint64_t>(ctx.now() - op_begin));
  }
}

rpc::BatchItem Accelerator::to_batch_item(const ProxyOp& op) const {
  rpc::BatchItem item;
  switch (op.kind) {
    case ProxyOp::Kind::kAlloc:
      item.op = Op::kMemAlloc;
      item.arg = op.bytes;
      break;
    case ProxyOp::Kind::kFree:
      item.op = Op::kMemFree;
      item.arg = to_device(op.dst);
      break;
    case ProxyOp::Kind::kKernelCheck:
      item.op = Op::kKernelCreate;
      item.kernel = op.kernel;
      break;
    case ProxyOp::Kind::kLaunch:
      item.op = Op::kKernelRun;
      item.kernel = op.kernel;
      item.launch = op.launch;
      item.args = op.args;
      for (gpu::KernelArg& a : item.args) {
        if (auto* p = std::get_if<gpu::DevPtr>(&a)) *p = to_device(*p);
      }
      break;
    default:
      throw std::logic_error("to_batch_item: op is not batchable");
  }
  return item;
}

bool Accelerator::attempt_batch(
    rpc::Channel& ch, const std::vector<std::unique_ptr<ProxyOp>>& group,
    std::vector<rpc::BatchResult>* out, SimTime deadline) {
  // Items are rebuilt per attempt: pointer translation must see the table
  // the *current* lease's replay produced.
  std::vector<rpc::BatchItem> items;
  items.reserve(group.size());
  for (const std::unique_ptr<ProxyOp>& op : group) {
    items.push_back(to_batch_item(*op));
  }
  const int reply_tag = ch.next_reply_tag();
  WireWriter w = ch.request(Op::kBatch, reply_tag);
  rpc::encode_batch(w, items);
  std::optional<util::Buffer> resp =
      ch.exchange(w.finish(), reply_tag, deadline);
  if (!resp.has_value()) return false;
  *out = rpc::decode_batch_reply(std::move(*resp), group.size());
  return true;
}

void Accelerator::execute_batch(rpc::Channel& ch, sim::Context& ctx,
                                std::vector<std::unique_ptr<ProxyOp>>& group) {
  const proto::ProtoParams& pp = session_->config().proto;
  sim::Engine& engine = session_->world_.engine();
  const rpc::RetryPolicy& rp = session_->config().retry;
  const SimTime begin = ctx.now();
  // Marshalling still costs the CN CPU once per sub-request; batching
  // amortises the messaging, not the encoding.
  ctx.wait_for(pp.fe_marshal * static_cast<SimDuration>(group.size()));
  sim::Tracer* const tracer = engine.tracer();
  std::uint64_t trace_id = 0;
  if (tracer != nullptr) {
    trace_id = (std::uint64_t{1} << 56) |
               (static_cast<std::uint64_t>(session_->self_) << 40) |
               (static_cast<std::uint64_t>(lease_.daemon_rank) << 24) |
               ++trace_seq_;
    engine.set_current_trace({trace_id, trace_id});
  }

  bool revoked_dead_end = false;
  std::uint32_t revoke_reason = arm::kRevokeFailure;
  if (rp.replace_on_failure && consume_revocation(ch, &revoke_reason) &&
      !try_replace(ch, ctx, revoke_reason != arm::kRevokePreempted)) {
    revoked_dead_end = true;
  }
  if (revoked_dead_end) {
    for (std::unique_ptr<ProxyOp>& op : group) {
      op->result->complete(Result::kUnavailable);
    }
  } else {
    std::vector<rpc::BatchResult> results;
    const bool answered = rpc::with_retry(ctx, rp, [&](SimTime deadline) {
      return attempt_batch(ch, group, &results, deadline);
    });
    if (!answered) {
      // The daemon went silent mid-stream. Replace it if policy allows and
      // push every sub-request through the single-op path (which replays
      // and retries on the fresh lease); otherwise the whole group fails.
      if (obs::FlightRecorder* fr = engine.flight()) {
        fr->note(ctx.now(), "fe",
                 "batch[" + std::to_string(group.size()) + "]: retry ladder " +
                     "exhausted on ac" + std::to_string(lease_.daemon_rank),
                 trace_id);
      }
      if (try_replace(ch, ctx, /*broken=*/true)) {
        for (std::unique_ptr<ProxyOp>& op : group) exec_op(ch, ctx, *op);
      } else {
        for (std::unique_ptr<ProxyOp>& op : group) {
          op->result->complete(Result::kUnavailable);
        }
      }
    } else {
      ch.note_flush(static_cast<std::uint32_t>(group.size()));
      bool device_dead = false;
      for (const rpc::BatchResult& r : results) {
        if (r.status == Result::kEccError) device_dead = true;
      }
      // Commit the successes first: they belong to the replay log, so a
      // replacement triggered by a failed sibling reconstructs them too.
      std::vector<std::size_t> failed;
      for (std::size_t i = 0; i < group.size(); ++i) {
        ProxyOp& op = *group[i];
        if (results[i].status == Result::kSuccess) {
          AttemptOut out;
          out.status = Result::kSuccess;
          out.ptr = results[i].ptr;
          commit(op, out);
          op.result->ptr = out.ptr;
          op.result->complete(Result::kSuccess);
        } else {
          failed.push_back(i);
        }
      }
      if (!failed.empty()) {
        if (device_dead) {
          if (obs::FlightRecorder* fr = engine.flight()) {
            fr->note(ctx.now(), "fe",
                     "batch: ecc failure on ac" +
                         std::to_string(lease_.daemon_rank) + ", " +
                         std::to_string(failed.size()) +
                         " sub-op(s) need a replacement",
                     trace_id);
          }
        }
        const bool replaced =
            device_dead && try_replace(ch, ctx, /*broken=*/true);
        for (const std::size_t i : failed) {
          if (replaced) {
            exec_op(ch, ctx, *group[i]);  // re-execute on the replacement
          } else {
            group[i]->result->complete(results[i].status);
          }
        }
      }
    }
  }

  if (tracer != nullptr) {
    engine.set_current_trace({});
    const std::string track = "fe-r" + std::to_string(session_->self_) +
                              "-ac" + std::to_string(lease_.daemon_rank);
    tracer->record(track, "batch[" + std::to_string(group.size()) + "]",
                   begin, ctx.now(), trace_id, trace_id, /*parent_id=*/0);
    // One child span per sub-op under the batch span. The id is derived the
    // same way on the daemon side (rpc::batch_sub_span), so its per-sub-op
    // spans parent on these and flow arrows stitch each small op through
    // the batch frame it rode in.
    for (std::size_t i = 0; i < group.size(); ++i) {
      tracer->record(track, op_label(*group[i]), begin, ctx.now(), trace_id,
                     rpc::batch_sub_span(trace_id,
                                         static_cast<std::uint32_t>(i)),
                     /*parent_id=*/trace_id);
    }
  }
  if (obs::Registry* reg = engine.metrics()) {
    if (metrics_bound_ != reg) bind_metrics(reg);
    const auto elapsed = static_cast<std::uint64_t>(ctx.now() - begin);
    for (const std::unique_ptr<ProxyOp>& op : group) {
      op_latency_[static_cast<std::size_t>(op->kind)].observe(elapsed);
    }
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

bool Accelerator::attempt_op(rpc::Channel& ch, sim::Context& ctx,
                             const ProxyOp& op, AttemptOut* out,
                             SimTime deadline) {
  (void)ctx;
  // One request/response exchange on this attempt's private tag pair (bulk
  // data on reply_tag + 1). The reply receive is posted before the request
  // goes out; on deadline expiry it is cancelled, so a late response parks
  // harmlessly on an abandoned tag.
  const int reply_tag = ch.next_reply_tag();
  const int data_tag = reply_tag + 1;
  auto exchange = [&](util::Buffer request) {
    return ch.exchange(std::move(request), reply_tag, deadline);
  };
  auto header = [&](Op o) { return ch.request(o, reply_tag); };

  switch (op.kind) {
    case ProxyOp::Kind::kAlloc: {
      auto resp = exchange(header(Op::kMemAlloc).u64(op.bytes).finish());
      if (!resp) return false;
      WireReader r(std::move(*resp));
      out->status = r.result();
      out->ptr = r.u64();
      return true;
    }
    case ProxyOp::Kind::kFree: {
      auto resp =
          exchange(header(Op::kMemFree).u64(to_device(op.dst)).finish());
      if (!resp) return false;
      out->status = WireReader(std::move(*resp)).result();
      return true;
    }
    case ProxyOp::Kind::kH2D: {
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
      out->status = WireReader(reply.take_payload()).result();
      return true;
    }
    case ProxyOp::Kind::kD2H: {
      auto resp = exchange(header(Op::kMemcpyDtoH)
                               .u64(to_device(op.src))
                               .u64(op.bytes)
                               .transfer_config(op.transfer)
                               .finish());
      if (!resp) return false;
      const Result pre = WireReader(std::move(*resp)).result();
      if (pre != Result::kSuccess) {
        out->status = pre;
        return true;
      }
      try {
        out->data = proto::recv_assemble(ch.mpi(), ch.comm(), ch.server(),
                                         op.bytes, op.transfer, data_tag,
                                         deadline);
      } catch (const proto::TransferTimeout&) {
        return false;
      }
      dmpi::Request fin = ch.post_reply(reply_tag);
      if (!ch.finish(fin, deadline)) return false;
      out->status = WireReader(fin.take_payload()).result();
      return true;
    }
    case ProxyOp::Kind::kLaunch: {
      gpu::KernelArgs args = op.args;
      for (gpu::KernelArg& a : args) {
        if (auto* p = std::get_if<gpu::DevPtr>(&a)) *p = to_device(*p);
      }
      auto resp = exchange(header(Op::kKernelRun)
                               .str(op.kernel)
                               .launch_config(op.launch)
                               .kernel_args(args)
                               .finish());
      if (!resp) return false;
      out->status = WireReader(std::move(*resp)).result();
      return true;
    }
    case ProxyOp::Kind::kKernelCheck: {
      auto resp = exchange(header(Op::kKernelCreate).str(op.kernel).finish());
      if (!resp) return false;
      out->status = WireReader(std::move(*resp)).result();
      return true;
    }
    case ProxyOp::Kind::kInfo: {
      auto resp = exchange(header(Op::kDeviceInfo).finish());
      if (!resp) return false;
      WireReader r(std::move(*resp));
      out->status = r.result();
      if (out->status == Result::kSuccess) {
        out->info.name = r.str();
        out->info.memory_bytes = r.u64();
        out->info.memory_free = r.u64();
      }
      return true;
    }
    case ProxyOp::Kind::kPeer: {
      auto resp = exchange(
          header(Op::kPeerSend)
              .u64(to_device(op.src))
              .u64(op.bytes)
              .u64(static_cast<std::uint64_t>(op.peer))
              .u64(session_->peer_device_ptr(op.peer, op.peer_dst))
              .transfer_config(op.transfer)
              .finish());
      if (!resp) return false;
      out->status = WireReader(std::move(*resp)).result();
      return true;
    }
    case ProxyOp::Kind::kStop:
      break;  // never reaches the wire
  }
  return true;
}

bool Accelerator::attempt_with_retry(rpc::Channel& ch, sim::Context& ctx,
                                     const ProxyOp& op, AttemptOut* out) {
  const bool answered =
      rpc::with_retry(ctx, session_->config().retry, [&](SimTime deadline) {
        return attempt_op(ch, ctx, op, out, deadline);
      });
  if (answered) ch.note_flush(1);  // a lone op is a command group of one
  return answered;
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
    AttemptOut out;
    if (!attempt_with_retry(ch, ctx, *e, &out)) return false;
    if (out.status != Result::kSuccess) return false;
    switch (e->kind) {
      case ProxyOp::Kind::kAlloc:
        allocs_[e->dst] = AllocSpan{e->bytes, out.ptr};
        break;
      case ProxyOp::Kind::kFree:
        allocs_.erase(e->dst);
        break;
      default:
        break;
    }
    ++*ops;
    if (e->kind == ProxyOp::Kind::kH2D) *bytes += e->data.size();
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

void Accelerator::commit(const ProxyOp& op, AttemptOut& out) {
  if (!session_->config().retry.replace_on_failure) return;
  using Kind = ProxyOp::Kind;
  auto clone = std::make_unique<ProxyOp>();
  clone->kind = op.kind;
  switch (op.kind) {
    case Kind::kAlloc: {
      // Hand the app a virtual pointer; the physical one goes in the table
      // so a replacement can rebind every later use. Alignment mirrors the
      // device allocator so interior arithmetic stays in range.
      const gpu::DevPtr app = next_virtual_;
      next_virtual_ += ((op.bytes + 255) / 256) * 256 + 256;
      allocs_[app] = AllocSpan{op.bytes, out.ptr};
      clone->bytes = op.bytes;
      clone->dst = app;
      replay_log_.push_back(std::move(clone));
      out.ptr = app;
      return;
    }
    case Kind::kFree:
      allocs_.erase(op.dst);
      clone->dst = op.dst;
      replay_log_.push_back(std::move(clone));
      return;
    case Kind::kH2D:
      clone->dst = op.dst;
      clone->data = op.data.view();  // shares the payload store, no copy
      clone->transfer = op.transfer;
      replay_log_.push_back(std::move(clone));
      return;
    case Kind::kLaunch:
      clone->kernel = op.kernel;
      clone->launch = op.launch;
      clone->args = op.args;  // app-level pointers; translated per attempt
      replay_log_.push_back(std::move(clone));
      return;
    default:
      // D2H / info / kernel-check are reads, peer copies are not replayable
      // (the peer's memory is not ours to restore — documented limitation).
      return;
  }
}

void Accelerator::exec_op(rpc::Channel& ch, sim::Context& ctx, ProxyOp& op) {
  Future::State& res = *op.result;
  const rpc::RetryPolicy& rp = session_->config().retry;
  for (;;) {
    std::uint32_t reason = arm::kRevokeFailure;
    if (rp.replace_on_failure && consume_revocation(ch, &reason)) {
      // Our lease was revoked — by the liveness sweep (slot dead) or by a
      // higher-priority preemption (slot healthy, not ours to break).
      // Replace before touching the wire either way.
      if (!try_replace(ch, ctx, reason != arm::kRevokePreempted)) {
        res.complete(Result::kUnavailable);
        return;
      }
    }
    AttemptOut out;
    const bool answered = attempt_with_retry(ch, ctx, op, &out);
    if (answered && out.status == Result::kSuccess) {
      commit(op, out);
      res.ptr = out.ptr;
      res.data = std::move(out.data);
      res.info = std::move(out.info);
      res.complete(Result::kSuccess);
      return;
    }
    const bool device_dead = answered && out.status == Result::kEccError;
    if ((device_dead || !answered) && try_replace(ch, ctx, /*broken=*/true)) {
      continue;  // state replayed; re-execute this op on the replacement
    }
    res.complete(answered ? out.status : Result::kUnavailable);
    return;
  }
}

std::string Accelerator::op_label(const ProxyOp& op) {
  using Kind = ProxyOp::Kind;
  auto size_suffix = [&] {
    const std::uint64_t bytes =
        op.kind == Kind::kH2D ? op.data.size() : op.bytes;
    if (bytes >= 1024 * 1024) {
      return " " + std::to_string(bytes / (1024 * 1024)) + "MiB";
    }
    return " " + std::to_string(bytes) + "B";
  };
  switch (op.kind) {
    case Kind::kAlloc:
      return "alloc" + size_suffix();
    case Kind::kFree:
      return "free";
    case Kind::kH2D:
      return "h2d" + size_suffix();
    case Kind::kD2H:
      return "d2h" + size_suffix();
    case Kind::kLaunch:
      return "launch " + op.kernel;
    case Kind::kKernelCheck:
      return "kernel_create " + op.kernel;
    case Kind::kInfo:
      return "device_info";
    case Kind::kPeer:
      return "peer_copy" + size_suffix();
    case Kind::kStop:
      return "stop";
  }
  return "?";
}

Future Accelerator::mem_alloc_async(std::uint64_t bytes) {
  ProxyOp op;
  op.kind = ProxyOp::Kind::kAlloc;
  op.bytes = bytes;
  return enqueue(std::move(op));
}

Future Accelerator::memcpy_h2d_async(gpu::DevPtr dst, util::Buffer src) {
  ProxyOp op;
  op.kind = ProxyOp::Kind::kH2D;
  op.dst = dst;
  op.data = std::move(src);
  op.transfer = transfer_;
  return enqueue(std::move(op));
}

Future Accelerator::memcpy_d2h_async(gpu::DevPtr src, std::uint64_t bytes) {
  ProxyOp op;
  op.kind = ProxyOp::Kind::kD2H;
  op.src = src;
  op.bytes = bytes;
  op.transfer = transfer_;
  return enqueue(std::move(op));
}

Future Accelerator::launch_async(const std::string& kernel,
                                 const gpu::LaunchConfig& config,
                                 gpu::KernelArgs args) {
  ProxyOp op;
  op.kind = ProxyOp::Kind::kLaunch;
  op.kernel = kernel;
  op.launch = config;
  op.args = std::move(args);
  return enqueue(std::move(op));
}

Future Accelerator::copy_to_peer_async(gpu::DevPtr src, Accelerator& peer,
                                       gpu::DevPtr peer_dst,
                                       std::uint64_t bytes) {
  ProxyOp op;
  op.kind = ProxyOp::Kind::kPeer;
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
  op.kind = ProxyOp::Kind::kFree;
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
  op.kind = ProxyOp::Kind::kKernelCheck;
  op.kernel = name;
  enqueue(std::move(op)).get(session_->ctx_);
  return Kernel(*this, name);
}

DeviceInfo Accelerator::info() {
  ProxyOp op;
  op.kind = ProxyOp::Kind::kInfo;
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
