#include "arm/arm.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "sim/trace.hpp"

namespace dacc::arm {

using proto::WireReader;
using proto::WireWriter;

Command command_of(rpc::Inbound& in) {
  Command cmd;
  cmd.client = in.source;
  cmd.reply_tag = in.reply_tag;
  cmd.op = in.op_word;
  cmd.body = in.body.rest();
  return cmd;
}

void execute_effects(sim::Context& ctx, rpc::ServerChannel& channel,
                     std::vector<Effect>& effects) {
  sim::Engine& engine = ctx.engine();
  for (Effect& e : effects) {
    if (e.kind != Effect::Kind::kTrace) {
      // A reply or an unsolicited revocation notice: one frame to `to`.
      channel.reply(e.to, e.tag, std::move(e.frame));
      continue;
    }
    // Revocations and replacements surface as trace effects; mirror them
    // into the flight recorder for post-mortems.
    if (obs::FlightRecorder* fr = engine.flight()) {
      fr->note(ctx.now(), "arm", e.label, engine.current_trace().trace_id);
    }
    if (sim::Tracer* tracer = engine.tracer()) {
      tracer->record("arm", e.label, ctx.now(), ctx.now());
    }
  }
}

Arm::Arm(dmpi::World& world, dmpi::Rank self_world_rank,
         std::vector<AcceleratorInfo> pool, QueuePolicy policy,
         PlacementMap placement)
    : world_(world), self_(self_world_rank),
      machine_(std::move(pool), policy, std::move(placement)) {
  machine_.bind_metrics(world.engine().metrics());
}

void Arm::run(sim::Context& ctx) {
  dmpi::Mpi mpi(world_, ctx, self_);
  rpc::ServerChannel channel(
      mpi, world_.world_comm(),
      rpc::ServerChannel::Options{kArmRequestTag, /*min_reply_tag=*/0});
  for (;;) {
    dmpi::Rank source = -1;
    util::Buffer msg = channel.raw(&source);
    // Bookkeeping cost of one management request.
    ctx.wait_for(1'000);
    bool shutdown = false;
    try {
      rpc::Inbound in = channel.decode(source, std::move(msg));
      ApplyResult result = machine_.apply(command_of(in), ctx.now());
      shutdown = result.shutdown;
      execute_effects(ctx, channel, result.effects);
    } catch (const proto::WireError&) {
      // Malformed management frame (fuzzed or corrupted): drop it and keep
      // serving — the pool must outlive bad clients.
      if (obs::FlightRecorder* fr = world_.engine().flight()) {
        fr->note(ctx.now(), "arm",
                 "wire-error: dropped malformed frame from r" +
                     std::to_string(source));
      }
    }
    if (shutdown) return;
    machine_.sample_assigned();
  }
}

// ---------------------------------------------------------------------------
// ArmClient
// ---------------------------------------------------------------------------

ArmClient::ArmClient(dmpi::Mpi& mpi, const dmpi::Comm& comm,
                     std::vector<dmpi::Rank> arm_ranks)
    : channel_(mpi, comm, arm_ranks.at(0),
               rpc::Channel::Options{kArmRequestTag, /*trace_context=*/false,
                                     /*metrics_label=*/{}}),
      endpoints_(std::move(arm_ranks)) {}

WireReader ArmClient::call(util::Buffer frame, int reply_tag) {
  if (endpoints_.size() == 1) {
    // Single ARM: exchanges have no deadline — acquires may legitimately
    // queue at the pool until capacity frees up.
    return WireReader(*channel_.exchange(frame.view(), reply_tag));
  }
  // Replicated ARM failover ladder (DESIGN.md §11): resend the identical
  // frame — same reply tag — until a real answer arrives. kNotLeader
  // redirects re-target the hinted leader immediately; silence for a
  // failover window rotates to the next replica (the addressed one may be
  // dead or partitioned). Resends are safe: the lease machine's reply
  // cache answers duplicates without re-applying them, and a late reply to
  // an earlier attempt matches the still-posted any-source receive.
  for (;;) {
    const SimTime deadline = channel_.mpi().context().now() + failover_timeout_;
    std::optional<util::Buffer> resp =
        channel_.exchange(frame.view(), reply_tag, deadline);
    if (!resp.has_value()) {
      std::size_t at = 0;  // server outside the set: restart at replica 0
      for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        if (endpoints_[i] == channel_.server()) {
          at = (i + 1) % endpoints_.size();
          break;
        }
      }
      if (obs::FlightRecorder* fr =
              channel_.mpi().context().engine().flight()) {
        fr->note(channel_.mpi().context().engine(), "arm-client",
                 "failover: r" + std::to_string(channel_.server()) +
                     " silent, rotating to r" +
                     std::to_string(endpoints_[at]));
      }
      channel_.set_server(endpoints_[at]);
      continue;
    }
    WireReader peek(resp->view());
    if (static_cast<ArmResult>(peek.u32()) == ArmResult::kNotLeader) {
      const auto hint =
          static_cast<dmpi::Rank>(static_cast<std::int64_t>(peek.u64()));
      // Follow the hint only into the configured endpoint set: a stale or
      // corrupted replica must not be able to point the client at an
      // arbitrary rank that will never answer.
      if (hint >= 0 && std::find(endpoints_.begin(), endpoints_.end(),
                                 hint) != endpoints_.end()) {
        if (obs::FlightRecorder* fr =
                channel_.mpi().context().engine().flight()) {
          fr->note(channel_.mpi().context().engine(), "arm-client",
                   "failover: following leader hint to r" +
                       std::to_string(hint));
        }
        channel_.set_server(hint);
      } else {
        // The replica has no leader yet (election in progress): pause one
        // failover window before asking again rather than spinning.
        channel_.mpi().context().wait_for(failover_timeout_);
      }
      continue;
    }
    return WireReader(std::move(*resp));
  }
}

std::vector<Lease> ArmClient::acquire(const ResourceRequest& req) {
  const int reply_tag = channel_.next_reply_tag();
  proto::WireWriter w = channel_.request(ArmOp::kAcquire, reply_tag);
  req.encode_body(w);
  WireReader resp = call(w.finish(), reply_tag);
  const auto result = static_cast<ArmResult>(resp.u32());
  const std::uint32_t granted = resp.u32();
  std::vector<Lease> leases;
  if (result != ArmResult::kOk) return leases;
  leases.reserve(granted);
  for (std::uint32_t i = 0; i < granted; ++i) {
    Lease l;
    l.daemon_rank = static_cast<dmpi::Rank>(resp.u64());
    l.lease_id = resp.u64();
    leases.push_back(l);
  }
  return leases;
}

ArmResult ArmClient::release(std::uint64_t job, const Lease& lease) {
  const int reply_tag = channel_.next_reply_tag();
  return static_cast<ArmResult>(
      call(channel_.request(ArmOp::kRelease, reply_tag)
               .u64(job)
               .u64(static_cast<std::uint64_t>(lease.daemon_rank))
               .u64(lease.lease_id)
               .finish(),
           reply_tag)
          .u32());
}

ArmResult ArmClient::release_job(std::uint64_t job) {
  const int reply_tag = channel_.next_reply_tag();
  return static_cast<ArmResult>(
      call(channel_.request(ArmOp::kReleaseJob, reply_tag).u64(job).finish(),
           reply_tag)
          .u32());
}

ArmResult ArmClient::report_broken(dmpi::Rank daemon_rank) {
  const int reply_tag = channel_.next_reply_tag();
  return static_cast<ArmResult>(
      call(channel_.request(ArmOp::kReportBroken, reply_tag)
               .u64(static_cast<std::uint64_t>(daemon_rank))
               .finish(),
           reply_tag)
          .u32());
}

PoolStats ArmClient::stats() {
  const int reply_tag = channel_.next_reply_tag();
  WireReader resp =
      call(channel_.request(ArmOp::kStats, reply_tag).finish(), reply_tag);
  (void)resp.u32();  // ArmResult::kOk
  PoolStats s;
  s.total = resp.u32();
  s.free = resp.u32();
  s.assigned = resp.u32();
  s.broken = resp.u32();
  s.acquisitions = resp.u64();
  s.queued_requests = resp.u32();
  s.heartbeats = resp.u64();
  s.revocations = resp.u32();
  s.replacements = resp.u32();
  s.preemptions = resp.u32();
  return s;
}

ArmResult ArmClient::report_replaced(const ReplayReport& report) {
  const int reply_tag = channel_.next_reply_tag();
  return static_cast<ArmResult>(
      call(report.encode(reply_tag), reply_tag).u32());
}

void ArmClient::shutdown() {
  const int reply_tag = channel_.next_reply_tag();
  (void)call(channel_.request(ArmOp::kShutdown, reply_tag).finish(),
             reply_tag);
}

}  // namespace dacc::arm
