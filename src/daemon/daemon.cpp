#include "daemon/daemon.hpp"

#include <algorithm>
#include <vector>

#include "obs/flight.hpp"
#include "proto/transfer.hpp"
#include "rpc/batch.hpp"
#include "sim/trace.hpp"

namespace dacc::daemon {

using gpu::Result;
using proto::Op;
using proto::TransferConfig;
using proto::WireReader;
using proto::WireWriter;

Daemon::Daemon(gpu::Device& device, dmpi::World& world,
               dmpi::Rank self_world_rank, proto::ProtoParams params)
    : device_(device),
      world_(world),
      self_(self_world_rank),
      params_(params),
      stream_(device) {}

SimDuration Daemon::copy_extra_busy(std::uint64_t bytes, bool gpudirect,
                                    bool h2d) const {
  if (!gpudirect) {
    // Staging copy through ordinary pinned memory, serialized with the DMA.
    return transfer_time(bytes, params_.staging_copy_mib_s);
  }
  // GPUDirect v1 shared pages DMA more slowly than the plain pinned path;
  // charge the rate difference on top of the device's pinned model.
  const double pinned = h2d ? device_.params().h2d_pinned_mib_s
                            : device_.params().d2h_pinned_mib_s;
  const SimDuration gd = transfer_time(bytes, params_.gpudirect_dma_mib_s);
  const SimDuration base = transfer_time(bytes, pinned);
  return gd > base ? gd - base : 0;
}

void Daemon::respond_status(rpc::ServerChannel& ch, dmpi::Rank client,
                            int reply_tag, gpu::Result r) {
  ch.reply(client, reply_tag, WireWriter{}.result(r).finish());
}

void Daemon::bind_metrics(obs::Registry* reg) {
  const std::string rank = "{rank=\"" + std::to_string(self_) + "\"}";
  m_requests_ = reg->counter("dacc_daemon_requests_total" + rank);
  m_malformed_ = reg->counter("dacc_daemon_malformed_total" + rank);
  m_busy_ns_ = reg->counter("dacc_daemon_busy_ns_total" + rank);
  m_h2d_overlap_pct_ = reg->histogram(
      "dacc_daemon_h2d_overlap_pct" + rank, {10, 25, 50, 75, 90, 100});
  metrics_bound_ = reg;
}

void Daemon::run(sim::Context& ctx) {
  dmpi::Mpi mpi(world_, ctx, self_);
  rpc::ServerChannel channel(mpi, world_.world_comm(),
                             rpc::ServerChannel::Options{});
  const std::string track = "daemon-r" + std::to_string(self_);
  for (;;) {
    dmpi::Rank source = -1;
    util::Buffer msg = channel.raw(&source);
    const SimTime begin = ctx.now();
    obs::Registry* const reg = world_.engine().metrics();
    if (reg != nullptr && metrics_bound_ != reg) bind_metrics(reg);
    const SimDuration busy_before =
        reg != nullptr ? device_.copy_busy() + device_.compute_busy() : 0;
    ctx.wait_for(params_.be_dispatch);
    ++requests_served_;
    if (reg != nullptr) m_requests_.add();
    // A frame whose header fails to decode (truncated, or reply tag out of
    // range) cannot even be answered — count it and stay alive.
    Op op{};
    std::uint64_t span_id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
    bool shutdown = false;
    try {
      rpc::Inbound in = channel.decode(source, std::move(msg));
      op = in.op<Op>();
      trace_id = in.trace_id;
      parent_span = in.parent_span;
      // Execute the request under the client's trace so the NIC spans of
      // the reply (and of any daemon-to-daemon leg) chain to this span.
      if (in.traced()) {
        span_id = (std::uint64_t{2} << 56) |
                  (static_cast<std::uint64_t>(self_) << 24) | ++span_seq_;
        world_.engine().set_current_trace({trace_id, span_id});
      }
      try {
        switch (op) {
          case Op::kMemAlloc:
          case Op::kMemFree:
          case Op::kKernelCreate:
          case Op::kKernelRun: {
            const rpc::BatchResult res =
                execute(rpc::decode_item(op, in.body), ctx.now());
            WireWriter reply;
            reply.result(res.status);
            if (op == Op::kMemAlloc) reply.u64(res.ptr);
            channel.reply(in, reply.finish());
            break;
          }
          case Op::kMemcpyHtoD:
          case Op::kPeerPut:  // peer puts are H2D copies fed by a peer daemon
            handle_htod(channel, ctx, in.source, in.reply_tag, in.body);
            break;
          case Op::kMemcpyDtoH:
            handle_dtoh(channel, ctx, in.source, in.reply_tag, in.body);
            break;
          case Op::kDeviceInfo:
            handle_device_info(channel, in.source, in.reply_tag);
            break;
          case Op::kPeerSend:
            handle_peer_send(channel, ctx, in.source, in.reply_tag, in.body);
            break;
          case Op::kBatch:
            handle_batch(channel, ctx, in.source, in.reply_tag, in.body,
                         parent_span);
            break;
          case Op::kShutdown:
            respond_status(channel, in.source, in.reply_tag, Result::kSuccess);
            shutdown = true;
            break;
          default:
            ++malformed_requests_;
            respond_status(channel, in.source, in.reply_tag,
                           Result::kInvalidValue);
            break;
        }
      } catch (const proto::WireError&) {
        // Handlers decode their full payload before sending anything, so a
        // decode failure here has produced no partial reply yet.
        ++malformed_requests_;
        if (reg != nullptr) m_malformed_.add();
        if (obs::FlightRecorder* fr = world_.engine().flight()) {
          fr->note(ctx.now(), "daemon",
                   "wire-error: malformed " + std::string(proto::to_string(op)) +
                       " payload from r" + std::to_string(source),
                   trace_id);
        }
        respond_status(channel, in.source, in.reply_tag,
                       Result::kInvalidValue);
      }
    } catch (const proto::WireError&) {
      ++malformed_requests_;
      if (reg != nullptr) m_malformed_.add();
      if (obs::FlightRecorder* fr = world_.engine().flight()) {
        fr->note(ctx.now(), "daemon",
                 "wire-error: undecodable frame header from r" +
                     std::to_string(source));
      }
      continue;
    }
    if (trace_id != 0) world_.engine().set_current_trace({});
    if (sim::Tracer* tracer = world_.engine().tracer()) {
      tracer->record(track, proto::to_string(op), begin, ctx.now(), trace_id,
                     span_id, parent_span);
    }
    if (reg != nullptr) {
      const SimDuration busy =
          device_.copy_busy() + device_.compute_busy() - busy_before;
      m_busy_ns_.add(static_cast<std::uint64_t>(busy));
      if (op == Op::kMemcpyHtoD || op == Op::kPeerPut) {
        const SimDuration elapsed = ctx.now() - begin;
        // Overlap ratio: share of the request's wall time the copy engine
        // was busy — 100 means the network receive fully hid behind DMA.
        const std::uint64_t pct =
            elapsed > 0 ? std::min<std::uint64_t>(
                              100, static_cast<std::uint64_t>(busy) * 100 /
                                       static_cast<std::uint64_t>(elapsed))
                        : 0;
        m_h2d_overlap_pct_.observe(pct);
      }
    }
    if (shutdown) return;
  }
}

rpc::BatchResult Daemon::execute(const rpc::BatchItem& item, SimTime now) {
  rpc::BatchResult out;
  switch (item.op) {
    case Op::kMemAlloc:
      out.status = device_.mem_alloc(item.arg, &out.ptr);
      break;
    case Op::kMemFree:
      out.status = device_.mem_free(item.arg);
      break;
    case Op::kKernelCreate:
      out.status = device_.broken() ? Result::kEccError
                   : device_.registry().contains(item.kernel)
                       ? Result::kSuccess
                       : Result::kNotFound;
      break;
    case Op::kKernelRun:
      // Kernel launches are asynchronous (CUDA semantics): the reply carries
      // the issue status; the stream carries the execution cost, and later
      // operations on this daemon's stream order behind it.
      out.status = device_
                       .launch_async(stream_, item.kernel, item.launch,
                                     item.args, now)
                       .status;
      break;
    default:
      out.status = Result::kInvalidValue;  // unreachable: decode validated
      break;
  }
  return out;
}

void Daemon::handle_htod(rpc::ServerChannel& ch, sim::Context& ctx,
                         dmpi::Rank client, int reply_tag, WireReader& req) {
  const gpu::DevPtr dst = req.u64();
  const std::uint64_t bytes = req.u64();
  const TransferConfig config = req.transfer_config();

  Result fail = Result::kSuccess;
  proto::recv_blocks(
      ch.mpi(), ch.comm(), client, bytes, config,
      [&](std::uint64_t offset, util::Buffer block) {
        // Without GPUDirect the receive buffer is not GPU-registered: each
        // block pays a host staging copy that serializes with its DMA (both
        // traverse host memory). With GPUDirect v1 the pinned pages are
        // shared but DMA through them runs below the plain pinned rate
        // (paper Section IV); both effects land in extra_busy.
        const gpu::OpHandle op = device_.memcpy_htod_async(
            stream_, dst + offset, block, gpu::HostMemType::kPinned,
            ctx.now(),
            copy_extra_busy(block.size(), config.gpudirect, /*h2d=*/true));
        if (!op.ok() && fail == Result::kSuccess) fail = op.status;
      },
      reply_tag + 1);
  // Drain the DMA chain before acknowledging.
  ctx.wait_until(stream_.ready_at());
  respond_status(ch, client, reply_tag, fail);
}

void Daemon::handle_dtoh(rpc::ServerChannel& ch, sim::Context& ctx,
                         dmpi::Rank client, int reply_tag, WireReader& req) {
  const gpu::DevPtr src = req.u64();
  const std::uint64_t bytes = req.u64();
  const TransferConfig config = req.transfer_config();

  // Validate up front so the client learns about errors before it starts
  // waiting for data blocks.
  if (device_.broken() || !device_.valid_range(src, bytes)) {
    respond_status(ch, client, reply_tag,
                   device_.broken() ? Result::kEccError
                                    : Result::kInvalidValue);
    return;
  }
  respond_status(ch, client, reply_tag, Result::kSuccess);
  respond_status(ch, client, reply_tag,
                 send_device_blocks(ch, ctx, client, reply_tag + 1, src, bytes,
                                    config, /*to_host=*/true));
}

Result Daemon::send_device_blocks(rpc::ServerChannel& ch, sim::Context& ctx,
                                  dmpi::Rank to, int tag, gpu::DevPtr src,
                                  std::uint64_t bytes,
                                  const TransferConfig& config, bool to_host) {
  dmpi::Mpi& mpi = ch.mpi();
  const proto::BlockPlan plan(bytes, config);
  Result fail = Result::kSuccess;
  std::vector<dmpi::Request> sends;
  sends.reserve(plan.count());
  for (std::size_t i = 0; i < plan.count(); ++i) {
    util::Buffer block;
    const gpu::OpHandle op = device_.memcpy_dtoh_async(
        stream_, src + plan.offset(i), plan.size(i),
        gpu::HostMemType::kPinned, ctx.now(), &block,
        to_host ? copy_extra_busy(plan.size(i), config.gpudirect,
                                  /*h2d=*/false)
                : 0);
    if (!op.ok()) {
      // Keep the wire protocol intact: ship a zero block and report at the
      // end (a device may break mid-transfer under fault injection).
      if (fail == Result::kSuccess) fail = op.status;
      block = util::Buffer::phantom(plan.size(i));
    } else {
      ctx.wait_until(op.done_at);
    }
    sends.push_back(mpi.isend(ch.comm(), to, tag, std::move(block)));
  }
  mpi.wait_all(sends);
  return fail;
}

void Daemon::handle_device_info(rpc::ServerChannel& ch, dmpi::Rank client,
                                int reply_tag) {
  ch.reply(client, reply_tag,
           WireWriter{}
               .result(device_.broken() ? Result::kEccError : Result::kSuccess)
               .str(device_.params().name)
               .u64(device_.params().memory_bytes)
               .u64(device_.memory_free())
               .finish());
}

void Daemon::handle_peer_send(rpc::ServerChannel& ch, sim::Context& ctx,
                              dmpi::Rank client, int reply_tag,
                              WireReader& req) {
  const gpu::DevPtr src = req.u64();
  const std::uint64_t bytes = req.u64();
  const auto peer = static_cast<dmpi::Rank>(req.u64());
  const gpu::DevPtr peer_dst = req.u64();
  const TransferConfig config = req.transfer_config();

  if (device_.broken() || !device_.valid_range(src, bytes)) {
    respond_status(ch, client, reply_tag,
                   device_.broken() ? Result::kEccError
                                    : Result::kInvalidValue);
    return;
  }

  // Head of the daemon-to-daemon leg: the peer executes it as an H2D copy
  // whose payload we stream directly from our device — the compute node is
  // not involved, which is the point of the paper's accelerator-to-
  // accelerator transfer claim (Section III.C). The put takes a tag from
  // this rank's tag space like any other request; its data rides tag + 1.
  rpc::Channel peer_ch(ch.mpi(), ch.comm(), peer, rpc::Channel::Options{});
  const int put_tag = peer_ch.next_reply_tag();
  dmpi::Request verdict = peer_ch.post_reply(put_tag);
  peer_ch.send_request(peer_ch.request(Op::kPeerPut, put_tag)
                           .u64(peer_dst)
                           .u64(bytes)
                           .transfer_config(config)
                           .finish());

  const Result sent = send_device_blocks(ch, ctx, peer, put_tag + 1, src,
                                         bytes, config, /*to_host=*/false);

  // The peer acknowledges the put to us. Answer the client with the first
  // failure: a block our device failed to read, else the peer's verdict.
  (void)peer_ch.finish(verdict);
  const Result put = WireReader(verdict.take_payload()).result();
  respond_status(ch, client, reply_tag,
                 sent != Result::kSuccess ? sent : put);
}

void Daemon::handle_batch(rpc::ServerChannel& ch, sim::Context& ctx,
                          dmpi::Rank client, int reply_tag, WireReader& req,
                          std::uint64_t parent_span) {
  // Decode everything before executing anything: a malformed batch throws
  // out of here with the device untouched and run() answers with a single
  // kInvalidValue status — no partial execution, no partial reply.
  const std::vector<rpc::BatchItem> items = rpc::decode_batch(req);
  std::vector<rpc::BatchResult> results;
  results.reserve(items.size());
  sim::Tracer* const tracer = world_.engine().tracer();
  const std::uint64_t trace_id = world_.engine().current_trace().trace_id;
  const std::string track = "daemon-r" + std::to_string(self_);
  bool first = true;
  for (const rpc::BatchItem& item : items) {
    // Each sub-request pays the same dispatch cost as a standalone frame —
    // batching saves messages, not daemon CPU. run() charged the first one.
    if (!first) ctx.wait_for(params_.be_dispatch);
    first = false;
    const SimTime item_begin = ctx.now();
    results.push_back(execute(item, item_begin));
    // One daemon span per sub-op, parented on the front-end's derived child
    // span so viewers stitch each small op through the batch frame.
    if (tracer != nullptr && parent_span != 0) {
      const std::uint64_t span = (std::uint64_t{2} << 56) |
                                 (static_cast<std::uint64_t>(self_) << 24) |
                                 ++span_seq_;
      const auto index =
          static_cast<std::uint32_t>(&item - items.data());
      tracer->record(track, proto::to_string(item.op), item_begin, ctx.now(),
                     trace_id, span,
                     rpc::batch_sub_span(parent_span, index));
    }
  }
  // Sub-requests count like the standalone frames they replace (run()
  // already counted the batch frame as one).
  requests_served_ += items.size() - 1;
  m_requests_.add(items.size() - 1);
  ch.reply(client, reply_tag, rpc::encode_batch_reply(results));
}

}  // namespace dacc::daemon
