// Back-end daemon: the service that runs on every accelerator node
// (paper Figure 4). It receives middleware requests over dmpi, executes them
// on the local (simulated) GPU through the driver facade, and sends
// responses back — the "two MPI messages per request" protocol of
// Section IV. Bulk copies use the naive or pipeline transfer engine chosen
// by the client per request.
#pragma once

#include <cstdint>

#include "dmpi/mpi.hpp"
#include "gpu/device.hpp"
#include "obs/metrics.hpp"
#include "proto/wire.hpp"
#include "rpc/batch.hpp"
#include "rpc/channel.hpp"

namespace dacc::daemon {

class Daemon {
 public:
  Daemon(gpu::Device& device, dmpi::World& world, dmpi::Rank self_world_rank,
         proto::ProtoParams params = {});

  /// Service loop: runs until a kShutdown request arrives. Must be invoked
  /// as the body of the accelerator node's sim process.
  void run(sim::Context& ctx);

  std::uint64_t requests_served() const { return requests_served_; }
  /// Frames rejected because they failed to decode (fuzzed/corrupted wire).
  std::uint64_t malformed_requests() const { return malformed_requests_; }
  gpu::Device& device() { return device_; }
  dmpi::Rank rank() const { return self_; }

 private:
  /// Runs one small control op (alloc, free, kernel-create, kernel-run) on
  /// the device: the one executor behind single-op frames and kBatch
  /// sub-requests alike. `ptr` is set for kMemAlloc only.
  rpc::BatchResult execute(const rpc::BatchItem& item, SimTime now);
  void handle_htod(rpc::ServerChannel& ch, sim::Context& ctx,
                   dmpi::Rank client, int reply_tag, proto::WireReader& req);
  void handle_dtoh(rpc::ServerChannel& ch, sim::Context& ctx,
                   dmpi::Rank client, int reply_tag, proto::WireReader& req);
  void handle_device_info(rpc::ServerChannel& ch, dmpi::Rank client,
                          int reply_tag);
  void handle_peer_send(rpc::ServerChannel& ch, sim::Context& ctx,
                        dmpi::Rank client, int reply_tag,
                        proto::WireReader& req);
  /// Executes a kBatch frame: decodes every sub-request before touching the
  /// device (a malformed batch is rejected whole, never partially applied),
  /// runs them in order charging be_dispatch each, replies once. When the
  /// stream is traced, `parent_span` (the client's batch span) parents one
  /// daemon span per sub-op via rpc::batch_sub_span.
  void handle_batch(rpc::ServerChannel& ch, sim::Context& ctx,
                    dmpi::Rank client, int reply_tag, proto::WireReader& req,
                    std::uint64_t parent_span);

  void respond_status(rpc::ServerChannel& ch, dmpi::Rank client,
                      int reply_tag, gpu::Result r);

  /// Streams `bytes` from device address `src` to rank `to`, one message
  /// per block of `config`'s plan on `tag`, each sent as its DMA lands. A
  /// block whose DMA fails goes out as zeros, so the wire protocol stays
  /// intact. A copy to the host pays copy_extra_busy per block; the peer
  /// leg pays none. Returns the first failing DMA status.
  gpu::Result send_device_blocks(rpc::ServerChannel& ch, sim::Context& ctx,
                                 dmpi::Rank to, int tag, gpu::DevPtr src,
                                 std::uint64_t bytes,
                                 const proto::TransferConfig& config,
                                 bool to_host);

  /// Serialized host-side cost added to a block's DMA: the GPUDirect v1
  /// shared-page rate penalty, or (without GPUDirect) the staging copy.
  SimDuration copy_extra_busy(std::uint64_t bytes, bool gpudirect,
                              bool h2d) const;

  /// Registers this daemon's metrics against `reg` (idempotent re-bind).
  void bind_metrics(obs::Registry* reg);

  gpu::Device& device_;
  dmpi::World& world_;
  dmpi::Rank self_;
  proto::ProtoParams params_;
  gpu::Stream stream_;  ///< single in-order op stream (CUDA default-stream)
  std::uint64_t requests_served_ = 0;
  std::uint64_t malformed_requests_ = 0;
  std::uint64_t span_seq_ = 0;  ///< per-request trace span ids

  // Metrics (lazy-bound, no-op handles when no registry is attached).
  obs::Registry* metrics_bound_ = nullptr;
  obs::Counter m_requests_;
  obs::Counter m_malformed_;
  obs::Counter m_busy_ns_;
  obs::Histogram m_h2d_overlap_pct_;
};

}  // namespace dacc::daemon
