// Interconnect fabric model.
//
// The cluster network is a full-bisection switch: every node owns one NIC
// with independent transmit and receive directions, each modelled as a
// serialized resource at the link byte rate (sim::SerialResource). A
// transfer occupies the sender's tx port, propagates for the wire latency,
// and occupies the receiver's rx port cut-through style (the rx occupancy
// starts one latency after the tx occupancy starts, so a solo transfer costs
// latency + bytes/bandwidth, not 2x bytes/bandwidth). Port contention —
// e.g., compute-node-to-accelerator traffic competing with
// compute-node-to-compute-node traffic, the effect Section III warns about —
// falls out of the FIFO port schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/model_params.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "util/units.hpp"

namespace dacc::net {

using NodeId = int;

class Fabric {
 public:
  Fabric(sim::Engine& engine, int num_nodes, FabricParams params = {});

  int num_nodes() const { return static_cast<int>(nics_.size()); }
  const FabricParams& params() const { return params_; }
  sim::Engine& engine() { return engine_; }

  /// One-way wire latency of the src -> dst link: the per-pair override
  /// when one exists, the uniform wire_latency otherwise. Symmetric.
  SimDuration latency_of(NodeId src, NodeId dst) const {
    if (!link_latency_.empty()) {
      const auto it = link_latency_.find(link_key(src, dst));
      if (it != link_latency_.end()) return it->second;
    }
    return params_.wire_latency;
  }

  /// Moves `bytes` from `src` to `dst`, starting no earlier than
  /// max(`earliest`, now), with an engine callback at the delivery time: the
  /// one timing model every simulated message takes. The callback is
  /// silently discarded when the transfer is dropped by a failed link (the
  /// wire model of message loss). Templated so move-only callbacks
  /// (carrying payload buffers by value) go straight into the engine's
  /// pooled event storage without a std::function box.
  ///
  /// Runs in two phases so each NIC is only ever touched from its own node's
  /// context (the parallel backend's isolation invariant): the send phase
  /// executes here — in the caller's (src) context — consuming tx-port time
  /// and source-side accounting; the receive phase rides the payload to the
  /// destination node one wire latency later and consumes rx-port time
  /// there. Receive-port contention therefore resolves in arrival order,
  /// which is identical under every backend.
  template <typename F>
  void deliver(NodeId src, NodeId dst, std::uint64_t bytes, SimTime earliest,
               F&& on_delivered) {
    const TxPlan plan = plan_transfer(src, dst, bytes, earliest);
    switch (plan.kind) {
      case TxPlan::Kind::kLoopback:
        engine_.schedule_at(plan.at, std::forward<F>(on_delivered));
        break;
      case TxPlan::Kind::kSrcDead:
        break;  // nothing was injected; drop already accounted at src
      case TxPlan::Kind::kDstDead:
        // tx time was consumed; the wire front reaches a dark NIC. The
        // drop is accounted on the destination's shard.
        engine_.post(dst, plan.at, [this, dst] {
          ++nics_[static_cast<std::size_t>(dst)].drops;
          count_drop(dst);
        });
        break;
      case TxPlan::Kind::kSend:
        engine_.post(dst, plan.at,
                     [this, dst, bytes, busy = plan.busy,
                      src_dropped = plan.src_dropped,
                      cb = std::forward<F>(on_delivered)]() mutable {
                       finish_receive(dst, bytes, busy, src_dropped,
                                      std::move(cb));
                     });
        break;
    }
  }

  // --- deterministic fault injection (mirrors rt break_accelerator) -------

  /// The node's NIC goes dark at simulated time `at`: transfers that would
  /// start or still be draining past `at` are dropped. Loopback traffic is
  /// unaffected (it never touches the NIC). Repeated calls keep the
  /// earliest failure time.
  void fail_link(NodeId node, SimTime at);

  /// From `at` on, the node's NIC runs at `bandwidth_factor` (0 < f <= 1)
  /// of the calibrated link rate (degraded link, e.g. a flapping cable
  /// renegotiating a lower speed).
  void degrade_link(NodeId node, SimTime at, double bandwidth_factor);

  bool link_failed(NodeId node, SimTime at) const;
  /// Transfers dropped because this node's NIC was down.
  std::uint64_t drops(NodeId node) const;
  std::uint64_t total_drops() const {
    std::uint64_t total = 0;
    for (const Nic& n : nics_) total += n.drops;
    return total;
  }

  /// Per-node traffic counters (diagnostics / utilization reporting).
  std::uint64_t bytes_sent(NodeId node) const;
  std::uint64_t bytes_received(NodeId node) const;
  SimDuration tx_busy(NodeId node) const;
  SimDuration rx_busy(NodeId node) const;

 private:
  struct Nic {
    sim::SerialResource tx;
    sim::SerialResource rx;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t drops = 0;
    SimTime down_at = kSimTimeNever;
    SimTime degraded_at = kSimTimeNever;
    double degrade_factor = 1.0;
  };

  /// Send-phase result for the two-phase deliver() path.
  struct TxPlan {
    enum class Kind { kLoopback, kSrcDead, kDstDead, kSend } kind;
    SimTime at = 0;            ///< delivery (loopback) or wire-arrival time
    SimDuration busy = 0;      ///< serialization time to charge the rx port
    bool src_dropped = false;  ///< src NIC died while the tx port drained
  };

  /// Source-side half of deliver(): consumes tx-port time and src-side
  /// accounting in the caller's context. Reads the destination NIC's fault
  /// and degrade marks, which is safe under every backend because those are
  /// only written from the serial global band (or before the run).
  TxPlan plan_transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                       SimTime earliest);

  /// Destination-side half: runs in the destination node's context at the
  /// wire-arrival time.
  template <typename F>
  void finish_receive(NodeId dst, std::uint64_t bytes, SimDuration busy,
                      bool src_dropped, F&& cb) {
    Nic& d = nics_[static_cast<std::size_t>(dst)];
    const auto rx = d.rx.occupy(engine_.now(), busy);
    d.bytes_received += bytes;
    count_rx(dst, bytes, busy);
    if (src_dropped) return;  // cut before it drained; src already accounted
    if (rx.end > d.down_at) {
      ++d.drops;
      count_drop(dst);
      return;
    }
    engine_.schedule_at(rx.end, std::forward<F>(cb));
  }

  void check_node(NodeId node) const;

  static std::uint64_t link_key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  // --- metrics ------------------------------------------------------------
  // Registered in the constructor when the engine has a registry (which
  // must be attached before the fabric declares the node topology); with
  // none, nic_metrics_ stays empty and every count_* returns at once.
  struct NicMetrics {
    obs::Counter tx_bytes;
    obs::Counter rx_bytes;
    obs::Counter tx_busy_ns;
    obs::Counter rx_busy_ns;
    obs::Counter drops;
  };
  void count_tx(NodeId src, std::uint64_t bytes, SimDuration busy,
                SimDuration queue_delay);
  void count_rx(NodeId dst, std::uint64_t bytes, SimDuration busy);
  void count_drop(NodeId node);

  sim::Engine& engine_;
  FabricParams params_;
  std::vector<Nic> nics_;
  // Sparse per-link latency overrides, keyed both directions.
  std::unordered_map<std::uint64_t, SimDuration> link_latency_;

  std::vector<NicMetrics> nic_metrics_;  ///< one per node; empty = unmetered
  obs::Histogram m_tx_queue_delay_;
};

}  // namespace dacc::net
