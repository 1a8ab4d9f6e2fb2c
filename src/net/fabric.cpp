#include "net/fabric.hpp"

#include <stdexcept>
#include <string>

namespace dacc::net {

Fabric::Fabric(sim::Engine& engine, int num_nodes, FabricParams params)
    : engine_(engine), params_(params), nics_(num_nodes) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("Fabric: need at least one node");
  }
  // Declare the node topology to the engine: this homes per-node events on
  // their shards under the parallel backend and sizes the per-node ordering
  // counters everywhere. Must precede any node-homed scheduling, which
  // constructing the fabric before any traffic guarantees.
  engine.set_node_count(num_nodes);
  if (!params_.link_latency_overrides.empty()) {
    std::vector<sim::Engine::LatencyOverride> links;
    links.reserve(params_.link_latency_overrides.size());
    for (const FabricParams::LinkLatency& l : params_.link_latency_overrides) {
      check_node(l.a);
      check_node(l.b);
      if (l.a == l.b) {
        throw std::invalid_argument(
            "Fabric: link latency override needs two distinct nodes");
      }
      link_latency_[link_key(l.a, l.b)] = l.latency;
      link_latency_[link_key(l.b, l.a)] = l.latency;
      links.push_back({l.a, l.b, l.latency});
    }
    // The overrides become the engine's per-pair cross-node clamp floors —
    // part of the simulation semantics in every backend — and calibrate the
    // parallel backend's per-shard-pair lookahead matrix + topology-aware
    // partitioner. Deliberately does NOT touch set_lookahead: whether a
    // window width exists at all stays the cluster harness's decision.
    engine.set_lookahead_overrides(params_.wire_latency, links);
  }
  if (obs::Registry* reg = engine.metrics()) {
    nic_metrics_.resize(nics_.size());
    for (std::size_t n = 0; n < nics_.size(); ++n) {
      const std::string l = "{node=\"" + std::to_string(n) + "\"}";
      NicMetrics& m = nic_metrics_[n];
      m.tx_bytes = reg->counter("dacc_net_tx_bytes_total" + l);
      m.rx_bytes = reg->counter("dacc_net_rx_bytes_total" + l);
      m.tx_busy_ns = reg->counter("dacc_net_tx_busy_ns_total" + l);
      m.rx_busy_ns = reg->counter("dacc_net_rx_busy_ns_total" + l);
      m.drops = reg->counter("dacc_net_drops_total" + l);
    }
    m_tx_queue_delay_ =
        reg->histogram("dacc_net_tx_queue_delay_ns", obs::latency_bounds_ns());
  }
}

void Fabric::check_node(NodeId node) const {
  if (node < 0 || node >= num_nodes()) {
    throw std::out_of_range("Fabric: invalid node id");
  }
}

void Fabric::count_tx(NodeId src, std::uint64_t bytes, SimDuration busy,
                      SimDuration queue_delay) {
  if (nic_metrics_.empty()) return;
  NicMetrics& m = nic_metrics_[static_cast<std::size_t>(src)];
  m.tx_bytes.add(bytes);
  m.tx_busy_ns.add(static_cast<std::uint64_t>(busy));
  m_tx_queue_delay_.observe(static_cast<std::uint64_t>(queue_delay));
}

void Fabric::count_rx(NodeId dst, std::uint64_t bytes, SimDuration busy) {
  if (nic_metrics_.empty()) return;
  NicMetrics& m = nic_metrics_[static_cast<std::size_t>(dst)];
  m.rx_bytes.add(bytes);
  m.rx_busy_ns.add(static_cast<std::uint64_t>(busy));
}

void Fabric::count_drop(NodeId node) {
  if (nic_metrics_.empty()) return;
  nic_metrics_[static_cast<std::size_t>(node)].drops.add(1);
}

Fabric::Outcome Fabric::transfer_outcome(NodeId src, NodeId dst,
                                         std::uint64_t bytes,
                                         SimTime earliest) {
  check_node(src);
  check_node(dst);
  if (src == dst) {
    // Loopback: memory-to-memory, no NIC involvement — immune to NIC faults.
    const SimDuration busy =
        transfer_time(bytes, params_.loopback_bandwidth_mib_s);
    return {earliest + params_.loopback_latency + busy, true};
  }
  Nic& s = nics_[static_cast<std::size_t>(src)];
  Nic& d = nics_[static_cast<std::size_t>(dst)];
  if (earliest >= s.down_at) {
    // A dead source NIC injects nothing; no port time is consumed.
    ++s.drops;
    count_drop(src);
    return {earliest, false};
  }
  SimDuration busy = transfer_time(bytes, params_.link_bandwidth_mib_s);
  if (bytes >= params_.per_message_overhead_min_bytes) {
    busy += params_.per_message_overhead;
  }
  // A degraded NIC on either end stretches the serialization time; the
  // slower endpoint governs.
  double factor = 1.0;
  if (earliest >= s.degraded_at) factor = s.degrade_factor;
  if (earliest >= d.degraded_at && d.degrade_factor < factor) {
    factor = d.degrade_factor;
  }
  if (factor < 1.0) {
    busy = static_cast<SimDuration>(static_cast<double>(busy) / factor);
  }
  const SimDuration wire = latency_of(src, dst);
  if (earliest >= d.down_at) {
    // The sender transmits into a dead receiver: tx time is consumed, but
    // nothing lands on the rx side.
    const auto tx = s.tx.occupy(earliest, busy);
    s.bytes_sent += bytes;
    count_tx(src, bytes, busy, tx.start - earliest);
    ++d.drops;
    count_drop(dst);
    return {tx.end + wire, false};
  }
  const auto tx = s.tx.occupy(earliest, busy);
  // Cut-through: the rx occupancy mirrors the tx occupancy shifted by the
  // wire latency; rx-port contention can delay it further.
  const auto rx = d.rx.occupy(tx.start + wire, busy);
  s.bytes_sent += bytes;
  d.bytes_received += bytes;
  count_tx(src, bytes, busy, tx.start - earliest);
  count_rx(dst, bytes, busy);
  // Link failure mid-flight: the transfer was cut before it drained.
  if (tx.end > s.down_at) {
    ++s.drops;
    count_drop(src);
    return {rx.end, false};
  }
  if (rx.end > d.down_at) {
    ++d.drops;
    count_drop(dst);
    return {rx.end, false};
  }
  return {rx.end, true};
}

Fabric::TxPlan Fabric::plan_transfer(NodeId src, NodeId dst,
                                     std::uint64_t bytes, SimTime earliest) {
  check_node(src);
  check_node(dst);
  const SimTime now = engine_.now();
  if (earliest < now) earliest = now;
  if (src == dst) {
    // Loopback: memory-to-memory, no NIC involvement — immune to NIC faults.
    const SimDuration busy =
        transfer_time(bytes, params_.loopback_bandwidth_mib_s);
    return {TxPlan::Kind::kLoopback, earliest + params_.loopback_latency + busy,
            busy, false};
  }
  Nic& s = nics_[static_cast<std::size_t>(src)];
  const Nic& d = nics_[static_cast<std::size_t>(dst)];
  if (earliest >= s.down_at) {
    // A dead source NIC injects nothing; no port time is consumed.
    ++s.drops;
    count_drop(src);
    return {TxPlan::Kind::kSrcDead, earliest, 0, false};
  }
  SimDuration busy = transfer_time(bytes, params_.link_bandwidth_mib_s);
  if (bytes >= params_.per_message_overhead_min_bytes) {
    busy += params_.per_message_overhead;
  }
  // A degraded NIC on either end stretches the serialization time; the
  // slower endpoint governs (the destination's marks are only written from
  // the serial global band, so reading them here is backend-invariant).
  double factor = 1.0;
  if (earliest >= s.degraded_at) factor = s.degrade_factor;
  if (earliest >= d.degraded_at && d.degrade_factor < factor) {
    factor = d.degrade_factor;
  }
  if (factor < 1.0) {
    busy = static_cast<SimDuration>(static_cast<double>(busy) / factor);
  }
  const SimDuration wire = latency_of(src, dst);
  const auto tx = s.tx.occupy(earliest, busy);
  s.bytes_sent += bytes;
  count_tx(src, bytes, busy, tx.start - earliest);
  if (earliest >= d.down_at) {
    // Transmitting into a dead receiver: tx time is consumed, nothing lands.
    return {TxPlan::Kind::kDstDead, tx.end + wire, busy, false};
  }
  // Cut-through: the wire front reaches the receiver one latency after the
  // tx occupancy starts; the rx port is charged there, in arrival order.
  const bool src_dropped = tx.end > s.down_at;
  if (src_dropped) {
    ++s.drops;
    count_drop(src);
  }
  return {TxPlan::Kind::kSend, tx.start + wire, busy, src_dropped};
}

void Fabric::fail_link(NodeId node, SimTime at) {
  check_node(node);
  Nic& n = nics_[static_cast<std::size_t>(node)];
  if (at < n.down_at) n.down_at = at;
}

void Fabric::degrade_link(NodeId node, SimTime at, double bandwidth_factor) {
  check_node(node);
  if (bandwidth_factor <= 0.0 || bandwidth_factor > 1.0) {
    throw std::invalid_argument("degrade_link: factor must be in (0, 1]");
  }
  Nic& n = nics_[static_cast<std::size_t>(node)];
  n.degraded_at = at;
  n.degrade_factor = bandwidth_factor;
}

bool Fabric::link_failed(NodeId node, SimTime at) const {
  check_node(node);
  return at >= nics_[static_cast<std::size_t>(node)].down_at;
}

std::uint64_t Fabric::drops(NodeId node) const {
  check_node(node);
  return nics_[static_cast<std::size_t>(node)].drops;
}

std::uint64_t Fabric::bytes_sent(NodeId node) const {
  check_node(node);
  return nics_[static_cast<std::size_t>(node)].bytes_sent;
}

std::uint64_t Fabric::bytes_received(NodeId node) const {
  check_node(node);
  return nics_[static_cast<std::size_t>(node)].bytes_received;
}

SimDuration Fabric::tx_busy(NodeId node) const {
  check_node(node);
  return nics_[static_cast<std::size_t>(node)].tx.busy_total();
}

SimDuration Fabric::rx_busy(NodeId node) const {
  check_node(node);
  return nics_[static_cast<std::size_t>(node)].rx.busy_total();
}

}  // namespace dacc::net
