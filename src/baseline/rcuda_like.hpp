// rCUDA-style TCP baseline.
//
// The paper's related-work section (Section II) argues that rCUDA-class
// remoting frameworks pay for their TCP/IP transport: "the communication
// between client and server runs over TCP/IP, which may introduce higher
// overhead in comparison to our MPI-based solution". This module makes that
// claim measurable: it configures the identical middleware stack to run over
// a sockets-era transport — TCP over IP-over-InfiniBand on the same QDR
// fabric — and (matching rCUDA v3.2's data path) without the pipelined
// GPUDirect transfer engine.
//
// Parameters are calibrated to contemporaneous IPoIB measurements on QDR:
// ~20 us round-trip socket latency and roughly 1.1 GiB/s sustained stream
// bandwidth, with per-message costs dominated by the kernel socket stack.
#pragma once

#include "dmpi/mpi.hpp"
#include "net/fabric.hpp"
#include "proto/wire.hpp"
#include "rt/cluster.hpp"

namespace dacc::baseline {

/// Fabric seen through the TCP/IPoIB stack.
inline net::FabricParams tcp_fabric_params() {
  net::FabricParams p;
  p.link_bandwidth_mib_s = 1150.0;  // IPoIB stream throughput on QDR
  p.wire_latency = 8'000;           // kernel IP stack + wire, one way
  p.per_message_overhead = 12'000;  // per-send socket/syscall cost
  p.per_message_overhead_min_bytes = 4096;
  return p;
}

/// Message-passing layer over sockets: no rendezvous offload, higher
/// per-operation software cost, extra copies through socket buffers.
inline dmpi::MpiParams tcp_mpi_params() {
  dmpi::MpiParams p;
  p.eager_threshold = 64 * 1024;   // everything is "eager": write() + copy
  p.send_overhead = 3'000;         // syscall + TCP segmentation
  p.recv_overhead = 3'000;
  p.eager_copy_mib_s = 2'500.0;    // socket buffer copy-out
  return p;
}

/// The rCUDA v3.2-like data path: one-shot (non-pipelined) transfers and no
/// NIC/GPU page sharing.
inline proto::TransferConfig tcp_transfer_config() {
  proto::TransferConfig c = proto::TransferConfig::naive();
  c.gpudirect = false;
  return c;
}

/// A cluster whose remoting runs over the TCP baseline transport. Identical
/// topology and devices; only the transport differs. The data path is per
/// job: pair it with JobSpec::transfer = tcp_transfer_config().
inline rt::ClusterConfig tcp_cluster_config(int compute_nodes,
                                            int accelerators) {
  rt::ClusterConfig c;
  c.compute_nodes = compute_nodes;
  c.accelerators = accelerators;
  c.fabric = tcp_fabric_params();
  c.mpi = tcp_mpi_params();
  return c;
}

}  // namespace dacc::baseline
