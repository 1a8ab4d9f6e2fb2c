// Execution backend selection for the simulation engine.
//
// Simulated processes are synchronous C++ functions that must be suspended
// and resumed at blocking points. Every process runs as a stackful coroutine
// on a pooled, guard-paged stack. A process switch is two user-space stack
// swaps that save only the callee-saved registers and FP control words: no
// system call, no OS scheduler involvement. ASan and TSan follow the
// switches through fiber annotations. Two backends dispatch events; both
// execute the exact same canonical event order, so simulated results are
// bit-for-bit identical either way:
//
//  * kCoroutine — one event queue drained on the calling thread. The
//                 default.
//  * kParallel  — conservative parallel discrete-event execution. It runs
//                 kCoroutine's loop until a run reaches its first
//                 node-homed event with at least Engine::kPoolCrossover of
//                 them queued and a safe horizon width. Then the engine
//                 partitions simulated processes and resources by cluster
//                 node into per-shard event queues, for good, and runs in
//                 eras bounded by the serial control band on a worker pool:
//                 the shards advance against each other's horizon clocks,
//                 and cross-shard effects travel through staged inboxes
//                 merged in the canonical (time, src-node, seq) order.
//                 Requires node-homed processes (rt::Cluster homes
//                 everything); see DESIGN.md §5.2.
#pragma once

namespace dacc::sim {

enum class ExecBackend {
  kCoroutine,
  kParallel,
};

/// The backend new Engines use unless one is passed explicitly: kCoroutine,
/// unless the environment variable DACC_SIM_BACKEND is set to "coroutine"
/// or "parallel[:N]" (N = shard count, defaulting to the host's hardware
/// concurrency).
ExecBackend default_exec_backend();

/// Shard count requested via DACC_SIM_BACKEND: N for "parallel:N", the
/// host's hardware concurrency for plain "parallel", 0 otherwise (0 lets
/// the engine pick one shard per cluster node). Meaningful only with
/// kParallel.
int default_parallel_shards();

/// Worker threads the parallel backend drives shards with once a run
/// needs the pool: the DACC_SIM_PARALLEL_WORKERS environment variable when
/// set, otherwise the host's hardware concurrency. Always at least 1;
/// capped by the shard count when the pool starts.
int default_parallel_workers();

/// Upper bound on the auto-selected shard count (shard hint 0): a small
/// multiple of the host's worker pool, never below 16. More shards than
/// this only add horizon-scan and queue overhead — a 10k-node topology
/// does not want 10k shards. Placement never affects simulated results.
int default_auto_shard_cap();

}  // namespace dacc::sim
