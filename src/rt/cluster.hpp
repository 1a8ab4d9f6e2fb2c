// Cluster runtime: builds a simulated dynamic accelerator cluster out of the
// architecture's components (paper Figure 1) — compute nodes, accelerator
// nodes each running a back-end daemon, the accelerator resource manager,
// and the shared interconnect — and launches jobs on it.
//
// Job launch follows the paper's execution model (Section III.C): with
// `accelerators_per_rank > 0` the launcher performs the static assignment of
// Figure 3(a) (leases acquired from the ARM before the job starts, released
// automatically at job end); with 0, the job body may use the
// resource-management API for the dynamic assignment of Figure 3(b).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arm/arm.hpp"
#include "arm/raft/node.hpp"
#include "core/api.hpp"
#include "daemon/daemon.hpp"
#include "dmpi/mpi.hpp"
#include "gpu/device.hpp"
#include "gpu/driver.hpp"
#include "net/fabric.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"

namespace dacc::rt {

struct ClusterConfig {
  int compute_nodes = 4;
  int accelerators = 3;

  /// Attach one node-local GPU to every compute node as well (the classic
  /// static architecture used as the paper's baseline).
  bool local_gpus = false;

  /// functional GPUs execute kernels on real memory (tests/examples);
  /// phantom GPUs charge identical time without data (paper-scale benches).
  bool functional_gpus = true;

  net::FabricParams fabric;
  dmpi::MpiParams mpi;
  gpu::DeviceParams device = gpu::tesla_c1060();
  proto::ProtoParams proto;

  /// Heterogeneous pools: when non-empty, one accelerator per entry is
  /// built (overriding `accelerators`/`device`), e.g. two C1060s plus a
  /// MIC. Jobs pick by kind through Session::acquire.
  std::vector<gpu::DeviceParams> accelerator_devices;

  /// Replicated ARM (DESIGN.md §11): with a value > 1, the lease table is
  /// hosted by this many Raft replicas — each on its own fabric node —
  /// instead of a single ARM rank. Jobs and the launcher are unchanged;
  /// their clients walk the failover ladder across the replica endpoints,
  /// so leases survive a leader kill. 1 = the classic single ARM.
  int arm_replicas = 1;

  /// Consensus knobs for the replicated deployment (ignored otherwise).
  arm::raft::RaftParams raft;

  /// Liveness protocol: when enabled, every accelerator node runs a
  /// heartbeat pacer and the ARM node a sweep monitor, so leases on dead
  /// accelerators are revoked after `heartbeat.period * miss_threshold`.
  /// Pacers only beat while jobs are running (the simulation still
  /// terminates when all work drains).
  arm::HeartbeatParams heartbeat;

  /// Front-end failure policy handed to every job's Session (timeouts,
  /// retries, transparent replacement).
  rpc::RetryPolicy retry;

  /// Command-stream batching handed to every job's Session (DESIGN.md §10):
  /// front-end proxies coalesce pending small control ops into one kBatch
  /// frame per flush. Off by default.
  rpc::StreamConfig batch;

  /// Record middleware spans (daemon requests, front-end proxy ops) into
  /// Cluster::tracer() for timeline inspection / Chrome-trace export.
  bool trace = false;

  /// Collect metrics (dacc::obs) into Cluster::metrics(): per-rank message
  /// counters, NIC traffic, daemon busy time, ARM pool gauges, front-end
  /// latency histograms. Off by default — instrumentation sites are no-ops
  /// without a registry. Snapshots are bit-identical across backends.
  bool metrics = false;

  /// Attach the wallclock profiler (obs::Profiler, the non-deterministic
  /// tier): per-shard busy/stall/inbox/sync attribution under the parallel
  /// backend, serial drain timing otherwise. Off by default. Never feeds
  /// Cluster::metrics() — `dacc_prof_*` series live only in
  /// Cluster::profiler()'s exporters.
  bool profile = false;

  /// When non-empty, a post-mortem flight-recorder dump is written to this
  /// path automatically after a run during which a fault was injected
  /// (chaos hooks below). The recorder itself is always on — it only sees
  /// rare control-plane events, so it costs nothing on hot paths.
  std::string flight_dump_path;

  /// Kernel registry shared by all devices; defaults to the builtins.
  /// Workloads (la, mdsim) add their kernels before constructing a Cluster.
  std::shared_ptr<gpu::KernelRegistry> registry;

  /// Execution backend for the simulation engine (coroutines by default;
  /// see sim/exec.hpp). Results are identical under every backend.
  sim::ExecBackend sim_backend = sim::default_exec_backend();

  /// Shard count for the parallel backend: simulated nodes are partitioned
  /// into this many event queues (0 = auto, capped at a host-sized limit).
  /// Honors DACC_SIM_BACKEND=parallel:N by default. Ignored by the
  /// sequential backend. Results are bit-identical for every shard count.
  int sim_shards = sim::default_parallel_shards();
};

class Cluster;

/// Everything one job rank needs, handed to the job body.
class JobContext {
 public:
  JobContext(Cluster& cluster, sim::Context& ctx, int job_rank, int job_size,
             const dmpi::Comm& job_comm, core::Session& session);

  Cluster& cluster() { return cluster_; }
  sim::Context& ctx() { return ctx_; }
  int rank() const { return rank_; }
  int size() const { return size_; }

  /// MPI view for app-level communication within the job.
  dmpi::Mpi& mpi() { return mpi_; }
  const dmpi::Comm& job_comm() const { return job_comm_; }

  /// Middleware session (statically assigned accelerators are already
  /// attached; more can be acquired dynamically).
  core::Session& session() { return session_; }

  /// Driver for this compute node's node-local GPU (requires
  /// ClusterConfig::local_gpus). The "CUDA local" baseline path.
  gpu::Driver local_gpu();

 private:
  Cluster& cluster_;
  sim::Context& ctx_;
  int rank_;
  int size_;
  const dmpi::Comm& job_comm_;
  core::Session& session_;
  dmpi::Mpi mpi_;
};

struct JobSpec {
  std::string name = "job";
  int ranks = 1;
  /// Static assignment: leases acquired per rank before the job starts.
  std::uint32_t accelerators_per_rank = 0;
  /// Queue at the ARM until the static allocation is satisfiable.
  bool wait_for_accelerators = true;
  /// Scheduling class for every ARM request this job makes (the launcher's
  /// static acquisition and the ranks' dynamic ones alike). Higher classes
  /// may preempt lower ones; see arm::kPriorityBatch..kPriorityUrgent.
  std::uint32_t priority = arm::kPriorityNormal;
  /// Restrict the static assignment to one device class ("gpu", "mic");
  /// empty takes any accelerator.
  std::string accelerator_kind;
  proto::TransferConfig transfer = proto::TransferConfig::pipeline_adaptive();
  std::function<void(JobContext&)> body;
};

/// Completion handle for a submitted job.
class JobHandle {
 public:
  bool done() const { return completion_->done(); }
  void wait(sim::Context& ctx) { completion_->wait(ctx); }

 private:
  friend class Cluster;
  explicit JobHandle(std::shared_ptr<sim::Completion> c)
      : completion_(std::move(c)) {}
  std::shared_ptr<sim::Completion> completion_;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- topology -------------------------------------------------------------
  const ClusterConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return fabric_; }
  dmpi::World& world() { return *world_; }
  dmpi::Rank cn_rank(int cn) const;
  dmpi::Rank daemon_rank(int ac) const;
  /// The single ARM's rank — or, replicated, the first replica's (clients
  /// start their failover ladder there).
  dmpi::Rank arm_rank() const;
  /// Every ARM endpoint: {arm_rank()} for the single deployment, one rank
  /// per replica otherwise.
  std::vector<dmpi::Rank> arm_ranks() const;
  bool arm_replicated() const { return config_.arm_replicas > 1; }

  /// Replicated deployment only (0 <= replica < arm_replicas).
  arm::raft::RaftNode& arm_replica(int replica);
  /// Replica index of the current leader, -1 while no replica leads. Read
  /// it between engine steps or from the serial global band.
  int arm_leader() const;
  /// Pool statistics from the authoritative lease machine (arm_machine()).
  arm::PoolStats arm_stats() const;
  /// Per-accelerator busy fraction from the authoritative lease machine.
  std::vector<double> arm_utilization(SimTime now) const;
  sim::Tracer& tracer() { return tracer_; }
  obs::Registry& metrics() { return metrics_; }
  /// Wallclock tier (non-deterministic; see DESIGN.md §9.2). The profiler
  /// only accumulates when ClusterConfig::profile is set; the flight
  /// recorder is always recording.
  obs::Profiler& profiler() { return profiler_; }
  obs::FlightRecorder& flight() { return flight_; }
  /// Post-mortem dump of the retained flight-recorder events, in causal
  /// (sim time, recording seq) order with trace ids.
  void dump_flight_recorder(std::ostream& os) const { flight_.dump(os); }
  gpu::Device& accelerator_device(int ac);
  gpu::Device& local_device(int cn);
  daemon::Daemon& accelerator_daemon(int ac);

  // --- jobs -------------------------------------------------------------------
  /// Launches `spec.ranks` processes on compute nodes first_cn, first_cn+1,
  /// ... The job starts at the current simulated time (plus ARM assignment,
  /// for static allocations).
  JobHandle submit(JobSpec spec, int first_cn = 0);

  /// Runs the simulation until all submitted jobs are done.
  void run();

  // --- fault injection ---------------------------------------------------------
  /// Breaks accelerator `ac` at simulated time `at` (ECC failure).
  void break_accelerator(int ac, SimTime at);

  /// Fails fabric node `node`'s NIC at `at`: every transfer that would still
  /// be in flight then (or starts later) is dropped.
  void fail_link(net::NodeId node, SimTime at);

  /// fail_link for accelerator `ac`'s node — the daemon falls silent
  /// (requests and heartbeats stop flowing) without the device breaking.
  void fail_accelerator_link(int ac, SimTime at);

  /// Kills ARM replica `replica` at `at`: its fabric link fails and its
  /// consensus loop halts (chaos tier). Replicated deployments only.
  void kill_arm_replica(int replica, SimTime at);

  /// Kills whichever replica leads at `at` (no-op if an election is in
  /// flight right then — deterministically so, given a fixed seed).
  void kill_arm_leader(SimTime at);

  // --- reporting ------------------------------------------------------------------
  struct Report {
    struct AcceleratorRow {
      int index = 0;
      std::string name;
      double lease_util = 0.0;    ///< fraction of time ARM-assigned
      double compute_util = 0.0;  ///< fraction of time the GPU computed
      double copy_util = 0.0;     ///< fraction of time DMA engines were busy
      std::uint64_t requests = 0; ///< middleware requests served
    };
    SimTime now = 0;
    std::vector<AcceleratorRow> accelerators;
    std::uint64_t cn_bytes_sent = 0;  ///< aggregate compute-node NIC traffic
    std::uint64_t ac_bytes_sent = 0;  ///< aggregate accelerator NIC traffic

    void print(std::ostream& os) const;
  };

  /// Utilization snapshot at the current simulated time.
  Report report() const;

 private:
  /// Sends one liveness beat per period for accelerator `ac` while jobs run.
  void heartbeat_pacer(sim::Context& ctx, int ac);
  /// Periodically asks the ARM to sweep for missed beats while jobs run.
  void heartbeat_monitor(sim::Context& ctx);
  /// The authoritative lease machine: the single ARM's, or the leader
  /// replica's (replica 0's while no replica leads).
  const arm::LeaseMachine& arm_machine() const;

  ClusterConfig config_;
  sim::Engine engine_;
  sim::Tracer tracer_;
  obs::Registry metrics_;
  obs::Profiler profiler_;
  obs::FlightRecorder flight_;
  bool fault_injected_ = false;  ///< arms the automatic flight dump
  net::Fabric fabric_;
  std::unique_ptr<dmpi::World> world_;
  std::shared_ptr<gpu::KernelRegistry> registry_;
  std::vector<std::unique_ptr<gpu::Device>> ac_devices_;
  std::vector<std::unique_ptr<gpu::Device>> local_devices_;
  std::vector<std::unique_ptr<daemon::Daemon>> daemons_;
  std::unique_ptr<arm::Arm> arm_;  ///< single-ARM deployment
  /// Replicated deployment: one consensus node per replica rank.
  std::vector<std::unique_ptr<arm::raft::RaftNode>> raft_nodes_;
  std::uint64_t next_job_ = 1;
  /// Heartbeat traffic is gated on running jobs so the event queue drains
  /// (and engine.run() returns) once all submitted work completes.
  /// `active_jobs_` is written from the engine's serial global band only
  /// (submit runs before the engine does; rank completion is posted to the
  /// band), so the liveness processes on accelerator shards can read it
  /// without racing under the parallel backend.
  int active_jobs_ = 0;
  /// One idle gate per liveness process (pacers, then the monitor): each
  /// gate's wait list is touched only by its owning process's shard and the
  /// global band, never by two shards.
  std::vector<std::unique_ptr<sim::WaitQueue>> hb_gates_;
  /// Same pattern for the consensus nodes: one activity gate per replica.
  std::vector<std::unique_ptr<sim::WaitQueue>> raft_gates_;
};

}  // namespace dacc::rt
