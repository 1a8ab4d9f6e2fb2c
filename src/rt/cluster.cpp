#include "rt/cluster.hpp"

#include <map>
#include <ostream>
#include <stdexcept>

#include "util/table.hpp"

namespace dacc::rt {

namespace {

std::vector<net::NodeId> rank_layout(int compute_nodes, int accelerators,
                                     int arm_nodes) {
  // World ranks: [0, C) compute-node processes, [C, C+A) daemons, then the
  // ARM — one service rank, or one per replica in the replicated
  // deployment. Fabric nodes use the same layout; every ARM rank gets its
  // own service node so a replica kill is one link failure.
  std::vector<net::NodeId> nodes;
  nodes.reserve(
      static_cast<std::size_t>(compute_nodes + accelerators + arm_nodes));
  for (int i = 0; i < compute_nodes + accelerators + arm_nodes; ++i) {
    nodes.push_back(i);
  }
  return nodes;
}

int arm_node_count(const ClusterConfig& config) {
  return config.arm_replicas > 1 ? config.arm_replicas : 1;
}

/// Derives the ARM's latency zones from the fabric: nodes joined by links
/// at or under the uniform wire latency share a zone (union-find over the
/// pair matrix — fine at control-plane scale), zone ids are assigned in
/// first-member order so the map is deterministic, and the zone-to-zone
/// latency matrix reads representative nodes. A fabric without overrides
/// yields the trivial single-zone map (ascending-slot grant order).
arm::PlacementMap build_placement(const ClusterConfig& config,
                                  const net::Fabric& fabric, int nodes) {
  if (config.fabric.link_latency_overrides.empty()) return {};
  std::vector<int> parent(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) parent[static_cast<std::size_t>(i)] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };
  for (int u = 0; u < nodes; ++u) {
    for (int v = u + 1; v < nodes; ++v) {
      if (fabric.latency_of(u, v) <= config.fabric.wire_latency) {
        parent[static_cast<std::size_t>(find(u))] = find(v);
      }
    }
  }
  arm::PlacementMap map;
  map.node_zone.assign(static_cast<std::size_t>(nodes), 0);
  std::vector<int> zone_rep;  // first member of each zone, in node order
  std::map<int, std::uint32_t> zone_of_root;
  for (int i = 0; i < nodes; ++i) {
    const int root = find(i);
    auto [it, inserted] = zone_of_root.try_emplace(
        root, static_cast<std::uint32_t>(zone_rep.size()));
    if (inserted) zone_rep.push_back(i);
    map.node_zone[static_cast<std::size_t>(i)] = it->second;
  }
  const std::uint32_t nz = static_cast<std::uint32_t>(zone_rep.size());
  map.zone_latency_ns.assign(static_cast<std::size_t>(nz) * nz, 0);
  for (std::uint32_t a = 0; a < nz; ++a) {
    for (std::uint32_t b = 0; b < nz; ++b) {
      map.zone_latency_ns[static_cast<std::size_t>(a) * nz + b] =
          static_cast<std::uint64_t>(
              fabric.latency_of(zone_rep[static_cast<std::size_t>(a)],
                                zone_rep[static_cast<std::size_t>(b)]));
    }
  }
  return map;
}

}  // namespace

JobContext::JobContext(Cluster& cluster, sim::Context& ctx, int job_rank,
                       int job_size, const dmpi::Comm& job_comm,
                       core::Session& session)
    : cluster_(cluster),
      ctx_(ctx),
      rank_(job_rank),
      size_(job_size),
      job_comm_(job_comm),
      session_(session),
      mpi_(cluster.world(), ctx,
           job_comm.world_rank(static_cast<dmpi::Rank>(job_rank))) {}

gpu::Driver JobContext::local_gpu() {
  if (!cluster_.config().local_gpus) {
    throw std::logic_error(
        "local_gpu(): cluster built without node-local GPUs");
  }
  const dmpi::Rank world_rank =
      job_comm_.world_rank(static_cast<dmpi::Rank>(rank_));
  return gpu::Driver(cluster_.local_device(world_rank), ctx_);
}

namespace {

ClusterConfig normalize(ClusterConfig config) {
  if (!config.accelerator_devices.empty()) {
    config.accelerators =
        static_cast<int>(config.accelerator_devices.size());
  }
  if (config.arm_replicas < 1) config.arm_replicas = 1;
  return config;
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(normalize(std::move(config))),
      engine_(config_.sim_backend, config_.sim_shards),
      fabric_(attach_observers(),
              config_.compute_nodes + config_.accelerators +
                  arm_node_count(config_),
              config_.fabric),
      registry_(config_.registry ? config_.registry
                                 : gpu::KernelRegistry::with_builtins()) {
  if (config_.compute_nodes <= 0) {
    throw std::invalid_argument("Cluster: need at least one compute node");
  }
  // Conservative lookahead: no cross-node effect can land sooner than one
  // wire latency (or the per-link override the fabric registered), so
  // shards may safely advance that far between each other. The clamp
  // applies under every backend, keeping results bit-identical.
  engine_.set_lookahead(config_.fabric.wire_latency);
  // Serial-control band gap: effects targeting the global band (job
  // completions, control notifications) are clamped up by a multiple of
  // the wire latency, so an era spans many lookaheads between global
  // synchronization points — the main source of the window-count drop.
  // Nothing is clamped before the first run, so a caller may still set
  // another gap on engine() before it submits.
  engine_.set_band_gap(64 * config_.fabric.wire_latency);
  world_ = std::make_unique<dmpi::World>(
      engine_, fabric_,
      rank_layout(config_.compute_nodes, config_.accelerators,
                  arm_node_count(config_)),
      config_.mpi);

  // Accelerator nodes: one device plus one daemon process each.
  std::vector<arm::AcceleratorInfo> pool;
  for (int ac = 0; ac < config_.accelerators; ++ac) {
    const gpu::DeviceParams& dev_params =
        config_.accelerator_devices.empty()
            ? config_.device
            : config_.accelerator_devices[static_cast<std::size_t>(ac)];
    ac_devices_.push_back(std::make_unique<gpu::Device>(
        engine_, dev_params, registry_, config_.functional_gpus));
    daemons_.push_back(std::make_unique<daemon::Daemon>(
        *ac_devices_.back(), *world_, daemon_rank(ac), config_.proto));
    daemon::Daemon* d = daemons_.back().get();
    sim::Process& p = engine_.spawn_on(
        static_cast<std::int32_t>(daemon_rank(ac)),
        "daemon-ac" + std::to_string(ac),
        [d](sim::Context& ctx) { d->run(ctx); });
    engine_.set_daemon(p);
    pool.push_back(arm::AcceleratorInfo{daemon_rank(ac), dev_params.name,
                                        dev_params.kind,
                                        dev_params.memory_bytes});
  }

  // Node-local GPUs for the static-architecture baseline.
  if (config_.local_gpus) {
    for (int cn = 0; cn < config_.compute_nodes; ++cn) {
      local_devices_.push_back(std::make_unique<gpu::Device>(
          engine_, config_.device, registry_, config_.functional_gpus));
    }
  }

  // The accelerator resource manager: one rank, or a Raft replica group.
  // Queued acquisitions are served FCFS; grants prefer accelerators near
  // the requester when `fabric` declares per-link latency overrides
  // (DESIGN.md §13.2).
  const arm::PlacementMap placement = build_placement(
      config_, fabric_,
      config_.compute_nodes + config_.accelerators + arm_node_count(config_));
  if (!arm_replicated()) {
    arm_ = std::make_unique<arm::Arm>(*world_, arm_rank(), std::move(pool),
                                      arm::QueuePolicy::kFcfs, placement);
    sim::Process& armp = engine_.spawn_on(
        static_cast<std::int32_t>(arm_rank()), "arm",
        [this](sim::Context& ctx) { arm_->run(ctx); });
    engine_.set_daemon(armp);
  } else {
    const std::vector<dmpi::Rank> replicas = arm_ranks();
    for (int i = 0; i < config_.arm_replicas; ++i) {
      raft_gates_.push_back(std::make_unique<sim::WaitQueue>(engine_));
      raft_nodes_.push_back(std::make_unique<arm::raft::RaftNode>(
          *world_, replicas[static_cast<std::size_t>(i)], i, replicas, pool,
          arm::QueuePolicy::kFcfs, config_.raft, config_.heartbeat,
          placement));
      arm::raft::RaftNode* node = raft_nodes_.back().get();
      // `active_jobs_` is global-band serial state; replicas read it from
      // their own shard, exactly like the liveness pacers below.
      node->set_activity_gate([this] { return active_jobs_ > 0; },
                              raft_gates_.back().get());
      sim::Process& p = engine_.spawn_on(
          static_cast<std::int32_t>(replicas[static_cast<std::size_t>(i)]),
          "arm-r" + std::to_string(i),
          [node](sim::Context& ctx) { node->run(ctx); });
      engine_.set_daemon(p);
    }
  }

  // Liveness protocol: one pacer per accelerator node, plus — for the
  // single ARM — a sweep monitor co-located with it (a replicated leader
  // sweeps through its own log instead: a monitor process would die with
  // whichever replica it was homed on). All are engine daemons gated on
  // running jobs, so an idle cluster generates no heartbeat traffic.
  for (int i = 0; i < config_.accelerators + 1; ++i) {
    hb_gates_.push_back(std::make_unique<sim::WaitQueue>(engine_));
  }
  if (config_.heartbeat.enabled) {
    for (int ac = 0; ac < config_.accelerators; ++ac) {
      sim::Process& hb = engine_.spawn_on(
          static_cast<std::int32_t>(daemon_rank(ac)),
          "hb-pacer-ac" + std::to_string(ac),
          [this, ac](sim::Context& ctx) { heartbeat_pacer(ctx, ac); });
      engine_.set_daemon(hb);
    }
    if (!arm_replicated()) {
      sim::Process& mon = engine_.spawn_on(
          static_cast<std::int32_t>(arm_rank()), "hb-monitor",
          [this](sim::Context& ctx) { heartbeat_monitor(ctx); });
      engine_.set_daemon(mon);
    }
  }
}

void Cluster::heartbeat_pacer(sim::Context& ctx, int ac) {
  dmpi::Mpi mpi(*world_, ctx, daemon_rank(ac));
  gpu::Device* dev = ac_devices_[static_cast<std::size_t>(ac)].get();
  sim::WaitQueue& gate = *hb_gates_[static_cast<std::size_t>(ac)];
  const std::vector<dmpi::Rank> targets = arm_ranks();
  std::uint64_t seq = 0;
  for (;;) {
    while (active_jobs_ == 0) gate.wait(ctx);
    ctx.wait_for(config_.heartbeat.period);
    if (active_jobs_ == 0) continue;  // drained while we slept
    arm::Heartbeat beat;
    beat.daemon_rank = daemon_rank(ac);
    beat.seq = ++seq;
    beat.device_ok = !dev->broken();
    beat.sent_at = ctx.now();
    // Broadcast to every replica: a beat must not die with a killed
    // leader. Only the leader logs its copy; followers drop theirs.
    for (const dmpi::Rank target : targets) {
      mpi.send(world_->world_comm(), target, arm::kArmRequestTag,
               beat.encode());
    }
  }
}

void Cluster::heartbeat_monitor(sim::Context& ctx) {
  dmpi::Mpi mpi(*world_, ctx, arm_rank());
  sim::WaitQueue& gate =
      *hb_gates_[static_cast<std::size_t>(config_.accelerators)];
  bool fresh = true;
  for (;;) {
    while (active_jobs_ == 0) {
      gate.wait(ctx);
      fresh = true;  // amnesty: beat clocks restart after an idle phase
    }
    ctx.wait_for(config_.heartbeat.period);
    if (active_jobs_ == 0) continue;
    arm::SweepRequest sweep;
    sweep.period = config_.heartbeat.period;
    sweep.miss_threshold = config_.heartbeat.miss_threshold;
    sweep.fresh = fresh;
    fresh = false;
    mpi.send(world_->world_comm(), arm_rank(), arm::kArmRequestTag,
             sweep.encode());
  }
}

Cluster::~Cluster() = default;

dmpi::Rank Cluster::cn_rank(int cn) const {
  if (cn < 0 || cn >= config_.compute_nodes) {
    throw std::out_of_range("cn_rank");
  }
  return cn;
}

dmpi::Rank Cluster::daemon_rank(int ac) const {
  if (ac < 0 || ac >= config_.accelerators) {
    throw std::out_of_range("daemon_rank");
  }
  return config_.compute_nodes + ac;
}

dmpi::Rank Cluster::arm_rank() const {
  return config_.compute_nodes + config_.accelerators;
}

std::vector<dmpi::Rank> Cluster::arm_ranks() const {
  std::vector<dmpi::Rank> ranks;
  const int n = arm_replicated() ? config_.arm_replicas : 1;
  ranks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ranks.push_back(arm_rank() + i);
  return ranks;
}

arm::raft::RaftNode& Cluster::arm_replica(int replica) {
  if (!arm_replicated()) {
    throw std::logic_error("arm_replica(): single-ARM deployment");
  }
  return *raft_nodes_.at(static_cast<std::size_t>(replica));
}

int Cluster::arm_leader() const {
  for (std::size_t i = 0; i < raft_nodes_.size(); ++i) {
    const arm::raft::RaftNode& node = *raft_nodes_[i];
    if (!node.halted() && node.role() == arm::raft::RaftNode::Role::kLeader) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const arm::LeaseMachine& Cluster::arm_machine() const {
  if (!arm_replicated()) return arm_->machine();
  const int leader = arm_leader();
  return raft_nodes_[static_cast<std::size_t>(leader < 0 ? 0 : leader)]
      ->machine();
}

arm::PoolStats Cluster::arm_stats() const { return arm_machine().stats(); }

std::vector<double> Cluster::arm_utilization(SimTime now) const {
  return arm_machine().utilization(now);
}

gpu::Device& Cluster::accelerator_device(int ac) {
  return *ac_devices_.at(static_cast<std::size_t>(ac));
}

gpu::Device& Cluster::local_device(int cn) {
  if (!config_.local_gpus) {
    throw std::logic_error("cluster built without node-local GPUs");
  }
  return *local_devices_.at(static_cast<std::size_t>(cn));
}

daemon::Daemon& Cluster::accelerator_daemon(int ac) {
  return *daemons_.at(static_cast<std::size_t>(ac));
}

JobHandle Cluster::submit(JobSpec spec, int first_cn) {
  if (spec.ranks <= 0 || first_cn < 0 ||
      first_cn + spec.ranks > config_.compute_nodes) {
    throw std::invalid_argument("submit: job does not fit the cluster");
  }
  if (!spec.body) throw std::invalid_argument("submit: job body required");

  const std::uint64_t job_base = next_job_;
  next_job_ += static_cast<std::uint64_t>(spec.ranks);

  std::vector<dmpi::Rank> members;
  for (int r = 0; r < spec.ranks; ++r) {
    members.push_back(cn_rank(first_cn + r));
  }
  const dmpi::Comm& job_comm = world_->create_comm(members);

  auto completion = std::make_shared<sim::Completion>(engine_);
  auto remaining = std::make_shared<int>(spec.ranks);
  auto shared_spec = std::make_shared<JobSpec>(std::move(spec));

  // Un-gate the heartbeat pacers (and, replicated, the consensus nodes)
  // for the duration of this job. The wake is routed through an event (the
  // serial global band under the parallel backend) so submit() also works
  // from outside process context.
  ++active_jobs_;
  engine_.schedule_at(engine_.now(), [this] {
    for (auto& gate : hb_gates_) gate->notify_all();
    for (auto& gate : raft_gates_) gate->notify_all();
  });

  // The launcher performs the static assignment before starting the ranks
  // (paper Figure 3(a)); it speaks to the ARM with the first rank's
  // endpoint, strictly before any rank runs. It is homed on the first
  // rank's node, matching the endpoint it borrows.
  engine_.spawn_on(
      static_cast<std::int32_t>(members.front()),
      shared_spec->name + "-launcher",
      [this, shared_spec, job_base, members, &job_comm, completion,
       remaining](sim::Context& lctx) {
        std::vector<std::vector<arm::Lease>> static_leases(
            static_cast<std::size_t>(shared_spec->ranks));
        if (shared_spec->accelerators_per_rank > 0) {
          dmpi::Mpi launcher_mpi(*world_, lctx, members.front());
          arm::ArmClient arm_client(launcher_mpi, world_->world_comm(),
                                    arm_ranks());
          for (int r = 0; r < shared_spec->ranks; ++r) {
            arm::ResourceRequest rq;
            rq.job = job_base + static_cast<std::uint64_t>(r);
            rq.count = shared_spec->accelerators_per_rank;
            rq.wait = shared_spec->wait_for_accelerators;
            rq.kind = shared_spec->accelerator_kind;
            rq.priority = shared_spec->priority;
            rq.locality = static_cast<std::int64_t>(
                members[static_cast<std::size_t>(r)]);
            static_leases[static_cast<std::size_t>(r)] =
                arm_client.acquire(rq);
            if (static_leases[static_cast<std::size_t>(r)].size() !=
                shared_spec->accelerators_per_rank) {
              throw std::runtime_error("job '" + shared_spec->name +
                                       "': static allocation failed");
            }
          }
        }
        for (int r = 0; r < shared_spec->ranks; ++r) {
          const dmpi::Rank world_rank = members[static_cast<std::size_t>(r)];
          auto leases = static_leases[static_cast<std::size_t>(r)];
          engine_.spawn_on(
              static_cast<std::int32_t>(world_rank),
              shared_spec->name + "-r" + std::to_string(r),
              [this, shared_spec, job_base, r, world_rank, &job_comm,
               completion, remaining, leases](sim::Context& ctx) {
                core::Session::Config sc;
                sc.arm_ranks = arm_ranks();
                sc.job_id = job_base + static_cast<std::uint64_t>(r);
                sc.priority = shared_spec->priority;
                sc.transfer = shared_spec->transfer;
                sc.proto = config_.proto;
                sc.retry = config_.retry;
                sc.batch = config_.batch;
                core::Session session(*world_, ctx, world_rank,
                                      world_->world_comm(), sc);
                for (const arm::Lease& lease : leases) {
                  session.attach(lease);
                }
                JobContext jctx(*this, ctx, r, shared_spec->ranks, job_comm,
                                session);
                shared_spec->body(jctx);
                // Automatic end-of-job release (paper Section III.C).
                session.close();
                // Rank-done accounting is shared by ranks on different
                // shards; serialize it on the global band.
                engine_.post(sim::kGlobalNode, ctx.now(),
                             [this, completion, remaining] {
                               if (--*remaining == 0) {
                                 --active_jobs_;
                                 completion->complete();
                               }
                             });
              });
        }
      });
  return JobHandle(completion);
}

sim::Engine& Cluster::attach_observers() {
  if (config_.trace) engine_.set_tracer(&tracer_);
  if (config_.metrics) engine_.set_metrics(&metrics_);
  if (config_.profile) engine_.set_wall_profiler(&profiler_);
  engine_.set_flight_recorder(&flight_);
  return engine_;
}

void Cluster::run() { engine_.run(); }

void Cluster::break_accelerator(int ac, SimTime at) {
  gpu::Device* dev = &accelerator_device(ac);
  flight_.note(at, "chaos", "break-accelerator-ac" + std::to_string(ac));
  // The device lives on the accelerator's shard; run the fault there. When
  // called from a job rank the cross-node lookahead clamp applies, exactly
  // as it would for any message the rank could send.
  engine_.post(static_cast<std::int32_t>(daemon_rank(ac)), at,
               [dev] { dev->mark_broken(); });
}

void Cluster::fail_link(net::NodeId node, SimTime at) {
  flight_.note(at, "chaos", "fail-link-node-" + std::to_string(node));
  if (engine_.current() == nullptr) {
    // Configured up front (no events are running): write the fault mark
    // directly, preserving the exact in-flight-cut semantics for transfers
    // that straddle `at`.
    fabric_.fail_link(node, at);
    return;
  }
  // Mid-run injection from a process: the NIC fault marks are read by every
  // shard's send planning, so the write must run on the serial global band.
  engine_.post(sim::kGlobalNode, at,
               [this, node, at] { fabric_.fail_link(node, at); });
}

void Cluster::fail_accelerator_link(int ac, SimTime at) {
  flight_.note(at, "chaos", "fail-accelerator-link-ac" + std::to_string(ac));
  fabric_.fail_link(static_cast<net::NodeId>(daemon_rank(ac)), at);
}

void Cluster::kill_arm_replica(int replica, SimTime at) {
  if (!arm_replicated()) {
    throw std::logic_error("kill_arm_replica: single-ARM deployment");
  }
  flight_.note(at, "chaos", "kill-arm-replica-r" + std::to_string(replica));
  arm::raft::RaftNode* node =
      raft_nodes_.at(static_cast<std::size_t>(replica)).get();
  sim::WaitQueue* gate = raft_gates_[static_cast<std::size_t>(replica)].get();
  fail_link(static_cast<net::NodeId>(arm_rank() + replica), at);
  // Halting touches replica state read by its own shard, so it runs on the
  // serial global band; the gate nudge unparks a quiesced replica so its
  // loop can observe the halt and exit (the engine must drain).
  engine_.post(sim::kGlobalNode, at, [node, gate] {
    node->halt();
    gate->notify_all();
  });
}

void Cluster::kill_arm_leader(SimTime at) {
  if (!arm_replicated()) {
    throw std::logic_error("kill_arm_leader: single-ARM deployment");
  }
  // Which replica leads at `at` is only knowable at `at`: resolve inside a
  // global-band event, where every replica's role can be read race-free.
  engine_.post(sim::kGlobalNode, at, [this, at] {
    const int leader = arm_leader();
    if (leader < 0) return;  // mid-election: nothing leads right now
    arm::raft::RaftNode* node =
        raft_nodes_[static_cast<std::size_t>(leader)].get();
    fabric_.fail_link(static_cast<net::NodeId>(arm_rank() + leader), at);
    node->halt();
    raft_gates_[static_cast<std::size_t>(leader)]->notify_all();
    flight_.note(at, "chaos", "kill-leader-r" + std::to_string(leader));
    if (sim::Tracer* tracer = engine_.tracer()) {
      tracer->record("chaos", "kill-leader-r" + std::to_string(leader), at,
                     at);
    }
  });
}

Cluster::Report Cluster::report() const {
  Report r;
  r.now = engine_.now();
  const double now = r.now > 0 ? static_cast<double>(r.now) : 1.0;
  const std::vector<double> lease = arm_utilization(r.now);
  for (int ac = 0; ac < config_.accelerators; ++ac) {
    const gpu::Device& dev = *ac_devices_[static_cast<std::size_t>(ac)];
    Report::AcceleratorRow row;
    row.index = ac;
    row.name = dev.params().name;
    row.lease_util = lease[static_cast<std::size_t>(ac)];
    row.compute_util = static_cast<double>(dev.compute_busy()) / now;
    row.copy_util = static_cast<double>(dev.copy_busy()) / now;
    row.requests =
        daemons_[static_cast<std::size_t>(ac)]->requests_served();
    r.accelerators.push_back(std::move(row));
  }
  for (int cn = 0; cn < config_.compute_nodes; ++cn) {
    r.cn_bytes_sent += fabric_.bytes_sent(cn);
  }
  for (int ac = 0; ac < config_.accelerators; ++ac) {
    r.ac_bytes_sent += fabric_.bytes_sent(config_.compute_nodes + ac);
  }
  return r;
}

void Cluster::Report::print(std::ostream& os) const {
  util::Table table({"accelerator", "device", "leased", "compute", "copy",
                     "requests"});
  for (const AcceleratorRow& row : accelerators) {
    table.row()
        .add("ac" + std::to_string(row.index))
        .add(row.name)
        .add(100.0 * row.lease_util, 0)
        .add(100.0 * row.compute_util, 0)
        .add(100.0 * row.copy_util, 0)
        .add(row.requests);
  }
  os << "cluster utilization over " << to_ms(now) << " ms (percent):\n";
  table.print(os);
  os << "NIC traffic: compute nodes sent "
     << (cn_bytes_sent / (1024.0 * 1024.0)) << " MiB, accelerators sent "
     << (ac_bytes_sent / (1024.0 * 1024.0)) << " MiB\n";
}

}  // namespace dacc::rt
