// Replicated ARM consensus tier (DESIGN.md §11): leader election safety,
// log matching / bit-identical lease tables across replicas, snapshot
// compaction and restore, and cross-backend determinism of whole chaos
// schedules. The binary is registered once per execution backend (see
// CMakeLists.txt), so every test here also runs under the coroutine and
// parallel schedulers.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "arm/arm.hpp"
#include "arm/lease_machine.hpp"
#include "arm/raft/node.hpp"
#include "arm/raft/wire.hpp"
#include "common/chaos.hpp"
#include "common/pool.hpp"
#include "common/testbed.hpp"
#include "core/api.hpp"
#include "proto/wire.hpp"
#include "rt/cluster.hpp"
#include "sim/exec.hpp"
#include "util/units.hpp"

namespace dacc::arm::raft {
namespace {

using dacc::testing::ChaosSchedule;
using dacc::testing::replicated_cluster;

/// Replica indices still alive after the run.
std::vector<int> live_replicas(rt::Cluster& cluster) {
  std::vector<int> out;
  for (int r = 0; r < cluster.config().arm_replicas; ++r) {
    if (!cluster.arm_replica(r).halted()) out.push_back(r);
  }
  return out;
}

/// Asserts the replication invariants that must hold once the engine has
/// drained: every live replica fully applied, one agreed term, and the
/// same lease-machine fingerprint everywhere (log matching end to end).
void expect_converged(rt::Cluster& cluster) {
  const std::vector<int> live = live_replicas(cluster);
  ASSERT_FALSE(live.empty());
  const RaftNode& first = cluster.arm_replica(live[0]);
  for (const int r : live) {
    const RaftNode& node = cluster.arm_replica(r);
    SCOPED_TRACE("replica " + std::to_string(r));
    EXPECT_EQ(node.last_applied(), node.commit_index());
    EXPECT_EQ(node.term(), first.term());
    EXPECT_EQ(node.commit_index(), first.commit_index());
    EXPECT_EQ(node.machine().fingerprint(), first.machine().fingerprint());
  }
  const int leader = cluster.arm_leader();
  ASSERT_GE(leader, 0);
  EXPECT_FALSE(cluster.arm_replica(leader).halted());
}

/// One dynamic-assignment job: acquire, hold, release through job close.
/// `granted` (if any) must be a slot private to this job — concurrent jobs
/// run on different shards under the parallel backend.
rt::JobSpec acquire_job(std::uint32_t count, SimDuration hold,
                        std::size_t* granted = nullptr) {
  rt::JobSpec spec;
  spec.name = "acq";
  spec.body = [count, hold, granted](rt::JobContext& job) {
    const auto accs = job.session().acquire(count, /*wait=*/true);
    if (granted != nullptr) *granted = accs.size();
    job.ctx().wait_for(hold);
  };
  return spec;
}

TEST(Raft, ElectsExactlyOneLeaderPerTerm) {
  rt::ClusterConfig config = replicated_cluster(/*cns=*/1, /*acs=*/2);
  config.trace = true;
  rt::Cluster cluster(config);
  std::size_t granted = 0;
  cluster.submit(acquire_job(2, 2_ms, &granted));
  cluster.run();

  ASSERT_EQ(granted, 2u);
  expect_converged(cluster);

  // Election safety: the trace records every become_leader; no term may
  // crown two replicas.
  std::map<std::string, std::set<std::string>> leaders_by_term;
  bool elected = false;
  for (const auto& span : cluster.tracer().track("raft")) {
    // Labels look like "leader-r1-term3".
    if (span.name.rfind("leader-", 0) != 0) continue;
    const auto term_pos = span.name.find("-term");
    ASSERT_NE(term_pos, std::string::npos) << span.name;
    leaders_by_term[span.name.substr(term_pos + 5)].insert(
        span.name.substr(7, term_pos - 7));
    elected = true;
  }
  EXPECT_TRUE(elected);
  for (const auto& [term, leaders] : leaders_by_term) {
    EXPECT_EQ(leaders.size(), 1u) << "term " << term << " has two leaders";
  }
}

TEST(Raft, LeaseTableIdenticalOnAllReplicas) {
  rt::Cluster cluster(replicated_cluster(/*cns=*/2, /*acs=*/3));
  // Two jobs contend for three accelerators; the second queues at the pool
  // until the first releases, so the log carries queued-grant effects too.
  cluster.submit(acquire_job(2, 3_ms), /*first_cn=*/0);
  cluster.submit(acquire_job(2, 1_ms), /*first_cn=*/1);
  cluster.run();

  expect_converged(cluster);
  const arm::PoolStats stats = cluster.arm_stats();
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.free, 3u);  // everything returned at job close
  EXPECT_GE(stats.acquisitions, 4u);
}

TEST(Raft, FiveReplicaGroupConverges) {
  rt::Cluster cluster(
      replicated_cluster(/*cns=*/1, /*acs=*/2, /*replicas=*/5));
  std::size_t granted = 0;
  cluster.submit(acquire_job(1, 2_ms, &granted));
  cluster.run();
  ASSERT_EQ(granted, 1u);
  expect_converged(cluster);
}

TEST(Raft, SnapshotThresholdCompactsTheLog) {
  rt::ClusterConfig config = replicated_cluster(/*cns=*/1, /*acs=*/1);
  config.raft.snapshot_threshold = 4;
  rt::Cluster cluster(config);
  // Many acquire/release rounds push every replica's applied index far past
  // the threshold, forcing repeated compaction while the group is serving.
  rt::JobSpec spec;
  spec.body = [](rt::JobContext& job) {
    for (int i = 0; i < 8; ++i) {
      const auto accs = job.session().acquire(1, /*wait=*/true);
      ASSERT_EQ(accs.size(), 1u);
      job.ctx().wait_for(200_us);
      job.session().release(accs[0]);
    }
  };
  cluster.submit(spec);
  cluster.run();

  expect_converged(cluster);
  for (const int r : live_replicas(cluster)) {
    const RaftNode& node = cluster.arm_replica(r);
    SCOPED_TRACE("replica " + std::to_string(r));
    EXPECT_GT(node.commit_index(), 16u);
    // Every replica compacted: its snapshot boundary advanced and the
    // retained log tail is shorter than one threshold window.
    EXPECT_GT(node.snapshot_index(), 0u);
    EXPECT_LT(node.last_log_index() - node.snapshot_index(),
              config.raft.snapshot_threshold);
  }
}

TEST(Raft, MachineSnapshotRoundTripsAfterChaos) {
  rt::Cluster cluster(replicated_cluster(/*cns=*/2, /*acs=*/3));
  ChaosSchedule::leader_kills(/*seed=*/7, /*count=*/1, 2_ms, 4_ms, 1_ms)
      .arm(cluster);
  cluster.submit(acquire_job(2, 6_ms), /*first_cn=*/0);
  cluster.submit(acquire_job(1, 4_ms), /*first_cn=*/1);
  cluster.run();

  expect_converged(cluster);
  // snapshot() -> restore() must reproduce the machine bit for bit: the
  // same format serves log compaction and InstallSnapshot transfers.
  const std::vector<int> live = live_replicas(cluster);
  ASSERT_FALSE(live.empty());
  const LeaseMachine& m = cluster.arm_replica(live[0]).machine();
  const util::Buffer snap = m.snapshot();
  proto::WireReader r(snap.view());
  const LeaseMachine restored = LeaseMachine::restore(r);
  EXPECT_EQ(restored.fingerprint(), m.fingerprint());
}

// ---------------------------------------------------------------------------
// Pre-vote (dissertation §9.6): disruptive rejoiners cannot depose a healthy
// leader
// ---------------------------------------------------------------------------

/// Receives consensus frames from replica 0 until one matches `expect`,
/// ignoring the replica's own campaign traffic (its pre-vote probes land on
/// the same tag while it is partitioned from its leader).
template <typename M>
M recv_filtered(dmpi::Mpi& mpi, const dmpi::Comm& comm, RaftOp expect) {
  for (;;) {
    util::Buffer frame = mpi.recv(comm, 0, kArmRequestTag);
    proto::WireReader r(frame.view());
    const auto op = static_cast<RaftOp>(r.u32());
    (void)r.u32();  // reply tag (0: one-way consensus frame)
    if (op == expect) return M::decode(r);
  }
}

TEST(Raft, PreVoteRefusesDisruptionWhileTheLeaderIsHealthy) {
  // Replica 0 (under test) follows a scripted leader on rank 1. Rank 2
  // plays a rejoining replica probing at an absurdly high term. While
  // leader contact is fresh the probe must be refused — and, the actual
  // damping claim, replica 0's term must never move, so the healthy leader
  // is not deposed. Once the leader falls silent past the election-timeout
  // floor, the same probe is granted.
  dacc::testing::MpiBed bed(3);
  RaftParams params;
  params.seed = 0x9E6'5EEDull;
  RaftNode node(bed.world(), /*self=*/0, /*replica=*/0, {0, 1, 2},
                {{1, "c1060"}}, QueuePolicy::kFcfs, params,
                HeartbeatParams{});

  auto heartbeat = [](std::uint64_t commit) {
    AppendEntries ae;
    ae.term = 1;
    ae.leader = 1;
    ae.prev_index = 0;
    ae.prev_term = 0;
    ae.commit = commit;
    return ae;
  };

  bed.run({
      [&node](dmpi::Mpi&, sim::Context& ctx) { node.run(ctx); },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {  // scripted leader
        const dmpi::Comm& comm = bed.comm();
        // Healthy phase: beats every 400 us until t = 4 ms. Every reply
        // must stay at term 1 — the rank-2 probe at 2 ms lands mid-phase
        // and must not have bumped it.
        for (int beat = 0; beat < 10; ++beat) {
          mpi.send(comm, 0, kArmRequestTag, heartbeat(0).encode());
          const auto rep =
              recv_filtered<AppendReply>(mpi, comm, RaftOp::kAppendReply);
          EXPECT_TRUE(rep.success);
          EXPECT_EQ(rep.term, 1u) << "beat " << beat;
          ctx.wait_for(400_us);
        }
        // Silent phase: replica 0 is allowed to campaign (it probes; we
        // ignore the traffic). At 9 ms, after rank 2's granted probe, a
        // committed kShutdown entry both terminates the run and proves the
        // term STILL never moved past 1.
        ctx.wait_until(9_ms);
        AppendEntries down = heartbeat(1);
        LogEntry entry;
        entry.term = 1;
        entry.at = 9'000'000;
        entry.cmd.client = 1;
        entry.cmd.reply_tag = 0;
        entry.cmd.op = static_cast<std::uint32_t>(ArmOp::kShutdown);
        down.entries.push_back(std::move(entry));
        mpi.send(comm, 0, kArmRequestTag, down.encode());
        const auto fin =
            recv_filtered<AppendReply>(mpi, comm, RaftOp::kAppendReply);
        EXPECT_TRUE(fin.success);
        EXPECT_EQ(fin.term, 1u);  // term 9 disruption never stuck
      },
      [&](dmpi::Mpi& mpi, sim::Context& ctx) {  // rejoining replica
        const dmpi::Comm& comm = bed.comm();
        PreVote probe;
        probe.term = 9;
        probe.candidate = 2;
        probe.last_log_index = 100;
        probe.last_log_term = 9;
        // Mid-heartbeats: refused, because the leader is in contact.
        ctx.wait_until(2_ms);
        mpi.send(comm, 0, kArmRequestTag, probe.encode());
        const auto refused =
            recv_filtered<PreVoteReply>(mpi, comm, RaftOp::kPreVoteReply);
        EXPECT_FALSE(refused.granted);
        // After > kElectionMin of leader silence: granted.
        ctx.wait_until(8_ms);
        mpi.send(comm, 0, kArmRequestTag, probe.encode());
        const auto granted =
            recv_filtered<PreVoteReply>(mpi, comm, RaftOp::kPreVoteReply);
        EXPECT_TRUE(granted.granted);
      },
  });

  EXPECT_EQ(node.term(), 1u);  // the whole run never left the leader's term
}

TEST(Raft, PreVoteKeepsTermsStableAcrossSeededChaos) {
  // Seeded regression: two leader kills force two real elections, and with
  // pre-vote on (the default) nobody else's timeout may inflate the term —
  // each leadership change costs at most a couple of term increments.
  rt::Cluster cluster(
      replicated_cluster(/*cns=*/2, /*acs=*/3, /*replicas=*/5));
  ChaosSchedule::leader_kills(/*seed=*/1789, /*count=*/2, 2_ms, 8_ms, 2_ms)
      .arm(cluster);
  cluster.submit(acquire_job(2, 10_ms), /*first_cn=*/0);
  cluster.submit(acquire_job(1, 8_ms), /*first_cn=*/1);
  cluster.run();

  expect_converged(cluster);
  const std::vector<int> live = live_replicas(cluster);
  ASSERT_FALSE(live.empty());
  EXPECT_LE(cluster.arm_replica(live[0]).term(), 6u);
}

// ---------------------------------------------------------------------------
// Cross-backend / cross-shard determinism of a whole chaos schedule
// ---------------------------------------------------------------------------

struct ChaosFingerprint {
  SimTime final_now = 0;
  std::uint64_t events = 0;
  std::uint64_t machine_fp = 0;
  std::uint64_t term = 0;
  std::uint64_t commit = 0;
  std::size_t granted0 = 0;
  std::size_t granted1 = 0;
  std::string metrics;
  std::vector<std::string> raft_spans;
  std::string flight;

  bool operator==(const ChaosFingerprint& other) const = default;
};

ChaosFingerprint run_chaos(sim::ExecBackend backend, int shards) {
  rt::ClusterConfig config = replicated_cluster(/*cns=*/2, /*acs=*/3);
  config.trace = true;
  config.metrics = true;
  config.sim_backend = backend;
  config.sim_shards = shards;
  rt::Cluster cluster(config);
  ChaosSchedule::leader_kills(/*seed=*/42, /*count=*/1, 2_ms, 6_ms, 1_ms)
      .arm(cluster);

  ChaosFingerprint fp;
  cluster.submit(acquire_job(2, 8_ms, &fp.granted0), /*first_cn=*/0);
  cluster.submit(acquire_job(1, 5_ms, &fp.granted1), /*first_cn=*/1);
  // Widened under every backend, so the parallel runs put the replicas
  // on the worker pool.
  dacc::testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();
  if (backend == sim::ExecBackend::kParallel) {
    EXPECT_TRUE(dacc::testing::ran_all_eras_on_pool(cluster.engine()));
  }

  fp.final_now = cluster.engine().now();
  fp.events = cluster.engine().events_executed();
  const std::vector<int> live = live_replicas(cluster);
  EXPECT_FALSE(live.empty());
  if (!live.empty()) {
    const RaftNode& node = cluster.arm_replica(live[0]);
    fp.machine_fp = node.machine().fingerprint();
    fp.term = node.term();
    fp.commit = node.commit_index();
  }
  // The whole snapshot: no series depends on the shard map.
  fp.metrics = cluster.metrics().prometheus();
  EXPECT_EQ(fp.metrics.find("dacc_sim_"), std::string::npos);
  for (const auto& span : cluster.tracer().track("raft")) {
    fp.raft_spans.push_back(span.name + "@" + std::to_string(span.begin));
  }
  // The chaos kill and the replicas' role notes come from different pool
  // shards; the recorder applies them in the serial loop's order.
  fp.flight = cluster.flight().dump();
  return fp;
}

TEST(RaftDeterminism, ChaosScheduleIsShardCountInvariant) {
  const ChaosFingerprint one = run_chaos(sim::ExecBackend::kParallel, 1);
  EXPECT_EQ(one.granted0, 2u);
  EXPECT_EQ(one.granted1, 1u);
  EXPECT_FALSE(one.raft_spans.empty());
  for (const int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EXPECT_EQ(run_chaos(sim::ExecBackend::kParallel, shards), one);
  }
}

TEST(RaftDeterminism, ChaosScheduleIsBackendInvariant) {
  const ChaosFingerprint coro = run_chaos(sim::ExecBackend::kCoroutine, 0);
  EXPECT_EQ(coro.granted0, 2u);
  EXPECT_EQ(coro.granted1, 1u);
  EXPECT_EQ(run_chaos(sim::ExecBackend::kParallel, 4), coro);
}

}  // namespace
}  // namespace dacc::arm::raft
