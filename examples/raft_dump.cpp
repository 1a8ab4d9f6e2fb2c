// Replicated ARM under chaos, exported: run a 3-replica ARM group
// (DESIGN.md §11) with a seeded leader kill mid-run, then dump the metrics
// snapshot in both exporter formats plus a text digest of the consensus
// events (elections, leader terms, the kill itself) and the final lease
// table fingerprint. Everything written is deterministic — byte-identical
// under every execution backend and shard count; the snapshot is written
// whole, since no series describes the shard map — so the files double as
// the replicated-ARM probe in scripts/check_determinism.sh.
//
//   $ ./examples/raft_dump [out_prefix] [chaos_seed]
//   wrote dacc_raft.json, dacc_raft.prom and dacc_raft.raft
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "arm/raft/node.hpp"
#include "core/api.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace dacc;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "dacc_raft";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42ull;

  rt::ClusterConfig config;
  config.compute_nodes = 2;
  config.accelerators = 3;
  config.arm_replicas = 3;
  config.trace = true;
  config.metrics = true;
  rt::Cluster cluster(config);

  // One seeded leader kill after the first election has settled but while
  // both jobs still hold leases (same window discipline as the chaos tier
  // in tests/common/chaos.hpp).
  util::Rng rng(seed);
  const SimTime kill_at = 4_ms + rng.next_below(6'000'000);
  cluster.kill_arm_leader(kill_at);

  std::size_t granted0 = 0;
  std::size_t granted1 = 0;
  rt::JobSpec a;
  a.name = "hold2";
  a.body = [&granted0](rt::JobContext& job) {
    granted0 = job.session().acquire(2, /*wait=*/true).size();
    job.ctx().wait_for(10_ms);
  };
  rt::JobSpec b;
  b.name = "hold1";
  b.body = [&granted1](rt::JobContext& job) {
    granted1 = job.session().acquire(1, /*wait=*/true).size();
    job.ctx().wait_for(6_ms);
  };
  cluster.submit(a, /*first_cn=*/0);
  cluster.submit(b, /*first_cn=*/1);
  cluster.run();

  if (granted0 != 2 || granted1 != 1) {
    std::fprintf(stderr, "raft_dump: leases not granted (%zu, %zu)\n",
                 granted0, granted1);
    return 1;
  }
  int kills = 0;
  for (const auto& span : cluster.tracer().track("chaos")) {
    if (span.name.rfind("kill-leader-", 0) == 0) ++kills;
  }
  if (kills != 1) {
    std::fprintf(stderr, "raft_dump: expected 1 leader kill, saw %d\n",
                 kills);
    return 1;
  }

  const obs::Registry& metrics = cluster.metrics();
  {
    std::ofstream out(prefix + ".json");
    metrics.write_json(out);
  }
  {
    std::ofstream out(prefix + ".prom");
    metrics.write_prometheus(out);
  }
  {
    // Consensus digest: every raft/chaos trace event in order, then the
    // surviving group's agreed state. A byte-diff of this file across
    // backends pins the whole election history, not just the end state.
    std::ofstream out(prefix + ".raft");
    for (const char* track : {"raft", "chaos"}) {
      for (const auto& span : cluster.tracer().track(track)) {
        out << track << " " << span.name << " @" << span.begin << "\n";
      }
    }
    for (int r = 0; r < config.arm_replicas; ++r) {
      const arm::raft::RaftNode& node = cluster.arm_replica(r);
      out << "replica " << r << (node.halted() ? " dead" : " live");
      if (!node.halted()) {
        out << " term=" << node.term() << " commit=" << node.commit_index()
            << " lease_fp=" << std::hex << node.machine().fingerprint()
            << std::dec;
      }
      out << "\n";
    }
  }

  const arm::PoolStats stats = cluster.arm_stats();
  std::printf("raft_dump: seed %llu killed the leader at t=%.2f ms\n",
              static_cast<unsigned long long>(seed), to_ms(kill_at));
  std::printf(
      "pool after drain: %u free of %u (%llu acquisitions served)\n",
      stats.free, stats.total,
      static_cast<unsigned long long>(stats.acquisitions));
  std::printf("wrote %s.json, %s.prom and %s.raft\n", prefix.c_str(),
              prefix.c_str(), prefix.c_str());
  return stats.free == stats.total ? 0 : 1;
}
