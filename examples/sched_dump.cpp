// Typed scheduler under chaos, exported: a replicated ARM serving a mixed
// heterogeneous pool (two GPUs and a MIC) to three priority classes — a
// batch job holding the GPUs, a normal job pinning the MIC by kind, and an
// urgent latecomer whose arrival preempts one batch lease — with a seeded
// leader kill mid-run. The preempted front-end replays onto a re-acquired
// slot transparently. Dumps the metrics snapshot in both exporter formats
// plus a scheduler digest (trace events, per-priority assign-wait SLO
// readout, pool counters, replica fingerprints). Everything written is
// deterministic — byte-identical under every execution backend and shard
// count; the snapshot is written whole, since no series describes the
// shard map — so the files double as the scheduler probe in
// scripts/check_determinism.sh.
//
//   $ ./examples/sched_dump [out_prefix] [chaos_seed]
//   wrote dacc_sched.json, dacc_sched.prom and dacc_sched.sched
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "arm/arm.hpp"
#include "arm/raft/node.hpp"
#include "core/api.hpp"
#include "gpu/device.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace dacc;

namespace {

constexpr std::uint64_t kBytes = 4_KiB;

std::vector<std::byte> pattern(int salt) {
  std::vector<std::byte> host(kBytes);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<std::byte>((i * 31u) ^ (salt * 7u));
  }
  return host;
}

/// One h2d/d2h round against each held accelerator; returns false on a
/// data mismatch (replay must make preemption invisible here).
bool touch(std::vector<core::Accelerator*>& accs,
           std::vector<gpu::DevPtr>& ptrs, int salt) {
  for (std::size_t a = 0; a < accs.size(); ++a) {
    const std::vector<std::byte> host = pattern(salt + static_cast<int>(a));
    accs[a]->memcpy_h2d(ptrs[a], util::Buffer::backed_copy(
                                     std::span<const std::byte>(host)));
    const util::Buffer back = accs[a]->memcpy_d2h(ptrs[a], kBytes);
    if (back.size() != host.size() ||
        std::memcmp(back.bytes().data(), host.data(), host.size()) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "dacc_sched";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42ull;

  rt::ClusterConfig config;
  config.compute_nodes = 3;
  config.accelerator_devices = {gpu::tesla_c1060(), gpu::tesla_c1060(),
                                gpu::mic_knc()};
  config.arm_replicas = 3;
  config.trace = true;
  config.metrics = true;
  config.retry.replace_on_failure = true;
  rt::Cluster cluster(config);

  // Seeded leader kill after the preemption/replacement drama has committed
  // but while every lease is still held: the failed-over group must carry
  // the typed scheduler state (priorities, preemption counters, replayed
  // lease) bit-identically into the new term. Killing earlier would also
  // stall the urgent client's retry ladder past the batch job's lifetime,
  // turning the preemption into a plain grant.
  util::Rng rng(seed);
  const SimTime kill_at = 8_ms + rng.next_below(4'000'000);
  cluster.kill_arm_leader(kill_at);

  bool batch_ok = true;
  std::size_t batch_granted = 0;
  std::size_t mic_granted = 0;
  std::size_t urgent_granted = 0;

  // All three jobs wait out the first election (~1.8 ms) before acquiring:
  // a request sent into a leaderless group rides the client's retry ladder
  // and lands much later, which would let the urgent job slip into a free
  // slot instead of preempting.
  rt::JobSpec batch;
  batch.name = "batch2gpu";
  batch.priority = arm::kPriorityBatch;
  batch.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(3_ms);
    auto accs = job.session().acquire(
        arm::ResourceRequest{}.with_count(2).with_kind("gpu").with_wait(true));
    batch_granted = accs.size();
    if (accs.size() != 2) return;
    std::vector<gpu::DevPtr> ptrs;
    for (core::Accelerator* acc : accs) ptrs.push_back(acc->mem_alloc(kBytes));
    for (int iter = 0; iter < 40 && batch_ok; ++iter) {
      batch_ok = touch(accs, ptrs, iter);
      job.ctx().wait_for(300_us);
    }
    for (core::Accelerator* acc : accs) job.session().release(acc);
  };

  rt::JobSpec mic;
  mic.name = "mic-pinned";
  mic.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(3'200_us);
    auto accs = job.session().acquire(
        arm::ResourceRequest{}.with_count(1).with_kind("mic").with_wait(true));
    mic_granted = accs.size();
    if (accs.empty()) return;
    // Hold long enough that the pool stays full even if the failover delays
    // the urgent request: preemption, not a lucky free slot, must serve it.
    job.ctx().wait_for(17_ms);
    job.session().release(accs[0]);
  };

  rt::JobSpec urgent;
  urgent.name = "urgent1";
  urgent.priority = arm::kPriorityUrgent;
  urgent.body = [&](rt::JobContext& job) {
    job.ctx().wait_for(5_ms);  // pool is full: this arrival preempts
    auto accs = job.session().acquire(
        arm::ResourceRequest{}.with_count(1).with_wait(true));
    urgent_granted = accs.size();
    if (accs.empty()) return;
    job.ctx().wait_for(2_ms);
    job.session().release(accs[0]);
  };

  cluster.submit(batch, /*first_cn=*/0);
  cluster.submit(mic, /*first_cn=*/1);
  cluster.submit(urgent, /*first_cn=*/2);

  // Per-priority assignment-wait SLOs, evaluated after the run: the urgent
  // class must be near-immediate (preemption is its fast path); batch may
  // absorb the replacement wait but stays bounded.
  obs::Registry& metrics = cluster.metrics();
  metrics.set_slo(obs::labeled("dacc_arm_assign_wait_ns", "prio", "urgent"),
                  990, 1_ms);
  metrics.set_slo(obs::labeled("dacc_arm_assign_wait_ns", "prio", "batch"),
                  990, 20_ms);
  metrics.set_slo(obs::labeled("dacc_arm_assign_wait_ns", "prio", "normal"),
                  990, 20_ms);

  cluster.run();

  if (batch_granted != 2 || mic_granted != 1 || urgent_granted != 1) {
    std::fprintf(stderr, "sched_dump: grants missing (%zu, %zu, %zu)\n",
                 batch_granted, mic_granted, urgent_granted);
    return 1;
  }
  if (!batch_ok) {
    std::fprintf(stderr, "sched_dump: replay corrupted batch data\n");
    return 1;
  }

  {
    std::ofstream out(prefix + ".json");
    metrics.write_json(out);
  }
  {
    std::ofstream out(prefix + ".prom");
    metrics.write_prometheus(out);
  }

  const std::vector<obs::SloResult> slos = metrics.check_slos();
  const arm::PoolStats stats = cluster.arm_stats();
  {
    // Scheduler digest: the consensus/chaos event history, the pool's
    // scheduling counters, the per-priority SLO table and every surviving
    // replica's lease-table fingerprint. Byte-diffed across backends and
    // shard counts by scripts/check_determinism.sh.
    std::ofstream out(prefix + ".sched");
    for (const char* track : {"raft", "chaos"}) {
      for (const auto& span : cluster.tracer().track(track)) {
        out << track << " " << span.name << " @" << span.begin << "\n";
      }
    }
    out << "pool total=" << stats.total << " free=" << stats.free
        << " acquisitions=" << stats.acquisitions
        << " preemptions=" << stats.preemptions
        << " replacements=" << stats.replacements
        << " revocations=" << stats.revocations << "\n";
    obs::write_slo_report(slos, out);
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

  bool slos_ok = true;
  for (const obs::SloResult& r : slos) slos_ok = slos_ok && r.ok;

  std::printf("sched_dump: seed %llu killed the leader at t=%.2f ms\n",
              static_cast<unsigned long long>(seed), to_ms(kill_at));
  std::printf(
      "pool after drain: %u free of %u, %u preempted, %u replaced\n",
      stats.free, stats.total, stats.preemptions, stats.replacements);
  std::printf("wrote %s.json, %s.prom and %s.sched\n", prefix.c_str(),
              prefix.c_str(), prefix.c_str());
  if (stats.preemptions != 1 || stats.replacements != 1) {
    std::fprintf(stderr, "sched_dump: expected 1 preemption + 1 replacement\n");
    return 1;
  }
  return (stats.free == stats.total && slos_ok) ? 0 : 1;
}
