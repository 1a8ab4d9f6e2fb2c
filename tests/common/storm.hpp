// The arm-storm workload as a test scenario: an open-loop Poisson stream of
// short jobs against a replicated ARM — 16 CNs, a 64-accelerator pool and
// 3 Raft replicas. A job needs 0, 1, 2 or 3 accelerators (30/35/20/15%) and
// holds them for U(5, 40) ms; jobs arrive with exponential gaps of mean
// 0.5 ms, which offers 54 of the 64 accelerators (84%). Priorities are
// uniform over the four classes, so higher classes preempt lower leases and
// revoke+replay must hide it. Each held accelerator gets a byte-checked
// 4 KiB write and read-back.
//
// The plan is the one perfbench's arm-storm workload draws (same seed, same
// jobs); tests cannot link perfbench, so it lives here too.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "arm/lease_machine.hpp"
#include "core/api.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::testing {

inline constexpr int kStormCn = 16;
inline constexpr int kStormAc = 64;
inline constexpr double kStormGapMs = 8.0 * 4 / kStormAc;
inline constexpr std::uint64_t kStormBytes = 4_KiB;

struct StormJob {
  SimTime arrival = 0;
  int cn = 0;
  std::uint32_t priority = arm::kPriorityNormal;
  std::uint32_t gang = 0;  ///< accelerators held; 0 = a CPU-only job
  SimDuration hold = 0;
  std::uint64_t payload_seed = 0;
};

inline std::vector<StormJob> storm_plan(std::uint64_t seed, int jobs) {
  util::Rng rng(seed * 104729 + 17);
  std::vector<StormJob> plan;
  double t_ms = 0.0;
  for (int i = 0; i < jobs; ++i) {
    StormJob j;
    const double p = rng.next_double();
    j.gang = p > 0.85 ? 3 : p > 0.65 ? 2 : p > 0.30 ? 1 : 0;
    t_ms += rng.exponential(1.0 / kStormGapMs);
    j.arrival = static_cast<SimTime>(t_ms * 1e6);
    j.hold = static_cast<SimDuration>(rng.uniform(5.0, 40.0) * 1e6);
    j.priority =
        static_cast<std::uint32_t>(rng.next_below(arm::kPriorityClasses));
    j.cn = static_cast<int>(rng.next_below(kStormCn));
    j.payload_seed = rng.next_u64();
    plan.push_back(j);
  }
  return plan;
}

inline std::vector<std::byte> storm_payload(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> out(kStormBytes);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next_u64() & 0xffu);
  return out;
}

/// The storm's cluster: replicated ARM, functional GPUs (the round trips
/// are byte-checked) and transparent replacement on preemption.
inline rt::ClusterConfig storm_config() {
  rt::ClusterConfig cc;
  cc.compute_nodes = kStormCn;
  cc.accelerators = kStormAc;
  cc.functional_gpus = true;
  cc.arm_replicas = 3;
  cc.retry.replace_on_failure = true;
  return cc;
}

/// One storm job: arrive, acquire the gang (queueing at the pool), write
/// each accelerator, hold, read every write back and release. A short
/// grant or a read-back that differs from the write throws, so it surfaces
/// as the job's failure reason.
inline rt::JobSpec storm_job(const StormJob& sj, std::size_t index) {
  rt::JobSpec spec;
  spec.name = "storm" + std::to_string(index);
  spec.priority = sj.priority;
  spec.body = [sj](rt::JobContext& job) {
    sim::Context& ctx = job.ctx();
    core::Session& session = job.session();
    ctx.wait_until(sj.arrival);
    if (sj.gang == 0) {
      ctx.wait_for(sj.hold);
      return;
    }
    const std::vector<core::Accelerator*> accs = session.acquire(
        arm::ResourceRequest{}.with_count(sj.gang).with_wait(true));
    if (accs.size() != sj.gang) throw std::runtime_error("short grant");
    std::vector<gpu::DevPtr> ptrs;
    std::vector<std::vector<std::byte>> sent;
    for (std::size_t a = 0; a < accs.size(); ++a) {
      ptrs.push_back(accs[a]->mem_alloc(kStormBytes));
      sent.push_back(storm_payload(sj.payload_seed + a));
      accs[a]->memcpy_h2d(ptrs[a], util::Buffer::backed_copy(sent[a]));
    }
    ctx.wait_for(sj.hold);
    for (std::size_t a = 0; a < accs.size(); ++a) {
      const util::Buffer back = accs[a]->memcpy_d2h(ptrs[a], kStormBytes);
      if (back.size() != kStormBytes ||
          std::memcmp(back.bytes().data(), sent[a].data(), kStormBytes) != 0) {
        throw std::runtime_error("read-back differs from the write");
      }
      accs[a]->mem_free(ptrs[a]);
    }
    for (core::Accelerator* ac : accs) session.release(ac);
  };
  return spec;
}

}  // namespace dacc::testing
