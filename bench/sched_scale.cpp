// Scheduler scale bench (DESIGN.md §13): LeaseMachine::apply driven
// directly — no cluster, no fabric — so the measured cost is the decision
// path itself: indexed free-list grant, priority-ordered enqueue, and
// backfill drain on release. The sweep holds the workload shape fixed and
// grows only the pool (1k → 10k slots, half gpu / half mic) under a deep
// waiting queue (~1M queued requests across the sweep); with the
// per-(kind, memory)-class free-list indexes the per-decision cost must
// stay flat as the pool grows — a linear slot scan would show up as a
// 10x slope.
//
// Emits BENCH_sched.json (override with --out PATH); --quick shrinks the
// sweep for use as a ctest smoke test. Exits nonzero when the 10k/1k
// per-decision cost ratio exceeds the flatness bound.
//
//   $ ./bench/sched_scale [--quick] [--out BENCH_sched.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "arm/lease_machine.hpp"
#include "obs/metrics.hpp"
#include "proto/wire.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::bench {
namespace {

using arm::ArmOp;
using arm::ArmResult;
using arm::Command;
using arm::Effect;
using arm::LeaseMachine;
using arm::ResourceRequest;
using proto::WireReader;
using proto::WireWriter;

/// Acquire reply tags encode the requesting job: kArmReplyTagBase + job.
/// Release tags count up from 1, below this range.
constexpr int kArmReplyTagBase = 2'000'000;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct HeldLease {
  std::uint64_t job = 0;
  dmpi::Rank daemon_rank = -1;
  std::uint64_t lease_id = 0;
};

Command acquire_command(const ResourceRequest& req) {
  Command c;
  c.client = 7;
  c.reply_tag = kArmReplyTagBase + static_cast<int>(req.job);  // tag -> job
  c.op = static_cast<std::uint32_t>(ArmOp::kAcquire);
  WireWriter w;
  req.encode_body(w);
  c.body = w.finish();
  return c;
}

Command release_command(const HeldLease& h, int tag) {
  Command c;
  c.client = 7;
  // Unique per release and below the job tag range: the machine's
  // at-least-once reply cache is keyed on (client, tag), so a reused tag
  // would answer every later release from the cache without releasing.
  c.reply_tag = tag;
  c.op = static_cast<std::uint32_t>(ArmOp::kRelease);
  c.body = WireWriter{}
               .u64(h.job)
               .u64(static_cast<std::uint64_t>(h.daemon_rank))
               .u64(h.lease_id)
               .finish();
  return c;
}

/// Harvest granted leases out of an apply's reply effects. Reply tags carry
/// the requesting job id, so drain grants triggered by a release are
/// attributed to the right job.
void harvest_grants(const std::vector<Effect>& effects,
                    std::vector<HeldLease>& held, std::uint64_t* grants) {
  for (const Effect& e : effects) {
    if (e.kind != Effect::Kind::kReply || e.tag < kArmReplyTagBase) {
      continue;
    }
    WireReader r(e.frame.view());
    if (static_cast<ArmResult>(r.u32()) != ArmResult::kOk) continue;
    const std::uint32_t n = r.u32();
    const auto job = static_cast<std::uint64_t>(e.tag - kArmReplyTagBase);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto rank = static_cast<dmpi::Rank>(r.u64());
      held.push_back({job, rank, r.u64()});
      ++*grants;
    }
  }
}

/// Mixed request stream: 30% pinned to "gpu", 30% pinned to "mic" (half of
/// those via the memory constraint instead of the kind string), the rest
/// unconstrained; priorities spread over all four classes.
ResourceRequest mixed_request(std::uint64_t job, util::Rng& rng) {
  ResourceRequest rq;
  rq.job = job;
  rq.count = 1;
  rq.wait = true;
  rq.priority = static_cast<std::uint32_t>(rng.next_below(4));
  const std::uint64_t shape = rng.next_below(10);
  if (shape < 3) {
    rq.kind = "gpu";
  } else if (shape < 6) {
    if (shape == 3) {
      rq.memory_bytes = 6_GiB;  // only the 8 GiB mic class satisfies this
    } else {
      rq.kind = "mic";
    }
  }
  return rq;
}

struct SizeResult {
  int pool = 0;
  std::uint64_t queued = 0;
  std::uint64_t applies = 0;
  std::uint64_t grants = 0;
  double fill_ns_per_op = 0.0;
  double enqueue_ns_per_op = 0.0;
  double drain_ns_per_op = 0.0;
  // Per-priority assign-wait quantiles (sim-time ns; now advances 1 us per
  // applied command, so waits are queue depth in command ticks).
  std::uint64_t wait_p50[arm::kPriorityClasses] = {};
  std::uint64_t wait_p99[arm::kPriorityClasses] = {};
};

SizeResult run_size(int pool_size, std::uint64_t queue_depth,
                    std::uint64_t seed) {
  std::vector<arm::AcceleratorInfo> pool;
  pool.reserve(static_cast<std::size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) {
    const bool gpu = (i % 2) == 0;
    pool.push_back({/*daemon_rank=*/1000 + i, gpu ? "c1060" : "knc",
                    gpu ? "gpu" : "mic", gpu ? 4_GiB : 8_GiB});
  }
  // Backfill keeps a kind-blocked queue head from stalling the drain; the
  // priority ordering on top of it is what the bench exercises.
  LeaseMachine machine(std::move(pool), arm::QueuePolicy::kBackfill);
  obs::Registry registry;
  machine.bind_metrics(&registry);

  util::Rng rng(seed);
  SimTime now = 0;
  SizeResult res;
  res.pool = pool_size;
  res.queued = queue_depth;
  std::vector<HeldLease> held;
  held.reserve(static_cast<std::size_t>(pool_size) + queue_depth);
  std::uint64_t job = 1;

  auto apply = [&](const Command& c) {
    now += 1_us;
    const arm::ApplyResult r = machine.apply(c, now);
    ++res.applies;
    harvest_grants(r.effects, held, &res.grants);
  };

  // Phase A — fill: unconstrained count-1 grants until every slot is
  // assigned. Pure indexed-grant path. Slots are taken at the top priority
  // so phase B measures the enqueue path alone: no arrival ever finds a
  // lower-priority victim, which pins the indexed no-victim preemption
  // check (the eviction path itself is covered by tests/arm).
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < pool_size; ++i) {
    ResourceRequest rq;
    rq.job = job++;
    rq.count = 1;
    rq.wait = false;
    rq.priority = arm::kPriorityUrgent;
    apply(acquire_command(rq));
  }
  res.fill_ns_per_op =
      seconds_since(t0) * 1e9 / static_cast<double>(pool_size);

  // Phase B — load: `queue_depth` mixed waiting requests against the full
  // pool. Pure priority-ordered enqueue path (arrival preemption never
  // fires: every slot owner holds top priority, so the indexed victim
  // count comes back zero on each arrival).
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < queue_depth; ++i) {
    apply(acquire_command(mixed_request(job++, rng)));
  }
  res.enqueue_ns_per_op =
      seconds_since(t0) * 1e9 / static_cast<double>(queue_depth);

  // Phase C — churn: release held leases round-robin; every release
  // backfills from the queue, so each apply is one release + one indexed
  // re-grant decision. Runs until the queue is dry.
  std::size_t next = 0;
  int release_tag = 1;
  std::uint64_t churn_applies = 0;
  const std::uint64_t cap = 4 * (queue_depth + res.grants);
  t0 = std::chrono::steady_clock::now();
  while (machine.stats().queued_requests > 0 && churn_applies < cap) {
    if (next >= held.size()) {
      std::fprintf(stderr, "sched_scale: no held lease left to release "
                           "(pool %d)\n", res.pool);
      break;
    }
    apply(release_command(held[next++], release_tag++));
    ++churn_applies;
  }
  res.drain_ns_per_op =
      seconds_since(t0) * 1e9 / static_cast<double>(churn_applies);

  for (std::uint32_t c = 0; c < arm::kPriorityClasses; ++c) {
    const obs::Hist h = registry.hist(obs::labeled(
        "dacc_arm_assign_wait_ns", "prio", arm::priority_class_name(c)));
    res.wait_p50[c] = h.p50();
    res.wait_p99[c] = h.p99();
  }
  machine.bind_metrics(nullptr);
  return res;
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_sched.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<int> sizes =
      quick ? std::vector<int>{512, 2048}
            : std::vector<int>{1000, 2000, 5000, 10'000};
  const std::uint64_t queue_depth = quick ? 20'000 : 250'000;

  std::printf("scheduler scale bench%s: %zu pool sizes, %llu queued "
              "requests each\n",
              quick ? " (quick)" : "", sizes.size(),
              static_cast<unsigned long long>(queue_depth));

  std::vector<SizeResult> results;
  for (const int n : sizes) {
    const SizeResult r = run_size(n, queue_depth, /*seed=*/0x5C43D);
    results.push_back(r);
    std::printf(
        "  pool %5d: fill %7.0f ns/op  enqueue %7.0f ns/op  drain %7.0f "
        "ns/op  (%llu applies, %llu grants)\n",
        r.pool, r.fill_ns_per_op, r.enqueue_ns_per_op, r.drain_ns_per_op,
        static_cast<unsigned long long>(r.applies),
        static_cast<unsigned long long>(r.grants));
    for (std::uint32_t c = 0; c < arm::kPriorityClasses; ++c) {
      std::printf("    %-6s assign-wait p50 %9llu ns  p99 %9llu ns\n",
                  arm::priority_class_name(c),
                  static_cast<unsigned long long>(r.wait_p50[c]),
                  static_cast<unsigned long long>(r.wait_p99[c]));
    }
  }

  // Flatness: indexed decisions must not scale with the pool. The bound is
  // loose (wall-clock noise on shared hosts) — a linear scan would blow
  // past it by an order of magnitude.
  const double bound = 3.0;
  const SizeResult& lo = results.front();
  const SizeResult& hi = results.back();
  const double drain_ratio = hi.drain_ns_per_op / lo.drain_ns_per_op;
  const double enqueue_ratio = hi.enqueue_ns_per_op / lo.enqueue_ns_per_op;
  std::printf(
      "flatness %d -> %d slots: drain x%.2f, enqueue x%.2f (bound x%.1f)\n",
      lo.pool, hi.pool, drain_ratio, enqueue_ratio, bound);

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"sched_scale\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"queued_per_size\": " << queue_depth << ",\n"
       << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"pool\": " << r.pool << ", \"applies\": " << r.applies
         << ", \"grants\": " << r.grants
         << ", \"fill_ns_per_op\": " << r.fill_ns_per_op
         << ", \"enqueue_ns_per_op\": " << r.enqueue_ns_per_op
         << ", \"drain_ns_per_op\": " << r.drain_ns_per_op
         << ",\n     \"assign_wait\": {";
    for (std::uint32_t c = 0; c < arm::kPriorityClasses; ++c) {
      json << "\"" << arm::priority_class_name(c)
           << "\": {\"p50_ns\": " << r.wait_p50[c]
           << ", \"p99_ns\": " << r.wait_p99[c] << "}"
           << (c + 1 < arm::kPriorityClasses ? ", " : "");
    }
    json << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"flatness\": {\"drain_ratio\": " << drain_ratio
       << ", \"enqueue_ratio\": " << enqueue_ratio
       << ", \"bound\": " << bound << "}\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (drain_ratio > bound || enqueue_ratio > bound) {
    std::fprintf(stderr,
                 "error: per-decision cost is not flat across the pool "
                 "sweep (drain x%.2f, enqueue x%.2f, bound x%.1f)\n",
                 drain_ratio, enqueue_ratio, bound);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dacc::bench

int main(int argc, char** argv) { return dacc::bench::run(argc, argv); }
