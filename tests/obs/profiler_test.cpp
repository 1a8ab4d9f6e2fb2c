// The wallclock observability tier (DESIGN.md §9.2): label escaping in the
// exposition format, fixed-bucket quantile estimation and SLO targets on
// the deterministic registry, and the hard separation between the two
// tiers — dacc_prof_* wallclock series must never leak into the
// byte-compared deterministic snapshot on any execution backend.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/pool.hpp"
#include "core/api.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::obs {
namespace {

// ---------------------------------------------------------------------------
// Exporter label escaping
// ---------------------------------------------------------------------------

/// Inverse of the exposition escaping — the round-trip check's other half.
std::string unescape_label(std::string_view escaped) {
  std::string out;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      const char next = escaped[++i];
      out += next == 'n' ? '\n' : next;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

TEST(Labels, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(labeled("m", "k", "plain"), "m{k=\"plain\"}");
  EXPECT_EQ(labeled("m", "k", "a\\b"), "m{k=\"a\\\\b\"}");
  EXPECT_EQ(labeled("m", "k", "say \"hi\""), "m{k=\"say \\\"hi\\\"\"}");
  EXPECT_EQ(labeled("m", "k", "two\nlines"), "m{k=\"two\\nlines\"}");
}

TEST(Labels, EscapedValuesRoundTrip) {
  const std::vector<std::string> nasty = {
      "back\\slash", "quo\"te", "new\nline", "all\\three\"at\nonce", "\\",
      "\"", "\n", "trailing\\"};
  for (const std::string& value : nasty) {
    const std::string series = labeled("dacc_test", "v", value);
    // Extract the escaped payload between k="..." and round-trip it.
    const std::size_t open = series.find("=\"") + 2;
    const std::size_t close = series.rfind("\"}");
    ASSERT_NE(open, std::string::npos);
    ASSERT_GT(close, open);
    EXPECT_EQ(unescape_label(series.substr(open, close - open)), value)
        << "escaping not invertible for: " << value;
  }
}

TEST(Labels, EscapedSeriesSurviveTheExporters) {
  Registry reg;
  reg.counter(labeled("dacc_test_total", "path", "a\\b\n\"c\"")).add(1);
  const std::string prom = reg.prometheus();
  // The exposition text itself must stay one line per sample: the raw
  // newline never appears, its escape does.
  EXPECT_NE(prom.find("a\\\\b\\n\\\"c\\\""), std::string::npos) << prom;
  EXPECT_EQ(prom.find("a\\b\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Quantile estimation edge cases
// ---------------------------------------------------------------------------

TEST(HistQuantiles, EmptyHistogramReadsZero) {
  Registry reg;
  (void)reg.histogram("dacc_test_ns", {10, 100});
  const Hist h = reg.hist("dacc_test_ns");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(HistQuantiles, MissingSeriesIsInvalid) {
  Registry reg;
  (void)reg.counter("dacc_test_total");
  EXPECT_FALSE(reg.hist("nope").valid());
  EXPECT_FALSE(reg.hist("dacc_test_total").valid());  // wrong kind
  EXPECT_EQ(reg.hist("nope").p99(), 0u);
}

TEST(HistQuantiles, SingleBucketInterpolates) {
  Registry reg;
  Histogram h = reg.histogram("dacc_test_ns", {100});
  for (int i = 0; i < 10; ++i) h.observe(50);
  const Hist snap = reg.hist("dacc_test_ns");
  // All mass in [0, 100]: the estimate interpolates inside the bucket and
  // never exceeds its upper bound.
  EXPECT_GT(snap.p50(), 0u);
  EXPECT_LE(snap.p50(), 100u);
  EXPECT_LE(snap.p50(), snap.p99());
  EXPECT_LE(snap.p99(), 100u);
}

TEST(HistQuantiles, OverflowBucketClampsToHighestBound) {
  Registry reg;
  Histogram h = reg.histogram("dacc_test_ns", {10, 100});
  h.observe(5);
  h.observe(1'000'000);  // +Inf bucket
  h.observe(2'000'000);  // +Inf bucket
  const Hist snap = reg.hist("dacc_test_ns");
  // p99 lands in the overflow bucket; a fixed-bucket histogram cannot see
  // past its last finite bound, so the estimate clamps there rather than
  // inventing a value.
  EXPECT_EQ(snap.p99(), 100u);
  EXPECT_EQ(snap.quantile_permille(1000), 100u);
}

TEST(HistQuantiles, ExactBoundaryRanks) {
  Registry reg;
  Histogram h = reg.histogram("dacc_test_ns", {10, 20, 30});
  // One observation per bucket: ranks land exactly on bucket edges.
  h.observe(10);
  h.observe(20);
  h.observe(30);
  const Hist snap = reg.hist("dacc_test_ns");
  // rank(p50) = ceil(0.5 * 3) = 2 -> the [10,20] bucket's upper edge.
  EXPECT_EQ(snap.quantile_permille(500), 20u);
  // Extreme quantiles stay within the outermost buckets.
  EXPECT_LE(snap.quantile_permille(1), 10u);
  EXPECT_EQ(snap.quantile_permille(1000), 30u);
}

TEST(HistQuantiles, QuantilesAreMonotone) {
  Registry reg;
  Histogram h = reg.histogram("dacc_test_ns", latency_bounds_ns());
  for (std::uint64_t v : {500u, 900u, 1'200u, 45'000u, 80'000u, 2'000'000u}) {
    h.observe(v);
  }
  const Hist snap = reg.hist("dacc_test_ns");
  std::uint64_t prev = 0;
  for (std::uint32_t q = 100; q <= 1000; q += 100) {
    const std::uint64_t cur = snap.quantile_permille(q);
    EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
    prev = cur;
  }
}

// ---------------------------------------------------------------------------
// SLO targets
// ---------------------------------------------------------------------------

TEST(Slos, CheckAgainstCurrentBuckets) {
  Registry reg;
  Histogram h = reg.histogram("dacc_test_wait_ns", {100, 1000, 10'000});
  for (int i = 0; i < 99; ++i) h.observe(50);
  h.observe(5'000);  // one slow outlier
  reg.set_slo("dacc_test_wait_ns", /*q=*/500, /*bound=*/100);     // passes
  reg.set_slo("dacc_test_wait_ns", /*q=*/1000, /*bound=*/100);    // outlier
  reg.set_slo("dacc_test_missing_ns", /*q=*/990, /*bound=*/100);  // typo
  const std::vector<SloResult> results = reg.check_slos();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_LE(results[0].observed, 100u);
  EXPECT_FALSE(results[1].ok) << "outlier above bound must fail the SLO";
  EXPECT_FALSE(results[2].ok) << "missing series must fail, not vanish";
  EXPECT_EQ(results[2].count, 0u);
}

TEST(Slos, EmptySeriesPassesVacuously) {
  Registry reg;
  (void)reg.histogram("dacc_test_wait_ns", {100});
  reg.set_slo("dacc_test_wait_ns", 990, 1);
  const std::vector<SloResult> results = reg.check_slos();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << "nothing measured, nothing violated";
}

TEST(Slos, TargetsDoNotPerturbTheSnapshot) {
  Registry reg;
  reg.histogram("dacc_test_wait_ns", {100}).observe(5);
  const std::string before = reg.prometheus();
  reg.set_slo("dacc_test_wait_ns", 990, 100);
  (void)reg.check_slos();
  EXPECT_EQ(reg.prometheus(), before)
      << "SLO registration leaked into the deterministic snapshot";
}

// ---------------------------------------------------------------------------
// Profiler export
// ---------------------------------------------------------------------------

TEST(Profiler, EverySeriesCarriesTheWallclockPrefix) {
  Profiler prof;
  prof.begin_run(/*shards=*/2, /*workers=*/1);
  prof.shard_phase(0, sim::WallSink::Phase::kBusy, 1'000);
  prof.shard_phase(1, sim::WallSink::Phase::kStall, 2'000);
  prof.worker_wait(0, 500);
  prof.serial(3'000, 7);
  prof.coordinator_wait(250);
  prof.run_complete(10'000, 1);
  const std::string prom = prof.prometheus();
  // Every non-comment line is a dacc_prof_ sample: the deterministic
  // snapshot filter only has to know one prefix.
  std::size_t pos = 0;
  int samples = 0;
  while (pos < prom.size()) {
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    pos = eol == std::string::npos ? prom.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind(Profiler::kSeriesPrefix, 0), 0u)
        << "unprefixed wallclock series: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 8);
  // The attribution identity holds on hand-fed numbers: phases + waits +
  // serial + coordinator waits account for everything fed in.
  EXPECT_EQ(prof.attributed_ns(), 1'000u + 2'000u + 500u + 3'000u + 250u);
  EXPECT_EQ(prof.measured_ns(), 10'000u);
}

// ---------------------------------------------------------------------------
// Tier separation: wallclock series never reach the deterministic snapshot
// ---------------------------------------------------------------------------

struct ProfiledRun {
  std::string metrics_prom;
  std::string profile_prom;
  SimTime end = 0;
};

ProfiledRun run_profiled(sim::ExecBackend backend, int shards = 0) {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 2;
  config.functional_gpus = false;
  config.metrics = true;
  config.profile = true;  // wallclock tier on, regardless of DACC_PROF
  config.sim_backend = backend;
  config.sim_shards = shards;
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(1_MiB);
    ac.memcpy_h2d(p, util::Buffer::phantom(1_MiB));
    ac.launch("dscal", {}, {std::int64_t{1 << 16}, 2.0, p});
    (void)ac.memcpy_d2h(p, 1_MiB);
  };
  cluster.submit(job);
  // Widened under every backend, so the parallel run is profiled on the
  // worker pool.
  dacc::testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();
  if (backend == sim::ExecBackend::kParallel) {
    EXPECT_TRUE(dacc::testing::ran_all_eras_on_pool(cluster.engine()));
  }
  ProfiledRun out;
  out.metrics_prom =
      cluster.metrics().prometheus(obs::Registry::kShardSeriesPrefix, false);
  out.profile_prom = cluster.profiler().prometheus();
  out.end = cluster.engine().now();
  return out;
}

TEST(TierSeparation, ProfilerSeriesNeverEnterTheSnapshotOnAnyBackend) {
  const ProfiledRun coro = run_profiled(sim::ExecBackend::kCoroutine);
  const ProfiledRun par = run_profiled(sim::ExecBackend::kParallel, 4);

  for (const ProfiledRun* run : {&coro, &par}) {
    EXPECT_EQ(run->metrics_prom.find(Profiler::kSeriesPrefix),
              std::string::npos)
        << "wallclock series leaked into the deterministic snapshot";
    EXPECT_FALSE(run->profile_prom.empty());
  }
  // With the profiler attached the deterministic tier still agrees byte
  // for byte across backends — the wallclock tier observes, never steers.
  EXPECT_EQ(coro.metrics_prom, par.metrics_prom);
  EXPECT_EQ(coro.end, par.end);
}

TEST(TierSeparation, RegistryNamespaceStaysClearOfTheProfilerPrefix) {
  // The registry side of the collision check in scripts/check_obs.sh: no
  // instrumented component may register a series under dacc_prof_.
  ProfiledRun run = run_profiled(sim::ExecBackend::kCoroutine);
  EXPECT_EQ(run.metrics_prom.find("dacc_prof_"), std::string::npos);
  // And the inverse: the profiler export is entirely dacc_prof_.
  EXPECT_NE(run.profile_prom.find("dacc_prof_"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO readout on a real workload (the tier-1 assign-wait guard)
// ---------------------------------------------------------------------------

TEST(SloReadout, AssignWaitQuantilesOnChurn) {
  rt::ClusterConfig config;
  config.compute_nodes = 2;
  config.accelerators = 3;
  config.functional_gpus = false;
  config.metrics = true;
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.ranks = 2;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    // Acquire/release churn on the shared pool: both ranks contend for the
    // third accelerator, so some grants queue and assign-wait spreads out.
    for (int round = 0; round < 4; ++round) {
      auto extra = ctx.session().acquire(1, /*wait=*/true);
      ASSERT_EQ(extra.size(), 1u);
      const gpu::DevPtr p = extra[0]->mem_alloc(64_KiB);
      extra[0]->memcpy_h2d(p, util::Buffer::phantom(64_KiB));
      ctx.session().release(extra[0]);
    }
  };
  cluster.submit(job);
  cluster.run();

  const obs::Hist wait = cluster.metrics().hist("dacc_arm_assign_wait_ns");
  ASSERT_TRUE(wait.valid()) << "dacc_arm_assign_wait_ns not registered";
  ASSERT_GT(wait.count(), 0u);
  EXPECT_LE(wait.p50(), wait.p99());
  // A generous ceiling: queued grants must still clear within simulated
  // seconds. This is the committed SLO guard for assign-wait.
  cluster.metrics().set_slo("dacc_arm_assign_wait_ns", 990, 1'000'000'000);
  const std::vector<obs::SloResult> results = cluster.metrics().check_slos();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok)
      << "assign-wait p99 " << results[0].observed << "ns above bound";
}

}  // namespace
}  // namespace dacc::obs
