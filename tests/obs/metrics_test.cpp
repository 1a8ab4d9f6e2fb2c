// Unit tests for the dacc::obs metrics registry: handle semantics, snapshot
// reads, exporter formats, registration-order independence, and the attach
// rule (a registry attaches before the components it watches, which
// register their series when they are built).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dmpi/mpi.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "rt/cluster.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace dacc::obs {
namespace {

TEST(Metrics, CounterAddsAndReads) {
  Registry reg;
  Counter c = reg.counter("dacc_test_events_total");
  c.add();
  c.add(41);
  EXPECT_EQ(reg.counter_value("dacc_test_events_total"), 42u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry reg;
  Gauge g = reg.gauge("dacc_test_depth");
  g.set(7);
  EXPECT_EQ(reg.gauge_value("dacc_test_depth"), 7);
  g.add(-10);
  EXPECT_EQ(reg.gauge_value("dacc_test_depth"), -3);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  Registry reg;
  Histogram h = reg.histogram("dacc_test_latency_ns", {10, 100, 1000});
  h.observe(5);     // le=10
  h.observe(10);    // le=10 (bounds are inclusive upper bounds)
  h.observe(500);   // le=1000
  h.observe(5000);  // +Inf overflow
  EXPECT_EQ(reg.histogram_count("dacc_test_latency_ns"), 4u);
  EXPECT_EQ(reg.histogram_sum("dacc_test_latency_ns"), 5515u);
}

TEST(Metrics, GetOrCreateReturnsSameMetric) {
  Registry reg;
  Counter a = reg.counter("dacc_test_total");
  Counter b = reg.counter("dacc_test_total");
  a.add(1);
  b.add(2);
  EXPECT_EQ(reg.counter_value("dacc_test_total"), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("dacc_test_total");
  EXPECT_THROW((void)reg.gauge("dacc_test_total"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("dacc_test_total", {1}),
               std::invalid_argument);
  (void)reg.histogram("dacc_test_hist", {1, 2});
  EXPECT_THROW((void)reg.histogram("dacc_test_hist", {1, 3}),
               std::invalid_argument);
  // Same bounds re-register fine.
  (void)reg.histogram("dacc_test_hist", {1, 2});
}

TEST(Metrics, BadHistogramBoundsThrow) {
  Registry reg;
  EXPECT_THROW((void)reg.histogram("dacc_test_empty", {}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("dacc_test_unsorted", {10, 5}),
               std::invalid_argument);
}

TEST(Metrics, DefaultHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add(5);
  g.set(5);
  h.observe(5);  // must not crash; nothing to record into
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
}

TEST(Metrics, MissingNamesReadAsZero) {
  Registry reg;
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_EQ(reg.gauge_value("nope"), 0);
  EXPECT_EQ(reg.histogram_count("nope"), 0u);
  // Kind-mismatched reads are also zero, not garbage.
  (void)reg.gauge("dacc_test_depth");
  EXPECT_EQ(reg.counter_value("dacc_test_depth"), 0u);
}

TEST(Metrics, JsonExporterFormat) {
  Registry reg;
  reg.counter("b_total").add(3);
  reg.gauge("a_depth").set(-2);
  Histogram h = reg.histogram("c_ns", {10, 100});
  h.observe(7);
  h.observe(250);
  // Sorted by name; buckets cumulative with a closing +Inf.
  EXPECT_EQ(reg.json(),
            "{\"metrics\":["
            "{\"name\":\"a_depth\",\"type\":\"gauge\",\"value\":-2},"
            "{\"name\":\"b_total\",\"type\":\"counter\",\"value\":3},"
            "{\"name\":\"c_ns\",\"type\":\"histogram\",\"count\":2,"
            "\"sum\":257,\"buckets\":[{\"le\":10,\"count\":1},"
            "{\"le\":100,\"count\":1},{\"le\":\"+Inf\",\"count\":2}]}"
            "]}\n");
}

TEST(Metrics, PrometheusExporterFormat) {
  Registry reg;
  reg.counter("dacc_msgs_total{rank=\"1\"}").add(5);
  reg.counter("dacc_msgs_total{rank=\"0\"}").add(2);
  Histogram h = reg.histogram("dacc_wait_ns{op=\"h2d\"}", {100});
  h.observe(50);
  h.observe(500);
  EXPECT_EQ(reg.prometheus(),
            "# TYPE dacc_msgs_total counter\n"
            "dacc_msgs_total{rank=\"0\"} 2\n"
            "dacc_msgs_total{rank=\"1\"} 5\n"
            "# TYPE dacc_wait_ns histogram\n"
            "dacc_wait_ns_bucket{op=\"h2d\",le=\"100\"} 1\n"
            "dacc_wait_ns_bucket{op=\"h2d\",le=\"+Inf\"} 2\n"
            "dacc_wait_ns_sum{op=\"h2d\"} 550\n"
            "dacc_wait_ns_count{op=\"h2d\"} 2\n");
}

TEST(Metrics, ExportIndependentOfRegistrationOrder) {
  Registry fwd;
  Registry rev;
  fwd.counter("a_total").add(1);
  fwd.gauge("b_depth").set(2);
  rev.gauge("b_depth").set(2);
  rev.counter("a_total").add(1);
  EXPECT_EQ(fwd.json(), rev.json());
  EXPECT_EQ(fwd.prometheus(), rev.prometheus());
}

TEST(Metrics, ResetClearsValuesKeepsHandles) {
  Registry reg;
  Counter c = reg.counter("a_total");
  Histogram h = reg.histogram("b_ns", {10});
  c.add(9);
  h.observe(3);
  reg.reset();
  EXPECT_EQ(reg.counter_value("a_total"), 0u);
  EXPECT_EQ(reg.histogram_count("b_ns"), 0u);
  c.add(1);  // handles stay bound after reset
  h.observe(4);
  EXPECT_EQ(reg.counter_value("a_total"), 1u);
  EXPECT_EQ(reg.histogram_sum("b_ns"), 4u);
}

TEST(Metrics, LatencyBoundsAreAscendingDecades) {
  const auto bounds = latency_bounds_ns();
  ASSERT_EQ(bounds.size(), 7u);
  EXPECT_EQ(bounds.front(), 1'000u);
  EXPECT_EQ(bounds.back(), 1'000'000'000u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], bounds[i - 1] * 10);
  }
}

// ---------------------------------------------------------------------------
// Attaching to an engine
// ---------------------------------------------------------------------------

TEST(MetricsAttach, AttachAfterTheTopologyThrowsAndBeforeItCounts) {
  {
    // The fabric declared the node topology: it and every component built
    // before the registry would count nothing, so the attach is refused.
    sim::Engine engine;
    net::Fabric fabric(engine, 2);
    Registry late;
    EXPECT_THROW(engine.set_metrics(&late), sim::SimError);
    EXPECT_EQ(engine.metrics(), nullptr);
    EXPECT_EQ(late.size(), 0u);
  }
  // Attached first, the registry sees the fabric and a world built after
  // it count their traffic.
  Registry reg;  // outlives the engine that records into it
  sim::Engine engine;
  engine.set_metrics(&reg);
  net::Fabric fabric(engine, 2);
  dmpi::World world(engine, fabric, {0, 1});
  engine.spawn("r0", [&world](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 0);
    mpi.send(world.world_comm(), 1, 7, util::Buffer::phantom(1_KiB));
    mpi.send(world.world_comm(), 1, 7, util::Buffer::phantom(1_KiB));
  });
  engine.spawn("r1", [&world](sim::Context& ctx) {
    dmpi::Mpi mpi(world, ctx, 1);
    (void)mpi.recv(world.world_comm(), 0, 7);
    (void)mpi.recv(world.world_comm(), 0, 7);
  });
  engine.run();
  EXPECT_EQ(reg.counter_value("dacc_dmpi_msgs_total{rank=\"0\"}"), 2u);
  EXPECT_EQ(reg.counter_value("dacc_dmpi_bytes_total{rank=\"0\"}"), 2048u);
  EXPECT_EQ(reg.counter_value("dacc_dmpi_eager_total{rank=\"0\"}"), 2u);
  EXPECT_EQ(reg.counter_value("dacc_dmpi_msgs_total{rank=\"1\"}"), 0u);
  EXPECT_GE(reg.counter_value("dacc_net_tx_bytes_total{node=\"0\"}"),
            2048u);
}

TEST(MetricsAttach, IdleDaemonKeepsItsSeriesAtZero) {
  // Two accelerators, one leased: the other daemon serves no request, yet
  // its series exist from construction, at zero.
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 2;
  config.functional_gpus = false;
  config.metrics = true;
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    (void)ctx.session()[0].mem_alloc(4_KiB);
  };
  cluster.submit(job);
  cluster.run();

  const std::string prom = cluster.metrics().prometheus();
  int idle = 0;
  for (int ac = 0; ac < config.accelerators; ++ac) {
    const daemon::Daemon& d = cluster.accelerator_daemon(ac);
    const std::string rank = "rank=\"" + std::to_string(d.rank()) + "\"";
    SCOPED_TRACE(rank);
    EXPECT_NE(prom.find("dacc_daemon_requests_total{" + rank + "} " +
                        std::to_string(d.requests_served()) + "\n"),
              std::string::npos)
        << prom;
    if (d.requests_served() != 0) continue;
    ++idle;
    EXPECT_NE(prom.find("dacc_daemon_malformed_total{" + rank + "} 0\n"),
              std::string::npos);
    EXPECT_NE(prom.find("dacc_daemon_busy_ns_total{" + rank + "} 0\n"),
              std::string::npos);
    EXPECT_NE(prom.find("dacc_daemon_h2d_overlap_pct_count{" + rank +
                        "} 0\n"),
              std::string::npos);
  }
  EXPECT_EQ(idle, 1);
}

}  // namespace
}  // namespace dacc::obs
