// Cross-backend determinism of the observability layer (the tier-1 gate for
// dacc::obs): a figure-9-style workload — static leases, bulk copies,
// kernels, dynamic acquire/release, heartbeats — run with metrics and
// tracing attached must produce byte-identical whole metrics snapshots
// (JSON and Prometheus text) under the coroutine backend and on the
// parallel:4 worker pool, and the causal trace must stitch a front-end op
// to its NIC and daemon child spans with Chrome flow events.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "core/api.hpp"
#include "rt/cluster.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace dacc {
namespace {

struct RunOut {
  std::string metrics_json;
  std::string metrics_prom;
  std::vector<sim::Tracer::Span> spans;
  std::string chrome;
  SimTime end = 0;
};

RunOut run_workload(sim::ExecBackend backend, int shards = 0) {
  rt::ClusterConfig config;
  config.compute_nodes = 2;
  config.accelerators = 3;
  config.functional_gpus = false;  // phantom devices: timing only
  config.metrics = true;
  config.trace = true;
  config.heartbeat.enabled = true;
  config.sim_backend = backend;
  config.sim_shards = shards;
  rt::Cluster cluster(config);

  rt::JobSpec job;
  job.name = "metered-qr";
  job.ranks = 2;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(4_MiB);
    ac.memcpy_h2d(p, util::Buffer::phantom(4_MiB));
    ac.launch("dscal", {}, {std::int64_t{1 << 19}, 1.5, p});
    (void)ac.memcpy_d2h(p, 4_MiB);
    if (ctx.rank() == 0) {
      // Dynamic assignment exercises the ARM queue + assign-wait metric.
      auto extra = ctx.session().acquire(1, /*wait=*/true);
      ASSERT_EQ(extra.size(), 1u);
      const gpu::DevPtr q = extra[0]->mem_alloc(1_MiB);
      extra[0]->memcpy_h2d(q, util::Buffer::phantom(1_MiB));
      ctx.session().release(extra[0]);
    }
    // App-level MPI so the dmpi counters see non-middleware traffic too.
    const int peer = 1 - ctx.rank();
    if (ctx.rank() == 0) {
      ctx.mpi().send(ctx.job_comm(), peer, 3, util::Buffer::phantom(64_KiB));
    } else {
      (void)ctx.mpi().recv(ctx.job_comm(), peer, 3);
    }
  };
  cluster.submit(job);
  // Widened under every backend, so the parallel runs record from the
  // worker pool's per-shard buffers.
  dacc::testing::widen_past_pool_crossover(cluster.engine());
  cluster.run();
  if (backend == sim::ExecBackend::kParallel) {
    EXPECT_TRUE(dacc::testing::ran_all_eras_on_pool(cluster.engine()));
  }

  RunOut out;
  out.metrics_json = cluster.metrics().json();
  out.metrics_prom = cluster.metrics().prometheus();
  out.spans = cluster.tracer().spans();
  std::ostringstream chrome;
  cluster.tracer().write_chrome_json(chrome);
  out.chrome = chrome.str();
  out.end = cluster.engine().now();
  return out;
}

TEST(ObsDeterminism, MetricsSnapshotIdenticalAcrossBackends) {
  const RunOut coro = run_workload(sim::ExecBackend::kCoroutine);
  const RunOut par = run_workload(sim::ExecBackend::kParallel, /*shards=*/4);

  ASSERT_FALSE(coro.metrics_json.empty());
  EXPECT_EQ(coro.metrics_json, par.metrics_json);
  EXPECT_EQ(coro.metrics_prom, par.metrics_prom);
  // The simulation itself agreed, not just the formatting.
  EXPECT_EQ(coro.end, par.end);
  // The engine registers no series of its own: its era accounting, which
  // depends on the shard map, lives in Engine::parallel_stats().
  for (const RunOut* run : {&coro, &par}) {
    EXPECT_EQ(run->metrics_prom.find("dacc_sim_"), std::string::npos);
  }

  // The full stack actually reported in: one family per instrumented layer.
  for (const char* family :
       {"dacc_dmpi_msgs_total", "dacc_net_tx_bytes_total",
        "dacc_daemon_requests_total", "dacc_fe_op_latency_ns",
        "dacc_arm_assigned", "dacc_arm_assign_wait_ns",
        "dacc_arm_heartbeat_latency_ns"}) {
    EXPECT_NE(coro.metrics_prom.find(family), std::string::npos)
        << "missing metric family " << family;
  }
}

TEST(ObsDeterminism, FlowLinksFrontEndOpToNicAndDaemonSpans) {
  const RunOut run = run_workload(sim::ExecBackend::kCoroutine);

  // Root span: the front-end h2d proxy op on rank 0.
  const sim::Tracer::Span* fe = nullptr;
  for (const auto& s : run.spans) {
    if (s.track.rfind("fe-r0-", 0) == 0 && s.name.rfind("h2d", 0) == 0) {
      fe = &s;
      break;
    }
  }
  ASSERT_NE(fe, nullptr) << "no front-end h2d span recorded";
  EXPECT_NE(fe->trace_id, 0u);
  EXPECT_EQ(fe->span_id, fe->trace_id);  // root span doubles as the trace id
  EXPECT_EQ(fe->parent_id, 0u);

  // Children: the request's NIC transmit and the daemon's execution span
  // both name the front-end op as parent; the daemon's reply traffic names
  // the daemon span. That is the end-to-end chain the flow arrows draw.
  const sim::Tracer::Span* nic_child = nullptr;
  const sim::Tracer::Span* daemon_child = nullptr;
  for (const auto& s : run.spans) {
    if (s.trace_id != fe->trace_id || s.parent_id != fe->span_id) continue;
    if (s.track.rfind("nic-", 0) == 0 && nic_child == nullptr) nic_child = &s;
    if (s.track.rfind("daemon-", 0) == 0 && daemon_child == nullptr) {
      daemon_child = &s;
    }
  }
  ASSERT_NE(nic_child, nullptr) << "no NIC span parented to the FE op";
  ASSERT_NE(daemon_child, nullptr) << "no daemon span parented to the FE op";
  EXPECT_GE(daemon_child->begin, fe->begin);
  EXPECT_LE(daemon_child->end, fe->end);

  bool reply_leg = false;
  for (const auto& s : run.spans) {
    if (s.trace_id == fe->trace_id && s.parent_id == daemon_child->span_id) {
      reply_leg = true;
      break;
    }
  }
  EXPECT_TRUE(reply_leg) << "no span parented to the daemon execution";

  // The Chrome export stitches the chain with flow events and carries the
  // causal ids in args.
  EXPECT_NE(run.chrome.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"trace\":" + std::to_string(fe->trace_id)),
            std::string::npos);
}

TEST(ObsDeterminism, MetricsOffByDefaultRecordsNothing) {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 1;
  config.functional_gpus = false;
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(1_MiB);
    ac.memcpy_h2d(p, util::Buffer::phantom(1_MiB));
  };
  cluster.submit(job);
  cluster.run();
  EXPECT_EQ(cluster.metrics().size(), 0u);
  EXPECT_EQ(cluster.metrics().json(), "{\"metrics\":[]}\n");
}

}  // namespace
}  // namespace dacc
