// Wall-clock throughput of the simulation core (not a paper figure: this
// measures the simulator itself). Three probes:
//
//   * process-switch throughput — a process yielding in a tight loop; every
//     yield is one block + one resume event + one coroutine slice.
//   * event throughput — a self-rescheduling callback chain, no processes:
//     the pooled event queue in isolation.
//   * figure-9 wall time — one QR factorization point (N x N phantom, 3
//     network-attached GPUs) end to end: the user-visible effect on the
//     paper sweeps.
//   * parallel cluster scenario — an MP2C-style job with lease churn
//     across waves on 129 fabric nodes (64 CNs + 64 ACs + ARM) and on 513
//     (256 + 256 + ARM), run under the serial backend and the sharded
//     parallel backend. The two sizes sit on either side of the engine's
//     pool crossover (DESIGN.md §5.2): at 129 nodes the engine keeps the
//     serial loop and runs no era, at 513 it moves to the worker pool,
//     which runs every era. Besides wall time it reports eras, workers and
//     the engine's exposed parallelism (parallel events / critical-path
//     events): wall speedup is bounded by min(exposed parallelism, host
//     cores).
//
// A full run writes BENCH_engine.json and BENCH_parallel.json into the
// working directory (override with --out PATH / --out-parallel PATH); every
// BENCH_parallel.json row carries host_cores and wall_speedup (serial wall
// time over the row's).
// --quick shrinks the iteration counts for use as a ctest smoke test and
// writes only the files named explicitly, so a quick run never replaces a
// committed baseline.
//
//   $ ./bench/wallclock_engine [--quick] [--out PATH] [--out-parallel PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la_util.hpp"
#include "mdsim/mp2c.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rpc/channel.hpp"
#include "sim/engine.hpp"
#include "sim/exec.hpp"

namespace dacc::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Writes `body` to `path`. An empty path (a quick run without an explicit
// output) writes nothing.
bool write_json(const std::string& path, const std::string& body) {
  if (path.empty()) return true;
  std::ofstream out(path);
  out << body;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

struct SwitchProbe {
  std::uint64_t switches = 0;
  double wall_s = 0.0;
  double per_sec = 0.0;
};

SwitchProbe switch_throughput(std::uint64_t iters) {
  sim::Engine engine(sim::ExecBackend::kCoroutine);
  engine.spawn("pinger", [iters](sim::Context& ctx) {
    for (std::uint64_t i = 0; i < iters; ++i) ctx.yield();
  });
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  SwitchProbe p;
  p.wall_s = seconds_since(t0);
  p.switches = engine.process_switches();
  p.per_sec = static_cast<double>(p.switches) / p.wall_s;
  return p;
}

struct EventProbe {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double per_sec = 0.0;
  std::uint64_t pool_nodes = 0;
  std::uint64_t heap_fallbacks = 0;
};

EventProbe event_throughput(std::uint64_t count) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < count) engine.schedule_in(1, chain);
  };
  engine.schedule_at(0, chain);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  EventProbe p;
  p.wall_s = seconds_since(t0);
  p.events = engine.events_executed();
  p.per_sec = static_cast<double>(p.events) / p.wall_s;
  p.pool_nodes = engine.event_stats().pool_nodes;
  p.heap_fallbacks = engine.event_stats().heap_fallbacks;
  return p;
}

struct QrProbe {
  int n = 0;
  double sim_ms = 0.0;
  double wall_s = 0.0;
};

QrProbe qr_wall_time(int n) {
  const auto t0 = std::chrono::steady_clock::now();
  const la::FactorResult r = la_point(Routine::kQr, n, /*g=*/3,
                                      /*local=*/false);
  QrProbe p;
  p.wall_s = seconds_since(t0);
  p.n = n;
  p.sim_ms = to_ms(r.factor_time);
  return p;
}

struct ChurnProbe {
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double sim_ms = 0.0;
  sim::Engine::ParallelStats pstats;  // zeros under the serial backends
  int workers = 1;  ///< Engine::worker_count() after the run (1: no thread)
  // Message accounting (zeros unless metrics are enabled).
  std::uint64_t dmpi_msgs = 0;  ///< every dmpi send in the fabric
  std::uint64_t rpc_msgs = 0;   ///< front-end channel messages (all CNs)
  std::uint64_t rpc_ops = 0;    ///< front-end ops carried by those messages
};

/// MP2C-style cluster scenario: `nodes` compute nodes each leasing one of
/// `nodes` accelerators (2*nodes+1 fabric nodes including the ARM), running
/// the MP2C halo/migration/SRD loop on phantom GPUs. Each wave is a fresh
/// job, so the ARM lease/release path churns nodes-many sessions per wave.
/// `band_gap` pins the serial-control era width (0 = the 64x-wire default).
ChurnProbe cluster_churn(sim::ExecBackend backend, int shards, int nodes,
                         int waves, int steps, SimDuration band_gap = 0,
                         obs::Profiler* prof = nullptr) {
  auto registry = gpu::KernelRegistry::with_builtins();
  mdsim::register_mdsim_kernels(*registry);
  rt::ClusterConfig cc;
  cc.compute_nodes = nodes;
  cc.accelerators = nodes;
  cc.functional_gpus = false;
  cc.registry = registry;
  cc.sim_backend = backend;
  cc.sim_shards = shards;
  cc.sim_band_gap = band_gap;
  rt::Cluster cluster(cc);
  if (prof != nullptr) cluster.engine().set_wall_profiler(prof);

  const auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < waves; ++w) {
    rt::JobSpec spec;
    spec.name = "mp2c-w" + std::to_string(w);
    spec.ranks = nodes;
    spec.accelerators_per_rank = 1;
    spec.body = [steps](rt::JobContext& job) {
      core::RemoteDeviceLink gpu(job.session()[0], job.ctx());
      mdsim::SrdParams srd;
      srd.steps = steps;
      (void)mdsim::run_mp2c(job, &gpu,
                            /*total_particles=*/20'000u *
                                static_cast<std::uint64_t>(job.size()),
                            srd);
    };
    cluster.submit(spec);
    cluster.run();
  }
  ChurnProbe p;
  p.wall_s = seconds_since(t0);
  p.events = cluster.engine().events_executed();
  p.switches = cluster.engine().process_switches();
  p.events_per_sec = static_cast<double>(p.events) / p.wall_s;
  p.sim_ms = to_ms(cluster.engine().now());
  p.pstats = cluster.engine().parallel_stats();
  p.workers = cluster.engine().worker_count();
  return p;
}

double exposed_parallelism(const sim::Engine::ParallelStats& s) {
  return s.critical_path_events == 0
             ? 1.0
             : static_cast<double>(s.parallel_events) /
                   static_cast<double>(s.critical_path_events);
}

/// Op-dense command-stream churn: every CN drives its accelerator with
/// MP2C-style kernel streams issued as async bursts (the shape run_mp2c
/// produces per SRD step, minus the halo barriers that would drain the
/// stream one op at a time). This is the workload the kBatch coalescing
/// targets: many tiny control ops in flight at once.
ChurnProbe stream_churn(sim::ExecBackend backend, int nodes, int bursts,
                        rpc::StreamConfig batch) {
  rt::ClusterConfig cc;
  cc.compute_nodes = nodes;
  cc.accelerators = nodes;
  cc.functional_gpus = false;
  cc.sim_backend = backend;
  cc.metrics = true;
  cc.batch = batch;
  rt::Cluster cluster(cc);

  rt::JobSpec spec;
  spec.name = "stream-churn";
  spec.ranks = nodes;
  spec.accelerators_per_rank = 1;
  spec.body = [bursts](rt::JobContext& job) {
    core::Accelerator& ac = job.session()[0];
    const std::int64_t n = 4096;
    const gpu::DevPtr p = ac.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    for (int b = 0; b < bursts; ++b) {
      std::vector<core::Future> stream;
      stream.reserve(16);
      for (int i = 0; i < 16; ++i) {
        stream.push_back(
            ac.launch_async("dscal", {}, {n, 1.0 + 0.1 * i, p}));
      }
      job.session().wait_all(stream);
    }
    ac.mem_free(p);
  };
  const auto t0 = std::chrono::steady_clock::now();
  cluster.submit(spec);
  cluster.run();

  ChurnProbe p;
  p.wall_s = seconds_since(t0);
  p.events = cluster.engine().events_executed();
  p.switches = cluster.engine().process_switches();
  p.events_per_sec = static_cast<double>(p.events) / p.wall_s;
  p.sim_ms = to_ms(cluster.engine().now());
  const obs::Registry& m = cluster.metrics();
  for (int r = 0; r < 2 * nodes + 1; ++r) {
    p.dmpi_msgs += m.counter_value("dacc_dmpi_msgs_total{rank=\"" +
                                   std::to_string(r) + "\"}");
  }
  for (int cn = 0; cn < nodes; ++cn) {
    const std::string chan =
        "{chan=\"fe-r" + std::to_string(cluster.cn_rank(cn)) + "\"}";
    p.rpc_msgs += m.counter_value("dacc_rpc_msgs_total" + chan);
    p.rpc_ops += m.counter_value("dacc_rpc_ops_total" + chan);
  }
  return p;
}

struct ScaleProbe {
  int nodes = 0;
  int shards = 0;  ///< 0 = serial baseline
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double per_sec = 0.0;
  sim::Engine::ParallelStats pstats;
  double exposed = 0.0;
};

/// Raw-engine scaling scenario (1k/10k fabric nodes): every node runs a
/// self-rescheduling walker whose events are node-local except that every
/// `hop_every`-th event forwards the walker to its ring neighbor over a
/// short (120 ns) link. The short ring makes the topology partitioner
/// place neighbors contiguously, so cross-shard traffic concentrates at
/// the chunk boundaries — the shape the per-shard-pair lookahead matrix
/// and asynchronous horizon advancement are built for.
ScaleProbe ring_scale(sim::ExecBackend backend, int shards, int nodes,
                      std::uint64_t events_per_node, int hop_every) {
  sim::Engine engine(backend, shards);
  engine.set_node_count(nodes);
  engine.set_lookahead(1200);
  std::vector<sim::Engine::LatencyOverride> links;
  links.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    links.push_back({i, (i + 1) % nodes, 120});
  }
  engine.set_lookahead_overrides(1200, links);

  // Walker state is only touched from the walker's own events, so the
  // workload is race-free under the parallel backend by construction.
  struct Walker {
    std::uint64_t done = 0;
    int node = 0;
  };
  std::vector<Walker> walkers(static_cast<std::size_t>(nodes));
  std::function<void(int)> step = [&](int w) {
    Walker& wk = walkers[static_cast<std::size_t>(w)];
    if (++wk.done >= events_per_node) return;
    if (wk.done % static_cast<std::uint64_t>(hop_every) == 0) {
      wk.node = (wk.node + 1) % nodes;  // hop to the ring neighbor
    }
    engine.post(wk.node, engine.now() + 10, [&step, w] { step(w); });
  };
  for (int w = 0; w < nodes; ++w) {
    walkers[static_cast<std::size_t>(w)].node = w;
    engine.post(w, 0, [&step, w] { step(w); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();

  ScaleProbe p;
  p.nodes = nodes;
  p.shards = backend == sim::ExecBackend::kParallel ? engine.shard_count() : 0;
  p.wall_s = seconds_since(t0);
  p.events = engine.events_executed();
  p.per_sec = static_cast<double>(p.events) / p.wall_s;
  p.pstats = engine.parallel_stats();
  p.exposed = exposed_parallelism(p.pstats);
  return p;
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string out_parallel;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out-parallel") == 0 && i + 1 < argc) {
      out_parallel = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--out-parallel PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!quick) {
    if (out_path.empty()) out_path = "BENCH_engine.json";
    if (out_parallel.empty()) out_parallel = "BENCH_parallel.json";
  }

  const std::uint64_t coro_iters = quick ? 50'000 : 500'000;
  const std::uint64_t event_count = quick ? 200'000 : 2'000'000;
  const int qr_n = quick ? 2048 : 8064;

  std::printf("engine wall-clock benchmark%s\n", quick ? " (quick)" : "");

  std::printf("process-switch throughput:\n");
  const SwitchProbe coro = switch_throughput(coro_iters);
  std::printf("  coroutine  %9llu switches in %.3f s  ->  %.0f switches/s\n",
              static_cast<unsigned long long>(coro.switches), coro.wall_s,
              coro.per_sec);

  const EventProbe ev = event_throughput(event_count);
  std::printf("event throughput: %llu events in %.3f s  ->  %.2fM events/s "
              "(pool %llu nodes, %llu heap fallbacks)\n",
              static_cast<unsigned long long>(ev.events), ev.wall_s,
              ev.per_sec / 1e6,
              static_cast<unsigned long long>(ev.pool_nodes),
              static_cast<unsigned long long>(ev.heap_fallbacks));

  const QrProbe qr = qr_wall_time(qr_n);
  std::printf("figure-9 QR point: N=%d, 3 GPUs  ->  %.1f ms simulated, "
              "%.3f s wall\n",
              qr.n, qr.sim_ms, qr.wall_s);

  const int host_cores = static_cast<int>(std::thread::hardware_concurrency());
  const sim::ExecBackend base_backend = sim::ExecBackend::kCoroutine;

  // Node-count scaling: the raw-engine ring-walker scenario at 1k and 10k
  // fabric nodes, per shard count, plus the serial baseline. It runs before
  // the cluster scenarios, whose 513-node run leaves a larger heap behind.
  const int hop_every = 64;
  std::vector<int> scale_nodes = quick ? std::vector<int>{256}
                                       : std::vector<int>{1000, 10'000};
  std::vector<int> scale_shards{1, 16, 64};
  std::vector<ScaleProbe> scale;
  std::vector<double> scale_base_wall;  ///< serial wall time per row
  bool scale_diverged = false;
  for (const int nodes : scale_nodes) {
    const std::uint64_t per_node =
        quick ? 200 : (nodes >= 10'000 ? 1000 : 2000);
    const ScaleProbe sbase =
        ring_scale(base_backend, 0, nodes, per_node, hop_every);
    scale.push_back(sbase);
    scale_base_wall.push_back(sbase.wall_s);
    std::printf(
        "node-count scaling: %d nodes, %llu events (coroutine baseline "
        "%.2fM events/s)\n",
        nodes, static_cast<unsigned long long>(sbase.events),
        sbase.per_sec / 1e6);
    for (const int shards : scale_shards) {
      const ScaleProbe p = ring_scale(sim::ExecBackend::kParallel, shards,
                                      nodes, per_node, hop_every);
      scale.push_back(p);
      scale_base_wall.push_back(sbase.wall_s);
      std::printf(
          "  parallel:%-3d %.2fM events/s  (%llu windows, exposed "
          "parallelism %.2fx)\n",
          shards, p.per_sec / 1e6,
          static_cast<unsigned long long>(p.pstats.windows), p.exposed);
      if (p.events != sbase.events) {
        std::fprintf(stderr,
                     "warning: scaling divergence at %d nodes / %d shards "
                     "(%llu vs %llu events)\n",
                     nodes, shards,
                     static_cast<unsigned long long>(p.events),
                     static_cast<unsigned long long>(sbase.events));
        scale_diverged = true;
      }
    }
  }
  if (scale_diverged) return 1;

  // Parallel cluster scenario on both sides of the pool crossover: 64 and
  // 256 CNs (129 and 513 fabric nodes with their ACs and the ARM). Three
  // shards, so on the 4-vCPU reference host the pool leaves one core to
  // the rest of the machine (as perfbench's mp2c-churn does), and the
  // 129-node cluster once more at 16 shards, the automatic shard count of
  // an engine given none on hosts with up to 8 cores. The serial baseline
  // is the coroutine backend.
  const int small_cns = quick ? 16 : 64;
  const int churn_waves = quick ? 1 : 3;
  const int churn_steps = quick ? 10 : 30;
  const SimDuration wire = net::FabricParams{}.wire_latency;
  struct ChurnRow {
    int nodes = 0;
    int shards = 0;
    ChurnProbe base;
    ChurnProbe par;
    ChurnProbe narrow;  ///< band gap pinned to one wire latency
  };
  std::vector<ChurnRow> churn;
  for (const auto& [nodes, churn_shards] :
       {std::pair{small_cns, 3}, std::pair{small_cns, 16}, std::pair{256, 3}}) {
    ChurnRow row;
    row.nodes = nodes;
    row.shards = churn_shards;
    std::printf(
        "parallel cluster scenario: %d fabric nodes (%d CN + %d AC + ARM), "
        "%d wave(s) x %d MP2C steps, lease churn per wave, %d shards\n",
        2 * nodes + 1, nodes, nodes, churn_waves, churn_steps, churn_shards);
    row.base = cluster_churn(base_backend, 0, nodes, churn_waves, churn_steps);
    std::printf("  coroutine  %9llu events in %.3f s  ->  %.2fM events/s\n",
                static_cast<unsigned long long>(row.base.events),
                row.base.wall_s, row.base.events_per_sec / 1e6);
    row.par = cluster_churn(sim::ExecBackend::kParallel, churn_shards, nodes,
                            churn_waves, churn_steps);
    const ChurnProbe& par = row.par;
    const double exposed = exposed_parallelism(par.pstats);
    std::printf(
        "  parallel:%d %9llu events in %.3f s  ->  %.2fM events/s  "
        "(%llu windows, %d worker(s), exposed parallelism %.2fx)\n",
        churn_shards, static_cast<unsigned long long>(par.events), par.wall_s,
        par.events_per_sec / 1e6,
        static_cast<unsigned long long>(par.pstats.windows), par.workers,
        exposed);
    std::printf(
        "  wall speedup %.2fx on %d host core(s); multi-core bound is "
        "min(exposed parallelism, cores) = %.2fx\n",
        row.base.wall_s / par.wall_s, host_cores,
        std::min(exposed, static_cast<double>(host_cores)));
    if (row.base.events != par.events || row.base.switches != par.switches) {
      std::fprintf(stderr,
                   "warning: backend divergence (events %llu vs %llu, "
                   "switches %llu vs %llu) — determinism contract violated\n",
                   static_cast<unsigned long long>(row.base.events),
                   static_cast<unsigned long long>(par.events),
                   static_cast<unsigned long long>(row.base.switches),
                   static_cast<unsigned long long>(par.switches));
      return 1;
    }
    std::printf("  determinism cross-check: event and switch counts match\n");

    // Era accounting: the same scenario with the band gap pinned to one
    // wire latency reproduces the pre-async global-window behavior, so the
    // window ratio is exactly what the asynchronous band-gap eras bought.
    row.narrow = cluster_churn(sim::ExecBackend::kParallel, churn_shards,
                               nodes, churn_waves, churn_steps,
                               /*band_gap=*/wire);
    std::printf(
        "  era accounting: %llu windows with one-lookahead eras vs %llu with "
        "band-gap eras\n",
        static_cast<unsigned long long>(row.narrow.pstats.windows),
        static_cast<unsigned long long>(par.pstats.windows));
    churn.push_back(row);
  }

  std::ostringstream pjson;
  pjson << "{\n"
        << "  \"bench\": \"parallel_scaling\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"cluster_churn\": [\n";
  for (std::size_t i = 0; i < churn.size(); ++i) {
    const ChurnRow& r = churn[i];
    pjson << "    {\"fabric_nodes\": " << 2 * r.nodes + 1
          << ", \"shards\": " << r.shards
          << ", \"waves\": " << churn_waves << ", \"steps\": " << churn_steps
          << ", \"host_cores\": " << host_cores << ",\n"
          << "     \"coroutine\": {\"events\": " << r.base.events
          << ", \"wall_s\": " << r.base.wall_s
          << ", \"events_per_sec\": " << r.base.events_per_sec << "},\n"
          << "     \"parallel\": {\"events\": " << r.par.events
          << ", \"wall_s\": " << r.par.wall_s
          << ", \"events_per_sec\": " << r.par.events_per_sec
          << ", \"windows\": " << r.par.pstats.windows
          << ", \"workers\": " << r.par.workers
          << ", \"parallel_events\": " << r.par.pstats.parallel_events
          << ", \"critical_path_events\": "
          << r.par.pstats.critical_path_events << "},\n"
          << "     \"wall_speedup\": " << r.base.wall_s / r.par.wall_s
          << ", \"one_lookahead_windows\": " << r.narrow.pstats.windows
          << ", \"window_reduction\": "
          << static_cast<double>(r.narrow.pstats.windows) /
                 static_cast<double>(std::max<std::uint64_t>(
                     r.par.pstats.windows, 1))
          << ", \"exposed_parallelism\": " << exposed_parallelism(r.par.pstats)
          << "}" << (i + 1 < churn.size() ? "," : "") << "\n";
  }
  pjson << "  ],\n"
        << "  \"ring_scaling\": [\n";
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const ScaleProbe& p = scale[i];
    pjson << "    {\"nodes\": " << p.nodes << ", \"shards\": " << p.shards
          << ", \"host_cores\": " << host_cores
          << ", \"events\": " << p.events << ", \"wall_s\": " << p.wall_s
          << ", \"wall_speedup\": " << scale_base_wall[i] / p.wall_s
          << ", \"events_per_sec\": " << p.per_sec
          << ", \"windows\": " << p.pstats.windows
          << ", \"exposed_parallelism\": " << p.exposed << "}"
          << (i + 1 < scale.size() ? "," : "") << "\n";
  }
  pjson << "  ]\n}\n";
  if (!write_json(out_parallel, pjson.str())) return 1;

  // Command-stream batching: op-dense churn (MP2C-style async kernel
  // streams) with obs counters on — how many wire messages does the front
  // end spend per op with and without kBatch coalescing?
  const int cs_nodes = quick ? 4 : 8;
  const int cs_bursts = quick ? 5 : 10;
  std::printf(
      "command-stream batching: %d CN + %d AC, %d bursts x 16 async "
      "launches per CN\n",
      cs_nodes, cs_nodes, cs_bursts);
  const ChurnProbe un = stream_churn(base_backend, cs_nodes, cs_bursts,
                                     {/*enabled=*/false, /*watermark=*/16});
  const ChurnProbe ba = stream_churn(base_backend, cs_nodes, cs_bursts,
                                     {/*enabled=*/true, /*watermark=*/16});
  const double un_per_op = static_cast<double>(un.rpc_msgs) /
                           static_cast<double>(un.rpc_ops);
  const double ba_per_op = static_cast<double>(ba.rpc_msgs) /
                           static_cast<double>(ba.rpc_ops);
  const double rpc_drop = 1.0 - static_cast<double>(ba.rpc_msgs) /
                                    static_cast<double>(un.rpc_msgs);
  const double dmpi_drop = 1.0 - static_cast<double>(ba.dmpi_msgs) /
                                     static_cast<double>(un.dmpi_msgs);
  std::printf(
      "  unbatched  %7llu rpc msgs / %llu ops = %.2f msgs/op  "
      "(%llu dmpi msgs total)\n",
      static_cast<unsigned long long>(un.rpc_msgs),
      static_cast<unsigned long long>(un.rpc_ops), un_per_op,
      static_cast<unsigned long long>(un.dmpi_msgs));
  std::printf(
      "  batched    %7llu rpc msgs / %llu ops = %.2f msgs/op  "
      "(%llu dmpi msgs total)\n",
      static_cast<unsigned long long>(ba.rpc_msgs),
      static_cast<unsigned long long>(ba.rpc_ops), ba_per_op,
      static_cast<unsigned long long>(ba.dmpi_msgs));
  std::printf("  reduction  %.1f%% front-end rpc msgs, %.1f%% fabric-wide "
              "dmpi msgs\n",
              100.0 * rpc_drop, 100.0 * dmpi_drop);

  // Profiler overhead: the smaller churn scenario with the wallclock
  // profiler detached vs. attached, best-of-N wall time each way. Detached
  // is the baseline by construction (one null-pointer check per hook site);
  // attached must cost < 2% on the serial hot loop, whose instrumentation
  // is two clock reads per run() call.
  const int churn_nodes = small_cns;
  const int pool_nodes = 256;
  const int churn_shards = 3;
  const int prof_reps = quick ? 3 : 5;
  double prof_off_s = 0.0;
  double prof_on_s = 0.0;
  obs::Profiler serial_prof;
  for (int r = 0; r < prof_reps; ++r) {
    const ChurnProbe off = cluster_churn(base_backend, 0, churn_nodes,
                                         churn_waves, churn_steps);
    if (r == 0 || off.wall_s < prof_off_s) prof_off_s = off.wall_s;
    const ChurnProbe on =
        cluster_churn(base_backend, 0, churn_nodes, churn_waves, churn_steps,
                      /*band_gap=*/0, &serial_prof);
    if (r == 0 || on.wall_s < prof_on_s) prof_on_s = on.wall_s;
  }
  const double prof_overhead_pct =
      prof_off_s > 0.0
          ? std::max(0.0, 100.0 * (prof_on_s - prof_off_s) / prof_off_s)
          : 0.0;
  // Attribution coverage on the parallel backend, on the larger churn so
  // the pool runs: per-shard busy / stall / inbox-drain / sync phases and
  // worker waits must tile the workers' wallclock, and serial time plus
  // waits on pool eras the coordinator's, each thread booked once.
  obs::Profiler par_prof;
  const ChurnProbe prof_par =
      cluster_churn(sim::ExecBackend::kParallel, churn_shards, pool_nodes,
                    churn_waves, churn_steps, /*band_gap=*/0, &par_prof);
  const double attribution_pct =
      par_prof.measured_ns() > 0
          ? 100.0 * static_cast<double>(par_prof.attributed_ns()) /
                static_cast<double>(par_prof.measured_ns())
          : 0.0;
  std::printf(
      "profiler overhead: churn best-of-%d  %.3fs detached, %.3fs attached "
      "->  %.2f%% (bound 2%%)\n",
      prof_reps, prof_off_s, prof_on_s, prof_overhead_pct);
  std::printf(
      "  parallel attribution (%d fabric nodes, %llu eras): %.3f ms "
      "attributed of %.3f ms measured (%.1f%%, bounds 95%%-105%%) over "
      "%llu events\n",
      2 * pool_nodes + 1,
      static_cast<unsigned long long>(prof_par.pstats.windows),
      par_prof.attributed_ns() / 1e6, par_prof.measured_ns() / 1e6,
      attribution_pct, static_cast<unsigned long long>(prof_par.events));
  for (int shard = 0; shard < churn_shards; ++shard) {
    std::uint64_t total = 0;
    for (int p = 0; p < sim::WallSink::kPhases; ++p) {
      total += par_prof.shard_ns(shard, static_cast<sim::WallSink::Phase>(p));
    }
    if (total == 0) continue;
    std::printf("    shard %2d: busy=%.3fms stall=%.3fms inbox=%.3fms "
                "sync=%.3fms\n",
                shard, par_prof.shard_ns(shard, sim::WallSink::kBusy) / 1e6,
                par_prof.shard_ns(shard, sim::WallSink::kStall) / 1e6,
                par_prof.shard_ns(shard, sim::WallSink::kInbox) / 1e6,
                par_prof.shard_ns(shard, sim::WallSink::kSync) / 1e6);
  }
  // The committed bounds. Quick mode keeps the attribution identity (it is
  // structural, not statistical) but relaxes the wall-time bound: tiny
  // quick runs put scheduler noise above the 2% the full runs resolve.
  const double overhead_bound = quick ? 20.0 : 2.0;
  if (prof_overhead_pct > overhead_bound) {
    std::fprintf(stderr,
                 "error: profiler overhead %.2f%% above the %.1f%% bound\n",
                 prof_overhead_pct, overhead_bound);
    return 1;
  }
  if (prof_par.pstats.windows == 0) {
    std::fprintf(stderr,
                 "error: the attribution scenario ran no pool era, so it "
                 "measured no worker time\n");
    return 1;
  }
  if (attribution_pct < 95.0 || attribution_pct > 105.0) {
    std::fprintf(stderr,
                 "error: profiler attribution %.1f%% outside the 95%%-105%% "
                 "bounds\n",
                 attribution_pct);
    return 1;
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"wallclock_engine\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"switch_throughput\": {\n"
       << "    \"coroutine\": {\"switches\": " << coro.switches
       << ", \"wall_s\": " << coro.wall_s
       << ", \"per_sec\": " << coro.per_sec << "}\n"
       << "  },\n"
       << "  \"event_throughput\": {\"events\": " << ev.events
       << ", \"wall_s\": " << ev.wall_s << ", \"per_sec\": " << ev.per_sec
       << ", \"pool_nodes\": " << ev.pool_nodes
       << ", \"heap_fallbacks\": " << ev.heap_fallbacks << "},\n"
       << "  \"fig09_qr\": {\"n\": " << qr.n << ", \"gpus\": 3"
       << ", \"sim_ms\": " << qr.sim_ms << ", \"wall_s\": " << qr.wall_s
       << "},\n"
       << "  \"command_stream\": {\n"
       << "    \"compute_nodes\": " << cs_nodes
       << ", \"bursts\": " << cs_bursts << ", \"watermark\": 16,\n"
       << "    \"unbatched\": {\"rpc_msgs\": " << un.rpc_msgs
       << ", \"rpc_ops\": " << un.rpc_ops
       << ", \"msgs_per_op\": " << un_per_op
       << ", \"dmpi_msgs\": " << un.dmpi_msgs
       << ", \"sim_ms\": " << un.sim_ms << "},\n"
       << "    \"batched\": {\"rpc_msgs\": " << ba.rpc_msgs
       << ", \"rpc_ops\": " << ba.rpc_ops
       << ", \"msgs_per_op\": " << ba_per_op
       << ", \"dmpi_msgs\": " << ba.dmpi_msgs
       << ", \"sim_ms\": " << ba.sim_ms << "},\n"
       << "    \"rpc_msg_reduction\": " << rpc_drop
       << ", \"dmpi_msg_reduction\": " << dmpi_drop << "\n"
       << "  },\n"
       << "  \"profiler_overhead\": {\n"
       << "    \"fabric_nodes\": " << 2 * churn_nodes + 1
       << ", \"best_of\": " << prof_reps << ",\n"
       << "    \"detached_wall_s\": " << prof_off_s
       << ", \"attached_wall_s\": " << prof_on_s
       << ", \"overhead_pct\": " << prof_overhead_pct
       << ", \"overhead_bound_pct\": " << overhead_bound << ",\n"
       << "    \"parallel_fabric_nodes\": " << 2 * pool_nodes + 1
       << ", \"parallel_windows\": " << prof_par.pstats.windows
       << ", \"parallel_attributed_ns\": " << par_prof.attributed_ns()
       << ", \"parallel_measured_ns\": " << par_prof.measured_ns()
       << ", \"attribution_pct\": " << attribution_pct
       << ", \"attribution_bounds_pct\": [95, 105]\n"
       << "  }\n"
       << "}\n";
  return write_json(out_path, json.str()) ? 0 : 1;
}

}  // namespace
}  // namespace dacc::bench

int main(int argc, char** argv) { return dacc::bench::run(argc, argv); }
