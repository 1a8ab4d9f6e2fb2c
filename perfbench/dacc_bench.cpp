// dacc_bench: the benchmark program. One process runs one workload: a
// discarded warm-up unit, then measured units until --seconds of host time
// have passed. It prints one JSON object with every sample; run.py turns
// that into the metrics, checks and the per-layer report.
//
//   dacc_bench --workload paper-sweep [--seed 1] [--seconds 10] [--trace]
//              [--heartbeats] [--leader-kill] [--out-dir DIR]
//
// dacc_bench reaches the simulator only through its public entry points:
// rt::Cluster construction, submit and run; core::Accelerator and Session
// calls; core::DeviceLink; Engine stats; Cluster::arm_stats() and report();
// obs::Registry::counter_value; and Engine::set_wall_profiler. The Figs 5-8
// copy probes are bench/bench_util.hpp's, the ones the figure benches run.
//
// Host metrics come from untraced units. With --trace the process also runs
// traced units (metrics registry on, wallclock profiler attached, and the
// program's own spans) for the per-layer numbers; their simulated digest must
// equal the untraced one.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"
#include "core/link.hpp"
#include "la/factorizations.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "mdsim/mp2c.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rt/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#ifndef DACC_BENCH_BUILD_TYPE
#define DACC_BENCH_BUILD_TYPE "unknown"
#endif

namespace dacc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU time, all threads (parallel workers included).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image in MiB. VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across exec, so it would report the launcher's
/// peak whenever that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

#if defined(DACC_SIM_FORCE_THREAD_BACKEND)
constexpr sim::ExecBackend kSerialBackend = sim::ExecBackend::kThread;
constexpr bool kSanitizerBuild = true;
#else
constexpr sim::ExecBackend kSerialBackend = sim::ExecBackend::kCoroutine;
constexpr bool kSanitizerBuild = false;
#endif

/// FNV-1a over 64-bit words: the simulated digest of a unit.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- spans ---------------------------------------------------------------

/// One simulated-time span recorded by dacc_bench around a call into a
/// layer. `id`/`parent` tie link calls to their factorization or MP2C span
/// and every span to its job rank.
struct SimSpan {
  const char* layer = "";
  const char* name = "";
  SimTime begin = 0;
  SimTime end = 0;
  std::uint64_t bytes = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Everything one job rank records. Each rank owns its log, so ranks that
/// run on different shards of the parallel backend share no state.
class RankLog {
 public:
  RankLog(int index, bool traced) : index_(index), traced_(traced) {}

  int index() const { return index_; }
  std::uint64_t new_id() {
    return (static_cast<std::uint64_t>(index_ + 1) << 32) | ++seq_;
  }

  /// Mixes a finished operation's simulated timestamps and byte count into
  /// the digest, and keeps the span when traced.
  void record(const char* layer, const char* name, SimTime begin, SimTime end,
              std::uint64_t bytes, std::uint64_t id, std::uint64_t parent) {
    digest.mix(begin);
    digest.mix(end);
    digest.mix(bytes);
    if (traced_) spans.push_back({layer, name, begin, end, bytes, id, parent});
  }

  /// Runs one call into a layer as an attempted op. A call that throws
  /// counts as failed; the exception propagates and ends the job.
  template <typename F>
  decltype(auto) call(sim::Context& ctx, const char* layer, const char* name,
                      std::uint64_t bytes, F&& f, std::uint64_t parent = 0) {
    ++ops;
    const SimTime t0 = ctx.now();
    const std::uint64_t p = parent != 0 ? parent : job_id;
    try {
      if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        record(layer, name, t0, ctx.now(), bytes, new_id(), p);
      } else {
        auto r = f();
        record(layer, name, t0, ctx.now(), bytes, new_id(), p);
        return r;
      }
    } catch (...) {
      ++failed;
      throw;
    }
  }

  Digest digest;
  std::vector<SimSpan> spans;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t job_id = 0;  ///< span id of the rank's job span
  bool done = false;         ///< the job body ran to its end
  bool data_ok = true;       ///< every byte comparison matched
  std::string error;

 private:
  int index_;
  bool traced_;
  std::uint32_t seq_ = 0;
};

/// Runs a job body under the rank's job span. An exception ends the body
/// and leaves `done` false, which fails the unit's output check.
template <typename F>
void run_job(rt::JobContext& job, RankLog& log, F&& body) {
  sim::Context& ctx = job.ctx();
  log.job_id = log.new_id();
  const SimTime t0 = ctx.now();
  try {
    body();
    log.done = true;
  } catch (const std::exception& e) {
    log.error = e.what();
  }
  log.record("job", "job", t0, ctx.now(), 0, log.job_id, 0);
}

/// core::DeviceLink decorator: every la/mdsim call becomes an op of the
/// rank and a simulated-time span under `parent` (the factorization or MP2C
/// span). The inner link does the work unchanged.
class TracingLink final : public core::DeviceLink {
 public:
  TracingLink(core::DeviceLink& inner, sim::Context& ctx, RankLog& log,
              const char* layer, std::uint64_t parent)
      : inner_(inner), ctx_(ctx), log_(log), layer_(layer), parent_(parent) {}

  gpu::DevPtr alloc(std::uint64_t bytes) override {
    return log_.call(ctx_, layer_, "alloc", bytes,
                     [&] { return inner_.alloc(bytes); }, parent_);
  }
  void free(gpu::DevPtr ptr) override {
    log_.call(ctx_, layer_, "free", 0, [&] { inner_.free(ptr); }, parent_);
  }
  void h2d(gpu::DevPtr dst, util::Buffer src) override {
    const std::uint64_t n = src.size();
    log_.call(ctx_, layer_, "h2d", n,
              [&] { inner_.h2d(dst, std::move(src)); }, parent_);
  }
  std::function<void()> h2d_async(gpu::DevPtr dst,
                                  util::Buffer src) override {
    const std::uint64_t n = src.size();
    std::function<void()> wait = log_.call(
        ctx_, layer_, "h2d_async", n,
        [&] { return inner_.h2d_async(dst, std::move(src)); }, parent_);
    return [this, n, wait = std::move(wait)] {
      log_.call(ctx_, layer_, "h2d_wait", n, wait, parent_);
    };
  }
  util::Buffer d2h(gpu::DevPtr src, std::uint64_t bytes) override {
    return log_.call(ctx_, layer_, "d2h", bytes,
                     [&] { return inner_.d2h(src, bytes); }, parent_);
  }
  void launch(const std::string& kernel, gpu::KernelArgs args) override {
    log_.call(ctx_, layer_, "launch", 0,
              [&] { inner_.launch(kernel, std::move(args)); }, parent_);
  }
  void drain() override {
    log_.call(ctx_, layer_, "drain", 0, [&] { inner_.drain(); }, parent_);
  }

 private:
  core::DeviceLink& inner_;
  sim::Context& ctx_;
  RankLog& log_;
  const char* layer_;
  std::uint64_t parent_;
};

// --- per-layer totals ------------------------------------------------------

/// Layer counters summed over every cluster a traced unit builds.
struct LayerTotals {
  std::uint64_t events = 0, switches = 0, stacks_created = 0;
  std::uint64_t windows = 0, parallel_events = 0, critical_path_events = 0;
  std::uint64_t merged_fallbacks = 0;
  std::uint64_t rpc_msgs = 0, rpc_ops = 0;
  std::uint64_t dmpi_msgs = 0, dmpi_bytes = 0, dmpi_eager = 0,
                dmpi_rendezvous = 0;
  std::uint64_t net_tx_bytes = 0, net_tx_busy_ns = 0, net_drops = 0;
  std::uint64_t daemon_requests = 0, daemon_busy_ns = 0;
  double gpu_compute_ns = 0, gpu_copy_ns = 0, gpu_time_ns = 0;
  std::uint64_t acquisitions = 0, preemptions = 0, revocations = 0,
                replacements = 0;
  std::uint64_t elections = 0, leader_changes = 0, commit_index = 0;

  void collect(rt::Cluster& c) {
    const sim::Engine& e = c.engine();
    events += e.events_executed();
    switches += e.process_switches();
    stacks_created += e.stacks_created();
    const sim::Engine::ParallelStats& ps = e.parallel_stats();
    windows += ps.windows;
    parallel_events += ps.parallel_events;
    critical_path_events += ps.critical_path_events;
    merged_fallbacks += ps.merged_fallbacks;

    const obs::Registry& m = c.metrics();
    const int ranks = c.world().size();
    for (int r = 0; r < ranks; ++r) {
      const std::string rank = "{rank=\"" + std::to_string(r) + "\"}";
      const std::string node = "{node=\"" + std::to_string(r) + "\"}";
      dmpi_msgs += m.counter_value("dacc_dmpi_msgs_total" + rank);
      dmpi_bytes += m.counter_value("dacc_dmpi_bytes_total" + rank);
      dmpi_eager += m.counter_value("dacc_dmpi_eager_total" + rank);
      dmpi_rendezvous += m.counter_value("dacc_dmpi_rendezvous_total" + rank);
      daemon_requests += m.counter_value("dacc_daemon_requests_total" + rank);
      daemon_busy_ns += m.counter_value("dacc_daemon_busy_ns_total" + rank);
      net_tx_bytes += m.counter_value("dacc_net_tx_bytes_total" + node);
      net_tx_busy_ns += m.counter_value("dacc_net_tx_busy_ns_total" + node);
      net_drops += m.counter_value("dacc_net_drops_total" + node);
    }
    for (int cn = 0; cn < c.config().compute_nodes; ++cn) {
      const std::string chan =
          obs::labeled("", "chan", "fe-r" + std::to_string(c.cn_rank(cn)));
      rpc_msgs += m.counter_value("dacc_rpc_msgs_total" + chan);
      rpc_ops += m.counter_value("dacc_rpc_ops_total" + chan);
    }

    const rt::Cluster::Report rep = c.report();
    for (const auto& row : rep.accelerators) {
      gpu_compute_ns += row.compute_util * static_cast<double>(rep.now);
      gpu_copy_ns += row.copy_util * static_cast<double>(rep.now);
      gpu_time_ns += static_cast<double>(rep.now);
    }
    const arm::PoolStats ps2 = c.arm_stats();
    acquisitions += ps2.acquisitions;
    preemptions += ps2.preemptions;
    revocations += ps2.revocations;
    replacements += ps2.replacements;
    if (c.arm_replicated()) {
      for (int r = 0; r < c.config().arm_replicas; ++r) {
        const arm::raft::RaftNode& node = c.arm_replica(r);
        elections += node.elections_started();
        leader_changes += m.counter_value(obs::labeled(
            "dacc_raft_leader_changes_total", "replica", std::to_string(r)));
        commit_index = std::max(commit_index, node.commit_index());
      }
    }
  }
};

/// arm-storm's failover features. Neither is part of the workload yet: both
/// expose faults under its load (see README.md).
struct Failover {
  bool heartbeats = false;   ///< liveness heartbeats
  bool leader_kill = false;  ///< one Raft leader kill at a seeded time
};

struct HostSpan {
  std::string name;
  double begin_s = 0;
  double end_s = 0;
};

/// One unit of a workload: the clusters it builds, the job ranks it runs,
/// its host timings, simulated digest, output checks and model results.
class Unit {
 public:
  Unit(bool traced, Failover with_failover)
      : failover(with_failover), traced_(traced), t0_(Clock::now()) {}
  Unit(const Unit&) = delete;
  Unit& operator=(const Unit&) = delete;

  /// Set-up work (kernel registries, input generation), timed as setup_s.
  template <typename F>
  auto setup(F&& f) {
    const auto t0 = Clock::now();
    struct Charge {
      Unit& u;
      Clock::time_point t0;
      ~Charge() { u.setup_s += seconds_since(t0); }
    } charge{*this, t0};
    return f();
  }

  /// Builds a cluster; construction is set-up time. Traced units turn on
  /// the metrics registry and attach the unit's wallclock profiler.
  std::unique_ptr<rt::Cluster> build(rt::ClusterConfig cc) {
    cc.metrics = traced_;
    cc.trace = false;
    cc.profile = false;
    const double b = now_s();
    auto cluster = setup([&] { return std::make_unique<rt::Cluster>(cc); });
    const double e = now_s();
    build_s += e - b;
    host("Cluster()", b, e);
    if (traced_) cluster->engine().set_wall_profiler(&profiler);
    return cluster;
  }

  /// A fresh job-rank log; allocate every rank's log before submitting.
  RankLog& rank() {
    logs.push_back(std::make_unique<RankLog>(static_cast<int>(logs.size()),
                                             traced_));
    return *logs.back();
  }

  void submit(rt::Cluster& c, rt::JobSpec spec, int first_cn = 0) {
    const double b = now_s();
    ranks_submitted += static_cast<std::uint64_t>(spec.ranks);
    c.submit(std::move(spec), first_cn);
    host("submit", b, now_s());
  }

  /// Runs the cluster to quiescence, mixes its final simulated time into
  /// the digest and, when traced, folds its layer counters into the totals.
  void run(rt::Cluster& c) {
    const double b = now_s();
    try {
      c.run();
    } catch (const std::exception& e) {
      check(false, std::string("Cluster::run threw: ") + e.what());
    }
    const double e = now_s();
    run_s += e - b;
    host("run", b, e);
    digest.mix(c.engine().now());
    sim_total += c.engine().now();
    if (traced_) layers.collect(c);
  }

  /// Runs one of bench/bench_util.hpp's figure probes as an op of the unit
  /// and mixes its simulated time into the digest; 0 if it threw.
  template <typename F>
  SimDuration probe(F&& f) {
    ++probes;
    try {
      const SimDuration elapsed = f().elapsed;
      digest.mix(elapsed);
      return elapsed;
    } catch (const std::exception& e) {
      ++probes_failed;
      check(false, std::string("figure probe threw: ") + e.what());
      return 0;
    }
  }

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  double now_s() const { return seconds_since(t0_); }

  /// Finishes the unit: folds every rank's digest in, and fails the unit if
  /// any rank did not complete its job or saw a byte mismatch.
  void finish() {
    std::string first_error;
    std::uint64_t mismatched = 0;
    for (const auto& log : logs) {
      digest.mix(log->digest.h);
      if (!log->done && jobs_failed++ == 0) {
        first_error = "job rank " + std::to_string(log->index()) + ": " +
                      log->error;
      }
      if (!log->data_ok) ++mismatched;
    }
    check(jobs_failed == 0, std::to_string(jobs_failed) +
                                " job ranks did not complete (first: " +
                                first_error + ")");
    check(mismatched == 0, std::to_string(mismatched) +
                               " job ranks read back different bytes");
    check(ranks_submitted == logs.size(),
          "rank logs do not match submitted ranks");
  }

  std::uint64_t ops() const {
    // Every job rank and figure probe is an op too.
    std::uint64_t n = logs.size() + probes;
    for (const auto& log : logs) n += log->ops;
    return n;
  }
  std::uint64_t ops_failed() const {
    std::uint64_t n = jobs_failed + probes_failed;
    for (const auto& log : logs) n += log->failed;
    return n;
  }

  const Failover failover;
  std::vector<std::unique_ptr<RankLog>> logs;
  std::vector<HostSpan> host_spans;
  std::vector<std::string> errors;
  std::map<std::string, double> model;  ///< simulated end-to-end results
  /// Figure points under their bench/ result names (as in BENCH_fig*.json),
  /// in simulated ns.
  std::map<std::string, SimDuration> points;
  Digest digest;
  /// Summed final simulated time of every cluster dacc_bench builds itself.
  SimTime sim_total = 0;
  double setup_s = 0;
  double build_s = 0;
  double run_s = 0;
  std::uint64_t ranks_submitted = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t probes = 0;
  std::uint64_t probes_failed = 0;
  LayerTotals layers;
  obs::Profiler profiler;

 private:
  void host(const char* name, double b, double e) {
    if (traced_) host_spans.push_back({name, b, e});
  }

  bool traced_;
  Clock::time_point t0_;
};

rt::ClusterConfig base_config() {
  rt::ClusterConfig cc;
  cc.sim_backend = kSerialBackend;
  cc.sim_shards = 0;
  cc.batch = rpc::StreamConfig{false, 16};
  return cc;
}

/// Simulated-time durations of dacc_bench's own spans, by (layer, name).
std::vector<SimDuration> durations(const Unit& u, const char* layer,
                                   const char* name) {
  std::vector<SimDuration> out;
  for (const auto& log : u.logs) {
    for (const SimSpan& s : log->spans) {
      if (std::strcmp(s.layer, layer) == 0 && std::strcmp(s.name, name) == 0) {
        out.push_back(s.end - s.begin);
      }
    }
  }
  return out;
}

/// Exact nearest-rank quantile of the samples (q in [0, 1]); 0 when empty.
double quantile(std::vector<SimDuration> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

// --- paper-sweep -------------------------------------------------------------
//
// The paper's figures in one unit: the Figs 5-8 copy sweeps, Fig 9 QR and
// Fig 10 Cholesky at N=10240, Fig 11 MP2C at 5.12M particles. Every point
// builds its own small phantom cluster. The inputs are the paper's fixed
// sizes; the seed reaches only the MP2C generator, which phantom runs do not
// consume, so the digest is the same for every seed.
//
// The copy sweeps call bench/bench_util.hpp's probes. The factorization and
// MP2C points are written out here because their device links must be
// wrapped in TracingLinks, which bench/la_util.hpp and fig11_mp2c.cpp do not
// allow; run.py checks those points against the committed BENCH_fig09.json
// and BENCH_fig11.json, so the two copies cannot drift apart unnoticed.

/// Wraps `gpus` local or remote links of the rank in TracingLinks.
struct Links {
  std::vector<std::unique_ptr<core::DeviceLink>> inner;
  std::vector<std::unique_ptr<TracingLink>> traced;
  std::vector<core::DeviceLink*> view;

  Links(rt::JobContext& job, RankLog& log, bool local, const char* layer,
        std::uint64_t parent) {
    if (local) {
      inner.push_back(std::make_unique<core::LocalDeviceLink>(job.local_gpu()));
    } else {
      for (std::size_t i = 0; i < job.session().size(); ++i) {
        inner.push_back(std::make_unique<core::RemoteDeviceLink>(
            job.session()[i], job.ctx()));
      }
    }
    for (auto& link : inner) {
      traced.push_back(std::make_unique<TracingLink>(*link, job.ctx(), log,
                                                     layer, parent));
      view.push_back(traced.back().get());
    }
  }
};

/// One Fig 9/10 point: factorize an N x N phantom matrix on one compute
/// node with a node-local GPU or `g` network-attached GPUs.
SimDuration factor(Unit& u, const std::shared_ptr<gpu::KernelRegistry>& reg,
                   bool qr, int n, int g, bool local) {
  rt::ClusterConfig cc = base_config();
  cc.compute_nodes = 1;
  cc.accelerators = local ? 0 : g;
  cc.local_gpus = local;
  cc.functional_gpus = false;
  cc.registry = reg;
  auto cluster = u.build(cc);
  RankLog& log = u.rank();
  SimDuration elapsed = 0;
  rt::JobSpec spec;
  spec.name = qr ? "qr" : "cholesky";
  spec.accelerators_per_rank = local ? 0 : static_cast<std::uint32_t>(g);
  spec.body = [&](rt::JobContext& job) {
    run_job(job, log, [&] {
      sim::Context& ctx = job.ctx();
      const std::uint64_t id = log.new_id();
      Links links(job, log, local, "la", id);
      la::HostMatrix a(n, n, /*functional=*/false);
      const SimTime t0 = ctx.now();
      const la::FactorResult r =
          qr ? la::dgeqrf_hybrid(ctx, links.view, a, 128)
             : la::dpotrf_hybrid(ctx, links.view, a, 128);
      log.record("la", qr ? "dgeqrf" : "dpotrf", t0, ctx.now(), 0, id,
                 log.job_id);
      if (r.info != 0) throw std::runtime_error("factorization info != 0");
      elapsed = r.factor_time;
    });
  };
  u.submit(*cluster, std::move(spec));
  u.run(*cluster);
  u.points[std::string(qr ? "fig09/qr/" : "fig10/chol/") +
           (local ? "local" : "net" + std::to_string(g)) + "/" +
           std::to_string(n)] = elapsed;
  return elapsed;
}

/// One Fig 11 point: MP2C on 2 ranks with one local or remote GPU each.
SimDuration mp2c_point(Unit& u, const std::shared_ptr<gpu::KernelRegistry>& reg,
                       bool local, std::uint64_t seed) {
  rt::ClusterConfig cc = base_config();
  cc.compute_nodes = 2;
  cc.accelerators = local ? 0 : 2;
  cc.local_gpus = local;
  cc.functional_gpus = false;
  cc.registry = reg;
  auto cluster = u.build(cc);
  std::array<RankLog*, 2> logs = {&u.rank(), &u.rank()};
  std::array<SimDuration, 2> elapsed = {0, 0};
  rt::JobSpec spec;
  spec.name = "mp2c";
  spec.ranks = 2;
  spec.accelerators_per_rank = local ? 0 : 1;
  spec.body = [&](rt::JobContext& job) {
    const auto r = static_cast<std::size_t>(job.rank());
    RankLog& log = *logs[r];
    run_job(job, log, [&] {
      sim::Context& ctx = job.ctx();
      const std::uint64_t id = log.new_id();
      Links links(job, log, local, "mdsim", id);
      const SimTime t0 = ctx.now();
      const mdsim::Mp2cResult res =
          mdsim::run_mp2c(job, links.view[0], 5'120'000, {}, {}, seed);
      log.record("mdsim", "run_mp2c", t0, ctx.now(), 0, id, log.job_id);
      elapsed[r] = res.elapsed;
    });
  };
  u.submit(*cluster, std::move(spec));
  u.run(*cluster);
  u.points[local ? "fig11/mp2c/local/512e4" : "fig11/mp2c/dynamic/512e4"] =
      elapsed[0];
  return elapsed[0];
}

void paper_sweep(Unit& u, std::uint64_t seed) {
  const auto [la_reg, md_reg] = u.setup([] {
    auto md = gpu::KernelRegistry::with_builtins();
    mdsim::register_mdsim_kernels(*md);
    return std::make_pair(la::la_registry(), md);
  });

  // Figs 5-8: every transfer policy of Figs 5/6 both ways, the node-local
  // baselines of Figs 7/8 and the MPI bound.
  const std::array<proto::TransferConfig, 5> policies = {
      proto::TransferConfig::naive(), proto::TransferConfig::pipeline(128_KiB),
      proto::TransferConfig::pipeline(256_KiB),
      proto::TransferConfig::pipeline(512_KiB),
      proto::TransferConfig::pipeline_adaptive()};
  std::map<std::uint64_t, SimDuration> adaptive_h2d, mpi;
  for (const std::uint64_t bytes : bench::figure_sizes()) {
    for (const bool h2d : {true, false}) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const SimDuration t = u.probe(
            [&] { return bench::remote_copy(bytes, policies[p], h2d); });
        if (h2d && p + 1 == policies.size()) adaptive_h2d[bytes] = t;
      }
      for (const auto mem :
           {gpu::HostMemType::kPinned, gpu::HostMemType::kPageable}) {
        u.probe([&] { return bench::local_copy(bytes, mem, h2d); });
      }
    }
    mpi[bytes] = u.probe([&] { return bench::mpi_pingpong(bytes); });
  }
  for (const std::uint64_t bytes : {4_MiB, 16_MiB, 64_MiB}) {
    const double ratio = static_cast<double>(mpi[bytes]) /
                         static_cast<double>(adaptive_h2d[bytes]);
    u.check(ratio >= 0.9, "remote H2D at " + std::to_string(bytes >> 20) +
                              " MiB below 90% of ping-pong");
  }
  u.model["sim_h2d_vs_mpi"] = static_cast<double>(mpi[64_MiB]) /
                              static_cast<double>(adaptive_h2d[64_MiB]);

  // Fig 9: QR, local vs 1/2/3 remote GPUs; Fig 10: Cholesky, local vs 3.
  const int n = 10240;
  const SimDuration qr_local = factor(u, la_reg, true, n, 1, true);
  for (const int g : {1, 2}) (void)factor(u, la_reg, true, n, g, false);
  const SimDuration qr_3 = factor(u, la_reg, true, n, 3, false);
  (void)factor(u, la_reg, false, n, 1, true);
  (void)factor(u, la_reg, false, n, 3, false);
  const double qr_speedup =
      static_cast<double>(qr_local) / static_cast<double>(qr_3);
  u.check(qr_speedup >= 2.2, "QR with 3 remote GPUs below 2.2x local");
  u.model["sim_qr_speedup"] = qr_speedup;

  // Fig 11: MP2C, local vs dynamic (network-attached) GPUs.
  const SimDuration md_local = mp2c_point(u, md_reg, true, seed);
  const SimDuration md_remote = mp2c_point(u, md_reg, false, seed);
  const double slowdown_pct =
      100.0 * (static_cast<double>(md_remote) / static_cast<double>(md_local) -
               1.0);
  u.check(slowdown_pct <= 4.0, "MP2C dynamic slowdown above 4%");
  u.model["sim_mp2c_slowdown_pct"] = slowdown_pct;
}

// --- mp2c-churn --------------------------------------------------------------
//
// 64 CN + 64 AC + ARM (129 fabric nodes) on the parallel backend: 3 waves
// of a 64-rank MP2C job, each wave a fresh static lease. The only workload
// on the parallel backend. It uses 3 shards, so at most 3 worker threads:
// on a 4-core host that leaves one core to the rest of the machine, and
// the host times repeat better than with 4 (README.md, Noise).

constexpr int kChurnNodes = 64;
constexpr int kChurnWaves = 3;
constexpr int kChurnSteps = 30;
constexpr std::uint64_t kChurnParticlesPerRank = 20'000;
constexpr int kChurnShards = 3;

void mp2c_churn(Unit& u, std::uint64_t seed) {
  const auto reg = u.setup([] {
    auto r = gpu::KernelRegistry::with_builtins();
    mdsim::register_mdsim_kernels(*r);
    return r;
  });
  rt::ClusterConfig cc = base_config();
  cc.compute_nodes = kChurnNodes;
  cc.accelerators = kChurnNodes;
  cc.functional_gpus = false;
  cc.registry = reg;
  cc.sim_backend = sim::ExecBackend::kParallel;
  cc.sim_shards = kChurnShards;
  auto cluster = u.build(cc);

  for (int w = 0; w < kChurnWaves; ++w) {
    std::vector<RankLog*> logs;
    for (int r = 0; r < kChurnNodes; ++r) logs.push_back(&u.rank());
    std::vector<mdsim::Mp2cResult> results(kChurnNodes);
    rt::JobSpec spec;
    spec.name = "mp2c-w" + std::to_string(w);
    spec.ranks = kChurnNodes;
    spec.accelerators_per_rank = 1;
    const std::uint64_t wave_seed = seed * 1000 + static_cast<std::uint64_t>(w);
    spec.body = [&logs, &results, wave_seed](rt::JobContext& job) {
      const auto r = static_cast<std::size_t>(job.rank());
      RankLog& log = *logs[r];
      run_job(job, log, [&] {
        sim::Context& ctx = job.ctx();
        const std::uint64_t id = log.new_id();
        Links links(job, log, /*local=*/false, "mdsim", id);
        mdsim::SrdParams srd;
        srd.steps = kChurnSteps;
        const SimTime t0 = ctx.now();
        results[r] = mdsim::run_mp2c(
            job, links.view[0],
            kChurnParticlesPerRank * static_cast<std::uint64_t>(job.size()),
            srd, {}, wave_seed);
        log.record("mdsim", "run_mp2c", t0, ctx.now(), 0, id, log.job_id);
      });
    };
    u.submit(*cluster, std::move(spec));
    u.run(*cluster);
    std::uint64_t particles = 0;
    bool steps_ok = true;
    for (const auto& res : results) {
      particles += res.local_particles;
      steps_ok = steps_ok && res.srd_steps == kChurnSteps / 5;
    }
    u.check(particles == kChurnParticlesPerRank * kChurnNodes,
            "MP2C lost particles in wave " + std::to_string(w));
    u.check(steps_ok, "MP2C skipped SRD steps in wave " + std::to_string(w));
  }
  const arm::PoolStats stats = cluster->arm_stats();
  u.check(stats.free == stats.total, "pool did not drain after the waves");
}

// --- cmd-stream --------------------------------------------------------------
//
// 32 CN + 32 AC on functional GPUs with kBatch batching on (watermark 16).
// Each CN issues 100 bursts of 16 launch_async from a seeded kernel mix,
// then one 4 KiB H2D/D2H round trip, byte-compared. Host time goes to
// per-message middleware, not to la or bulk transfers.

constexpr int kCmdNodes = 32;
constexpr int kCmdBursts = 100;
constexpr int kCmdBurstOps = 16;
constexpr std::int64_t kCmdVec = 512;  // doubles per device vector
constexpr std::uint64_t kCmdRoundTrip = 4_KiB;

struct CmdOp {
  int kind = 0;  // 0: dscal x, 1: daxpy y += a*x, 2: fill x
  double alpha = 1.0;
};

struct CmdPlan {
  std::vector<double> x0;
  std::vector<CmdOp> ops;
  std::uint64_t payload_seed = 0;
};

std::vector<CmdPlan> cmd_plans(std::uint64_t seed) {
  std::vector<CmdPlan> plans(kCmdNodes);
  for (int r = 0; r < kCmdNodes; ++r) {
    util::Rng rng(seed * 7919 + static_cast<std::uint64_t>(r));
    CmdPlan& p = plans[static_cast<std::size_t>(r)];
    for (std::int64_t i = 0; i < kCmdVec; ++i) p.x0.push_back(rng.uniform(-1, 1));
    for (int i = 0; i < kCmdBursts * kCmdBurstOps; ++i) {
      const double pick = rng.next_double();
      CmdOp op;
      op.kind = pick < 0.5 ? 0 : (pick < 0.9 ? 1 : 2);
      op.alpha = op.kind == 0 ? rng.uniform(0.5, 1.5) : rng.uniform(-1, 1);
      p.ops.push_back(op);
    }
    p.payload_seed = rng.next_u64();
  }
  return plans;
}

bool same_bytes(const util::Buffer& got, std::span<const std::byte> want) {
  return got.size() == want.size() &&
         std::memcmp(got.bytes().data(), want.data(), want.size()) == 0;
}

void cmd_stream(Unit& u, std::uint64_t seed) {
  const std::vector<CmdPlan> plans = u.setup([&] { return cmd_plans(seed); });
  rt::ClusterConfig cc = base_config();
  cc.compute_nodes = kCmdNodes;
  cc.accelerators = kCmdNodes;
  cc.functional_gpus = true;
  cc.batch = rpc::StreamConfig{true, 16};
  auto cluster = u.build(cc);
  std::vector<RankLog*> logs;
  for (int r = 0; r < kCmdNodes; ++r) logs.push_back(&u.rank());

  rt::JobSpec spec;
  spec.name = "cmd-stream";
  spec.ranks = kCmdNodes;
  spec.accelerators_per_rank = 1;
  spec.body = [&](rt::JobContext& job) {
    const auto r = static_cast<std::size_t>(job.rank());
    RankLog& log = *logs[r];
    const CmdPlan& plan = plans[r];
    run_job(job, log, [&] {
      sim::Context& ctx = job.ctx();
      core::Accelerator& ac = job.session()[0];
      const std::uint64_t vec_bytes = static_cast<std::uint64_t>(kCmdVec) * 8;
      auto alloc = [&](std::uint64_t n) {
        return log.call(ctx, "core", "alloc", n, [&] { return ac.mem_alloc(n); });
      };
      const gpu::DevPtr x = alloc(vec_bytes);
      const gpu::DevPtr y = alloc(vec_bytes);
      const gpu::DevPtr z = alloc(kCmdRoundTrip);
      // Host model of the device vectors: the same double operations in the
      // same order, so the final read-back must match byte for byte.
      std::vector<double> hx = plan.x0;
      std::vector<double> hy(static_cast<std::size_t>(kCmdVec), 0.0);
      log.call(ctx, "core", "h2d", vec_bytes, [&] {
        ac.memcpy_h2d(x, util::Buffer::of(std::span<const double>(hx)));
      });
      log.call(ctx, "core", "h2d", vec_bytes, [&] {
        ac.memcpy_h2d(y, util::Buffer::of(std::span<const double>(hy)));
      });

      util::Rng payload_rng(plan.payload_seed);
      std::vector<std::byte> payload(kCmdRoundTrip);
      for (int b = 0; b < kCmdBursts; ++b) {
        std::array<core::Future, kCmdBurstOps> futures;
        std::array<SimTime, kCmdBurstOps> issued{};
        for (int i = 0; i < kCmdBurstOps; ++i) {
          const CmdOp& op = plan.ops[static_cast<std::size_t>(b * kCmdBurstOps + i)];
          issued[static_cast<std::size_t>(i)] = ctx.now();
          ++log.ops;
          core::Future& f = futures[static_cast<std::size_t>(i)];
          if (op.kind == 0) {
            f = ac.launch_async("dscal", {}, {kCmdVec, op.alpha, x});
            for (double& e : hx) e *= op.alpha;
          } else if (op.kind == 1) {
            f = ac.launch_async("daxpy", {}, {kCmdVec, op.alpha, x, y});
            for (std::size_t k = 0; k < hy.size(); ++k) hy[k] += op.alpha * hx[k];
          } else {
            f = ac.launch_async("fill_f64", {}, {x, kCmdVec, op.alpha});
            for (double& e : hx) e = op.alpha;
          }
        }
        // In-order completion: each launch's span runs from its issue to the
        // moment the rank observes it done.
        for (int i = 0; i < kCmdBurstOps; ++i) {
          try {
            futures[static_cast<std::size_t>(i)].get(ctx);
          } catch (...) {
            ++log.failed;
            throw;
          }
          log.record("core", "launch", issued[static_cast<std::size_t>(i)],
                     ctx.now(), 0, log.new_id(), log.job_id);
        }
        for (std::byte& v : payload) {
          v = static_cast<std::byte>(payload_rng.next_u64() & 0xffu);
        }
        log.call(ctx, "core", "h2d", kCmdRoundTrip, [&] {
          ac.memcpy_h2d(z, util::Buffer::backed_copy(payload));
        });
        const util::Buffer back = log.call(ctx, "core", "d2h", kCmdRoundTrip,
                                           [&] { return ac.memcpy_d2h(z, kCmdRoundTrip); });
        log.data_ok = log.data_ok && same_bytes(back, payload);
      }
      const util::Buffer bx = log.call(ctx, "core", "d2h", vec_bytes,
                                       [&] { return ac.memcpy_d2h(x, vec_bytes); });
      const util::Buffer by = log.call(ctx, "core", "d2h", vec_bytes,
                                       [&] { return ac.memcpy_d2h(y, vec_bytes); });
      log.data_ok = log.data_ok &&
                    same_bytes(bx, std::as_bytes(std::span<const double>(hx))) &&
                    same_bytes(by, std::as_bytes(std::span<const double>(hy)));
      for (const gpu::DevPtr p : {x, y, z}) {
        log.call(ctx, "core", "free", 0, [&] { ac.mem_free(p); });
      }
    });
  };
  u.submit(*cluster, std::move(spec));
  u.run(*cluster);
}

// --- arm-storm ---------------------------------------------------------------
//
// An open-loop Poisson stream of 1000 short jobs against a replicated ARM:
// 16 CN, a 64-accelerator pool and 3 Raft replicas. The job mix is
// bench/abl_scheduler's make_mix, scaled from its 4 GPUs to the 64-slot pool
// at the same offered load per accelerator: a job needs 0, 1, 2 or 3
// accelerators (30/35/20/15%) and holds them for U(5, 40) ms; jobs arrive
// with exponential gaps of mean 8 ms x 4/64 = 0.5 ms. That offers
// 1.2 x 22.5 ms / 0.5 ms = 54 of the 64 accelerators (84%). Priorities are
// uniform over the four classes, as in bench/sched_scale's mixed stream.
// Each held accelerator gets examples/sched_dump's 4 KiB write and
// read-back. Every acquire and release is a replicated Raft write, and
// higher classes preempt lower leases, which revoke+replay must hide.
//
// --heartbeats turns on liveness heartbeats, and --leader-kill kills the
// Raft leader once at a seeded time, as examples/sched_dump does. Neither is
// part of the workload: both expose faults under this load (see README.md).

constexpr int kStormCn = 16;
constexpr int kStormAc = 64;
constexpr int kStormJobs = 1000;
constexpr double kStormGapMs = 8.0 * 4 / kStormAc;  // abl_scheduler: 8 ms / 4 GPUs
constexpr std::uint64_t kStormBytes = 4_KiB;

struct StormJob {
  SimTime arrival = 0;
  int cn = 0;
  std::uint32_t priority = arm::kPriorityNormal;
  std::uint32_t gang = 0;
  SimDuration hold = 0;
  std::uint64_t payload_seed = 0;
};

std::vector<StormJob> storm_plan(std::uint64_t seed) {
  util::Rng rng(seed * 104729 + 17);
  std::vector<StormJob> plan;
  double t_ms = 0.0;
  for (int i = 0; i < kStormJobs; ++i) {
    StormJob j;
    const double p = rng.next_double();
    j.gang = p > 0.85 ? 3 : p > 0.65 ? 2 : p > 0.30 ? 1 : 0;
    t_ms += rng.exponential(1.0 / kStormGapMs);
    j.arrival = static_cast<SimTime>(t_ms * 1e6);
    j.hold = static_cast<SimDuration>(rng.uniform(5.0, 40.0) * 1e6);
    j.priority = static_cast<std::uint32_t>(rng.next_below(arm::kPriorityClasses));
    j.cn = static_cast<int>(rng.next_below(kStormCn));
    j.payload_seed = rng.next_u64();
    plan.push_back(j);
  }
  return plan;
}

std::vector<std::byte> storm_payload(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> out(kStormBytes);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next_u64() & 0xffu);
  return out;
}

void arm_storm(Unit& u, std::uint64_t seed) {
  const std::vector<StormJob> plan = u.setup([&] { return storm_plan(seed); });
  rt::ClusterConfig cc = base_config();
  cc.compute_nodes = kStormCn;
  cc.accelerators = kStormAc;
  cc.functional_gpus = true;
  cc.arm_replicas = 3;
  cc.retry.replace_on_failure = true;
  cc.heartbeat.enabled = u.failover.heartbeats;
  auto cluster = u.build(cc);
  if (u.failover.leader_kill) {
    util::Rng rng(seed * 7 + 3);
    cluster->kill_arm_leader(
        static_cast<SimTime>(rng.next_below(plan.back().arrival)));
  }

  std::vector<SimDuration> waits(plan.size(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const StormJob& sj = plan[i];
    RankLog& log = u.rank();
    rt::JobSpec spec;
    spec.name = "storm" + std::to_string(i);
    spec.priority = sj.priority;
    spec.body = [&log, &sj, wait = &waits[i]](rt::JobContext& job) {
      run_job(job, log, [&] {
        sim::Context& ctx = job.ctx();
        core::Session& session = job.session();
        ctx.wait_until(sj.arrival);
        if (sj.gang == 0) {  // a CPU-only job of the mix
          ctx.wait_for(sj.hold);
          return;
        }
        const std::vector<core::Accelerator*> accs =
            log.call(ctx, "core", "acquire", 0, [&] {
              return session.acquire(
                  arm::ResourceRequest{}.with_count(sj.gang).with_wait(true));
            });
        *wait = ctx.now() - sj.arrival;
        if (accs.size() != sj.gang) throw std::runtime_error("short grant");
        std::vector<gpu::DevPtr> ptrs;
        std::vector<std::vector<std::byte>> sent;
        for (std::size_t a = 0; a < accs.size(); ++a) {
          core::Accelerator& ac = *accs[a];
          ptrs.push_back(log.call(ctx, "core", "alloc", kStormBytes,
                                  [&] { return ac.mem_alloc(kStormBytes); }));
          sent.push_back(storm_payload(sj.payload_seed + a));
          log.call(ctx, "core", "h2d", kStormBytes, [&] {
            ac.memcpy_h2d(ptrs[a], util::Buffer::backed_copy(sent[a]));
          });
        }
        ctx.wait_for(sj.hold);
        for (std::size_t a = 0; a < accs.size(); ++a) {
          core::Accelerator& ac = *accs[a];
          const util::Buffer back = log.call(ctx, "core", "d2h", kStormBytes, [&] {
            return ac.memcpy_d2h(ptrs[a], kStormBytes);
          });
          log.data_ok = log.data_ok && same_bytes(back, sent[a]);
          log.call(ctx, "core", "free", 0, [&] { ac.mem_free(ptrs[a]); });
        }
        for (core::Accelerator* ac : accs) {
          log.call(ctx, "core", "release", 0, [&] { session.release(ac); });
        }
      });
    };
    u.submit(*cluster, std::move(spec), sj.cn);
  }
  u.run(*cluster);

  std::vector<SimDuration> granted;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].gang > 0) granted.push_back(waits[i]);
  }
  for (const SimDuration w : granted) u.digest.mix(w);
  const arm::PoolStats stats = cluster->arm_stats();
  u.check(stats.free == stats.total, "pool did not drain back to all-free");
  u.check(stats.acquisitions >= granted.size(), "fewer grants than jobs");
  u.model["sim_wait_p50_ms"] = 1e-6 * quantile(granted, 0.50);
  u.model["sim_wait_p99_ms"] = 1e-6 * quantile(granted, 0.99);
}

// --- main --------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* backend;
  void (*run)(Unit&, std::uint64_t seed);
};

constexpr std::array<Workload, 4> kWorkloads = {{
    {"paper-sweep", "coroutine", paper_sweep},
    {"mp2c-churn", "parallel:3", mp2c_churn},
    {"cmd-stream", "coroutine", cmd_stream},
    {"arm-storm", "coroutine", arm_storm},
}};

/// Simulated-time share of the `parents` spans (by name) that link calls
/// under them spend blocked in h2d/d2h/drain waits, and the parents' self
/// share (what no link call covers).
struct LinkShare {
  std::uint64_t calls = 0;
  double blocked = 0;
  double self = 0;
};

LinkShare link_share(const Unit& u, const char* layer,
                     std::initializer_list<const char*> parents) {
  SimDuration total = 0, blocked = 0, children = 0;
  LinkShare out;
  for (const auto& log : u.logs) {
    for (const SimSpan& s : log->spans) {
      if (std::strcmp(s.layer, layer) != 0) continue;
      const SimDuration d = s.end - s.begin;
      if (std::any_of(parents.begin(), parents.end(), [&](const char* p) {
            return std::strcmp(p, s.name) == 0;
          })) {
        total += d;
        continue;
      }
      ++out.calls;
      children += d;
      for (const char* b : {"h2d", "h2d_wait", "d2h", "drain"}) {
        if (std::strcmp(s.name, b) == 0) blocked += d;
      }
    }
  }
  if (total > 0) {
    out.blocked = static_cast<double>(blocked) / static_cast<double>(total);
    out.self = 1.0 - static_cast<double>(children) / static_cast<double>(total);
  }
  return out;
}

/// The per-layer metrics of one traced unit (units: see BENCHMARK.json).
std::vector<std::pair<std::string, double>> layer_metrics(const Unit& u) {
  const LayerTotals& t = u.layers;
  std::vector<std::pair<std::string, double>> m;
  auto put = [&](const char* name, double v) { m.emplace_back(name, v); };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  put("sim.events", d(t.events));
  put("sim.switches", d(t.switches));
  put("sim.run_s", u.run_s);
  put("sim.ns_per_event", t.events > 0 ? 1e9 * u.run_s / d(t.events) : 0.0);
  put("sim.stacks_created", d(t.stacks_created));
  put("sim.windows", d(t.windows));
  put("sim.exposed_parallelism",
      t.critical_path_events > 0
          ? d(t.parallel_events) / d(t.critical_path_events)
          : 0.0);
  put("sim.merged_fallbacks", d(t.merged_fallbacks));
  const std::array<std::pair<const char*, sim::WallSink::Phase>, 4> phases = {{
      {"sim.busy_s", sim::WallSink::kBusy},
      {"sim.stall_s", sim::WallSink::kStall},
      {"sim.inbox_s", sim::WallSink::kInbox},
      {"sim.sync_s", sim::WallSink::kSync},
  }};
  for (const auto& [name, phase] : phases) {
    std::uint64_t ns = 0;
    for (int s = 0; s < u.profiler.shards(); ++s) {
      ns += u.profiler.shard_ns(s, phase);
    }
    put(name, 1e-9 * d(ns));
  }

  put("rt.build_s", u.build_s);
  put("rt.jobs", d(u.logs.size()));
  put("rt.jobs_failed", d(u.jobs_failed));

  std::uint64_t ops = 0, failed = 0;
  for (const auto& log : u.logs) {
    ops += log->ops;
    failed += log->failed;
  }
  put("core.ops", d(ops));
  put("core.ops_failed", d(failed));
  for (const char* op : {"h2d", "d2h", "launch", "acquire"}) {
    const std::vector<SimDuration> v = durations(u, "core", op);
    m.emplace_back(std::string("core.") + op + "_p50_us", 1e-3 * quantile(v, 0.50));
    m.emplace_back(std::string("core.") + op + "_p99_us", 1e-3 * quantile(v, 0.99));
  }

  const LinkShare la = link_share(u, "la", {"dgeqrf", "dpotrf"});
  const LinkShare md = link_share(u, "mdsim", {"run_mp2c"});
  put("la.link_calls", d(la.calls));
  put("la.blocked_sim_frac", la.blocked);
  put("la.self_sim_frac", la.self);
  put("mdsim.link_calls", d(md.calls));
  put("mdsim.blocked_sim_frac", md.blocked);

  put("rpc.msgs", d(t.rpc_msgs));
  put("rpc.ops", d(t.rpc_ops));
  put("rpc.msgs_per_op", t.rpc_ops > 0 ? d(t.rpc_msgs) / d(t.rpc_ops) : 0.0);
  put("dmpi.msgs", d(t.dmpi_msgs));
  put("dmpi.bytes", d(t.dmpi_bytes));
  put("dmpi.eager", d(t.dmpi_eager));
  put("dmpi.rendezvous", d(t.dmpi_rendezvous));

  put("net.tx_bytes", d(t.net_tx_bytes));
  put("net.tx_busy_sim_s", 1e-9 * d(t.net_tx_busy_ns));
  put("net.drops", d(t.net_drops));
  put("daemon.requests", d(t.daemon_requests));
  put("daemon.busy_sim_s", 1e-9 * d(t.daemon_busy_ns));
  put("gpu.compute_util", t.gpu_time_ns > 0 ? t.gpu_compute_ns / t.gpu_time_ns : 0.0);
  put("gpu.copy_util", t.gpu_time_ns > 0 ? t.gpu_copy_ns / t.gpu_time_ns : 0.0);

  put("arm.acquisitions", d(t.acquisitions));
  put("arm.preemptions", d(t.preemptions));
  put("arm.revocations", d(t.revocations));
  put("arm.replacements", d(t.replacements));
  put("raft.elections", d(t.elections));
  put("raft.leader_changes", d(t.leader_changes));
  put("raft.commit_index", d(t.commit_index));
  return m;
}

/// Simulated end-to-end results of a unit: the makespan, and whichever
/// results the workload defines.
std::vector<std::pair<std::string, double>> model_metrics(const Unit& u) {
  std::vector<std::pair<std::string, double>> m(u.model.begin(), u.model.end());
  m.emplace(m.begin(), "sim_makespan_s", 1e-9 * static_cast<double>(u.sim_total));
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Chrome trace of one traced unit: dacc_bench's host-time spans (pid 1)
/// and every job rank's simulated-time spans (pid 2, one tid per rank).
void write_chrome_trace(const Unit& u, const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
        "\"dacc_bench, host time\"}},\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
        "\"job ranks, simulated time\"}}";
  char buf[96];
  for (const HostSpan& s : u.host_spans) {
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", 1e6 * s.begin_s,
                  1e6 * (s.end_s - s.begin_s));
    os << ",\n{\"name\":\"" << s.name
       << "\",\"cat\":\"rt\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" << buf
       << "}";
  }
  for (const auto& log : u.logs) {
    for (const SimSpan& s : log->spans) {
      std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", 1e-3 * static_cast<double>(s.begin),
                    1e-3 * static_cast<double>(s.end - s.begin));
      os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
         << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << log->index()
         << ",\"ts\":" << buf << ",\"args\":{\"bytes\":" << s.bytes
         << ",\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    }
  }
  os << "\n]}\n";
}

template <typename T>
void json_array(std::ostream& os, const char* key, const std::vector<T>& v) {
  os << "\"" << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
}

void json_map(std::ostream& os, const char* key,
              const std::vector<std::pair<std::string, double>>& v) {
  os << "\"" << key << "\":{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? "," : "") << "\"" << v[i].first << "\":" << v[i].second;
  }
  os << "}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--trace] "
               "[--heartbeats] [--leader-kill] [--out-dir DIR]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Failover failover;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return usage(argv[0]);
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--heartbeats") {
      failover.heartbeats = true;
    } else if (a == "--leader-kill") {
      failover.leader_kill = true;
    } else if (a == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (workload == nullptr || !(seconds > 0.0)) return usage(argv[0]);

  std::vector<double> wall, cpu, setup, traced_wall;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  bool digests_agree = true;
  std::vector<std::pair<std::string, double>> model;
  std::vector<std::pair<std::string, double>> points;
  std::map<std::string, std::vector<double>> layers;
  std::vector<std::string> layer_order;

  // One unit; returns its wall time. The first unit's digest is the one
  // every later unit, traced or not, must reproduce.
  auto one_unit = [&](bool traced, bool keep, bool last_traced) {
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    double wall_s = 0;
    {
      Unit u(traced, failover);
      workload->run(u, seed);
      u.finish();
      wall_s = seconds_since(t0);
      attempted += u.ops();
      // Every op of a unit whose output check fails counts as failed.
      failed += u.errors.empty() ? u.ops_failed() : u.ops();
      for (const std::string& e : u.errors) {
        if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
          errors.push_back(e);
        }
      }
      if (model.empty()) {
        digest = u.digest.h;
        model = model_metrics(u);
        points.assign(u.points.begin(), u.points.end());
      } else if (u.digest.h != digest) {
        digests_agree = false;
      }
      if (traced) {
        for (const auto& [name, v] : layer_metrics(u)) {
          if (layers.find(name) == layers.end()) layer_order.push_back(name);
          layers[name].push_back(v);
        }
        if (last_traced) {
          write_chrome_trace(u, out_dir + "/" + workload->name + ".trace.json");
        }
      }
      if (keep) {
        (traced ? traced_wall : wall).push_back(wall_s);
        if (!traced) {
          cpu.push_back(cpu_seconds() - c0);
          setup.push_back(u.setup_s);
        }
      }
    }
    return wall_s;
  };

  // Discarded warm-up, then untraced units for the run's time budget (half
  // of it when traced units follow). At least three units each way.
  one_unit(false, false, false);
  const double untraced_budget = trace ? seconds / 2 : seconds;
  double spent = 0;
  while (wall.size() < 3 || spent < untraced_budget) {
    spent += one_unit(false, true, false);
  }
  if (trace) {
    // The traced phase gets the rest of the budget; the last traced unit
    // writes the Chrome trace.
    double traced_spent = 0;
    const double unit_s = median(wall);
    for (;;) {
      const bool last = traced_wall.size() >= 2 &&
                        traced_spent + 1.2 * unit_s >= seconds - spent;
      traced_spent += one_unit(true, true, last);
      if (last) break;
    }
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << workload->name << "\",\"seed\":" << seed
     << ",\"trace\":" << (trace ? "true" : "false") << ",\"stamp\":{"
     << "\"host_cores\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":\"" << DACC_BENCH_BUILD_TYPE << "\""
     << ",\"sanitizer\":" << (kSanitizerBuild ? "true" : "false")
     << ",\"backend\":\"" << workload->backend << "\""
     << ",\"heartbeats\":" << (failover.heartbeats ? "true" : "false")
     << ",\"leader_kill\":" << (failover.leader_kill ? "true" : "false")
     << "},"
     << "\"units\":" << wall.size() << ",";
  json_array(os, "wall_s", wall);
  os << ",";
  json_array(os, "cpu_s", cpu);
  os << ",";
  json_array(os, "setup_s", setup);
  os << ",\"peak_rss_mb\":" << peak_rss_mib() << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"digest\":\"" << hex(digest)
     << "\",\"digests_agree\":" << (digests_agree ? "true" : "false")
     << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? "," : "") << "\"" << json_escape(errors[i]) << "\"";
  }
  os << "],";
  json_map(os, "model", model);
  os << ",";
  json_map(os, "points", points);
  if (trace) {
    std::vector<std::pair<std::string, double>> med;
    for (const std::string& name : layer_order) {
      med.emplace_back(name, median(layers[name]));
    }
    med.emplace_back("obs.trace_overhead_pct",
                     100.0 * (median(traced_wall) / median(wall) - 1.0));
    os << ",";
    json_map(os, "layers", med);
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace
}  // namespace dacc::perfbench

int main(int argc, char** argv) {
  try {
    return dacc::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dacc_bench: %s\n", e.what());
    return 1;
  }
}
