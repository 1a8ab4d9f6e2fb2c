// Shared test scaffolding: a bare N-rank dmpi world (MpiBed), whole-cluster
// helpers (small_cluster / run_job) and the cluster-level oracles
// (JobLedger, run_within), so the dmpi, arm, rt and recovery suites stop
// growing private copies of the same fixtures.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "dmpi/mpi.hpp"
#include "rt/cluster.hpp"

namespace dacc::testing {

/// An N-rank dmpi world with one fabric node per rank.
class MpiBed {
 public:
  explicit MpiBed(int ranks, dmpi::MpiParams params = {},
                  net::FabricParams fabric_params = {})
      : fabric_(engine_, ranks, fabric_params),
        world_(engine_, fabric_, make_nodes(ranks), params) {}

  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return fabric_; }
  dmpi::World& world() { return world_; }
  const dmpi::Comm& comm() { return world_.world_comm(); }

  /// Spawns one process per entry; entry i runs as world rank i. Runs the
  /// simulation to completion.
  void run(std::vector<std::function<void(dmpi::Mpi&, sim::Context&)>> mains) {
    for (std::size_t i = 0; i < mains.size(); ++i) {
      auto fn = std::move(mains[i]);
      engine_.spawn("rank" + std::to_string(i),
                    [this, i, fn = std::move(fn)](sim::Context& ctx) {
                      dmpi::Mpi mpi(world_, ctx, static_cast<dmpi::Rank>(i));
                      fn(mpi, ctx);
                    });
    }
    engine_.run();
  }

 private:
  static std::vector<net::NodeId> make_nodes(int ranks) {
    std::vector<net::NodeId> nodes(static_cast<std::size_t>(ranks));
    std::iota(nodes.begin(), nodes.end(), 0);
    return nodes;
  }

  sim::Engine engine_;
  net::Fabric fabric_;
  dmpi::World world_;
};

/// Default small cluster used by the middleware suites.
inline rt::ClusterConfig small_cluster(int cns = 2, int acs = 3) {
  rt::ClusterConfig c;
  c.compute_nodes = cns;
  c.accelerators = acs;
  return c;
}

/// Replicated-ARM cluster (DESIGN.md §11): the lease table lives behind
/// `replicas` Raft nodes instead of a single ARM rank. Same shape as
/// small_cluster otherwise, so suites can run the identical job body
/// against both deployments.
inline rt::ClusterConfig replicated_cluster(int cns = 2, int acs = 3,
                                            int replicas = 3,
                                            std::uint64_t seed = 0xDACC'5EEDull) {
  rt::ClusterConfig c = small_cluster(cns, acs);
  c.arm_replicas = replicas;
  c.raft.seed = seed;
  return c;
}

/// Runs `body` as a single job rank on a fresh cluster.
inline void run_job(rt::ClusterConfig config,
                    std::function<void(rt::JobContext&)> body) {
  rt::Cluster cluster(std::move(config));
  rt::JobSpec spec;
  spec.body = std::move(body);
  cluster.submit(spec);
  cluster.run();
}

/// Job-outcome oracle: every submitted job rank either completes or fails
/// with a reported reason. A rank that does neither was lost — a reply
/// that never came, a proxy that wedged, or a run cut short by a failed
/// process. Track every job before the cluster runs: each rank's outcome
/// slot is allocated then and written only by that rank.
class JobLedger {
 public:
  JobLedger() = default;
  JobLedger(const JobLedger&) = delete;  // tracked bodies hold its address
  JobLedger& operator=(const JobLedger&) = delete;

  /// Wraps `spec.body` so that each rank records its outcome: completion,
  /// or the message of the exception that ended it.
  void track(rt::JobSpec& spec) {
    const std::size_t first = outcomes_.size();
    outcomes_.resize(first + static_cast<std::size_t>(spec.ranks));
    spec.body = [this, first, name = spec.name,
                 body = std::move(spec.body)](rt::JobContext& job) {
      Outcome& out = outcomes_[first + static_cast<std::size_t>(job.rank())];
      out.job = name + "-r" + std::to_string(job.rank());
      try {
        body(job);
        out.done = true;
      } catch (const std::exception& e) {
        out.reason = e.what();
        if (out.reason.empty()) out.reason = "unnamed exception";
      }
    };
  }

  std::size_t ranks() const { return outcomes_.size(); }
  std::size_t completed() const {
    std::size_t n = 0;
    for (const Outcome& o : outcomes_) n += o.done ? 1 : 0;
    return n;
  }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const Outcome& o : outcomes_) n += o.reason.empty() ? 0 : 1;
    return n;
  }

  /// Passes when every tracked rank completed or reported why it failed;
  /// otherwise names the count and the first ranks that did neither.
  ::testing::AssertionResult every_job_accounted() const {
    const std::size_t lost = ranks() - completed() - failed();
    if (lost == 0) return ::testing::AssertionSuccess();
    ::testing::AssertionResult r = ::testing::AssertionFailure();
    r << lost << " of " << ranks()
      << " job ranks neither completed nor failed with a reason:";
    int named = 0;
    for (std::size_t i = 0; i < outcomes_.size() && named < 5; ++i) {
      if (outcomes_[i].done || !outcomes_[i].reason.empty()) continue;
      r << " #" << i << (outcomes_[i].job.empty() ? " (never started)" : "");
      ++named;
    }
    return r;
  }

  /// Failure reasons, for diagnostics: "<job>-r<rank>: <reason>".
  std::vector<std::string> failures() const {
    std::vector<std::string> out;
    for (const Outcome& o : outcomes_) {
      if (!o.reason.empty()) out.push_back(o.job + ": " + o.reason);
    }
    return out;
  }

 private:
  struct Outcome {
    std::string job;  ///< set when the rank starts
    bool done = false;
    std::string reason;
  };
  std::vector<Outcome> outcomes_;
};

/// Liveness oracle: Cluster::run returns within `budget` of simulated time.
/// The run stops at the budget instead of spinning on forever when the
/// event queue never drains (a livelock keeps the clock moving). A failed
/// process ends the run early; its message is reported too. Like
/// Engine::run_until, a run that drains leaves the clock at `budget`.
inline ::testing::AssertionResult run_within(rt::Cluster& cluster,
                                             SimTime budget) {
  try {
    if (cluster.engine().run_until(budget)) {
      return ::testing::AssertionFailure()
             << "Cluster::run did not return within " << budget
             << " ns of simulated time";
    }
    cluster.run();  // empty queue: the quiescence check and flight dump
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "Cluster::run threw: " << e.what();
  }
  return ::testing::AssertionSuccess();
}

/// Post-mortem on test failure: construct one of these next to a Cluster
/// and, if the enclosing gtest test has failed by the time the scope ends,
/// the cluster's flight recorder is dumped to stderr — the last N control-
/// plane events (elections, revocations, retries, chaos) that led up to
/// the failing assertion.
class FlightOnFailure {
 public:
  explicit FlightOnFailure(rt::Cluster& cluster) : cluster_(cluster) {}
  FlightOnFailure(const FlightOnFailure&) = delete;
  FlightOnFailure& operator=(const FlightOnFailure&) = delete;
  ~FlightOnFailure() {
    if (::testing::Test::HasFailure()) {
      std::cerr << "[flight recorder post-mortem]\n";
      cluster_.dump_flight_recorder(std::cerr);
    }
  }

 private:
  rt::Cluster& cluster_;
};

}  // namespace dacc::testing

namespace dacc::dmpi::testing {
// Compatibility alias for the suites written against the old per-directory
// fixture name.
using TestBed = dacc::testing::MpiBed;
}  // namespace dacc::dmpi::testing
