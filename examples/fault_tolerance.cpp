// Fault tolerance (paper Section III.A): a broken accelerator does not take
// its compute node down.
//
// Part 1 recovers by hand: the job catches the ECC failure, reports the
// device to the resource manager, acquires a healthy replacement, and
// finishes its work.
//
// Part 2 lets the middleware do all of that transparently: with
// `retry.replace_on_failure` the session re-acquires a healthy accelerator
// behind the app's back and replays the allocation map, so the job body has
// no error handling at all — the device dies mid-run and the loop simply
// keeps going. Heartbeats revoke the dead accelerator's lease at the ARM.
// The run ends with the cluster's flight-recorder dump: the injected fault,
// the ARM's detection and the replacement, in causal order.
//
//   $ ./examples/fault_tolerance
#include <cstdio>
#include <iostream>

#include "core/api.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

using namespace dacc;

// Part 1: explicit recovery through the resource-management API.
void manual_recovery() {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 2;
  rt::Cluster cluster(config);

  // The first accelerator dies 5 ms into the run.
  cluster.break_accelerator(0, 5_ms);

  rt::JobSpec job;
  job.name = "resilient";
  job.body = [](rt::JobContext& ctx) {
    auto acs = ctx.session().acquire(1, /*wait=*/true);
    core::Accelerator* ac = acs[0];
    std::printf("working on accelerator (daemon rank %d)\n",
                ac->daemon_rank());

    const std::int64_t n = 1 << 18;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    int completed = 0;
    gpu::DevPtr p = ac->mem_alloc(bytes);
    for (int round = 0; round < 40; ++round) {
      try {
        ac->launch("fill_f64", {}, {p, n, static_cast<double>(round)});
        (void)ac->memcpy_d2h(p, bytes);
        ++completed;
      } catch (const core::AcError& e) {
        std::printf(
            "round %d: accelerator failed (%s) at t=%.2f ms — compute node "
            "unaffected\n",
            round, gpu::to_string(e.code()), to_ms(ctx.ctx().now()));
        // Tell the ARM, drop the lease, get a healthy replacement.
        ctx.session().arm().report_broken(ac->daemon_rank());
        ctx.session().release(ac);
        auto replacement = ctx.session().acquire(1, /*wait=*/true);
        ac = replacement[0];
        p = ac->mem_alloc(bytes);
        std::printf("resumed on replacement accelerator (daemon rank %d)\n",
                    ac->daemon_rank());
      }
    }
    std::printf("completed %d/40 rounds; final check: ", completed);
    auto out = ac->memcpy_d2h(p, bytes);
    std::printf("%s\n", out.as<double>()[0] == 39.0 ? "PASSED" : "FAILED");
  };
  cluster.submit(job);
  cluster.run();

  const auto stats = cluster.arm_stats();
  std::printf("pool at end: %u broken, %u free of %u\n", stats.broken,
              stats.free, stats.total);
}

// Part 2: the same failure, survived with zero application-side handling.
void transparent_replacement() {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 2;
  // Heartbeats revoke leases on silent accelerators; the retry policy
  // times out lost requests and swaps in a healthy device on failure.
  config.heartbeat.enabled = true;
  config.retry.request_timeout = 5_ms;
  config.retry.replace_on_failure = true;
  rt::Cluster cluster(config);

  cluster.break_accelerator(0, 5_ms);

  rt::JobSpec job;
  job.name = "oblivious";
  job.body = [](rt::JobContext& ctx) {
    auto acs = ctx.session().acquire(1, /*wait=*/true);
    core::Accelerator& ac = *acs[0];
    const dmpi::Rank first = ac.daemon_rank();

    const std::int64_t n = 1 << 18;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    // No try/catch anywhere: the middleware replays the allocation and
    // re-drives the failed operation on the replacement device.
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    for (int round = 0; round < 40; ++round) {
      ac.launch("fill_f64", {}, {p, n, static_cast<double>(round)});
      (void)ac.memcpy_d2h(p, bytes);
    }
    auto out = ac.memcpy_d2h(p, bytes);
    std::printf("all 40 rounds completed; device death %s to the job; "
                "final check: %s\n",
                ac.daemon_rank() == first ? "invisible (no failure hit)"
                                          : "transparent",
                out.as<double>()[0] == 39.0 ? "PASSED" : "FAILED");
  };
  cluster.submit(job);
  cluster.run();

  const auto stats = cluster.arm_stats();
  std::printf(
      "pool at end: %u broken, %u replacement(s), %u revocation(s), "
      "%llu heartbeat(s)\n",
      stats.broken, stats.replacements, stats.revocations,
      static_cast<unsigned long long>(stats.heartbeats));
  cluster.dump_flight_recorder(std::cout);
}

int main() {
  std::printf("--- part 1: manual recovery ---\n");
  manual_recovery();
  std::printf("--- part 2: transparent replacement ---\n");
  transparent_replacement();
  return 0;
}
