// Flight recorder (DESIGN.md §9.1): a fixed-size ring of rare control-plane
// events — revocations, elections, failovers, wire errors, chaos faults —
// dumped for post-mortems. The ring must overwrite oldest-first, replay in
// causal order, and capture a seeded leader-kill chaos run and an injected
// link fault, whose dump after the run carries the batch's trace id.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/chaos.hpp"
#include "common/testbed.hpp"
#include "core/api.hpp"
#include "obs/flight.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::obs {
namespace {

using dacc::testing::ChaosSchedule;
using dacc::testing::replicated_cluster;

// ---------------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------------

TEST(FlightRing, OverwritesOldestWhenFull) {
  FlightRecorder fr(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    fr.note(static_cast<SimTime>(i), "test", "event-" + std::to_string(i));
  }
  EXPECT_EQ(fr.recorded(), 10u);
  const std::vector<FlightRecorder::Event> events = fr.events();
  ASSERT_EQ(events.size(), 4u);
  // Only the newest four survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].what, "event-" + std::to_string(6 + i));
  }
  fr.clear();
  EXPECT_TRUE(fr.events().empty());
  EXPECT_EQ(fr.recorded(), 0u);
}

TEST(FlightRing, ReplaysInCausalOrder) {
  FlightRecorder fr;
  // Noted out of time order (a fault injected ahead of time is noted when
  // it is scheduled, at the time it strikes): replay sorts by simulated
  // time, the order the notes were applied in breaking ties.
  fr.note(30, "c", "third");
  fr.note(10, "a", "first");
  fr.note(20, "b", "second");
  fr.note(20, "b", "second-bis");
  const std::vector<FlightRecorder::Event> events = fr.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].what, "first");
  EXPECT_EQ(events[1].what, "second");
  EXPECT_EQ(events[2].what, "second-bis");
  EXPECT_EQ(events[3].what, "third");
  std::uint64_t prev_seq = 0;
  SimTime prev_time = 0;
  for (const auto& e : events) {
    EXPECT_TRUE(e.time > prev_time || (e.time == prev_time && e.seq > prev_seq) ||
                &e == &events.front());
    prev_time = e.time;
    prev_seq = e.seq;
  }
}

TEST(FlightRing, DumpNamesCoverageAndCarriesTraceIds) {
  FlightRecorder fr(/*capacity=*/8);
  fr.note(1'000, "fe", "retry ladder exhausted", /*trace_id=*/0xabcd);
  for (int i = 0; i < 12; ++i) fr.note(2'000 + i, "noise", "filler");
  const std::string dump = fr.dump();
  EXPECT_NE(dump.find("8 of 13 events (capacity 8)"), std::string::npos)
      << dump;
  // The overwritten head is gone; the survivors carry their ids.
  EXPECT_EQ(dump.find("retry ladder"), std::string::npos);
  EXPECT_NE(dump.find("[noise] filler"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Seeded leader-kill chaos run
// ---------------------------------------------------------------------------

TEST(FlightChaos, LeaderKillRunProducesAPostMortem) {
  rt::ClusterConfig config = replicated_cluster(/*cns=*/1, /*acs=*/2);
  config.functional_gpus = false;
  rt::Cluster cluster(config);
  const dacc::testing::FlightOnFailure post_mortem(cluster);
  ChaosSchedule::leader_kills(/*seed=*/11, /*count=*/1, 1_ms, 3_ms, 1_ms)
      .arm(cluster);

  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(1_MiB);
    for (int i = 0; i < 40; ++i) {
      ac.memcpy_h2d(p, util::Buffer::phantom(256_KiB));
    }
  };
  cluster.submit(job);
  cluster.run();

  // The recorder saw the kill and the consensus layer's reaction to it —
  // no tracer, no metrics registry needed: the flight tier is always on.
  const std::string dump = cluster.flight().dump();
  EXPECT_NE(dump.find("[chaos] kill-leader-r"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[raft]"), std::string::npos)
      << "no consensus events around the kill:\n"
      << dump;
  // Causal order: the chaos kill precedes the election it triggers.
  const std::vector<FlightRecorder::Event> events = cluster.flight().events();
  SimTime kill_at = 0;
  SimTime election_at = 0;
  for (const auto& e : events) {
    if (kill_at == 0 && e.category == "chaos" &&
        e.what.rfind("kill-leader-", 0) == 0) {
      kill_at = e.time;
    }
    if (kill_at != 0 && election_at == 0 && e.category == "raft" &&
        e.what.find("election") != std::string::npos) {
      election_at = e.time;
    }
  }
  ASSERT_NE(kill_at, 0) << "chaos kill not recorded";
  ASSERT_NE(election_at, 0) << "no election event after the kill";
  EXPECT_GT(election_at, kill_at);
}

// ---------------------------------------------------------------------------
// Injected device fault, dumped after the run
// ---------------------------------------------------------------------------

TEST(FlightChaos, InjectedFaultDumpsWithTraceIds) {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 1;
  config.functional_gpus = false;
  config.trace = true;  // traced stream: flight events carry trace ids
  config.batch = {/*enabled=*/true, /*watermark=*/16};
  config.retry.request_timeout = 1_ms;  // detect the dead link, don't hang
  rt::Cluster cluster(config);
  // Fail the accelerator's fabric link mid-run: the front-end's batched
  // retry ladder runs dry and notes it to the recorder under the batch's
  // trace id.
  cluster.fail_accelerator_link(0, 2_ms);

  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(64_KiB);
    // Outlive the link: sync copies until past the cut...
    for (int i = 0; i < 200 && ctx.ctx().now() < 3_ms; ++i) {
      try {
        ac.memcpy_h2d(p, util::Buffer::phantom(64_KiB));
      } catch (const core::AcError&) {
        break;  // the link died under us — exactly the post-mortem case
      }
    }
    // ...then flush an async burst into the dead link. The batch times
    // out, the retry ladder exhausts, and the flight recorder hears it.
    std::vector<core::Future> burst;
    for (int i = 0; i < 8; ++i) {
      burst.push_back(
          ac.launch_async("dscal", {}, {std::int64_t{16}, 2.0, p}));
    }
    ctx.session().wait_all(burst);
  };
  cluster.submit(job);
  cluster.run();

  // The chaos event itself is in the ring...
  const std::vector<FlightRecorder::Event> events = cluster.flight().events();
  bool chaos_seen = false;
  bool traced_event = false;
  for (const auto& e : events) {
    if (e.category == "chaos") chaos_seen = true;
    if (e.trace_id != 0) traced_event = true;
  }
  EXPECT_TRUE(chaos_seen);
  EXPECT_TRUE(traced_event)
      << "no flight event carried a trace id on a traced run";

  // ...and the post-mortem the caller asks for after the run renders both.
  std::ostringstream dump;
  cluster.dump_flight_recorder(dump);
  EXPECT_NE(dump.str().find("=== flight recorder:"), std::string::npos);
  EXPECT_NE(dump.str().find("[chaos]"), std::string::npos);
  EXPECT_NE(dump.str().find(" trace=0x"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Explicit dump hook
// ---------------------------------------------------------------------------

TEST(FlightChaos, ExplicitDumpWorksWithoutFaults) {
  rt::Cluster cluster(dacc::testing::small_cluster(1, 1));
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    (void)ctx.session()[0].mem_alloc(4_KiB);
  };
  cluster.submit(job);
  cluster.run();
  std::ostringstream os;
  cluster.dump_flight_recorder(os);
  EXPECT_NE(os.str().find("=== flight recorder:"), std::string::npos);
}

}  // namespace
}  // namespace dacc::obs
