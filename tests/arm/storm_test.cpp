// Failover fault 3 as a tier-1 regression: the arm-storm stream run longer
// (1,500 jobs, seed 73). Proxies of different jobs on one CN rank address
// the same daemon at once, and each reply must reach the proxy that asked
// for it. If two of them mint the same reply tag, one takes the other's
// parked D2H status ("wire: truncated message"), the run throws and the
// jobs behind it never finish (DESIGN.md §8, §10).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/storm.hpp"
#include "common/testbed.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

TEST(ArmStorm, LongStreamDrainsWithEveryJobAccounted) {
  const std::vector<testing::StormJob> plan = testing::storm_plan(73, 1500);
  testing::JobLedger ledger;
  rt::Cluster cluster(testing::storm_config());
  testing::FlightOnFailure flight(cluster);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    rt::JobSpec spec = testing::storm_job(plan[i], i);
    ledger.track(spec);
    cluster.submit(std::move(spec), plan[i].cn);
  }

  // The stream drains at 843 ms of simulated time; the budget leaves room
  // for slower queueing, not for a run that never ends.
  EXPECT_TRUE(testing::run_within(cluster, 2'000_ms));
  EXPECT_TRUE(ledger.every_job_accounted());
  EXPECT_EQ(ledger.failed(), 0u) << ::testing::PrintToString(ledger.failures());
  const PoolStats stats = cluster.arm_stats();
  EXPECT_EQ(stats.free, stats.total) << "pool did not drain back to all-free";
}

}  // namespace
}  // namespace dacc::arm
