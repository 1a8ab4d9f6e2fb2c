// Command-stream batching: the kBatch codec, its error surfacing, and the
// end-to-end message-count win through the full stack (ISSUE: batched
// streams must cut the two-MPI-messages-per-request cost by >= 30% on
// small-op churn while leaving results bit-identical).
#include "rpc/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>

#include "core/api.hpp"
#include "sim/trace.hpp"
#include "proto/wire.hpp"
#include "rpc/channel.hpp"
#include "rt/cluster.hpp"
#include "util/units.hpp"

namespace dacc::rpc {
namespace {

using proto::Op;
using proto::WireError;
using proto::WireReader;
using proto::WireWriter;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

std::vector<BatchItem> sample_items() {
  std::vector<BatchItem> items;
  BatchItem alloc;
  alloc.op = Op::kMemAlloc;
  alloc.arg = 4096;
  items.push_back(alloc);
  BatchItem run;
  run.op = Op::kKernelRun;
  run.kernel = "dscal";
  run.launch.grid.x = 8;
  run.args = {std::int64_t{512}, 2.0, gpu::DevPtr{0xdead0000}};
  items.push_back(run);
  BatchItem check;
  check.op = Op::kKernelCreate;
  check.kernel = "daxpy";
  items.push_back(check);
  BatchItem free_op;
  free_op.op = Op::kMemFree;
  free_op.arg = 0xdead0000;
  items.push_back(free_op);
  return items;
}

TEST(BatchCodec, RoundTripsEveryBatchableOp) {
  const std::vector<BatchItem> in = sample_items();
  std::vector<const BatchItem*> refs;
  for (const BatchItem& item : in) refs.push_back(&item);
  WireWriter w;
  encode_batch(w, refs);
  WireReader r(w.finish());
  const std::vector<BatchItem> out = decode_batch(r);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out[0].op, Op::kMemAlloc);
  EXPECT_EQ(out[0].arg, 4096u);
  EXPECT_EQ(out[1].op, Op::kKernelRun);
  EXPECT_EQ(out[1].kernel, "dscal");
  EXPECT_EQ(out[1].launch.grid.x, 8u);
  ASSERT_EQ(out[1].args.size(), 3u);
  EXPECT_EQ(std::get<gpu::DevPtr>(out[1].args[2]), gpu::DevPtr{0xdead0000});
  EXPECT_EQ(out[2].op, Op::kKernelCreate);
  EXPECT_EQ(out[2].kernel, "daxpy");
  EXPECT_EQ(out[3].op, Op::kMemFree);
  EXPECT_EQ(out[3].arg, 0xdead0000u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BatchCodec, ReplyRoundTrips) {
  const std::vector<BatchResult> in = {
      {gpu::Result::kSuccess, gpu::DevPtr{0x1000}},
      {gpu::Result::kOutOfMemory, gpu::kNullDevPtr},
  };
  const std::vector<BatchResult> out =
      decode_batch_reply(encode_batch_reply(in), 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].status, gpu::Result::kSuccess);
  EXPECT_EQ(out[0].ptr, gpu::DevPtr{0x1000});
  EXPECT_EQ(out[1].status, gpu::Result::kOutOfMemory);
}

TEST(BatchCodec, BareStatusReplyExpandsToWholeBatch) {
  // A server rejecting the whole batch answers with a plain status frame;
  // the client must see one (identical) status per sub-request, never a
  // partial reply.
  const util::Buffer bare =
      WireWriter{}.result(gpu::Result::kInvalidValue).finish();
  const std::vector<BatchResult> out = decode_batch_reply(bare.view(), 3);
  ASSERT_EQ(out.size(), 3u);
  for (const BatchResult& r : out) {
    EXPECT_EQ(r.status, gpu::Result::kInvalidValue);
    EXPECT_EQ(r.ptr, gpu::kNullDevPtr);
  }
}

TEST(BatchCodec, ReplyCountMismatchThrows) {
  const std::vector<BatchResult> in = {{gpu::Result::kSuccess, 0}};
  EXPECT_THROW((void)decode_batch_reply(encode_batch_reply(in), 2),
               WireError);
}

TEST(BatchCodec, EmptyBatchRejected) {
  WireReader r(WireWriter{}.u32(0).finish());
  EXPECT_THROW((void)decode_batch(r), WireError);
}

TEST(BatchCodec, CountOverflowNamesTheFrame) {
  // Claimed count far beyond what the frame could hold must be rejected up
  // front (no quadratic work, no partial decode).
  WireReader r(WireWriter{}.u32(1'000'000).u64(0).finish());
  try {
    (void)decode_batch(r);
    FAIL() << "count overflow not rejected";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
}

TEST(BatchCodec, TruncatedSubRequestNamesIndexAndOp) {
  // Two sub-requests; the second one's u64 body is cut short.
  WireWriter w;
  w.u32(2);
  w.u32(static_cast<std::uint32_t>(Op::kMemAlloc)).u64(64);
  w.u32(static_cast<std::uint32_t>(Op::kMemFree)).u32(0xabcd);  // half a u64
  WireReader r(w.finish());
  try {
    (void)decode_batch(r);
    FAIL() << "truncated sub-request not rejected";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sub-request 1"), std::string::npos) << what;
    EXPECT_NE(what.find("MemFree"), std::string::npos) << what;
  }
}

TEST(BatchCodec, InnerTraceFlagRejected) {
  // Trace context belongs to the batch header; a flagged inner op word is
  // a framing violation, not a nested trace.
  WireWriter w;
  w.u32(1);
  w.u32(static_cast<std::uint32_t>(Op::kMemAlloc) | proto::kTraceContextFlag)
      .u64(64);
  WireReader r(w.finish());
  try {
    (void)decode_batch(r);
    FAIL() << "inner trace flag not rejected";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace flag"), std::string::npos) << what;
    EXPECT_NE(what.find("sub-request 0"), std::string::npos) << what;
  }
}

TEST(BatchCodec, NonBatchableInnerOpRejected) {
  // Bulk transfers keep the zero-copy pipeline; a kMemcpyHtoD inside a
  // batch frame can only be a corrupt or adversarial client.
  WireWriter w;
  w.u32(1);
  w.u32(static_cast<std::uint32_t>(Op::kMemcpyHtoD)).u64(0).u64(0);
  WireReader r(w.finish());
  try {
    (void)decode_batch(r);
    FAIL() << "non-batchable inner op not rejected";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not batchable"), std::string::npos) << what;
    EXPECT_NE(what.find("MemcpyHtoD"), std::string::npos) << what;
  }
}

TEST(BatchCodec, BatchableSetIsExactlyTheSmallControlOps) {
  EXPECT_TRUE(batchable(Op::kMemAlloc));
  EXPECT_TRUE(batchable(Op::kMemFree));
  EXPECT_TRUE(batchable(Op::kKernelCreate));
  EXPECT_TRUE(batchable(Op::kKernelRun));
  EXPECT_FALSE(batchable(Op::kMemcpyHtoD));
  EXPECT_FALSE(batchable(Op::kMemcpyDtoH));
  EXPECT_FALSE(batchable(Op::kDeviceInfo));
  EXPECT_FALSE(batchable(Op::kPeerSend));
  EXPECT_FALSE(batchable(Op::kShutdown));
  EXPECT_FALSE(batchable(Op::kBatch));  // no nesting
}

// ---------------------------------------------------------------------------
// End-to-end through the full stack
// ---------------------------------------------------------------------------

struct ChurnOutcome {
  double checksum = 0.0;
  std::uint64_t rpc_msgs = 0;    ///< dacc_rpc_msgs_total{chan="fe-r0"}
  std::uint64_t rpc_ops = 0;     ///< dacc_rpc_ops_total{chan="fe-r0"}
  std::uint64_t flushes = 0;     ///< dacc_rpc_batch_size count
  std::uint64_t flushed_ops = 0; ///< dacc_rpc_batch_size sum
};

/// An async small-op churn stream: one bulk upload, then a burst of 24
/// async launches (the command stream), one readback, one free.
ChurnOutcome run_churn(rpc::StreamConfig batch) {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 1;
  config.metrics = true;
  config.batch = batch;
  rt::Cluster cluster(config);

  auto checksum = std::make_shared<double>(0.0);
  rt::JobSpec job;
  job.name = "churn";
  job.accelerators_per_rank = 1;
  job.body = [checksum](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const std::int64_t n = 512;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    std::vector<double> host(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = static_cast<double>(i % 17) + 0.25;
    }
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    ac.memcpy_h2d(p, util::Buffer::of<double>(std::span<const double>(host)));
    std::vector<core::Future> burst;
    for (int i = 0; i < 24; ++i) {
      burst.push_back(ac.launch_async("dscal", {}, {n, 1.0 + 0.01 * i, p}));
    }
    ctx.session().wait_all(burst);
    for (core::Future& f : burst) {
      ASSERT_EQ(f.status(), gpu::Result::kSuccess);
    }
    util::Buffer out = ac.memcpy_d2h(p, bytes);
    const auto view = out.as<double>();
    *checksum = std::accumulate(view.begin(), view.end(), 0.0);
    ac.mem_free(p);
  };
  cluster.submit(job);
  cluster.run();

  const obs::Registry& m = cluster.metrics();
  const std::string chan = "{chan=\"fe-r" +
                           std::to_string(cluster.cn_rank(0)) + "\"}";
  ChurnOutcome o;
  o.checksum = *checksum;
  o.rpc_msgs = m.counter_value("dacc_rpc_msgs_total" + chan);
  o.rpc_ops = m.counter_value("dacc_rpc_ops_total" + chan);
  o.flushes = m.histogram_count("dacc_rpc_batch_size" + chan);
  o.flushed_ops = m.histogram_sum("dacc_rpc_batch_size" + chan);
  return o;
}

TEST(CommandStream, AsyncBurstCoalescesUnderWatermark) {
  const ChurnOutcome o = run_churn({/*enabled=*/true, /*watermark=*/16});
  // 28 ops total: alloc + h2d + 24 launches + d2h + free. The launch burst
  // is fully enqueued before the proxy runs, so it flushes as 16 + 8.
  EXPECT_EQ(o.rpc_ops, 28u);
  EXPECT_EQ(o.flushed_ops, 28u);
  EXPECT_LT(o.flushes, 10u);  // far fewer command groups than ops
  EXPECT_GT(o.rpc_ops, o.rpc_msgs);  // fewer messages than ops: batched
}

TEST(CommandStream, WatermarkBoundsFlushSize) {
  const ChurnOutcome small = run_churn({/*enabled=*/true, /*watermark=*/4});
  // 24 launches at watermark 4 need at least 6 flushes (plus the four
  // unbatchable/lone ops around them).
  EXPECT_EQ(small.flushed_ops, 28u);
  EXPECT_GE(small.flushes, 10u);
}

TEST(CommandStream, MessageCountDropsAtLeastThirtyPercent) {
  // The ISSUE's regression guard: batching must cut the front-end message
  // count for op-dense streams by >= 30% versus the unbatched wire.
  const ChurnOutcome off = run_churn({/*enabled=*/false, /*watermark=*/16});
  const ChurnOutcome on = run_churn({/*enabled=*/true, /*watermark=*/16});
  EXPECT_EQ(off.rpc_ops, on.rpc_ops);
  ASSERT_GT(off.rpc_msgs, 0u);
  const double ratio = static_cast<double>(on.rpc_msgs) /
                       static_cast<double>(off.rpc_msgs);
  EXPECT_LE(ratio, 0.7) << "batched msgs " << on.rpc_msgs << " vs unbatched "
                        << off.rpc_msgs;
  // Committed msgs-per-op ceiling for the batched churn stream (unbatched
  // runs at >= 2.0: request + response per op).
  const double per_op = static_cast<double>(on.rpc_msgs) /
                        static_cast<double>(on.rpc_ops);
  EXPECT_LE(per_op, 1.4);
}

TEST(CommandStream, SimulatedResultsMatchUnbatched) {
  // Batching changes the wire, not the computation: the readback checksum
  // must be bit-identical with and without it.
  const ChurnOutcome off = run_churn({/*enabled=*/false, /*watermark=*/16});
  const ChurnOutcome on = run_churn({/*enabled=*/true, /*watermark=*/16});
  EXPECT_EQ(off.checksum, on.checksum);
  EXPECT_NE(off.checksum, 0.0);
}

TEST(CommandStream, SynchronousCallsNeverBatch) {
  // A sync caller blocks on each future, so its ops are always alone in the
  // mailbox: with batching enabled every flush is still a group of one and
  // the wire stays byte-identical to the legacy format.
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 1;
  config.metrics = true;
  config.batch = {/*enabled=*/true, /*watermark=*/16};
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(1_KiB);
    ac.launch("dscal", {}, {std::int64_t{128}, 2.0, p});
    ac.mem_free(p);
  };
  cluster.submit(job);
  cluster.run();
  const obs::Registry& m = cluster.metrics();
  const std::string chan = "{chan=\"fe-r" +
                           std::to_string(cluster.cn_rank(0)) + "\"}";
  EXPECT_EQ(m.histogram_count("dacc_rpc_batch_size" + chan),
            m.histogram_sum("dacc_rpc_batch_size" + chan));
  EXPECT_EQ(m.counter_value("dacc_rpc_ops_total" + chan), 3u);
}

TEST(CommandStream, BatchedAllocsYieldUsablePointers) {
  // Alloc results travel in the batched completion frame; the pointers must
  // come back per-sub-request and be usable by later (unbatched) ops.
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 1;
  config.batch = {/*enabled=*/true, /*watermark=*/8};
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    std::vector<core::Future> allocs;
    for (int i = 0; i < 6; ++i) {
      allocs.push_back(ac.mem_alloc_async(2_KiB));
    }
    ctx.session().wait_all(allocs);
    std::vector<gpu::DevPtr> ptrs;
    for (core::Future& f : allocs) {
      ASSERT_EQ(f.status(), gpu::Result::kSuccess);
      ptrs.push_back(f.ptr());
    }
    // Distinct allocations, each independently usable and freeable.
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      for (std::size_t j = i + 1; j < ptrs.size(); ++j) {
        ASSERT_NE(ptrs[i], ptrs[j]);
      }
    }
    ac.memcpy_h2d(ptrs[3], util::Buffer::backed_zero(2_KiB));
    for (const gpu::DevPtr p : ptrs) ac.mem_free(p);
  };
  cluster.submit(job);
  cluster.run();
}

TEST(CommandStream, BatchChildSpansStitchSubOpsThroughTheFrame) {
  // A batch frame used to trace as one opaque span, hiding the small ops it
  // carried. Both wire ends now derive per-sub-op child span ids with
  // batch_sub_span (no extra bytes on the wire): the front-end records one
  // child per sub-op under the batch span, the daemon parents its per-item
  // execution spans on those, and flow arrows stitch each small op through
  // the frame.
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 1;
  config.trace = true;
  config.batch = {/*enabled=*/true, /*watermark=*/16};
  rt::Cluster cluster(config);
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    const gpu::DevPtr p = ac.mem_alloc(4_KiB);
    std::vector<core::Future> burst;
    for (int i = 0; i < 8; ++i) {
      burst.push_back(
          ac.launch_async("dscal", {}, {std::int64_t{64}, 2.0, p}));
    }
    ctx.session().wait_all(burst);
    ac.mem_free(p);
  };
  cluster.submit(job);
  cluster.run();

  const std::vector<sim::Tracer::Span> spans = cluster.tracer().spans();
  // Locate a multi-op batch frame span on the front-end track.
  const sim::Tracer::Span* batch = nullptr;
  std::size_t count = 0;
  for (const auto& s : spans) {
    if (s.track.rfind("fe-", 0) != 0 || s.name.rfind("batch[", 0) != 0) {
      continue;
    }
    const std::size_t n =
        static_cast<std::size_t>(std::stoul(s.name.substr(6)));
    if (n > 1) {
      batch = &s;
      count = n;
      break;
    }
  }
  ASSERT_NE(batch, nullptr) << "no multi-op batch frame was traced";
  EXPECT_EQ(batch->span_id, batch->trace_id);  // batch root doubles as trace

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t child_id = batch_sub_span(batch->span_id, i);
    const sim::Tracer::Span* fe_child = nullptr;
    const sim::Tracer::Span* daemon_child = nullptr;
    for (const auto& s : spans) {
      if (s.trace_id != batch->trace_id) continue;
      if (s.span_id == child_id) fe_child = &s;
      if (s.parent_id == child_id && s.track.rfind("daemon-", 0) == 0) {
        daemon_child = &s;
      }
    }
    ASSERT_NE(fe_child, nullptr) << "missing front-end child span " << i;
    EXPECT_EQ(fe_child->parent_id, batch->span_id);
    EXPECT_GE(fe_child->begin, batch->begin);
    EXPECT_LE(fe_child->end, batch->end);
    ASSERT_NE(daemon_child, nullptr)
        << "daemon sub-op span " << i << " not parented on the derived id";
    EXPECT_GE(daemon_child->begin, batch->begin);
    EXPECT_LE(daemon_child->end, batch->end);
  }
  // Sibling sub-ops must not collide.
  for (std::uint32_t i = 0; i + 1 < count; ++i) {
    EXPECT_NE(batch_sub_span(batch->span_id, i),
              batch_sub_span(batch->span_id, i + 1));
  }
}

// ---------------------------------------------------------------------------
// Failure ladder of a batched flush
// ---------------------------------------------------------------------------

enum class Fault {
  kNone,
  kDeviceBreaksMidBatch,  ///< ECC failure inside the daemon's first Batch
  kSilentLink,            ///< the accelerator's link dies before the burst
  kRevokedLease,          ///< heartbeats revoke the lease before the burst
};

struct LadderOutcome {
  std::vector<gpu::Result> statuses;  ///< one per burst launch, in order
  double checksum = 0.0;  ///< read-back sum; 0 unless every launch succeeded
  std::uint32_t replacements = 0;
  std::vector<std::string> fe_notes;  ///< flight notes of category "fe"
  dmpi::Rank first_daemon = -1;       ///< the lease's daemon before faults
  SimTime first_batch_mid = 0;  ///< midpoint of the daemon's first Batch span
};

constexpr int kBurst = 20;

/// 1 CN, 2 functional accelerators, watermark 16: an alloc and a fill, then
/// a 20-launch dscal burst that flushes as batch[16] + batch[4].
LadderOutcome run_ladder(Fault fault, bool replace, SimTime break_at = 0) {
  rt::ClusterConfig config;
  config.compute_nodes = 1;
  config.accelerators = 2;
  config.trace = true;
  config.batch = {/*enabled=*/true, /*watermark=*/16};
  config.retry.replace_on_failure = replace;
  if (fault == Fault::kSilentLink) config.retry.request_timeout = 1_ms;
  if (fault == Fault::kRevokedLease) {
    config.heartbeat.enabled = true;
    config.heartbeat.period = 1_ms;
    config.heartbeat.miss_threshold = 3;
    // Generous: the revocation notice, not a timeout, must trigger the
    // replacement.
    config.retry.request_timeout = 50_ms;
  }
  rt::Cluster cluster(config);
  if (fault == Fault::kDeviceBreaksMidBatch) {
    cluster.break_accelerator(0, break_at);
  }

  auto out = std::make_shared<LadderOutcome>();
  rt::JobSpec job;
  job.accelerators_per_rank = 1;
  job.body = [fault, out](rt::JobContext& ctx) {
    core::Accelerator& ac = ctx.session()[0];
    // The faults below target ac0.
    ASSERT_EQ(ac.daemon_rank(), ctx.cluster().daemon_rank(0));
    out->first_daemon = ac.daemon_rank();
    const std::int64_t n = 256;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    std::vector<double> host(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = static_cast<double>(i % 13) + 0.5;
    }
    const gpu::DevPtr p = ac.mem_alloc(bytes);
    ac.memcpy_h2d(p, util::Buffer::of<double>(std::span<const double>(host)));
    if (fault == Fault::kSilentLink || fault == Fault::kRevokedLease) {
      ctx.cluster().fail_accelerator_link(0, ctx.ctx().now());
    }
    if (fault == Fault::kRevokedLease) {
      ctx.ctx().wait_for(10_ms);  // the sweep revokes and notifies meanwhile
    }
    std::vector<core::Future> burst;
    for (int i = 0; i < kBurst; ++i) {
      burst.push_back(ac.launch_async("dscal", {}, {n, 1.0 + 0.01 * i, p}));
    }
    ctx.session().wait_all(burst);
    bool all_ok = true;
    for (core::Future& f : burst) {
      out->statuses.push_back(f.status());
      all_ok = all_ok && f.status() == gpu::Result::kSuccess;
    }
    if (all_ok) {
      util::Buffer back = ac.memcpy_d2h(p, bytes);
      const auto view = back.as<double>();
      out->checksum = std::accumulate(view.begin(), view.end(), 0.0);
    }
  };
  cluster.submit(job);
  cluster.run();

  out->replacements = cluster.arm_stats().replacements;
  for (const obs::FlightRecorder::Event& e : cluster.flight().events()) {
    if (e.category == "fe") out->fe_notes.push_back(e.what);
  }
  const std::string daemon_track =
      "daemon-r" + std::to_string(cluster.daemon_rank(0));
  for (const sim::Tracer::Span& s : cluster.tracer().spans()) {
    if (s.track == daemon_track && s.name == "Batch") {
      out->first_batch_mid = s.begin + (s.end - s.begin) / 2;
      break;
    }
  }
  return *out;
}

std::vector<gpu::Result> expected_statuses(int ok, gpu::Result rest) {
  std::vector<gpu::Result> v(kBurst, rest);
  std::fill(v.begin(), v.begin() + ok, gpu::Result::kSuccess);
  return v;
}

TEST(BatchFailureLadder, EveryFaultEndsInItsPinnedOutcome) {
  const LadderOutcome clean = run_ladder(Fault::kNone, /*replace=*/false);
  ASSERT_EQ(clean.statuses, expected_statuses(kBurst, gpu::Result::kSuccess));
  ASSERT_NE(clean.checksum, 0.0);
  ASSERT_GT(clean.first_batch_mid, 0);
  EXPECT_EQ(clean.replacements, 0u);
  EXPECT_TRUE(clean.fe_notes.empty());
  const std::string ac = "ac" + std::to_string(clean.first_daemon);

  {
    SCOPED_TRACE("device breaks mid-batch, no replacement");
    const LadderOutcome o = run_ladder(Fault::kDeviceBreaksMidBatch,
                                       /*replace=*/false,
                                       clean.first_batch_mid);
    EXPECT_EQ(o.statuses, expected_statuses(8, gpu::Result::kEccError));
    EXPECT_EQ(o.replacements, 0u);
    EXPECT_EQ(o.fe_notes,
              (std::vector<std::string>{
                  "batch: ecc failure on " + ac + ", 8 sub-op(s) need a "
                  "replacement",
                  "batch: ecc failure on " + ac + ", 4 sub-op(s) need a "
                  "replacement"}));
  }
  {
    SCOPED_TRACE("device breaks mid-batch, replacement");
    const LadderOutcome o = run_ladder(Fault::kDeviceBreaksMidBatch,
                                       /*replace=*/true,
                                       clean.first_batch_mid);
    EXPECT_EQ(o.statuses, expected_statuses(kBurst, gpu::Result::kSuccess));
    EXPECT_EQ(o.checksum, clean.checksum);
    EXPECT_EQ(o.replacements, 1u);
    EXPECT_EQ(o.fe_notes,
              (std::vector<std::string>{
                  "batch: ecc failure on " + ac + ", 8 sub-op(s) need a "
                  "replacement"}));
  }
  {
    SCOPED_TRACE("silent link, no replacement");
    const LadderOutcome o = run_ladder(Fault::kSilentLink, /*replace=*/false);
    EXPECT_EQ(o.statuses, expected_statuses(0, gpu::Result::kUnavailable));
    EXPECT_EQ(o.replacements, 0u);
    EXPECT_EQ(o.fe_notes,
              (std::vector<std::string>{
                  "batch[16]: retry ladder exhausted on " + ac,
                  "batch[4]: retry ladder exhausted on " + ac}));
  }
  {
    SCOPED_TRACE("silent link, replacement");
    const LadderOutcome o = run_ladder(Fault::kSilentLink, /*replace=*/true);
    EXPECT_EQ(o.statuses, expected_statuses(kBurst, gpu::Result::kSuccess));
    EXPECT_EQ(o.checksum, clean.checksum);
    EXPECT_EQ(o.replacements, 1u);
    EXPECT_EQ(o.fe_notes,
              (std::vector<std::string>{
                  "batch[16]: retry ladder exhausted on " + ac}));
  }
  {
    SCOPED_TRACE("heartbeats revoke the lease, replacement");
    const LadderOutcome o = run_ladder(Fault::kRevokedLease, /*replace=*/true);
    EXPECT_EQ(o.statuses, expected_statuses(kBurst, gpu::Result::kSuccess));
    EXPECT_EQ(o.checksum, clean.checksum);
    EXPECT_EQ(o.replacements, 1u);
    EXPECT_TRUE(o.fe_notes.empty());
  }
}

}  // namespace
}  // namespace dacc::rpc
