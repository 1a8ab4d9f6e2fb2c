#include "gpu/driver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/units.hpp"

namespace dacc::gpu {
namespace {

/// Runs `body` as a simulated process with a Driver bound to a fresh device.
void run_with_driver(std::function<void(Driver&, sim::Context&)> body,
                     bool functional = true) {
  sim::Engine engine;
  Device device(engine, tesla_c1060(), KernelRegistry::with_builtins(),
                functional);
  engine.spawn("host", [&](sim::Context& ctx) {
    Driver drv(device, ctx);
    body(drv, ctx);
  });
  engine.run();
}

/// Launches on the default stream and blocks until the kernel is done.
void launch(Driver& drv, const std::string& kernel, const KernelArgs& args) {
  const OpHandle op =
      drv.launch_async(drv.device().default_stream(), kernel, {}, args);
  ASSERT_TRUE(op.ok()) << kernel;
  drv.synchronize();
}

TEST(Driver, BlockingCopyAdvancesClock) {
  run_with_driver([](Driver& drv, sim::Context& ctx) {
    const DevPtr p = drv.mem_alloc(16_MiB);
    const SimTime before = ctx.now();
    drv.memcpy_htod(p, util::Buffer::phantom(16_MiB));
    EXPECT_GT(ctx.now(), before);
    const double bw = mib_per_s(16_MiB, ctx.now() - before);
    EXPECT_NEAR(bw, 5700.0, 150.0);
  });
}

TEST(Driver, RoundTripPreservesData) {
  run_with_driver([](Driver& drv, sim::Context&) {
    std::vector<double> host{3.0, 1.0, 4.0, 1.0, 5.0};
    const DevPtr p = drv.mem_alloc(host.size() * sizeof(double));
    drv.memcpy_htod(p, util::Buffer::of<double>(
                           std::span<const double>(host)));
    auto back = drv.memcpy_dtoh(p, host.size() * sizeof(double));
    auto view = back.as<double>();
    for (std::size_t i = 0; i < host.size(); ++i) {
      EXPECT_EQ(view[i], host[i]);
    }
    drv.mem_free(p);
  });
}

TEST(Driver, KernelComputesAndBlocksForCost) {
  run_with_driver([](Driver& drv, sim::Context& ctx) {
    const std::int64_t n = 1000;
    const DevPtr a = drv.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    const DevPtr b = drv.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    const DevPtr c = drv.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    launch(drv, "fill_f64", {a, n, 2.0});
    launch(drv, "fill_f64", {b, n, 40.0});
    const SimTime before = ctx.now();
    launch(drv, "vector_add_f64", {a, b, c, n});
    EXPECT_GE(ctx.now() - before, drv.device().params().kernel_launch_overhead);
    auto out = drv.memcpy_dtoh(c, static_cast<std::uint64_t>(n) * 8);
    for (double v : out.as<double>()) EXPECT_EQ(v, 42.0);
  });
}

TEST(Driver, AllocationFailureThrows) {
  run_with_driver([](Driver& drv, sim::Context&) {
    try {
      (void)drv.mem_alloc(1ull << 60);
      FAIL() << "expected DeviceError";
    } catch (const DeviceError& e) {
      EXPECT_EQ(e.code(), Result::kOutOfMemory);
    }
  });
}

TEST(Driver, AsyncPipelineOverlapsStreams) {
  // Two streams: copies on one, kernels on the other; total time is far
  // below the serial sum.
  run_with_driver([](Driver& drv, sim::Context& ctx) {
    const DevPtr p = drv.mem_alloc(64_MiB);
    Stream copy_stream(drv.device());
    Stream compute_stream(drv.device());
    const SimTime start = ctx.now();
    std::vector<OpHandle> ops;
    for (int i = 0; i < 8; ++i) {
      ops.push_back(drv.device().memcpy_htod_async(
          copy_stream, p, util::Buffer::phantom(8_MiB), HostMemType::kPinned,
          ctx.now()));
      ops.push_back(drv.launch_async(
          compute_stream, "fill_f64", LaunchConfig{},
          {p, std::int64_t{1024 * 1024}, 1.0}));
    }
    drv.synchronize(copy_stream);
    drv.synchronize(compute_stream);
    const SimDuration elapsed = ctx.now() - start;
    SimDuration serial = 0;
    // Serial lower bound if nothing overlapped: sum of both streams' time.
    serial = copy_stream.ready_at() - start + compute_stream.ready_at() - start;
    EXPECT_LT(elapsed, serial);
  });
}

TEST(Driver, WaitOnFailedOpThrows) {
  run_with_driver([](Driver& drv, sim::Context&) {
    drv.device().mark_broken();
    EXPECT_THROW(drv.memcpy_htod(0x1234, util::Buffer::phantom(8)),
                 DeviceError);
  });
}

TEST(Driver, SynchronizeWaitsForStream) {
  run_with_driver([](Driver& drv, sim::Context& ctx) {
    const DevPtr p = drv.mem_alloc(32_MiB);
    Stream s(drv.device());
    auto op = drv.device().memcpy_htod_async(
        s, p, util::Buffer::phantom(32_MiB), HostMemType::kPinned, ctx.now());
    ASSERT_TRUE(op.ok());
    drv.synchronize(s);
    EXPECT_GE(ctx.now(), op.done_at);
  });
}

}  // namespace
}  // namespace dacc::gpu
