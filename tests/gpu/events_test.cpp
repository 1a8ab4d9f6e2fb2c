// CUDA-like events: cross-stream dependencies and host synchronization.
#include <gtest/gtest.h>

#include "gpu/driver.hpp"
#include "util/units.hpp"

namespace dacc::gpu {
namespace {

void run(std::function<void(Driver&, Device&, sim::Context&)> body) {
  sim::Engine engine;
  Device device(engine, tesla_c1060(), KernelRegistry::with_builtins(),
                /*functional=*/false);
  engine.spawn("host", [&](sim::Context& ctx) {
    Driver drv(device, ctx);
    body(drv, device, ctx);
  });
  engine.run();
}

/// Queues a phantom H2D copy on `stream` from now on, as the daemon does.
OpHandle copy_in(Device& dev, Stream& stream, DevPtr dst, std::uint64_t bytes,
                 const sim::Context& ctx) {
  return dev.memcpy_htod_async(stream, dst, util::Buffer::phantom(bytes),
                               HostMemType::kPinned, ctx.now());
}

TEST(Events, RecordCapturesStreamPosition) {
  run([](Driver& drv, Device& dev, sim::Context& ctx) {
    Stream s(dev);
    const Event before = drv.record(s);
    EXPECT_EQ(before.at, 0u);
    const DevPtr p = drv.mem_alloc(8_MiB);
    (void)copy_in(dev, s, p, 8_MiB, ctx);
    const Event after = drv.record(s);
    EXPECT_GT(after.at, before.at);
    EXPECT_EQ(after.at, s.ready_at());
  });
}

TEST(Events, StreamWaitCreatesCrossStreamDependency) {
  run([](Driver& drv, Device& dev, sim::Context& ctx) {
    const DevPtr p = drv.mem_alloc(32_MiB);
    Stream producer(dev);
    Stream consumer(dev);
    const OpHandle copy = copy_in(dev, producer, p, 32_MiB, ctx);
    const Event copied = drv.record(producer);
    drv.stream_wait(consumer, copied);
    // The consumer's kernel cannot start before the copy finished.
    const OpHandle k = drv.launch_async(consumer, "fill_f64", {},
                                        {p, std::int64_t{16}, 0.0});
    EXPECT_GE(k.done_at, copy.done_at);
  });
}

TEST(Events, WithoutWaitStreamsOverlap) {
  run([](Driver& drv, Device& dev, sim::Context& ctx) {
    const DevPtr p = drv.mem_alloc(32_MiB);
    Stream producer(dev);
    Stream consumer(dev);
    const OpHandle copy = copy_in(dev, producer, p, 32_MiB, ctx);
    const OpHandle k = drv.launch_async(consumer, "fill_f64", {},
                                        {p, std::int64_t{16}, 0.0});
    EXPECT_LT(k.done_at, copy.done_at);  // no dependency => overlap
  });
}

TEST(Events, HostSynchronizeWaitsForEvent) {
  run([](Driver& drv, Device& dev, sim::Context& ctx) {
    const DevPtr p = drv.mem_alloc(16_MiB);
    Stream s(dev);
    (void)copy_in(dev, s, p, 16_MiB, ctx);
    const Event e = drv.record(s);
    drv.synchronize(e);
    EXPECT_GE(ctx.now(), e.at);
  });
}

TEST(Events, WaitOnPastEventIsNoop) {
  run([](Driver& drv, Device& dev, sim::Context& ctx) {
    Stream a(dev);
    Stream b(dev);
    const DevPtr p = drv.mem_alloc(16_MiB);
    (void)copy_in(dev, b, p, 16_MiB, ctx);
    const SimTime before = b.ready_at();
    drv.stream_wait(b, Event{0});  // already in the past
    EXPECT_EQ(b.ready_at(), before);
  });
}

}  // namespace
}  // namespace dacc::gpu
