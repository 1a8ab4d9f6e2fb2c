#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpu/driver.hpp"
#include "util/rng.hpp"

namespace dacc::gpu {
namespace {

class KernelsTest : public ::testing::Test {
 protected:
  void run(std::function<void(Driver&)> body) {
    sim::Engine engine;
    Device device(engine, tesla_c1060(), KernelRegistry::with_builtins());
    engine.spawn("host", [&](sim::Context& ctx) {
      Driver drv(device, ctx);
      body(drv);
    });
    engine.run();
  }

  static DevPtr upload(Driver& drv, const std::vector<double>& v) {
    const DevPtr p = drv.mem_alloc(v.size() * sizeof(double));
    drv.memcpy_htod(p, util::Buffer::of<double>(std::span<const double>(v)));
    return p;
  }

  static std::vector<double> download(Driver& drv, DevPtr p, std::size_t n) {
    auto buf = drv.memcpy_dtoh(p, n * sizeof(double));
    auto view = buf.as<double>();
    return {view.begin(), view.end()};
  }

  /// Launches on the default stream and waits for the kernel.
  static void launch(Driver& drv, const std::string& kernel,
                     const KernelArgs& args) {
    const OpHandle op =
        drv.launch_async(drv.device().default_stream(), kernel, {}, args);
    ASSERT_TRUE(op.ok()) << kernel;
    drv.synchronize();
  }
};

TEST_F(KernelsTest, Fill) {
  run([](Driver& drv) {
    const std::int64_t n = 257;
    const DevPtr p = drv.mem_alloc(static_cast<std::uint64_t>(n) * 8);
    launch(drv, "fill_f64", {p, n, -1.25});
    for (double v : download(drv, p, 257)) EXPECT_EQ(v, -1.25);
  });
}

TEST_F(KernelsTest, Daxpy) {
  run([](Driver& drv) {
    util::Rng rng(1);
    std::vector<double> x(100);
    std::vector<double> y(100);
    for (auto& v : x) v = rng.uniform(-1, 1);
    for (auto& v : y) v = rng.uniform(-1, 1);
    const DevPtr dx = upload(drv, x);
    const DevPtr dy = upload(drv, y);
    launch(drv, "daxpy", {std::int64_t{100}, 2.5, dx, dy});
    auto out = download(drv, dy, 100);
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_DOUBLE_EQ(out[i], y[i] + 2.5 * x[i]);
    }
  });
}

TEST_F(KernelsTest, Dscal) {
  run([](Driver& drv) {
    std::vector<double> x{1.0, -2.0, 3.0};
    const DevPtr dx = upload(drv, x);
    launch(drv, "dscal", {std::int64_t{3}, -2.0, dx});
    auto out = download(drv, dx, 3);
    EXPECT_DOUBLE_EQ(out[0], -2.0);
    EXPECT_DOUBLE_EQ(out[1], 4.0);
    EXPECT_DOUBLE_EQ(out[2], -6.0);
  });
}

TEST_F(KernelsTest, ReduceSum) {
  run([](Driver& drv) {
    std::vector<double> x(1000);
    double expected = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<double>(i) * 0.5;
      expected += x[i];
    }
    const DevPtr dx = upload(drv, x);
    const DevPtr dout = drv.mem_alloc(8);
    launch(drv, "reduce_sum_f64", {dx, std::int64_t{1000}, dout});
    EXPECT_DOUBLE_EQ(download(drv, dout, 1)[0], expected);
  });
}

TEST_F(KernelsTest, VectorAddOnSubranges) {
  // Pointer arithmetic into the middle of allocations must work.
  run([](Driver& drv) {
    std::vector<double> data(10, 1.0);
    const DevPtr p = upload(drv, data);
    launch(drv, "vector_add_f64",
           {p, p + 5 * 8, p, std::int64_t{5}});  // front += back
    auto out = download(drv, p, 10);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 2.0);
    for (int i = 5; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 1.0);
  });
}

TEST_F(KernelsTest, LargerKernelsChargeMoreTime) {
  sim::Engine engine;
  Device device(engine, tesla_c1060(), KernelRegistry::with_builtins(),
                /*functional=*/false);
  DevPtr p = kNullDevPtr;
  ASSERT_EQ(device.mem_alloc(64_MiB, &p), Result::kSuccess);
  Stream s1(device);
  Stream s2(device);
  auto small = device.launch_async(s1, "fill_f64", {},
                                   {p, std::int64_t{1024}, 0.0}, 0);
  auto large = device.launch_async(s2, "fill_f64", {},
                                   {p, std::int64_t{1024 * 1024}, 0.0}, 0);
  // s2's op queues behind s1's on the compute resource; compare durations.
  EXPECT_GT(large.done_at - small.done_at, 0u);
}

TEST_F(KernelsTest, RegistryListsBuiltins) {
  auto reg = KernelRegistry::with_builtins();
  EXPECT_TRUE(reg->contains("fill_f64"));
  EXPECT_TRUE(reg->contains("vector_add_f64"));
  EXPECT_TRUE(reg->contains("daxpy"));
  EXPECT_TRUE(reg->contains("dscal"));
  EXPECT_TRUE(reg->contains("reduce_sum_f64"));
  EXPECT_FALSE(reg->contains("bogus"));
  EXPECT_NE(reg->find("daxpy"), nullptr);
  EXPECT_EQ(reg->find("bogus"), nullptr);
}

TEST_F(KernelsTest, CostModelIsMandatory) {
  KernelRegistry reg;
  EXPECT_THROW(reg.register_kernel("bad", KernelDef{nullptr, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dacc::gpu
