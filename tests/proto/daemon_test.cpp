// Exercises the back-end daemon through the raw wire protocol, playing the
// front-end by hand (the polished ac* API sits on top of exactly these
// exchanges).
#include "daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "proto/transfer.hpp"
#include "util/units.hpp"

namespace dacc::daemon {
namespace {

using gpu::Result;
using proto::kRequestTag;
using proto::Op;
using proto::TransferConfig;
using proto::WireReader;
using proto::WireWriter;

/// The hand-rolled front end's one reply tag; the daemon streams bulk data
/// on reply tag + 1.
constexpr int kResponseTag = 101;
constexpr int kDataTag = kResponseTag + 1;

/// Node 0: client. Nodes 1..n: one daemon each.
class DaemonBed {
 public:
  explicit DaemonBed(int daemons = 1, bool functional = true)
      : fabric_(engine_, daemons + 1),
        world_(engine_, fabric_, make_nodes(daemons + 1)),
        registry_(gpu::KernelRegistry::with_builtins()) {
    for (int i = 0; i < daemons; ++i) {
      devices_.push_back(std::make_unique<gpu::Device>(
          engine_, gpu::tesla_c1060(), registry_, functional));
      daemons_.push_back(std::make_unique<Daemon>(
          *devices_.back(), world_, /*self=*/i + 1));
    }
  }

  /// Runs the client body; daemons are shut down afterwards automatically.
  void run(std::function<void(dmpi::Mpi&, sim::Context&)> client) {
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      engine_.spawn("daemon" + std::to_string(i + 1),
                    [this, i](sim::Context& ctx) { daemons_[i]->run(ctx); });
    }
    engine_.spawn("client", [this, client = std::move(client)](
                                sim::Context& ctx) {
      dmpi::Mpi mpi(world_, ctx, 0);
      client(mpi, ctx);
      for (std::size_t i = 0; i < daemons_.size(); ++i) {
        const auto d = static_cast<dmpi::Rank>(i + 1);
        mpi.send(comm(), d, kRequestTag,
                 WireWriter{}.op(Op::kShutdown).u32(kResponseTag).finish());
        (void)mpi.recv(comm(), d, kResponseTag);
      }
    });
    engine_.run();
  }

  const dmpi::Comm& comm() { return world_.world_comm(); }
  gpu::Device& device(int i = 0) { return *devices_[static_cast<std::size_t>(i)]; }
  Daemon& daemon(int i = 0) { return *daemons_[static_cast<std::size_t>(i)]; }

  // --- raw protocol helpers (the hand-rolled front-end) -------------------
  gpu::DevPtr remote_alloc(dmpi::Mpi& mpi, dmpi::Rank d, std::uint64_t bytes,
                           Result* status = nullptr) {
    mpi.send(comm(), d, kRequestTag,
             WireWriter{}.op(Op::kMemAlloc).u32(kResponseTag).u64(bytes).finish());
    WireReader r(mpi.recv(comm(), d, kResponseTag));
    const Result res = r.result();
    if (status != nullptr) *status = res;
    return r.u64();
  }

  Result remote_free(dmpi::Mpi& mpi, dmpi::Rank d, gpu::DevPtr ptr) {
    mpi.send(comm(), d, kRequestTag,
             WireWriter{}.op(Op::kMemFree).u32(kResponseTag).u64(ptr).finish());
    return WireReader(mpi.recv(comm(), d, kResponseTag)).result();
  }

  Result remote_htod(dmpi::Mpi& mpi, dmpi::Rank d, gpu::DevPtr dst,
                     util::Buffer data,
                     TransferConfig config = TransferConfig::pipeline_adaptive()) {
    mpi.send(comm(), d, kRequestTag,
             WireWriter{}
                 .op(Op::kMemcpyHtoD)
                 .u32(kResponseTag)
                 .u64(dst)
                 .u64(data.size())
                 .transfer_config(config)
                 .finish());
    proto::send_blocks(mpi, comm(), d, std::move(data), config, kDataTag);
    return WireReader(mpi.recv(comm(), d, kResponseTag)).result();
  }

  Result remote_dtoh(dmpi::Mpi& mpi, dmpi::Rank d, gpu::DevPtr src,
                     std::uint64_t bytes, util::Buffer* out,
                     TransferConfig config = TransferConfig::pipeline_adaptive()) {
    mpi.send(comm(), d, kRequestTag,
             WireWriter{}
                 .op(Op::kMemcpyDtoH)
                 .u32(kResponseTag)
                 .u64(src)
                 .u64(bytes)
                 .transfer_config(config)
                 .finish());
    const Result pre = WireReader(mpi.recv(comm(), d, kResponseTag)).result();
    if (pre != Result::kSuccess) return pre;
    *out = proto::recv_assemble(mpi, comm(), d, bytes, config, kDataTag);
    return WireReader(mpi.recv(comm(), d, kResponseTag)).result();
  }

  Result remote_launch(dmpi::Mpi& mpi, dmpi::Rank d, const std::string& name,
                       const gpu::KernelArgs& args) {
    mpi.send(comm(), d, kRequestTag,
             WireWriter{}
                 .op(Op::kKernelRun)
                 .u32(kResponseTag)
                 .str(name)
                 .launch_config({})
                 .kernel_args(args)
                 .finish());
    return WireReader(mpi.recv(comm(), d, kResponseTag)).result();
  }

 private:
  static std::vector<net::NodeId> make_nodes(int n) {
    std::vector<net::NodeId> nodes(static_cast<std::size_t>(n));
    std::iota(nodes.begin(), nodes.end(), 0);
    return nodes;
  }

  sim::Engine engine_;
  net::Fabric fabric_;
  dmpi::World world_;
  std::shared_ptr<gpu::KernelRegistry> registry_;
  std::vector<std::unique_ptr<gpu::Device>> devices_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
};

TEST(Daemon, AllocAndFree) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    Result status = Result::kInvalidValue;
    const gpu::DevPtr p = bed.remote_alloc(mpi, 1, 4096, &status);
    EXPECT_EQ(status, Result::kSuccess);
    EXPECT_NE(p, gpu::kNullDevPtr);
    EXPECT_EQ(bed.device().memory_used(), 4096u);
    EXPECT_EQ(bed.remote_free(mpi, 1, p), Result::kSuccess);
    EXPECT_EQ(bed.device().memory_used(), 0u);
  });
}

TEST(Daemon, AllocFailureIsRelayed) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    Result status = Result::kSuccess;
    (void)bed.remote_alloc(mpi, 1, 1ull << 60, &status);
    EXPECT_EQ(status, Result::kOutOfMemory);
  });
}

TEST(Daemon, HtoDWritesDeviceMemory) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    const gpu::DevPtr p = bed.remote_alloc(mpi, 1, 24);
    std::vector<double> host{1.0, 2.0, 3.0};
    EXPECT_EQ(bed.remote_htod(mpi, 1, p,
                              util::Buffer::of<double>(
                                  std::span<const double>(host))),
              Result::kSuccess);
    auto view = bed.device().span_as<double>(p, 3);
    EXPECT_EQ(view[0], 1.0);
    EXPECT_EQ(view[2], 3.0);
  });
}

TEST(Daemon, HtoDToInvalidPointerReportsError) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    EXPECT_EQ(bed.remote_htod(mpi, 1, 0xbad, util::Buffer::backed_zero(64)),
              Result::kInvalidValue);
  });
}

TEST(Daemon, DtoHReadsBack) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    const gpu::DevPtr p = bed.remote_alloc(mpi, 1, 16);
    bed.device().span_as<double>(p, 2)[0] = 6.5;
    bed.device().span_as<double>(p, 2)[1] = -1.0;
    util::Buffer out;
    EXPECT_EQ(bed.remote_dtoh(mpi, 1, p, 16, &out), Result::kSuccess);
    EXPECT_EQ(out.as<double>()[0], 6.5);
    EXPECT_EQ(out.as<double>()[1], -1.0);
  });
}

TEST(Daemon, DtoHInvalidRangeFailsBeforeData) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    util::Buffer out;
    EXPECT_EQ(bed.remote_dtoh(mpi, 1, 0xbad, 64, &out),
              Result::kInvalidValue);
    EXPECT_TRUE(out.empty());
  });
}

TEST(Daemon, FullListingTwoWorkflow) {
  // The paper's Listing 2 sequence: alloc, copy in, run kernel, copy out,
  // free — remote end to end with verified numerics.
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    const std::int64_t n = 512;
    const auto bytes = static_cast<std::uint64_t>(n) * 8;
    const gpu::DevPtr a = bed.remote_alloc(mpi, 1, bytes);
    const gpu::DevPtr b = bed.remote_alloc(mpi, 1, bytes);
    const gpu::DevPtr c = bed.remote_alloc(mpi, 1, bytes);

    std::vector<double> ha(static_cast<std::size_t>(n));
    std::vector<double> hb(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < ha.size(); ++i) {
      ha[i] = static_cast<double>(i);
      hb[i] = 1000.0 - static_cast<double>(i);
    }
    ASSERT_EQ(bed.remote_htod(mpi, 1, a,
                              util::Buffer::of<double>(
                                  std::span<const double>(ha))),
              Result::kSuccess);
    ASSERT_EQ(bed.remote_htod(mpi, 1, b,
                              util::Buffer::of<double>(
                                  std::span<const double>(hb))),
              Result::kSuccess);
    ASSERT_EQ(bed.remote_launch(mpi, 1, "vector_add_f64", {a, b, c, n}),
              Result::kSuccess);
    util::Buffer out;
    ASSERT_EQ(bed.remote_dtoh(mpi, 1, c, bytes, &out), Result::kSuccess);
    for (double v : out.as<double>()) EXPECT_DOUBLE_EQ(v, 1000.0);
    EXPECT_EQ(bed.remote_free(mpi, 1, a), Result::kSuccess);
    EXPECT_EQ(bed.remote_free(mpi, 1, b), Result::kSuccess);
    EXPECT_EQ(bed.remote_free(mpi, 1, c), Result::kSuccess);
  });
}

TEST(Daemon, UnknownKernelReported) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    EXPECT_EQ(bed.remote_launch(mpi, 1, "nope", {}), Result::kNotFound);
  });
}

TEST(Daemon, DeviceInfo) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    mpi.send(bed.comm(), 1, kRequestTag,
             WireWriter{}.op(Op::kDeviceInfo).u32(kResponseTag).finish());
    WireReader r(mpi.recv(bed.comm(), 1, kResponseTag));
    EXPECT_EQ(r.result(), Result::kSuccess);
    EXPECT_EQ(r.str(), "Tesla C1060 (simulated)");
    EXPECT_EQ(r.u64(), bed.device().params().memory_bytes);
    EXPECT_EQ(r.u64(), bed.device().params().memory_bytes);  // all free
  });
}

TEST(Daemon, BrokenDeviceReportsEccEverywhere) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    const gpu::DevPtr p = bed.remote_alloc(mpi, 1, 64);
    bed.device().mark_broken();
    Result status = Result::kSuccess;
    (void)bed.remote_alloc(mpi, 1, 64, &status);
    EXPECT_EQ(status, Result::kEccError);
    EXPECT_EQ(bed.remote_htod(mpi, 1, p, util::Buffer::backed_zero(64)),
              Result::kEccError);
    util::Buffer out;
    EXPECT_EQ(bed.remote_dtoh(mpi, 1, p, 64, &out), Result::kEccError);
    EXPECT_EQ(bed.remote_launch(mpi, 1, "fill_f64",
                                {p, std::int64_t{8}, 0.0}),
              Result::kEccError);
  });
}

TEST(Daemon, PeerSendMovesDataBetweenAccelerators) {
  DaemonBed bed(/*daemons=*/2);
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    const std::uint64_t bytes = 1_MiB;
    const gpu::DevPtr src = bed.remote_alloc(mpi, 1, bytes);
    const gpu::DevPtr dst = bed.remote_alloc(mpi, 2, bytes);
    // Fill the source device directly.
    auto view = bed.device(0).span_as<double>(src, bytes / 8);
    for (std::size_t i = 0; i < view.size(); ++i) {
      view[i] = static_cast<double>(i % 97);
    }
    mpi.send(bed.comm(), 1, kRequestTag,
             WireWriter{}
                 .op(Op::kPeerSend)
                 .u32(kResponseTag)
                 .u64(src)
                 .u64(bytes)
                 .u64(2)
                 .u64(dst)
                 .transfer_config(TransferConfig::pipeline(512_KiB))
                 .finish());
    EXPECT_EQ(WireReader(mpi.recv(bed.comm(), 1, kResponseTag)).result(),
              Result::kSuccess);
    auto peer_view = bed.device(1).span_as<double>(dst, bytes / 8);
    for (std::size_t i = 0; i < peer_view.size(); ++i) {
      ASSERT_EQ(peer_view[i], static_cast<double>(i % 97));
    }
  });
}

TEST(Daemon, PeerSendFromInvalidRangeFails) {
  DaemonBed bed(2);
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    mpi.send(bed.comm(), 1, kRequestTag,
             WireWriter{}
                 .op(Op::kPeerSend)
                 .u32(kResponseTag)
                 .u64(0xbad)
                 .u64(1024)
                 .u64(2)
                 .u64(0xbad2)
                 .transfer_config(TransferConfig::naive())
                 .finish());
    EXPECT_EQ(WireReader(mpi.recv(bed.comm(), 1, kResponseTag)).result(),
              Result::kInvalidValue);
  });
}

TEST(Daemon, ServesMultipleClientsSequentially) {
  // Two clients share one daemon; requests interleave at the queue.
  sim::Engine engine;
  net::Fabric fabric(engine, 3);
  dmpi::World world(engine, fabric, {0, 1, 2});
  auto registry = gpu::KernelRegistry::with_builtins();
  gpu::Device device(engine, gpu::tesla_c1060(), registry);
  Daemon daemon(device, world, 2);
  engine.spawn("daemon", [&](sim::Context& ctx) { daemon.run(ctx); });

  int done = 0;
  for (int c = 0; c < 2; ++c) {
    engine.spawn("client" + std::to_string(c), [&, c](sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, c);
      for (int i = 0; i < 5; ++i) {
        mpi.send(world.world_comm(), 2, kRequestTag,
                 WireWriter{}.op(Op::kMemAlloc).u32(kResponseTag).u64(256).finish());
        WireReader r(mpi.recv(world.world_comm(), 2, kResponseTag));
        EXPECT_EQ(r.result(), Result::kSuccess);
      }
      ++done;
      if (done == 2) {
        mpi.send(world.world_comm(), 2, kRequestTag,
                 WireWriter{}.op(Op::kShutdown).u32(kResponseTag).finish());
        (void)mpi.recv(world.world_comm(), 2, kResponseTag);
      }
    });
  }
  engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(device.memory_used(), 10u * 256);
}

TEST(Daemon, RequestCounterTracks) {
  DaemonBed bed;
  bed.run([&](dmpi::Mpi& mpi, sim::Context&) {
    (void)bed.remote_alloc(mpi, 1, 64);
    (void)bed.remote_alloc(mpi, 1, 64);
  });
  // 2 allocs + 1 shutdown.
  EXPECT_EQ(bed.daemon().requests_served(), 3u);
}

}  // namespace
}  // namespace dacc::daemon
