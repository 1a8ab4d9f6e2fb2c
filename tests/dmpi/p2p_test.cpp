#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/testbed.hpp"
#include "util/units.hpp"

namespace dacc::dmpi {
namespace {

using testing::TestBed;

std::vector<std::byte> pattern_bytes(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(seed)) &
                                  0xff);
  }
  return v;
}

TEST(P2P, EagerMessageRoundTripsBytes) {
  TestBed bed(2);
  const auto payload = pattern_bytes(1024, 3);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             mpi.send(bed.comm(), 1, 7, util::Buffer::backed(
                                            std::vector<std::byte>(payload)));
           },
           [&](Mpi& mpi, sim::Context&) {
             Status st;
             auto msg = bed.comm().size() == 2
                            ? mpi.recv(bed.comm(), 0, 7, &st)
                            : util::Buffer{};
             EXPECT_EQ(st.source, 0);
             EXPECT_EQ(st.tag, 7);
             EXPECT_EQ(st.bytes, 1024u);
             ASSERT_TRUE(msg.is_backed());
             EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                                    msg.bytes().begin()));
           }});
}

TEST(P2P, RendezvousMessageRoundTripsBytes) {
  TestBed bed(2);
  const auto payload = pattern_bytes(256 * 1024, 5);  // above eager threshold
  bed.run({[&](Mpi& mpi, sim::Context&) {
             mpi.send(bed.comm(), 1, 1, util::Buffer::backed(
                                            std::vector<std::byte>(payload)));
           },
           [&](Mpi& mpi, sim::Context&) {
             auto msg = mpi.recv(bed.comm(), 0, 1);
             ASSERT_EQ(msg.size(), payload.size());
             EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                                    msg.bytes().begin()));
           }});
}

TEST(P2P, PipelinedRendezvousDataStaysInline) {
  // Each rendezvous message's data delivery is one fabric event. Its
  // callable must fit the event node's inline storage, or every large
  // message pays a heap allocation.
  TestBed bed(2);
  const int k = 8;
  bed.run({[&](Mpi& mpi, sim::Context&) {
             std::vector<Request> reqs;
             for (int i = 0; i < k; ++i) {
               reqs.push_back(mpi.isend(bed.comm(), 1, i,
                                        util::Buffer::phantom(1_MiB)));
             }
             mpi.wait_all(reqs);
           },
           [&](Mpi& mpi, sim::Context&) {
             for (int i = 0; i < k; ++i) {
               EXPECT_EQ(mpi.recv(bed.comm(), 0, i).size(), 1_MiB);
             }
           }});
  EXPECT_EQ(bed.engine().event_stats().heap_fallbacks, 0u);
}

TEST(P2P, RecvBeforeSendWorks) {
  // Receiver posts first (rendezvous RTS finds a posted recv).
  TestBed bed(2);
  bool received = false;
  bed.run({[&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(10'000);  // ensure the recv is posted first
             mpi.send(bed.comm(), 1, 2, util::Buffer::backed_zero(64_KiB));
           },
           [&](Mpi& mpi, sim::Context&) {
             auto msg = mpi.recv(bed.comm(), 0, 2);
             EXPECT_EQ(msg.size(), 64_KiB);
             received = true;
           }});
  EXPECT_TRUE(received);
}

TEST(P2P, SendBeforeRecvWorks) {
  // Sender fires first; RTS parks in the unexpected queue.
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             mpi.send(bed.comm(), 1, 2, util::Buffer::backed_zero(64_KiB));
           },
           [&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(1'000'000);  // 1 ms after the RTS arrived
             auto msg = mpi.recv(bed.comm(), 0, 2);
             EXPECT_EQ(msg.size(), 64_KiB);
           }});
}

TEST(P2P, TagsSelectMessages) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             std::array<double, 1> a{1.0};
             std::array<double, 1> b{2.0};
             mpi.send(bed.comm(), 1, 10, util::Buffer::of<double>(a));
             mpi.send(bed.comm(), 1, 20, util::Buffer::of<double>(b));
           },
           [&](Mpi& mpi, sim::Context&) {
             // Receive in reverse tag order.
             auto m20 = mpi.recv(bed.comm(), 0, 20);
             auto m10 = mpi.recv(bed.comm(), 0, 10);
             EXPECT_EQ(m20.as<double>()[0], 2.0);
             EXPECT_EQ(m10.as<double>()[0], 1.0);
           }});
}

TEST(P2P, SameTagPreservesSendOrder) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             for (int i = 0; i < 5; ++i) {
               std::array<int, 1> v{i};
               mpi.send(bed.comm(), 1, 3, util::Buffer::of<int>(v));
             }
           },
           [&](Mpi& mpi, sim::Context&) {
             for (int i = 0; i < 5; ++i) {
               auto m = mpi.recv(bed.comm(), 0, 3);
               EXPECT_EQ(m.as<int>()[0], i);
             }
           }});
}

TEST(P2P, AnySourceReceivesFromEither) {
  TestBed bed(3);
  bed.run({[&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(100);
             std::array<int, 1> v{10};
             mpi.send(bed.comm(), 2, 1, util::Buffer::of<int>(v));
           },
           [&](Mpi& mpi, sim::Context& ctx) {
             ctx.wait_for(200);
             std::array<int, 1> v{11};
             mpi.send(bed.comm(), 2, 1, util::Buffer::of<int>(v));
           },
           [&](Mpi& mpi, sim::Context&) {
             Status st1, st2;
             auto a = mpi.recv(bed.comm(), kAnySource, 1, &st1);
             auto b = mpi.recv(bed.comm(), kAnySource, 1, &st2);
             EXPECT_EQ(a.as<int>()[0], 10);
             EXPECT_EQ(b.as<int>()[0], 11);
             EXPECT_EQ(st1.source, 0);
             EXPECT_EQ(st2.source, 1);
           }});
}

TEST(P2P, AnyTagMatchesFirstArrival) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             std::array<int, 1> v{99};
             mpi.send(bed.comm(), 1, 42, util::Buffer::of<int>(v));
           },
           [&](Mpi& mpi, sim::Context&) {
             Status st;
             auto m = mpi.recv(bed.comm(), 0, kAnyTag, &st);
             EXPECT_EQ(st.tag, 42);
             EXPECT_EQ(m.as<int>()[0], 99);
           }});
}

TEST(P2P, WildcardRendezvousReportsRealTag) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             mpi.send(bed.comm(), 1, 77, util::Buffer::backed_zero(1_MiB));
           },
           [&](Mpi& mpi, sim::Context&) {
             Status st;
             auto m = mpi.recv(bed.comm(), kAnySource, kAnyTag, &st);
             EXPECT_EQ(st.tag, 77);
             EXPECT_EQ(st.source, 0);
             EXPECT_EQ(m.size(), 1_MiB);
           }});
}

TEST(P2P, NonblockingOverlap) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             std::vector<Request> reqs;
             for (int i = 0; i < 4; ++i) {
               std::array<int, 1> v{i};
               reqs.push_back(
                   mpi.isend(bed.comm(), 1, i, util::Buffer::of<int>(v)));
             }
             mpi.wait_all(reqs);
           },
           [&](Mpi& mpi, sim::Context&) {
             std::vector<Request> reqs;
             for (int i = 0; i < 4; ++i) {
               reqs.push_back(mpi.irecv(bed.comm(), 0, i));
             }
             mpi.wait_all(reqs);
             for (int i = 0; i < 4; ++i) {
               EXPECT_EQ(reqs[static_cast<std::size_t>(i)]
                             .take_payload()
                             .as<int>()[0],
                         i);
             }
           }});
}

TEST(P2P, PhantomPayloadsCarrySizeOnly) {
  TestBed bed(2);
  bed.run({[&](Mpi& mpi, sim::Context&) {
             mpi.send(bed.comm(), 1, 0, util::Buffer::phantom(32_MiB));
           },
           [&](Mpi& mpi, sim::Context&) {
             auto m = mpi.recv(bed.comm(), 0, 0);
             EXPECT_EQ(m.size(), 32_MiB);
             EXPECT_FALSE(m.is_backed());
           }});
}

TEST(P2P, SubCommunicatorIsolatesTraffic) {
  TestBed bed(3);
  const Comm& sub = bed.world().create_comm({2, 0});  // sub rank 0 = world 2
  bed.run({[&](Mpi& mpi, sim::Context&) {
             // World rank 0 is sub rank 1.
             std::array<int, 1> v{5};
             mpi.send(sub, 0, 9, util::Buffer::of<int>(v));
           },
           [&](Mpi&, sim::Context&) { /* not a member */ },
           [&](Mpi& mpi, sim::Context&) {
             Status st;
             auto m = mpi.recv(sub, 1, 9, &st);
             EXPECT_EQ(m.as<int>()[0], 5);
             EXPECT_EQ(st.source, 1);  // sub rank of world rank 0
           }});
}

TEST(P2P, SameTagDifferentCommsDoNotMatch) {
  TestBed bed(2);
  const Comm& sub = bed.world().create_comm({0, 1});
  bed.run({[&](Mpi& mpi, sim::Context&) {
             std::array<int, 1> w{1};
             std::array<int, 1> s{2};
             mpi.send(bed.comm(), 1, 4, util::Buffer::of<int>(w));
             mpi.send(sub, 1, 4, util::Buffer::of<int>(s));
           },
           [&](Mpi& mpi, sim::Context&) {
             // Receive on the sub communicator first: must get the sub
             // message even though the world message arrived earlier.
             auto m_sub = mpi.recv(sub, 0, 4);
             auto m_world = mpi.recv(bed.comm(), 0, 4);
             EXPECT_EQ(m_sub.as<int>()[0], 2);
             EXPECT_EQ(m_world.as<int>()[0], 1);
           }});
}

TEST(P2P, NonMemberCallThrows) {
  TestBed bed(2);
  const Comm& solo = bed.world().create_comm({0});
  bed.run({[&](Mpi&, sim::Context&) {},
           [&](Mpi& mpi, sim::Context&) {
             EXPECT_THROW(
                 mpi.send(solo, 0, 0, util::Buffer::backed_zero(1)),
                 std::logic_error);
           }});
}

TEST(P2P, ManyPairsSimultaneously) {
  const int n = 8;
  TestBed bed(n);
  std::vector<std::function<void(Mpi&, sim::Context&)>> mains;
  for (int r = 0; r < n; ++r) {
    mains.emplace_back([&, r](Mpi& mpi, sim::Context&) {
      const int partner = r ^ 1;
      std::array<int, 1> v{r};
      Request s = mpi.isend(bed.comm(), partner, 0, util::Buffer::of<int>(v));
      auto m = mpi.recv(bed.comm(), partner, 0);
      mpi.wait(s);
      EXPECT_EQ(m.as<int>()[0], partner);
    });
  }
  bed.run(std::move(mains));
}

}  // namespace
}  // namespace dacc::dmpi
