// Bulk payload movement for the middleware: the naive protocol (one message,
// then one DMA) and the pipeline protocol (payload split into blocks so that
// network receive and host-to-GPU DMA overlap — Section IV of the paper).
//
// These helpers are shared by the front-end, the back-end daemon, and the
// daemon-to-daemon peer transfer path.
#pragma once

#include <cstdint>
#include <functional>

#include "dmpi/mpi.hpp"
#include "proto/wire.hpp"

namespace dacc::proto {

/// How a payload of `total` bytes is split under a transfer config.
class BlockPlan {
 public:
  BlockPlan(std::uint64_t total, const TransferConfig& config);

  std::uint64_t total() const { return total_; }
  std::uint64_t block_bytes() const { return block_; }
  std::size_t count() const { return count_; }
  std::uint64_t offset(std::size_t i) const;
  std::uint64_t size(std::size_t i) const;

 private:
  std::uint64_t total_;
  std::uint64_t block_;
  std::size_t count_;
};

/// A bulk transfer did not drain before its deadline (typically because the
/// peer's link failed mid-stream). Outstanding requests are cancelled before
/// this is thrown, so the caller can retry on fresh tags.
class TransferTimeout : public std::runtime_error {
 public:
  TransferTimeout() : std::runtime_error("transfer: deadline exceeded") {}
};

/// Sends `payload` to `dst` as the plan's sequence of `data_tag` messages.
/// All sends are posted nonblocking and then awaited, so consecutive blocks
/// stream back to back on the link. With a finite `deadline`, blocks not
/// completed in time are cancelled and TransferTimeout is thrown.
void send_blocks(dmpi::Mpi& mpi, const dmpi::Comm& comm, dmpi::Rank dst,
                 util::Buffer payload, const TransferConfig& config,
                 int data_tag, SimTime deadline = kSimTimeNever);

/// Receives `total` bytes from `src` under the same plan. All receives are
/// pre-posted; `on_block(offset, data)` runs in block order, at the
/// simulated time each block's receive completes — the daemon's callback
/// issues the next DMA there, which is what creates the overlap.
void recv_blocks(dmpi::Mpi& mpi, const dmpi::Comm& comm, dmpi::Rank src,
                 std::uint64_t total, const TransferConfig& config,
                 const std::function<void(std::uint64_t, util::Buffer)>&
                     on_block,
                 int data_tag, SimTime deadline = kSimTimeNever);

/// recv_blocks() assembling everything into one buffer (front-end side of a
/// device-to-host copy). Phantom blocks yield a phantom result.
util::Buffer recv_assemble(dmpi::Mpi& mpi, const dmpi::Comm& comm,
                           dmpi::Rank src, std::uint64_t total,
                           const TransferConfig& config,
                           int data_tag, SimTime deadline = kSimTimeNever);

}  // namespace dacc::proto
