#include "proto/transfer.hpp"

#include <stdexcept>
#include <vector>

namespace dacc::proto {

BlockPlan::BlockPlan(std::uint64_t total, const TransferConfig& config)
    : total_(total), block_(config.effective_block(total)) {
  if (total_ == 0) {
    block_ = 0;
    count_ = 0;
    return;
  }
  if (block_ == 0 || block_ > total_) block_ = total_;
  count_ = static_cast<std::size_t>((total_ + block_ - 1) / block_);
}

std::uint64_t BlockPlan::offset(std::size_t i) const {
  if (i >= count_) throw std::out_of_range("BlockPlan::offset");
  return static_cast<std::uint64_t>(i) * block_;
}

std::uint64_t BlockPlan::size(std::size_t i) const {
  if (i >= count_) throw std::out_of_range("BlockPlan::size");
  const std::uint64_t off = offset(i);
  return std::min(block_, total_ - off);
}

namespace {

// Cancels every not-yet-finished request (timeout and error unwind paths).
void cancel_outstanding(dmpi::Mpi& mpi, std::vector<dmpi::Request>& reqs) {
  for (dmpi::Request& r : reqs) {
    if (r.valid() && !r.done()) mpi.cancel(r);
  }
}

// Waits for reqs[i] until `deadline`; on timeout cancels every request and
// throws TransferTimeout.
void await(dmpi::Mpi& mpi, std::vector<dmpi::Request>& reqs, std::size_t i,
           SimTime deadline) {
  if (!mpi.wait_until(reqs[i], deadline)) {
    cancel_outstanding(mpi, reqs);
    throw TransferTimeout{};
  }
}

// Waits for every request, newest first. A block stream's requests
// complete in order, because its blocks cross one link in order, so the
// caller wakes once per stream and then finds the older ones done.
void await_all(dmpi::Mpi& mpi, std::vector<dmpi::Request>& reqs,
               SimTime deadline) {
  for (std::size_t i = reqs.size(); i-- > 0;) await(mpi, reqs, i, deadline);
}

// Pre-posts one receive per block, so rendezvous handshakes are never on
// the critical path.
std::vector<dmpi::Request> post_recvs(dmpi::Mpi& mpi, const dmpi::Comm& comm,
                                      dmpi::Rank src, const BlockPlan& plan,
                                      int data_tag) {
  std::vector<dmpi::Request> recvs;
  recvs.reserve(plan.count());
  for (std::size_t i = 0; i < plan.count(); ++i) {
    recvs.push_back(mpi.irecv(comm, src, data_tag));
  }
  return recvs;
}

// Takes block i's payload. A block of the wrong size cancels the receives
// still posted first, so none of them swallows a later message.
util::Buffer take_block(dmpi::Mpi& mpi, std::vector<dmpi::Request>& recvs,
                        const BlockPlan& plan, std::size_t i) {
  util::Buffer block = recvs[i].take_payload();
  if (block.size() != plan.size(i)) {
    cancel_outstanding(mpi, recvs);
    throw std::runtime_error("recv_blocks: block size mismatch");
  }
  return block;
}

}  // namespace

void send_blocks(dmpi::Mpi& mpi, const dmpi::Comm& comm, dmpi::Rank dst,
                 util::Buffer payload, const TransferConfig& config,
                 int data_tag, SimTime deadline) {
  const BlockPlan plan(payload.size(), config);
  if (plan.count() == 0) return;
  if (plan.count() == 1 && deadline == kSimTimeNever) {
    mpi.send(comm, dst, data_tag, std::move(payload));
    return;
  }
  std::vector<dmpi::Request> sends;
  sends.reserve(plan.count());
  for (std::size_t i = 0; i < plan.count(); ++i) {
    // Zero-copy carve: each block is a view over the payload's store. The
    // store is freed once the last in-flight block is consumed.
    sends.push_back(mpi.isend(comm, dst, data_tag,
                              payload.view(plan.offset(i), plan.size(i))));
  }
  await_all(mpi, sends, deadline);
}

void recv_blocks(dmpi::Mpi& mpi, const dmpi::Comm& comm, dmpi::Rank src,
                 std::uint64_t total, const TransferConfig& config,
                 const std::function<void(std::uint64_t, util::Buffer)>&
                     on_block,
                 int data_tag, SimTime deadline) {
  const BlockPlan plan(total, config);
  // Consumed in order, one wake per block, so on_block sees a clean offset
  // stream at each block's arrival time.
  std::vector<dmpi::Request> recvs =
      post_recvs(mpi, comm, src, plan, data_tag);
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    await(mpi, recvs, i, deadline);
    on_block(plan.offset(i), take_block(mpi, recvs, plan, i));
  }
}

util::Buffer recv_assemble(dmpi::Mpi& mpi, const dmpi::Comm& comm,
                           dmpi::Rank src, std::uint64_t total,
                           const TransferConfig& config, int data_tag,
                           SimTime deadline) {
  const BlockPlan plan(total, config);
  std::vector<dmpi::Request> recvs =
      post_recvs(mpi, comm, src, plan, data_tag);
  // Nothing happens per block here, so the stream costs one wake: the
  // received blocks wait in their requests until the last one lands.
  await_all(mpi, recvs, deadline);
  util::Buffer out;
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    const util::Buffer block = take_block(mpi, recvs, plan, i);
    if (i == 0) {
      out = block.is_backed() ? util::Buffer::backed_zero(total)
                              : util::Buffer::phantom(total);
    }
    out.write_at(plan.offset(i), block);
  }
  return out;
}

}  // namespace dacc::proto
