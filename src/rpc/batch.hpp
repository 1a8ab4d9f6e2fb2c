// Command-stream batch frames (proto::Op::kBatch).
//
// A batch carries N small control ops in one request message and gets one
// completion frame back, cutting the middleware's two-MPI-messages-per-
// request cost (paper Section IV) to 2/N for op-dense streams. Layout after
// the ordinary channel header:
//
//   request:  u32 count | count x ( u32 sub-op word | sub-op request body )
//   reply:    u32 count | count x ( u32 status | u64 ptr )
//
// Sub-op words must be plain (no trace flag — the batch header already
// carries the stream's context) and drawn from the batchable() set; bulk
// transfers keep the zero-copy pipeline path and are never batched. The
// reply's ptr is meaningful for kMemAlloc and zero otherwise. A server that
// rejects the whole batch answers with a bare u32 status frame instead —
// decode_batch_reply() expands it to one status per sub-request, so callers
// never see a partial reply.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "proto/wire.hpp"
#include "util/buffer.hpp"

namespace dacc::rpc {

/// Ops eligible for command-stream batching: small fixed-size control ops
/// whose request and reply both fit in one eager message.
constexpr bool batchable(proto::Op op) {
  switch (op) {
    case proto::Op::kMemAlloc:
    case proto::Op::kMemFree:
    case proto::Op::kKernelCreate:
    case proto::Op::kKernelRun:
      return true;
    default:
      return false;
  }
}

struct BatchItem {
  proto::Op op = proto::Op::kMemAlloc;
  std::uint64_t arg = 0;  ///< kMemAlloc: byte count; kMemFree: device pointer
  std::string kernel;     ///< kKernelCreate / kKernelRun
  gpu::LaunchConfig launch;  ///< kKernelRun
  gpu::KernelArgs args;      ///< kKernelRun
};

struct BatchResult {
  gpu::Result status = gpu::Result::kSuccess;
  gpu::DevPtr ptr = gpu::kNullDevPtr;  ///< kMemAlloc only
};

/// Appends one small op's request body, everything after its op word. The
/// one writer of these bodies: a single-op frame and a kBatch sub-request
/// carry the same bytes. Throws proto::WireError for an op outside
/// batchable().
void encode_item(proto::WireWriter& w, const BatchItem& item);

/// Reads one `op` request body written by encode_item. Throws
/// proto::WireError on a truncated body or an op outside batchable().
BatchItem decode_item(proto::Op op, proto::WireReader& r);

/// Appends `count` and the sub-requests to a frame under construction.
/// Takes the items by address, so a caller sends them without copying.
void encode_batch(proto::WireWriter& w,
                  std::span<const BatchItem* const> items);

/// Decodes the batched sub-requests (reader positioned after the header).
/// Throws proto::WireError naming the sub-request index and op on any
/// malformed item; the caller must not have executed anything yet.
std::vector<BatchItem> decode_batch(proto::WireReader& r);

util::Buffer encode_batch_reply(std::span<const BatchResult> results);

/// Deterministic child-span id for sub-op `index` of a batch whose
/// client-side span id is `batch_span`. Both ends of the wire derive the
/// same id, so no extra bytes travel in the frame: the front-end records
/// one child span per sub-op under this id, the daemon parents its
/// per-sub-op spans on it, and trace viewers stitch the small ops through
/// the batch frame they rode in.
inline std::uint64_t batch_sub_span(std::uint64_t batch_span,
                                    std::uint32_t index) {
  // Top byte 3 marks derived ids (1 = front-end roots, 2 = daemon-minted);
  // the index is mixed in so sibling sub-ops stay distinct.
  return (std::uint64_t{3} << 56) |
         ((batch_span ^
           ((std::uint64_t{index} + 1) * 0x9E3779B97F4A7C15ull)) &
          ((std::uint64_t{1} << 56) - 1));
}

/// Decodes a batched completion frame for `expected` sub-requests. A bare
/// status frame (the server rejecting the whole batch) is surfaced as
/// `expected` copies of that status.
std::vector<BatchResult> decode_batch_reply(util::Buffer frame,
                                            std::size_t expected);

}  // namespace dacc::rpc
