#include "rpc/batch.hpp"

namespace dacc::rpc {

using proto::Op;
using proto::WireError;

namespace {
/// Smallest possible sub-request: op word + a u32 body (empty kernel name).
constexpr std::size_t kMinItemBytes = 8;

std::string item_context(std::size_t index, std::uint32_t op_word) {
  return "batch sub-request " + std::to_string(index) + " (" +
         proto::op_name(op_word) + ")";
}
}  // namespace

void encode_item(proto::WireWriter& w, const BatchItem& item) {
  switch (item.op) {
    case Op::kMemAlloc:
    case Op::kMemFree:
      w.u64(item.arg);
      break;
    case Op::kKernelCreate:
      w.str(item.kernel);
      break;
    case Op::kKernelRun:
      w.str(item.kernel).launch_config(item.launch).kernel_args(item.args);
      break;
    default:
      throw WireError("op " +
                      proto::op_name(static_cast<std::uint32_t>(item.op)) +
                      " is not batchable");
  }
}

BatchItem decode_item(Op op, proto::WireReader& r) {
  BatchItem item;
  item.op = op;
  switch (op) {
    case Op::kMemAlloc:
    case Op::kMemFree:
      item.arg = r.u64();
      break;
    case Op::kKernelCreate:
      item.kernel = r.str();
      break;
    case Op::kKernelRun:
      item.kernel = r.str();
      item.launch = r.launch_config();
      item.args = r.kernel_args();
      break;
    default:
      throw WireError("op is not batchable");
  }
  return item;
}

void encode_batch(proto::WireWriter& w,
                  std::span<const BatchItem* const> items) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const BatchItem* item : items) {
    w.u32(static_cast<std::uint32_t>(item->op));
    encode_item(w, *item);
  }
}

std::vector<BatchItem> decode_batch(proto::WireReader& r) {
  const std::uint32_t count = r.u32();
  if (count == 0) {
    throw WireError("batch: empty sub-request list");
  }
  if (count > r.remaining() / kMinItemBytes) {
    throw WireError("batch: sub-request count " + std::to_string(count) +
                    " overflows " + std::to_string(r.remaining()) +
                    "-byte frame");
  }
  std::vector<BatchItem> items;
  items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t op_word = r.u32();
    if ((op_word & proto::kTraceContextFlag) != 0) {
      throw WireError(item_context(i, op_word & ~proto::kTraceContextFlag) +
                      ": trace flag set on inner op");
    }
    try {
      items.push_back(decode_item(static_cast<Op>(op_word), r));
    } catch (const WireError& e) {
      throw WireError(item_context(i, op_word) + ": " + e.what());
    }
  }
  return items;
}

util::Buffer encode_batch_reply(std::span<const BatchResult> results) {
  proto::WireWriter w;
  w.reserve(4 + results.size() * 12);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const BatchResult& res : results) {
    w.result(res.status).u64(res.ptr);
  }
  return w.finish();
}

std::vector<BatchResult> decode_batch_reply(util::Buffer frame,
                                            std::size_t expected) {
  proto::WireReader r(std::move(frame));
  if (r.remaining() == 4) {
    // Batch-level rejection: one status applied to every sub-request.
    const gpu::Result status = r.result();
    return std::vector<BatchResult>(expected, BatchResult{status});
  }
  const std::uint32_t count = r.u32();
  if (count != expected) {
    throw WireError("batch reply: expected " + std::to_string(expected) +
                    " sub-results, got " + std::to_string(count));
  }
  std::vector<BatchResult> results;
  results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchResult res;
    res.status = r.result();
    res.ptr = r.u64();
    results.push_back(res);
  }
  return results;
}

}  // namespace dacc::rpc
