// Wire protocol between the front-end (compute node) and the back-end
// daemon (accelerator node).
//
// The paper's protocol is two MPI messages per request: a request from the
// front-end and a response (error code or data) from the back-end
// (Section IV). Requests are serialized into flat byte buffers here, exactly
// as they would be on a real deployment, so tests exercise the encode/decode
// path rather than passing C++ objects through a side door.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "gpu/device.hpp"
#include "util/buffer.hpp"
#include "util/units.hpp"

namespace dacc::proto {

/// Request tag on the middleware communicator. Requests carry a per-request
/// reply tag right after the op code (rpc::Channel::next_reply_tag); the
/// daemon answers on that tag and streams bulk data on reply_tag + 1.
inline constexpr int kRequestTag = 100;  ///< FE -> daemon request headers

/// Bit 31 of a request header's reply-tag word marks an appended causal
/// trace context (two u64s right after the tag: trace id, parent span id).
/// Real reply tags stay far below 2^31, so the bit is never ambiguous, and
/// daemons that see the flag strip it before using the tag. Requests from
/// untraced clients never set it — the header format is unchanged for them.
inline constexpr std::uint32_t kTraceContextFlag = 0x8000'0000u;

/// Malformed frame: truncated message or out-of-range field. Decoders throw
/// this instead of crashing; servers treat it as a rejectable request.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Op : std::uint32_t {
  kMemAlloc = 1,
  kMemFree = 2,
  kMemcpyHtoD = 3,
  kMemcpyDtoH = 4,
  kKernelCreate = 5,
  kKernelRun = 6,
  kDeviceInfo = 7,
  kPeerSend = 8,  ///< FE asks the source daemon to push to a peer daemon
  kPeerPut = 9,   ///< daemon -> daemon leg of a peer transfer
  kShutdown = 10,
  kBatch = 11,  ///< N batched small-op sub-requests in one frame (rpc/batch)
};

const char* to_string(Op op);

/// to_string for raw op words (decoders reporting unknown codes): the op
/// name for known values, "Op(<n>)" otherwise.
std::string op_name(std::uint32_t op_word);

/// How bulk payloads move between compute node and accelerator.
struct TransferConfig {
  enum class Mode : std::uint32_t {
    kNaive = 0,     ///< whole payload in one message, then one DMA
    kPipeline = 1,  ///< split into blocks; network overlaps DMA
  };

  Mode mode = Mode::kPipeline;

  /// Fixed pipeline block size (used when adaptive == false).
  std::uint64_t block_bytes = 512 * 1024;

  /// The paper's tuned policy: 128 KiB blocks below the cutoff, 512 KiB
  /// above ("pipeline-128-512K", Section V.A).
  bool adaptive = false;
  std::uint64_t adaptive_small_bytes = 128 * 1024;
  std::uint64_t adaptive_large_bytes = 512 * 1024;
  std::uint64_t adaptive_cutoff_bytes = 9 * 1024 * 1024;

  /// GPUDirect v1: the NIC and the GPU share pinned pages, so a received
  /// block is DMA-able in place. When false, every block pays an extra
  /// host-to-host staging copy on the accelerator CPU.
  bool gpudirect = true;

  /// Effective block size for a payload of `total` bytes.
  std::uint64_t effective_block(std::uint64_t total) const {
    if (mode == Mode::kNaive) return total;
    if (!adaptive) return block_bytes;
    return total < adaptive_cutoff_bytes ? adaptive_small_bytes
                                         : adaptive_large_bytes;
  }

  static TransferConfig naive() {
    TransferConfig c;
    c.mode = Mode::kNaive;
    return c;
  }
  static TransferConfig pipeline(std::uint64_t block) {
    TransferConfig c;
    c.mode = Mode::kPipeline;
    c.block_bytes = block;
    return c;
  }
  static TransferConfig pipeline_adaptive() {
    TransferConfig c;
    c.mode = Mode::kPipeline;
    c.adaptive = true;
    return c;
  }
};

/// CPU-side middleware costs (marshalling, dispatch, staging).
struct ProtoParams {
  SimDuration fe_marshal = 700;    ///< ns, front-end per request
  SimDuration be_dispatch = 1500;  ///< ns, daemon decode + driver call
  /// Host-to-host staging copy rate used when GPUDirect is off.
  double staging_copy_mib_s = 4800.0;
  /// DMA rate through GPUDirect v1's NIC/GPU shared pinned pages. v1 page
  /// sharing was markedly slower than ordinary pinned transfers (the
  /// cuMemHostRegister path); this rate shapes the pipeline drain and is
  /// what pins the paper's 128K-vs-512K crossover near 9 MiB.
  double gpudirect_dma_mib_s = 4200.0;
};

// ---------------------------------------------------------------------------
// Flat binary serialization
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  /// Every request header fits in ~100 bytes; reserving up front means a
  /// typical message is built with exactly one allocation and no
  /// grow-and-copy cycles.
  WireWriter() { bytes_.reserve(kInitialCapacity); }

  WireWriter& u32(std::uint32_t v);
  WireWriter& u64(std::uint64_t v);
  WireWriter& f64(double v);
  WireWriter& str(const std::string& s);  ///< length-prefixed
  /// Length-prefixed opaque byte block (nested frames: replicated-log
  /// commands, state-machine snapshots).
  WireWriter& blob(std::span<const std::byte> src);

  /// Bulk append of raw bytes (single insert, no per-byte growth).
  WireWriter& bytes(std::span<const std::byte> src);

  /// Pre-grow for `n` more bytes (callers that know their message size).
  WireWriter& reserve(std::size_t n) {
    bytes_.reserve(bytes_.size() + n);
    return *this;
  }
  WireWriter& op(Op o) { return u32(static_cast<std::uint32_t>(o)); }
  WireWriter& result(gpu::Result r) {
    return u32(static_cast<std::uint32_t>(r));
  }
  WireWriter& transfer_config(const TransferConfig& c);
  WireWriter& launch_config(const gpu::LaunchConfig& c);
  WireWriter& kernel_args(const gpu::KernelArgs& args);

  util::Buffer finish();

 private:
  static constexpr std::size_t kInitialCapacity = 112;

  std::vector<std::byte> bytes_;
};

class WireReader {
 public:
  /// Takes ownership of the message buffer (so reading from a temporary —
  /// e.g. `WireReader r(mpi.recv(...))` — is safe).
  explicit WireReader(util::Buffer buffer);

  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Length-prefixed opaque byte block written by WireWriter::blob.
  util::Buffer blob();
  /// Everything left in the message, as an owning buffer (lifting a request
  /// body out of a decoded frame into a replicated-log command).
  util::Buffer rest();
  Op op() { return static_cast<Op>(u32()); }
  gpu::Result result() { return static_cast<gpu::Result>(u32()); }
  TransferConfig transfer_config();
  gpu::LaunchConfig launch_config();
  gpu::KernelArgs kernel_args();

  bool exhausted() const { return offset_ == bytes_.size(); }
  /// Bytes left to read (batch decoders bound sub-request counts with it).
  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  void need(std::size_t n) const;

  util::Buffer buffer_;
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace dacc::proto
