// Typed RPC channel over dmpi — the one place that knows the middleware's
// request framing.
//
// The paper's middleware is an RPC system at heart: every acMemAlloc /
// acKernelRun is a request/response message pair over MPI (Section IV), and
// the same header convention is shared by the front-end <-> daemon protocol,
// the daemon <-> daemon peer-transfer leg, and the ARM control protocol.
// Channel (client side) and ServerChannel (server side) own that convention:
//
//   header   = u32 op word | u32 reply-tag word
//   reply    = posted on the reply tag; bulk data blocks on reply_tag + 1
//   tracing  = bit 31 of the tag word (proto::kTraceContextFlag) marks two
//              appended u64s: causal trace id + parent span id
//   errors   = decoders throw proto::WireError; servers turn it into a
//              typed status instead of crashing or partially replying
//
// Channel also owns reply-tag allocation (one tag space per rank, drawn from
// the rank's endpoint counter — deterministic under every execution
// backend), the front-end RetryPolicy ladder (with_retry), and the
// per-channel message / ops instrumentation behind the command-stream
// batching of rpc/batch.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "dmpi/mpi.hpp"
#include "obs/metrics.hpp"
#include "proto/wire.hpp"
#include "util/buffer.hpp"
#include "util/units.hpp"

namespace dacc::rpc {

/// Exponential backoff between retry attempts: base, base*2, base*4, ...
/// capped.
inline constexpr SimDuration kRetryBackoffBase = 50'000;    // 50 us
inline constexpr SimDuration kRetryBackoffCap = 2'000'000;  // 2 ms
/// How many device deaths one accelerator handle survives under
/// RetryPolicy::replace_on_failure.
inline constexpr int kMaxReplacements = 3;

/// Failure-handling policy for channel requests (paper Section III.A: a
/// broken accelerator is replaced from the pool without losing the compute
/// node). All requests are idempotent from the daemon's perspective, so the
/// semantics are at-least-once.
struct RetryPolicy {
  /// Per-request response deadline; 0 disables timeouts (wait forever).
  /// Timeouts detect *loss* (dead link/daemon), not slowness — pick a value
  /// comfortably above the largest expected transfer time.
  SimDuration request_timeout = 0;
  /// Additional attempts after the first one times out.
  int max_retries = 3;
  /// Transparently re-acquire a healthy accelerator when the leased one
  /// dies (up to kMaxReplacements times): the session's allocation table
  /// and operation log are replayed on the replacement and the failed
  /// request re-executed there.
  bool replace_on_failure = false;
};

/// Runs `attempt(deadline)` under the policy's timeout/backoff ladder: up to
/// 1 + max_retries tries with capped exponential backoff between them.
/// Returns true as soon as an attempt returns true; false when every attempt
/// timed out (the server is unreachable).
template <typename Fn>
bool with_retry(sim::Context& ctx, const RetryPolicy& rp, Fn&& attempt) {
  const int attempts = rp.request_timeout > 0 ? rp.max_retries + 1 : 1;
  for (int a = 0; a < attempts; ++a) {
    if (a > 0) {
      const int shift = a - 1 < 20 ? a - 1 : 20;
      const SimDuration backoff = kRetryBackoffBase << shift;
      ctx.wait_for(backoff < kRetryBackoffCap ? backoff : kRetryBackoffCap);
    }
    const SimTime deadline =
        rp.request_timeout > 0 ? ctx.now() + rp.request_timeout : kSimTimeNever;
    if (attempt(deadline)) return true;
  }
  return false;
}

/// Command-stream batching knobs (DESIGN.md §10). Off by default: every op
/// is then a flush of one and travels as its own request/response pair.
/// When enabled, a front-end proxy coalesces consecutive pending small
/// control ops into one kBatch frame, at most `watermark` sub-requests per
/// flush. Synchronous calls and lone ops are still flushes of one on
/// single-op frames, so enabling batching only changes the wire when an
/// async command stream has actually built up.
struct StreamConfig {
  bool enabled = false;
  std::uint32_t watermark = 16;
};

/// Bare request header (op word + reply-tag word, no trace context): the
/// building block Channel::request composes, exposed for one-way frames
/// encoded away from a live channel (the ARM liveness messages).
proto::WireWriter request_header(std::uint32_t op_word, int reply_tag);

/// Client side of one request/response relationship with a server rank.
class Channel {
 public:
  struct Options {
    int request_tag = proto::kRequestTag;
    /// Append the engine's current causal trace context to request headers
    /// (proto::kTraceContextFlag).
    bool trace_context = false;
    /// Label for the per-channel obs instruments; empty disables them.
    std::string metrics_label;
  };

  /// Front-end -> daemon options: traced, metered per CN rank.
  static Options frontend(dmpi::Rank self);

  Channel(dmpi::Mpi& mpi, const dmpi::Comm& comm, dmpi::Rank server,
          Options options);

  dmpi::Mpi& mpi() { return mpi_; }
  const dmpi::Comm& comm() const { return comm_; }
  dmpi::Rank server() const { return server_; }
  /// Reroutes subsequent requests (transparent accelerator replacement).
  void set_server(dmpi::Rank server) { server_ = server; }

  /// Allocates the next reply tag from the rank's one tag space
  /// (dmpi::Mpi::fresh_tag_seed): every channel on a rank draws from the
  /// same counter, so a tag names exactly one request on its rank — across
  /// channels, servers and retries alike. Tags are even; `tag + 1` carries
  /// the request's bulk data blocks.
  int next_reply_tag();

  /// Builds a request header; the caller appends the body and hands the
  /// frame to exchange()/post()/send_request().
  proto::WireWriter request(std::uint32_t op_word, int reply_tag);
  template <typename OpT, typename = std::enable_if_t<std::is_enum_v<OpT>>>
  proto::WireWriter request(OpT op, int reply_tag) {
    return request(static_cast<std::uint32_t>(op), reply_tag);
  }

  /// One request/response exchange. The reply receive is posted before the
  /// request goes out; on deadline expiry it is cancelled (a late response
  /// parks harmlessly on the abandoned tag) and nullopt returns.
  std::optional<util::Buffer> exchange(util::Buffer frame, int reply_tag,
                                       SimTime deadline = kSimTimeNever);

  /// Fire-and-forget request (one-way ops carry reply tag 0).
  void post(util::Buffer frame);

  // Split-phase exchange, for calls that move bulk payload blocks between
  // request and response (H2D, the peer-put leg): post the reply receive,
  // send the request, stream the blocks, then finish(). The reply receive
  // matches its tag from any source: the tag alone names the request, and
  // after a failover the answer to a resent request may come from another
  // replica than the one last addressed.
  dmpi::Request post_reply(int reply_tag);
  void send_request(util::Buffer frame);
  /// Waits for a posted reply until `deadline`; cancels it on expiry and
  /// returns false.
  bool finish(dmpi::Request& reply, SimTime deadline = kSimTimeNever);

  /// Records one flushed command group of `n` sub-requests against the
  /// channel's ops counter and batch-size histogram (no-op when unmetered).
  /// Singles count as groups of 1, so msgs-per-op is counters all the way.
  void note_flush(std::uint32_t n);

 private:
  dmpi::Mpi& mpi_;
  const dmpi::Comm& comm_;
  dmpi::Rank server_;
  Options options_;

  // Metrics, registered at construction for a labelled channel (no-op
  // handles without a label or a registry).
  obs::Counter m_msgs_;
  obs::Counter m_ops_;
  obs::Histogram m_batch_size_;
};

/// One decoded request header, as servers see it.
struct Inbound {
  Inbound(dmpi::Rank src, proto::WireReader reader)
      : source(src), body(std::move(reader)) {}

  dmpi::Rank source;          ///< comm rank of the requester
  std::uint32_t op_word = 0;  ///< op code, trace flag stripped
  int reply_tag = 0;          ///< 0 = one-way message
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  proto::WireReader body;  ///< positioned at the request body

  template <typename OpT>
  OpT op() const {
    return static_cast<OpT>(op_word);
  }
  bool traced() const { return trace_id != 0; }
};

/// Server side: receives frames on the request tag, decodes headers, sends
/// replies. raw() and decode() are split so service loops can charge their
/// dispatch cost between arrival and decode, exactly where the hand-rolled
/// loops used to.
class ServerChannel {
 public:
  struct Options {
    int request_tag = proto::kRequestTag;
    /// Smallest acceptable reply tag; ARM-style one-way frames use 0.
    int min_reply_tag = 1;
  };

  ServerChannel(dmpi::Mpi& mpi, const dmpi::Comm& comm, Options options)
      : mpi_(mpi), comm_(comm), options_(std::move(options)) {}

  /// Blocks for the next raw request frame; reports the sender.
  util::Buffer raw(dmpi::Rank* source);

  /// Decodes a frame header. Throws proto::WireError on a frame too short
  /// to carry one or on an out-of-range reply tag; the message was consumed
  /// either way, so the caller can count the failure and keep serving.
  Inbound decode(dmpi::Rank source, util::Buffer frame) const;

  void reply(const Inbound& req, util::Buffer frame) {
    reply(req.source, req.reply_tag, std::move(frame));
  }
  void reply(dmpi::Rank client, int reply_tag, util::Buffer frame);

  dmpi::Mpi& mpi() { return mpi_; }
  const dmpi::Comm& comm() const { return comm_; }

 private:
  dmpi::Mpi& mpi_;
  const dmpi::Comm& comm_;
  Options options_;
};

}  // namespace dacc::rpc
