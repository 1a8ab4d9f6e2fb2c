#include "rpc/channel.hpp"

#include <string>

namespace dacc::rpc {

namespace {
/// The reply-tag space of every rank: the n-th tag a rank draws is
/// base + 2 * (n % span). Replies land on the even tag, bulk data on the odd
/// one (reply_tag + 1). The range stays below dmpi::kMaxUserTag and clear of
/// the ARM request and revocation tags.
constexpr int kReplyTagBase = 4'000'000;
constexpr std::uint64_t kReplyTagSpan = 100'000'000;
}  // namespace

proto::WireWriter request_header(std::uint32_t op_word, int reply_tag) {
  proto::WireWriter w;
  w.u32(op_word).u32(static_cast<std::uint32_t>(reply_tag));
  return w;
}

Channel::Options Channel::frontend(dmpi::Rank self) {
  Options o;
  o.trace_context = true;
  o.metrics_label = "fe-r" + std::to_string(self);
  return o;
}

Channel::Channel(dmpi::Mpi& mpi, const dmpi::Comm& comm, dmpi::Rank server,
                 Options options)
    : mpi_(mpi), comm_(comm), server_(server), options_(std::move(options)) {
  obs::Registry* const reg = mpi_.world().engine().metrics();
  if (reg == nullptr || options_.metrics_label.empty()) return;
  const std::string labels = obs::labeled("", "chan", options_.metrics_label);
  m_msgs_ = reg->counter("dacc_rpc_msgs_total" + labels);
  m_ops_ = reg->counter("dacc_rpc_ops_total" + labels);
  m_batch_size_ =
      reg->histogram("dacc_rpc_batch_size" + labels, {1, 2, 4, 8, 16, 32, 64});
}

int Channel::next_reply_tag() {
  return kReplyTagBase +
         2 * static_cast<int>(mpi_.fresh_tag_seed() % kReplyTagSpan);
}

void Channel::note_flush(std::uint32_t n) {
  m_ops_.add(n);
  m_batch_size_.observe(n);
}

proto::WireWriter Channel::request(std::uint32_t op_word, int reply_tag) {
  // Requests from a traced API call carry the causal context after the
  // reply tag (flag bit 31); untraced clients emit the unchanged format.
  if (options_.trace_context) {
    const sim::TraceCtx tc = mpi_.world().engine().current_trace();
    if (tc.active()) {
      proto::WireWriter w;
      w.u32(op_word)
          .u32(static_cast<std::uint32_t>(reply_tag) | proto::kTraceContextFlag)
          .u64(tc.trace_id)
          .u64(tc.span_id);
      return w;
    }
  }
  return request_header(op_word, reply_tag);
}

std::optional<util::Buffer> Channel::exchange(util::Buffer frame,
                                              int reply_tag,
                                              SimTime deadline) {
  dmpi::Request reply = post_reply(reply_tag);
  send_request(std::move(frame));
  if (!finish(reply, deadline)) return std::nullopt;
  return reply.take_payload();
}

void Channel::post(util::Buffer frame) {
  m_msgs_.add();
  mpi_.send(comm_, server_, options_.request_tag, std::move(frame));
}

dmpi::Request Channel::post_reply(int reply_tag) {
  return mpi_.irecv(comm_, dmpi::kAnySource, reply_tag);
}

void Channel::send_request(util::Buffer frame) {
  m_msgs_.add();
  mpi_.send(comm_, server_, options_.request_tag, std::move(frame));
}

bool Channel::finish(dmpi::Request& reply, SimTime deadline) {
  if (!mpi_.wait_until(reply, deadline)) {
    mpi_.cancel(reply);
    return false;
  }
  m_msgs_.add();
  return true;
}

util::Buffer ServerChannel::raw(dmpi::Rank* source) {
  dmpi::Status st;
  util::Buffer msg =
      mpi_.recv(comm_, dmpi::kAnySource, options_.request_tag, &st);
  *source = st.source;
  return msg;
}

Inbound ServerChannel::decode(dmpi::Rank source, util::Buffer frame) const {
  proto::WireReader r(std::move(frame));
  // Frame header: op code + the tag the client wants the reply on (bulk
  // data travels on reply_tag + 1), optionally followed by the client's
  // causal trace context (flag bit 31 of the tag word). A frame too short
  // to carry the header cannot even be answered.
  const std::uint32_t op_word = r.u32();
  std::uint32_t tag_word = r.u32();
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  if ((tag_word & proto::kTraceContextFlag) != 0) {
    trace_id = r.u64();
    parent_span = r.u64();
    tag_word &= ~proto::kTraceContextFlag;
  }
  const int reply_tag = static_cast<int>(tag_word);
  if (reply_tag < options_.min_reply_tag ||
      reply_tag >= dmpi::kMaxUserTag * 2) {
    throw proto::WireError("rpc: " + proto::op_name(op_word) +
                           " request with reply tag out of range");
  }
  Inbound in(source, std::move(r));
  in.op_word = op_word;
  in.reply_tag = reply_tag;
  in.trace_id = trace_id;
  in.parent_span = parent_span;
  return in;
}

void ServerChannel::reply(dmpi::Rank client, int reply_tag,
                          util::Buffer frame) {
  mpi_.send(comm_, client, reply_tag, std::move(frame));
}

}  // namespace dacc::rpc
