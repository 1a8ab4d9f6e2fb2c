#include "arm/lease_machine.hpp"

#include <algorithm>

#include "rpc/channel.hpp"

namespace dacc::arm {

using proto::WireReader;
using proto::WireWriter;

namespace {

/// Replies remembered per client for duplicate resends. Deep enough that a
/// client's whole failover window (a handful of in-flight requests) fits;
/// old entries age out FIFO.
constexpr std::size_t kReplyCacheDepth = 8;

/// Snapshot format version (bumped on any layout change). restore() accepts
/// only this one: every snapshot reader and writer ships in the same build.
constexpr std::uint32_t kSnapshotVersion = 2;

/// Sanity bound on the zone count read from an untrusted snapshot (the
/// latency matrix is zones^2 — a garbage count must not allocate).
constexpr std::uint32_t kMaxZones = 4096;

util::Buffer result_frame(ArmResult r) {
  return WireWriter{}.u32(static_cast<std::uint32_t>(r)).finish();
}

util::Buffer insufficient_frame() {
  return WireWriter{}
      .u32(static_cast<std::uint32_t>(ArmResult::kInsufficient))
      .u32(0)
      .finish();
}

}  // namespace

const char* to_string(ArmResult r) {
  switch (r) {
    case ArmResult::kOk:
      return "ok";
    case ArmResult::kInsufficient:
      return "insufficient accelerators";
    case ArmResult::kUnknownHandle:
      return "unknown handle";
    case ArmResult::kNotOwner:
      return "not the owner";
    case ArmResult::kRevoked:
      return "lease revoked";
    case ArmResult::kNotLeader:
      return "not the leader";
  }
  return "unknown";
}

const char* priority_class_name(std::uint32_t priority) {
  switch (std::min(priority, kPriorityClasses - 1)) {
    case kPriorityBatch:
      return "batch";
    case kPriorityNormal:
      return "normal";
    case kPriorityHigh:
      return "high";
    default:
      return "urgent";
  }
}

// ---------------------------------------------------------------------------
// ResourceRequest
// ---------------------------------------------------------------------------

void ResourceRequest::encode_body(proto::WireWriter& w) const {
  w.u64(job)
      .u32(count)
      .u32(wait ? 1 : 0)
      .str(kind)
      .u32(kAcquireExtVersion)
      .u64(memory_bytes)
      .u32(priority)
      .u32(gang ? 1 : 0)
      .u64(static_cast<std::uint64_t>(locality));
}

ResourceRequest ResourceRequest::decode_body(proto::WireReader& r) {
  ResourceRequest q;
  q.job = r.u64();
  q.count = r.u32();
  q.wait = r.u32() != 0;
  q.kind = r.str();
  if (r.u32() != kAcquireExtVersion) {
    throw proto::WireError("arm: unknown acquire extension version");
  }
  q.memory_bytes = r.u64();
  q.priority = r.u32();
  if (q.priority > kMaxPriority) {
    throw proto::WireError("arm: acquire priority out of range");
  }
  q.gang = r.u32() != 0;
  q.locality = static_cast<std::int64_t>(r.u64());
  if (!r.exhausted()) {
    throw proto::WireError("arm: trailing bytes after acquire extension");
  }
  return q;
}

// ---------------------------------------------------------------------------
// Liveness wire messages. Full frames (rpc header + payload) so the fuzz
// suite round-trips exactly what travels on kArmRequestTag; one-way
// messages carry reply tag 0.
// ---------------------------------------------------------------------------

util::Buffer Heartbeat::encode() const {
  return rpc::request_header(static_cast<std::uint32_t>(ArmOp::kHeartbeat), 0)
      .u64(static_cast<std::uint64_t>(daemon_rank))
      .u64(seq)
      .u32(device_ok ? 1 : 0)
      .u64(sent_at)
      .finish();
}

Heartbeat Heartbeat::decode(proto::WireReader& r) {
  Heartbeat hb;
  hb.daemon_rank = static_cast<dmpi::Rank>(r.u64());
  hb.seq = r.u64();
  hb.device_ok = r.u32() != 0;
  hb.sent_at = r.u64();
  return hb;
}

util::Buffer SweepRequest::encode() const {
  WireWriter w =
      rpc::request_header(static_cast<std::uint32_t>(ArmOp::kSweep), 0);
  encode_body(w);
  return w.finish();
}

void SweepRequest::encode_body(proto::WireWriter& w) const {
  w.u64(static_cast<std::uint64_t>(period))
      .u32(miss_threshold)
      .u32(fresh ? 1 : 0);
}

SweepRequest SweepRequest::decode(proto::WireReader& r) {
  SweepRequest s;
  s.period = r.u64();
  s.miss_threshold = r.u32();
  s.fresh = r.u32() != 0;
  return s;
}

util::Buffer RevokeNotice::encode() const {
  return WireWriter{}
      .u64(static_cast<std::uint64_t>(daemon_rank))
      .u64(lease_id)
      .u64(job)
      .u64(revoked_at)
      .u32(reason)
      .finish();
}

RevokeNotice RevokeNotice::decode(proto::WireReader& r) {
  RevokeNotice n;
  n.daemon_rank = static_cast<dmpi::Rank>(r.u64());
  n.lease_id = r.u64();
  n.job = r.u64();
  n.revoked_at = r.u64();
  n.reason = r.u32();
  return n;
}

util::Buffer ReplayReport::encode(int reply_tag) const {
  return rpc::request_header(static_cast<std::uint32_t>(ArmOp::kReplaced),
                             reply_tag)
      .u64(static_cast<std::uint64_t>(failed_rank))
      .u64(static_cast<std::uint64_t>(replacement_rank))
      .u64(job)
      .u32(replayed_ops)
      .u64(replayed_bytes)
      .finish();
}

ReplayReport ReplayReport::decode(proto::WireReader& r) {
  ReplayReport rep;
  rep.failed_rank = static_cast<dmpi::Rank>(r.u64());
  rep.replacement_rank = static_cast<dmpi::Rank>(r.u64());
  rep.job = r.u64();
  rep.replayed_ops = r.u32();
  rep.replayed_bytes = r.u64();
  return rep;
}

// ---------------------------------------------------------------------------
// Command
// ---------------------------------------------------------------------------

util::Buffer Command::encode() const {
  WireWriter w;
  w.u64(static_cast<std::uint64_t>(client))
      .u32(static_cast<std::uint32_t>(reply_tag))
      .u32(op)
      .blob(body.bytes());
  return w.finish();
}

Command Command::decode(proto::WireReader& r) {
  Command c;
  c.client = static_cast<dmpi::Rank>(r.u64());
  c.reply_tag = static_cast<int>(r.u32());
  c.op = r.u32();
  c.body = r.blob();
  return c;
}

// ---------------------------------------------------------------------------
// LeaseMachine
// ---------------------------------------------------------------------------

LeaseMachine::LeaseMachine(std::vector<AcceleratorInfo> pool,
                           QueuePolicy policy, PlacementMap placement)
    : policy_(policy), placement_(std::move(placement)) {
  slots_.reserve(pool.size());
  for (AcceleratorInfo& info : pool) {
    Slot s;
    s.info = std::move(info);
    slots_.push_back(std::move(s));
  }
  rebuild_indexes();
}

LeaseMachine::ClassKey LeaseMachine::key_of(const Slot& s) {
  return ClassKey{s.info.kind, s.info.memory_bytes};
}

bool LeaseMachine::class_matches(const ClassKey& key,
                                 const ResourceRequest& req) {
  return (req.kind.empty() || key.first == req.kind) &&
         key.second >= req.memory_bytes;
}

std::uint32_t LeaseMachine::free_matching(const ResourceRequest& req) const {
  std::uint32_t n = 0;
  for (const auto& [key, cls] : free_) {
    if (class_matches(key, req)) n += cls.total;
  }
  return n;
}

std::uint32_t LeaseMachine::alive_matching(const ResourceRequest& req) const {
  std::uint32_t n = 0;
  for (const auto& [key, alive] : alive_) {
    if (class_matches(key, req)) n += alive;
  }
  return n;
}

std::uint32_t LeaseMachine::requester_zone(const ResourceRequest& req,
                                           dmpi::Rank client) const {
  const std::int64_t node =
      req.locality >= 0 ? req.locality : static_cast<std::int64_t>(client);
  return placement_.zone_of(node);
}

void LeaseMachine::rebuild_indexes() {
  placement_.normalize();
  const std::uint32_t nz = placement_.zones();
  zone_order_.clear();
  zone_order_.reserve(nz);
  for (std::uint32_t z = 0; z < nz; ++z) {
    zone_order_.push_back(placement_.order_from(z));
  }
  slot_by_rank_.clear();
  free_.clear();
  assigned_idx_.clear();
  alive_.clear();
  pending_by_class_.clear();
  pending_by_client_.clear();
  free_total_ = 0;
  broken_total_ = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    slot_by_rank_[s.info.daemon_rank] = i;
    const ClassKey key = key_of(s);
    FreeClass& fc = free_[key];
    if (fc.zone.empty()) fc.zone.resize(nz);
    std::uint32_t& alive = alive_[key];
    if (s.state != State::kBroken) ++alive;
    if (s.state == State::kFree) {
      fc.zone[placement_.zone_of(s.info.daemon_rank)].insert(i);
      ++fc.total;
      ++free_total_;
    } else if (s.state == State::kAssigned) {
      // s.priority <= kMaxPriority: enforced at wire decode and restore.
      assigned_idx_[key].by_prio[s.priority].insert(i);
    } else {
      ++broken_total_;
    }
  }
  for (const auto& [key, p] : queue_) {
    pending_by_client_[{p.client, p.reply_tag}] = key;
    pending_index_insert(key, p.req);
  }
}

void LeaseMachine::index_insert_free(std::uint32_t idx) {
  const Slot& s = slots_[idx];
  FreeClass& fc = free_.find(key_of(s))->second;
  fc.zone[placement_.zone_of(s.info.daemon_rank)].insert(idx);
  ++fc.total;
  ++free_total_;
}

void LeaseMachine::index_erase_free(std::uint32_t idx) {
  const Slot& s = slots_[idx];
  FreeClass& fc = free_.find(key_of(s))->second;
  fc.zone[placement_.zone_of(s.info.daemon_rank)].erase(idx);
  --fc.total;
  --free_total_;
}

void LeaseMachine::index_insert_assigned(std::uint32_t idx) {
  const Slot& s = slots_[idx];
  assigned_idx_[key_of(s)].by_prio[s.priority].insert(idx);
}

void LeaseMachine::index_erase_assigned(std::uint32_t idx) {
  const Slot& s = slots_[idx];
  assigned_idx_.find(key_of(s))->second.by_prio[s.priority].erase(idx);
}

void LeaseMachine::pending_index_insert(const PendingKey& key,
                                        const ResourceRequest& rq) {
  // free_ doubles as the class catalog: every class in the pool has an
  // entry, whatever its current free count.
  for (const auto& [ck, fc] : free_) {
    (void)fc;
    if (class_matches(ck, rq)) pending_by_class_[ck].insert(key);
  }
}

void LeaseMachine::pending_index_erase(const PendingKey& key,
                                       const ResourceRequest& rq) {
  for (const auto& [ck, fc] : free_) {
    (void)fc;
    if (class_matches(ck, rq)) pending_by_class_[ck].erase(key);
  }
}

LeaseMachine::Slot* LeaseMachine::find_slot(dmpi::Rank daemon_rank) {
  const auto it = slot_by_rank_.find(daemon_rank);
  return it == slot_by_rank_.end() ? nullptr : &slots_[it->second];
}

std::int64_t LeaseMachine::slot_index(dmpi::Rank daemon_rank) const {
  const auto it = slot_by_rank_.find(daemon_rank);
  return it == slot_by_rank_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

void LeaseMachine::release_slot(std::uint32_t idx, SimTime now) {
  Slot& slot = slots_[idx];
  index_erase_assigned(idx);
  slot.assigned_total += now - slot.assigned_since;
  slot.state = State::kFree;
  slot.job = 0;
  slot.lease_id = 0;
  slot.owner = -1;
  slot.priority = kPriorityNormal;
  index_insert_free(idx);
}

void LeaseMachine::break_slot(std::uint32_t idx, SimTime now) {
  Slot& slot = slots_[idx];
  if (slot.state == State::kBroken) return;
  if (slot.state == State::kAssigned) {
    slot.assigned_total += now - slot.assigned_since;
    index_erase_assigned(idx);
  }
  if (slot.state == State::kFree) index_erase_free(idx);
  --alive_.find(key_of(slot))->second;
  ++broken_total_;
  slot.state = State::kBroken;
  slot.job = 0;
  slot.lease_id = 0;
  slot.owner = -1;
  slot.priority = kPriorityNormal;
}

bool LeaseMachine::was_revoked(std::uint64_t lease_id) const {
  return std::find(revoked_leases_.begin(), revoked_leases_.end(), lease_id) !=
         revoked_leases_.end();
}

const LeaseMachine::CachedReply* LeaseMachine::cached(dmpi::Rank client,
                                                      int reply_tag) const {
  for (const ClientReplies& c : reply_cache_) {
    if (c.client != client) continue;
    for (const CachedReply& r : c.replies) {
      if (r.reply_tag == reply_tag) return &r;
    }
    return nullptr;
  }
  return nullptr;
}

bool LeaseMachine::seen(dmpi::Rank client, int reply_tag) const {
  if (reply_tag == 0) return false;
  if (cached(client, reply_tag) != nullptr) return true;
  return pending_by_client_.count({client, reply_tag}) != 0;
}

void LeaseMachine::emit_reply(std::vector<Effect>& out, dmpi::Rank client,
                              int reply_tag, util::Buffer frame) {
  if (reply_tag != 0) {
    ClientReplies* entry = nullptr;
    for (ClientReplies& c : reply_cache_) {
      if (c.client == client) {
        entry = &c;
        break;
      }
    }
    if (entry == nullptr) {
      reply_cache_.push_back(ClientReplies{client, {}});
      entry = &reply_cache_.back();
    }
    entry->replies.push_back(CachedReply{reply_tag, frame.view()});
    while (entry->replies.size() > kReplyCacheDepth) {
      entry->replies.pop_front();
    }
  }
  Effect e;
  e.kind = Effect::Kind::kReply;
  e.to = client;
  e.tag = reply_tag;
  e.frame = std::move(frame);
  out.push_back(std::move(e));
}

void LeaseMachine::observe_wait(std::uint32_t priority, std::uint64_t ns) {
  if (metrics_bound_ == nullptr) return;
  m_assign_wait_ns_.observe(ns);
  m_wait_by_class_[std::min(priority, kPriorityClasses - 1)].observe(ns);
}

void LeaseMachine::revoke_slot(std::vector<Effect>& out, std::uint32_t idx,
                               SimTime now, const char* cause) {
  Slot& slot = slots_[idx];
  if (slot.state == State::kBroken) return;
  if (slot.state == State::kAssigned) {
    ++revocations_;
    if (metrics_bound_ != nullptr) m_revocations_.add(1);
    revoked_leases_.push_back(slot.lease_id);
    // Unsolicited push so the owner learns of the failure even between its
    // own requests; the tag encodes the daemon so a session holding several
    // leases can tell which one died.
    RevokeNotice notice{slot.info.daemon_rank, slot.lease_id, slot.job, now,
                        kRevokeFailure};
    Effect e;
    e.kind = Effect::Kind::kNotice;
    e.to = slot.owner;
    e.tag = kArmRevokeTagBase + slot.info.daemon_rank;
    e.frame = notice.encode();
    out.push_back(std::move(e));
  }
  Effect t;
  t.kind = Effect::Kind::kTrace;
  t.label =
      std::string(cause) + "-ac" + std::to_string(slot.info.daemon_rank);
  out.push_back(std::move(t));
  break_slot(idx, now);
}

void LeaseMachine::preempt_slot(std::vector<Effect>& out, std::uint32_t idx,
                                SimTime now) {
  Slot& slot = slots_[idx];
  index_erase_assigned(idx);
  slot.assigned_total += now - slot.assigned_since;
  ++preemptions_;
  if (metrics_bound_ != nullptr) m_preemptions_.add(1);
  revoked_leases_.push_back(slot.lease_id);
  RevokeNotice notice{slot.info.daemon_rank, slot.lease_id, slot.job, now,
                      kRevokePreempted};
  Effect e;
  e.kind = Effect::Kind::kNotice;
  e.to = slot.owner;
  e.tag = kArmRevokeTagBase + slot.info.daemon_rank;
  e.frame = notice.encode();
  out.push_back(std::move(e));
  Effect t;
  t.kind = Effect::Kind::kTrace;
  t.label = "preempt-ac" + std::to_string(slot.info.daemon_rank);
  out.push_back(std::move(t));
  slot.state = State::kFree;
  slot.job = 0;
  slot.lease_id = 0;
  slot.owner = -1;
  slot.priority = kPriorityNormal;
  index_insert_free(idx);
}

void LeaseMachine::fail_unsatisfiable(std::vector<Effect>& out) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    const ResourceRequest& rq = it->second.req;
    const std::uint32_t alive = alive_matching(rq);
    if (alive == 0 || (rq.gang && rq.count > alive)) {
      const dmpi::Rank client = it->second.client;
      const int reply_tag = it->second.reply_tag;
      pending_by_client_.erase({client, reply_tag});
      pending_index_erase(it->first, rq);
      it = queue_.erase(it);
      emit_reply(out, client, reply_tag, insufficient_frame());
    } else {
      ++it;
    }
  }
}

void LeaseMachine::handle_heartbeat(std::vector<Effect>& out,
                                    const Heartbeat& hb, SimTime now) {
  ++heartbeats_;
  if (metrics_bound_ != nullptr && now >= hb.sent_at) {
    m_heartbeat_latency_ns_.observe(
        static_cast<std::uint64_t>(now - hb.sent_at));
  }
  const std::int64_t idx = slot_index(hb.daemon_rank);
  if (idx < 0 || slots_[static_cast<std::size_t>(idx)].state == State::kBroken) {
    return;
  }
  slots_[static_cast<std::size_t>(idx)].last_beat = now;
  if (!hb.device_ok) {
    // The daemon is alive but its device is dead — no need to wait for the
    // miss threshold.
    revoke_slot(out, static_cast<std::uint32_t>(idx), now, "device-fault");
    fail_unsatisfiable(out);
  }
}

void LeaseMachine::handle_sweep(std::vector<Effect>& out,
                                const SweepRequest& sweep, SimTime now) {
  if (sweep.fresh) {
    // First sweep after an idle phase: restart every beat clock instead of
    // comparing against timestamps from the previous activity burst.
    for (Slot& s : slots_) s.last_beat = now;
    return;
  }
  const SimDuration allowance = sweep.period * sweep.miss_threshold;
  bool revoked = false;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == State::kBroken) continue;
    if (now - slots_[i].last_beat > allowance) {
      revoke_slot(out, i, now, "hb-miss");
      revoked = true;
    }
  }
  if (revoked) fail_unsatisfiable(out);
}

bool LeaseMachine::try_grant(std::vector<Effect>& out, dmpi::Rank client,
                             int reply_tag, const ResourceRequest& req,
                             SimTime now) {
  const std::uint32_t avail = free_matching(req);
  std::uint32_t grant = req.count;
  if (avail < req.count) {
    if (req.gang || avail == 0) return false;
    grant = avail;  // partial grant: non-gang requests take what exists
  }
  WireWriter resp;
  resp.u32(static_cast<std::uint32_t>(ArmResult::kOk)).u32(grant);
  // Placement walk: nearest zone first (from the locality hint, falling
  // back to the requesting rank), then smallest adequate class (best fit),
  // then lowest slot id. With trivial placement and a uniform pool this is
  // exactly ascending slot order — the pre-scheduler grant order.
  const std::uint32_t from = requester_zone(req, client);
  std::uint32_t granted = 0;
  for (const std::uint32_t z : zone_order_[from]) {
    for (auto& [key, cls] : free_) {
      if (granted == grant) break;
      if (!class_matches(key, req)) continue;
      std::set<std::uint32_t>& ids = cls.zone[z];
      while (granted < grant && !ids.empty()) {
        const std::uint32_t idx = *ids.begin();
        ids.erase(ids.begin());
        --cls.total;
        --free_total_;
        Slot& s = slots_[idx];
        s.state = State::kAssigned;
        s.job = req.job;
        s.lease_id = next_lease_++;
        s.owner = client;
        s.priority = req.priority;
        s.assigned_since = now;
        index_insert_assigned(idx);
        resp.u64(static_cast<std::uint64_t>(s.info.daemon_rank))
            .u64(s.lease_id);
        ++granted;
      }
    }
    if (granted == grant) break;
  }
  acquisitions_ += granted;
  emit_reply(out, client, reply_tag, resp.finish());
  return true;
}

bool LeaseMachine::preempt_for(std::vector<Effect>& out,
                               const ResourceRequest& req, SimTime now) {
  if (req.priority == kPriorityBatch || req.count == 0) return false;
  const std::uint32_t avail = free_matching(req);
  // Non-gang requests only get here with nothing free (a partial grant
  // would have succeeded otherwise) and need a single slot to make
  // progress; gangs need the exact shortfall.
  const std::uint32_t needed = req.gang ? req.count - avail : 1;
  // All-or-nothing: never evict anyone unless the shortfall is fully
  // coverable (a half-preempted gang would revoke work and still queue).
  // The assigned index makes the count O(classes x priority classes), so
  // the common no-victim arrival never touches the slot table.
  std::uint32_t have = 0;
  for (const auto& [key, ac] : assigned_idx_) {
    if (!class_matches(key, req)) continue;
    for (std::uint32_t p = 0; p < req.priority; ++p) {
      have += static_cast<std::uint32_t>(ac.by_prio[p].size());
    }
  }
  if (have < needed) return false;
  // Victim order: lowest priority first, then lowest slot id — merged
  // across the matching classes' per-priority buckets. Collect before
  // evicting; preempt_slot edits the buckets being walked.
  std::vector<std::uint32_t> victims;
  victims.reserve(needed);
  for (std::uint32_t p = 0; p < req.priority && victims.size() < needed;
       ++p) {
    std::vector<const std::set<std::uint32_t>*> buckets;
    for (const auto& [key, ac] : assigned_idx_) {
      if (class_matches(key, req) && !ac.by_prio[p].empty()) {
        buckets.push_back(&ac.by_prio[p]);
      }
    }
    std::vector<std::set<std::uint32_t>::const_iterator> heads;
    heads.reserve(buckets.size());
    for (const std::set<std::uint32_t>* b : buckets) {
      heads.push_back(b->begin());
    }
    while (victims.size() < needed) {
      std::size_t best = buckets.size();
      for (std::size_t k = 0; k < buckets.size(); ++k) {
        if (heads[k] == buckets[k]->end()) continue;
        if (best == buckets.size() || *heads[k] < *heads[best]) best = k;
      }
      if (best == buckets.size()) break;
      victims.push_back(*heads[best]++);
    }
  }
  for (const std::uint32_t idx : victims) preempt_slot(out, idx, now);
  return true;
}

void LeaseMachine::enqueue_pending(dmpi::Rank client, int reply_tag,
                                   const ResourceRequest& req, SimTime now) {
  const PendingKey key{req.priority, next_ticket_++};
  queue_.emplace(key, PendingAcquire{client, reply_tag, req, now});
  pending_by_client_[{client, reply_tag}] = key;
  pending_index_insert(key, req);
}

void LeaseMachine::handle_acquire(std::vector<Effect>& out, dmpi::Rank client,
                                  int reply_tag, const ResourceRequest& req,
                                  SimTime now) {
  if (req.count > 0) {
    // Unsatisfiable on arrival: the surviving pool could never grant it
    // even when fully drained. Fail now (wait or not) — the queue variant
    // of this check (fail_unsatisfiable) only runs when the pool shrinks.
    const std::uint32_t alive = alive_matching(req);
    if (alive == 0 || (req.gang && req.count > alive)) {
      emit_reply(out, client, reply_tag, insufficient_frame());
      return;
    }
  }
  if (try_grant(out, client, reply_tag, req, now)) {
    observe_wait(req.priority, 0);
    return;
  }
  if (preempt_for(out, req, now) &&
      try_grant(out, client, reply_tag, req, now)) {
    observe_wait(req.priority, 0);
    return;
  }
  if (req.wait) {
    enqueue_pending(client, reply_tag, req, now);
    return;
  }
  emit_reply(out, client, reply_tag, insufficient_frame());
}

void LeaseMachine::drain_queue(std::vector<Effect>& out, SimTime now) {
  if (policy_ == QueuePolicy::kFcfs) {
    // Strict order within the (priority, arrival) map: the head request
    // blocks everything behind it, like a batch queue without backfill.
    while (!queue_.empty()) {
      const auto it = queue_.begin();
      const PendingAcquire& head = it->second;
      if (!try_grant(out, head.client, head.reply_tag, head.req, now)) {
        return;
      }
      observe_wait(head.req.priority,
                   static_cast<std::uint64_t>(now - head.enqueued_at));
      pending_by_client_.erase({head.client, head.reply_tag});
      pending_index_erase(it->first, head.req);
      queue_.erase(it);
    }
    return;
  }
  // Backfill: serve any satisfiable request in priority order, preserving
  // relative order among the ones that fit (EASY-style, no reservations).
  // Driven off the per-class pending index: each step serves the lowest
  // (priority, arrival) key some free class lists, so a kind-blocked head
  // costs nothing — the old behaviour of one forward scan over the whole
  // queue, without the scan. The cursor is sound because the free set only
  // shrinks during a pass: a pending passed over had no free class then
  // and cannot gain one now. A gang whose shortfall exceeds the free pool
  // is stepped past (cursor advance), exactly like the scan's `++it`.
  // {kMaxPriority + 1, 0} sorts before every real key (priority is
  // descending in the order and bounded at decode; tickets start at 1).
  PendingKey cursor{kMaxPriority + 1, 0};
  while (free_total_ > 0) {
    const PendingKey* best = nullptr;
    for (const auto& [ck, fc] : free_) {
      if (fc.total == 0) continue;
      const auto pit = pending_by_class_.find(ck);
      if (pit == pending_by_class_.end()) continue;
      const auto cand = pit->second.upper_bound(cursor);
      if (cand == pit->second.end()) continue;
      if (best == nullptr || *cand < *best) best = &*cand;
    }
    if (best == nullptr) return;
    const PendingKey key = *best;
    const auto it = queue_.find(key);
    const PendingAcquire& p = it->second;
    if (try_grant(out, p.client, p.reply_tag, p.req, now)) {
      observe_wait(p.req.priority,
                   static_cast<std::uint64_t>(now - p.enqueued_at));
      pending_by_client_.erase({p.client, p.reply_tag});
      pending_index_erase(key, p.req);
      queue_.erase(it);
    }
    cursor = key;
  }
}

ApplyResult LeaseMachine::apply(const Command& cmd, SimTime now) {
  ApplyResult result;
  std::vector<Effect>& out = result.effects;
  // At-least-once resends: a command whose reply we already produced is
  // answered from the cache; one that is still queued at the pool keeps
  // waiting silently. Fresh commands fall through and mutate state exactly
  // once. (Single-ARM deployments mint unique tags, so this never fires
  // there.)
  if (cmd.reply_tag != 0) {
    if (const CachedReply* hit = cached(cmd.client, cmd.reply_tag)) {
      Effect e;
      e.kind = Effect::Kind::kReply;
      e.to = cmd.client;
      e.tag = cmd.reply_tag;
      e.frame = hit->frame.view();
      out.push_back(std::move(e));
      return result;
    }
    if (pending_by_client_.count({cmd.client, cmd.reply_tag}) != 0) {
      return result;
    }
  }
  WireReader req(cmd.body.view());
  switch (static_cast<ArmOp>(cmd.op)) {
    case ArmOp::kAcquire: {
      const ResourceRequest rq = ResourceRequest::decode_body(req);
      handle_acquire(out, cmd.client, cmd.reply_tag, rq, now);
      break;
    }
    case ArmOp::kRelease: {
      const std::uint64_t job = req.u64();
      const auto rank = static_cast<dmpi::Rank>(req.u64());
      const std::uint64_t lease_id = req.u64();
      ArmResult r = ArmResult::kOk;
      const std::int64_t idx = slot_index(rank);
      Slot* slot = idx < 0 ? nullptr : &slots_[static_cast<std::size_t>(idx)];
      if (slot == nullptr || slot->state != State::kAssigned ||
          slot->lease_id != lease_id) {
        // Distinguish "that lease was revoked under you" from plain
        // misuse so recovering clients can treat it as already-released.
        r = was_revoked(lease_id) ? ArmResult::kRevoked
                                  : ArmResult::kUnknownHandle;
      } else if (slot->job != job) {
        r = ArmResult::kNotOwner;
      } else {
        release_slot(static_cast<std::uint32_t>(idx), now);
      }
      emit_reply(out, cmd.client, cmd.reply_tag, result_frame(r));
      drain_queue(out, now);
      break;
    }
    case ArmOp::kReleaseJob: {
      const std::uint64_t job = req.u64();
      for (std::uint32_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].state == State::kAssigned && slots_[i].job == job) {
          release_slot(i, now);
        }
      }
      emit_reply(out, cmd.client, cmd.reply_tag, result_frame(ArmResult::kOk));
      drain_queue(out, now);
      break;
    }
    case ArmOp::kReportBroken: {
      const auto rank = static_cast<dmpi::Rank>(req.u64());
      const std::int64_t idx = slot_index(rank);
      ArmResult r = ArmResult::kOk;
      if (idx < 0) {
        r = ArmResult::kUnknownHandle;
      } else {
        break_slot(static_cast<std::uint32_t>(idx), now);
        Effect t;
        t.kind = Effect::Kind::kTrace;
        t.label = "reported-ac" + std::to_string(rank);
        out.push_back(std::move(t));
      }
      emit_reply(out, cmd.client, cmd.reply_tag, result_frame(r));
      fail_unsatisfiable(out);
      break;
    }
    case ArmOp::kStats: {
      const PoolStats s = stats();
      emit_reply(out, cmd.client, cmd.reply_tag,
                 WireWriter{}
                     .u32(static_cast<std::uint32_t>(ArmResult::kOk))
                     .u32(s.total)
                     .u32(s.free)
                     .u32(s.assigned)
                     .u32(s.broken)
                     .u64(s.acquisitions)
                     .u32(s.queued_requests)
                     .u64(s.heartbeats)
                     .u32(s.revocations)
                     .u32(s.replacements)
                     .u32(s.preemptions)
                     .finish());
      break;
    }
    case ArmOp::kHeartbeat: {
      handle_heartbeat(out, Heartbeat::decode(req), now);
      break;  // one-way, no reply
    }
    case ArmOp::kSweep: {
      handle_sweep(out, SweepRequest::decode(req), now);
      break;  // one-way, no reply
    }
    case ArmOp::kReplaced: {
      const ReplayReport report = ReplayReport::decode(req);
      ++replacements_;
      Effect t;
      t.kind = Effect::Kind::kTrace;
      t.label = "replaced-ac" + std::to_string(report.failed_rank) + "->ac" +
                std::to_string(report.replacement_rank);
      out.push_back(std::move(t));
      emit_reply(out, cmd.client, cmd.reply_tag, result_frame(ArmResult::kOk));
      break;
    }
    case ArmOp::kShutdown: {
      emit_reply(out, cmd.client, cmd.reply_tag, result_frame(ArmResult::kOk));
      result.shutdown = true;
      break;
    }
    default:
      throw proto::WireError("arm: unknown op " + std::to_string(cmd.op));
  }
  return result;
}

void LeaseMachine::validate(const Command& cmd) {
  WireReader req(cmd.body.view());
  switch (static_cast<ArmOp>(cmd.op)) {
    case ArmOp::kAcquire:
      (void)ResourceRequest::decode_body(req);
      break;
    case ArmOp::kRelease:
      req.u64();
      req.u64();
      req.u64();
      break;
    case ArmOp::kReleaseJob:
      req.u64();
      break;
    case ArmOp::kReportBroken:
      req.u64();
      break;
    case ArmOp::kStats:
    case ArmOp::kShutdown:
      break;
    case ArmOp::kHeartbeat:
      Heartbeat::decode(req);
      break;
    case ArmOp::kSweep:
      SweepRequest::decode(req);
      break;
    case ArmOp::kReplaced:
      ReplayReport::decode(req);
      break;
    default:
      throw proto::WireError("arm: unknown op " + std::to_string(cmd.op));
  }
}

PoolStats LeaseMachine::stats() const {
  // O(1): free/broken are tracked with the indexes (the single-ARM and
  // Raft server loops both sample stats after every applied command).
  PoolStats s;
  s.total = static_cast<std::uint32_t>(slots_.size());
  s.free = free_total_;
  s.broken = broken_total_;
  s.assigned = s.total - s.free - s.broken;
  s.acquisitions = acquisitions_;
  s.queued_requests = static_cast<std::uint32_t>(queue_.size());
  s.heartbeats = heartbeats_;
  s.revocations = revocations_;
  s.replacements = replacements_;
  s.preemptions = preemptions_;
  return s;
}

std::vector<double> LeaseMachine::utilization(SimTime now) const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    SimDuration busy = s.assigned_total;
    if (s.state == State::kAssigned) busy += now - s.assigned_since;
    out.push_back(now == 0 ? 0.0
                           : static_cast<double>(busy) /
                                 static_cast<double>(now));
  }
  return out;
}

std::int64_t LeaseMachine::assigned_count() const {
  return static_cast<std::int64_t>(slots_.size()) - free_total_ -
         broken_total_;
}

util::Buffer LeaseMachine::snapshot() const {
  WireWriter w;
  w.u32(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(policy_));
  w.u64(next_lease_)
      .u64(acquisitions_)
      .u64(heartbeats_)
      .u32(revocations_)
      .u32(replacements_)
      .u32(preemptions_)
      .u64(next_ticket_);
  // Placement travels in the snapshot: a replica restored via
  // InstallSnapshot must place future grants exactly like its peers.
  const std::uint32_t nz = placement_.zones();
  w.u32(nz);
  w.u32(static_cast<std::uint32_t>(placement_.node_zone.size()));
  for (const std::uint32_t z : placement_.node_zone) w.u32(z);
  for (std::uint32_t a = 0; a < nz; ++a) {
    for (std::uint32_t b = 0; b < nz; ++b) {
      w.u64(placement_.latency(a, b));
    }
  }
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const Slot& s : slots_) {
    w.u64(static_cast<std::uint64_t>(s.info.daemon_rank))
        .str(s.info.device_name)
        .str(s.info.kind)
        .u64(s.info.memory_bytes)
        .u32(static_cast<std::uint32_t>(s.state))
        .u64(s.job)
        .u64(s.lease_id)
        .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.owner)))
        .u32(s.priority)
        .u64(s.assigned_since)
        .u64(s.assigned_total)
        .u64(s.last_beat);
  }
  w.u32(static_cast<std::uint32_t>(queue_.size()));
  for (const auto& [key, p] : queue_) {
    w.u32(key.priority)
        .u64(key.ticket)
        .u64(static_cast<std::uint64_t>(p.client))
        .u32(static_cast<std::uint32_t>(p.reply_tag))
        .u64(p.req.job)
        .u32(p.req.count)
        .str(p.req.kind)
        .u64(p.req.memory_bytes)
        .u32(p.req.gang ? 1 : 0)
        .u64(static_cast<std::uint64_t>(p.req.locality))
        .u64(p.enqueued_at);
  }
  w.u32(static_cast<std::uint32_t>(revoked_leases_.size()));
  for (std::uint64_t id : revoked_leases_) w.u64(id);
  w.u32(static_cast<std::uint32_t>(reply_cache_.size()));
  for (const ClientReplies& c : reply_cache_) {
    w.u64(static_cast<std::uint64_t>(c.client));
    w.u32(static_cast<std::uint32_t>(c.replies.size()));
    for (const CachedReply& r : c.replies) {
      w.u32(static_cast<std::uint32_t>(r.reply_tag));
      w.blob(r.frame.bytes());
    }
  }
  return w.finish();
}

LeaseMachine LeaseMachine::restore(proto::WireReader& r) {
  // Counts are untrusted (InstallSnapshot frames cross the fuzzer): nothing
  // is pre-reserved from them, and every element read is bounds-checked, so
  // a garbage count throws on the first missing byte instead of allocating.
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw proto::WireError("arm: unknown lease snapshot version");
  }
  LeaseMachine m;
  const std::uint32_t policy = r.u32();
  if (policy > static_cast<std::uint32_t>(QueuePolicy::kBackfill)) {
    throw proto::WireError("arm: bad queue policy in snapshot");
  }
  m.policy_ = static_cast<QueuePolicy>(policy);
  m.next_lease_ = r.u64();
  m.acquisitions_ = r.u64();
  m.heartbeats_ = r.u64();
  m.revocations_ = r.u32();
  m.replacements_ = r.u32();
  m.preemptions_ = r.u32();
  m.next_ticket_ = r.u64();
  const std::uint32_t nz = r.u32();
  if (nz == 0 || nz > kMaxZones) {
    throw proto::WireError("arm: bad zone count in snapshot");
  }
  const std::uint32_t nnodes = r.u32();
  for (std::uint32_t i = 0; i < nnodes; ++i) {
    const std::uint32_t z = r.u32();
    if (z >= nz) throw proto::WireError("arm: bad node zone in snapshot");
    m.placement_.node_zone.push_back(z);
  }
  for (std::uint64_t i = 0;
       i < static_cast<std::uint64_t>(nz) * static_cast<std::uint64_t>(nz);
       ++i) {
    m.placement_.zone_latency_ns.push_back(r.u64());
  }
  // The zone count must be exactly what the node map implies (every zone
  // populated), or re-emitting the snapshot would change the matrix
  // stride and the fingerprint would diverge from non-restored peers.
  if (m.placement_.zones() != nz && !(nnodes == 0 && nz == 1)) {
    throw proto::WireError("arm: zone map disagrees with zone count");
  }
  const std::uint32_t nslots = r.u32();
  for (std::uint32_t i = 0; i < nslots; ++i) {
    Slot s;
    s.info.daemon_rank = static_cast<dmpi::Rank>(r.u64());
    s.info.device_name = r.str();
    s.info.kind = r.str();
    s.info.memory_bytes = r.u64();
    const std::uint32_t state = r.u32();
    if (state > static_cast<std::uint32_t>(State::kBroken)) {
      throw proto::WireError("arm: bad slot state in snapshot");
    }
    s.state = static_cast<State>(state);
    s.job = r.u64();
    s.lease_id = r.u64();
    s.owner = static_cast<dmpi::Rank>(static_cast<std::int64_t>(r.u64()));
    s.priority = r.u32();
    if (s.priority > kMaxPriority) {
      throw proto::WireError("arm: bad slot priority in snapshot");
    }
    s.assigned_since = r.u64();
    s.assigned_total = r.u64();
    s.last_beat = r.u64();
    m.slots_.push_back(std::move(s));
  }
  const std::uint32_t nqueue = r.u32();
  for (std::uint32_t i = 0; i < nqueue; ++i) {
    PendingKey key;
    PendingAcquire p;
    key.priority = r.u32();
    if (key.priority > kMaxPriority) {
      throw proto::WireError("arm: bad queue priority in snapshot");
    }
    key.ticket = r.u64();
    p.client = static_cast<dmpi::Rank>(r.u64());
    p.reply_tag = static_cast<int>(r.u32());
    p.req.job = r.u64();
    p.req.count = r.u32();
    p.req.kind = r.str();
    p.req.memory_bytes = r.u64();
    p.req.gang = r.u32() != 0;
    p.req.locality = static_cast<std::int64_t>(r.u64());
    p.req.wait = true;
    p.req.priority = key.priority;
    p.enqueued_at = r.u64();
    m.queue_.emplace(key, std::move(p));
  }
  const std::uint32_t nrevoked = r.u32();
  for (std::uint32_t i = 0; i < nrevoked; ++i) {
    m.revoked_leases_.push_back(r.u64());
  }
  const std::uint32_t ncache = r.u32();
  for (std::uint32_t i = 0; i < ncache; ++i) {
    ClientReplies c;
    c.client = static_cast<dmpi::Rank>(r.u64());
    const std::uint32_t nreplies = r.u32();
    for (std::uint32_t j = 0; j < nreplies; ++j) {
      CachedReply reply;
      reply.reply_tag = static_cast<int>(r.u32());
      reply.frame = r.blob();
      c.replies.push_back(std::move(reply));
    }
    m.reply_cache_.push_back(std::move(c));
  }
  m.rebuild_indexes();
  return m;
}

std::uint64_t LeaseMachine::fingerprint() const {
  // Named buffer: ranging over `snapshot().bytes()` would iterate a span
  // into a Buffer already destroyed (C++20 range-for does not extend the
  // inner temporary's lifetime).
  const util::Buffer snap = snapshot();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (std::byte b : snap.bytes()) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

void LeaseMachine::bind_metrics(obs::Registry* reg) {
  if (reg == metrics_bound_) return;
  metrics_bound_ = reg;
  if (reg == nullptr) {
    m_assigned_ = obs::Gauge{};
    m_assign_wait_ns_ = obs::Histogram{};
    for (auto& h : m_wait_by_class_) h = obs::Histogram{};
    m_heartbeat_latency_ns_ = obs::Histogram{};
    m_revocations_ = obs::Counter{};
    m_preemptions_ = obs::Counter{};
    return;
  }
  m_assigned_ = reg->gauge("dacc_arm_assigned");
  m_assign_wait_ns_ =
      reg->histogram("dacc_arm_assign_wait_ns", obs::latency_bounds_ns());
  for (std::uint32_t c = 0; c < kPriorityClasses; ++c) {
    m_wait_by_class_[c] = reg->histogram(
        obs::labeled("dacc_arm_assign_wait_ns", "prio",
                     priority_class_name(c)),
        obs::latency_bounds_ns());
  }
  m_heartbeat_latency_ns_ = reg->histogram("dacc_arm_heartbeat_latency_ns",
                                           obs::latency_bounds_ns());
  m_revocations_ = reg->counter("dacc_arm_revocations_total");
  m_preemptions_ = reg->counter("dacc_arm_preemptions_total");
}

void LeaseMachine::sample_assigned() {
  if (metrics_bound_ == nullptr) return;
  // Pool-utilization gauge: sampled after every request (each mutation
  // flows through apply()).
  m_assigned_.set(assigned_count());
}

}  // namespace dacc::arm
