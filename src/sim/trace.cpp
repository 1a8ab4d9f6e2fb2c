#include "sim/trace.hpp"

#include <ostream>
#include <stdexcept>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace dacc::sim {

void Tracer::record(std::string track, std::string name, SimTime begin,
                    SimTime end) {
  record(std::move(track), std::move(name), begin, end, 0, 0, 0);
}

void Tracer::record(std::string track, std::string name, SimTime begin,
                    SimTime end, std::uint64_t trace_id, std::uint64_t span_id,
                    std::uint64_t parent_id) {
  if (end < begin) throw std::invalid_argument("Tracer: span ends early");
  auto append = [this, span = Span{std::move(track), std::move(name), begin,
                                   end, trace_id, span_id,
                                   parent_id}]() mutable {
    spans_.push_back(std::move(span));
  };
  if (engine_ != nullptr) {
    engine_->record(std::move(append));
  } else {
    append();
  }
}

std::vector<Tracer::Span> Tracer::track(const std::string& name) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.track == name) out.push_back(s);
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  // Stable tid per track, in order of first appearance.
  std::map<std::string, int> tids;
  for (const Span& s : spans_) {
    tids.emplace(s.track, static_cast<int>(tids.size()));
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, tid] : tids) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    util::write_json_string(os, track);
    os << "}}";
  }
  for (const Span& s : spans_) {
    os << ",{\"ph\":\"X\",\"pid\":0,\"tid\":" << tids[s.track]
       << ",\"ts\":" << static_cast<double>(s.begin) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.end - s.begin) / 1000.0
       << ",\"name\":";
    util::write_json_string(os, s.name);
    if (s.trace_id != 0) {
      os << ",\"args\":{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
         << ",\"parent\":" << s.parent_id << "}";
    }
    os << "}";
  }
  // Flow arrows: one s/f pair per child span whose parent was recorded. The
  // "s" binds to the parent slice (same tid, ts inside it); the "f" with
  // bp:"e" binds to the start of the child slice.
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans_) {
    if (s.span_id != 0) by_id.emplace(s.span_id, &s);
  }
  for (const Span& s : spans_) {
    if (s.parent_id == 0) continue;
    const auto parent = by_id.find(s.parent_id);
    if (parent == by_id.end()) continue;
    const Span& p = *parent->second;
    os << ",{\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"req\",\"id\":"
       << s.span_id << ",\"pid\":0,\"tid\":" << tids[p.track]
       << ",\"ts\":" << static_cast<double>(p.begin) / 1000.0 << "}";
    os << ",{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"name\":\"req\","
          "\"id\":"
       << s.span_id << ",\"pid\":0,\"tid\":" << tids[s.track]
       << ",\"ts\":" << static_cast<double>(s.begin) / 1000.0 << "}";
  }
  os << "]}\n";
}

}  // namespace dacc::sim
