// Execution tracing.
//
// When a Tracer is attached to the engine, instrumented components (the
// back-end daemons, the front-end proxies) record spans of simulated time.
// The result can be dumped in the Chrome trace-event format
// (chrome://tracing, Perfetto) to see request pipelines, transfer overlap,
// and device occupancy on a timeline — the kind of observability a
// production middleware ships with.
//
// Every record goes through Engine::record: on the parallel backend's worker
// pool the engine keeps it under the emitting event's canonical key and
// appends it in canonical order when the run ends, so the span list is
// byte-identical to what the serial loop appends directly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace dacc::sim {

class Engine;

class Tracer {
 public:
  struct Span {
    std::string track;  ///< timeline row, e.g. "daemon-ac0"
    std::string name;   ///< event label, e.g. "MemcpyHtoD 64MiB"
    SimTime begin = 0;
    SimTime end = 0;
    // Causal identity (0 = not part of a trace). A front-end API call mints
    // a trace id and a root span id; spans recorded further down the request
    // path (NIC transfers, daemon execution) carry the same trace id and
    // name their parent, which the Chrome export turns into flow arrows.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
  };

  /// Records one completed span (begin <= end, simulated nanoseconds).
  void record(std::string track, std::string name, SimTime begin,
              SimTime end);

  /// Records a span with causal identity; the Chrome export draws a flow
  /// arrow from the parent span to this one.
  void record(std::string track, std::string name, SimTime begin, SimTime end,
              std::uint64_t trace_id, std::uint64_t span_id,
              std::uint64_t parent_id);

  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// Spans recorded on one track, in recording order.
  std::vector<Span> track(const std::string& name) const;

  /// Chrome trace-event JSON ("traceEvents" with X phases; ts/dur in
  /// microseconds of simulated time, one tid per track). Spans with causal
  /// identity additionally carry their ids in args and are stitched to
  /// their parents with flow events (ph "s"/"f"), which Perfetto renders as
  /// clickable arrows across tracks.
  void write_chrome_json(std::ostream& os) const;

 private:
  friend class Engine;

  /// Engine::set_tracer's hook.
  void attach(Engine* engine) { engine_ = engine; }

  Engine* engine_ = nullptr;
  std::vector<Span> spans_;
};

}  // namespace dacc::sim
