// Flight recorder (dacc::obs) — fixed-size ring buffer over rare
// control-plane events: lease revocations, Raft elections and leader
// changes, RPC retry ladders, ARM client failovers, WireErrors, injected
// chaos faults.
//
// Deterministic tier: once attached (Engine::set_flight_recorder), a note
// goes through sim::Engine::record like a sim::Tracer span, so on the
// parallel backend's worker pool it is applied in the serial loop's order
// when the run ends, not in worker order. The seq stamp counts notes in
// that order, and the ring and its dump are the same under every backend
// and shard count. The dump sorts by (sim time, seq) — causal order, since
// an effect never precedes its cause in simulated time — and carries the
// trace id active at the noting site, so a dump line can be joined against
// the Chrome trace.
//
// Dump triggers: explicit (Cluster::dump_flight_recorder, which a caller
// that wants a post-mortem file calls after Cluster::run), and on test
// failure via tests/common/testbed.hpp's FlightOnFailure guard.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace dacc::sim {
class Engine;
}

namespace dacc::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  struct Event {
    SimTime time = 0;          ///< simulated time of the noted event
    std::uint64_t trace_id = 0;  ///< causal trace active at the site (0 = none)
    std::uint64_t seq = 0;       ///< order in which notes were applied
    std::string category;        ///< "raft", "arm", "chaos", "fe", ...
    std::string what;
  };

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Records one event; keeps only the newest `capacity` events. From any
  /// simulation context once attached: the note rides Engine::record.
  void note(SimTime time, std::string category, std::string what,
            std::uint64_t trace_id = 0);

  /// Convenience: stamps the event with the engine's current simulated time
  /// and the trace id of the executing process (0 outside traces).
  void note(sim::Engine& engine, std::string category, std::string what);

  /// The retained events in causal order: ascending (time, seq).
  std::vector<Event> events() const;

  /// Total events ever noted (>= events().size(); the ring overwrites).
  std::uint64_t recorded() const { return seq_; }
  std::size_t capacity() const { return capacity_; }

  /// Human-readable post-mortem dump, one line per event in causal order.
  void dump(std::ostream& os) const;
  std::string dump() const;

  void clear();

 private:
  friend class sim::Engine;

  /// Engine::set_flight_recorder's hook.
  void attach(sim::Engine* engine) { engine_ = engine; }

  sim::Engine* engine_ = nullptr;
  std::size_t capacity_;
  std::vector<Event> ring_;  ///< circular once full; next_ is the write slot
  std::size_t next_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace dacc::obs
