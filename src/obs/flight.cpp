#include "obs/flight.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/engine.hpp"

namespace dacc::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void FlightRecorder::note(SimTime time, std::string category,
                          std::string what, std::uint64_t trace_id) {
  auto push = [this, e = Event{time, trace_id, 0, std::move(category),
                               std::move(what)}]() mutable {
    e.seq = seq_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(e));
    } else {
      ring_[next_] = std::move(e);
    }
    next_ = (next_ + 1) % capacity_;
  };
  if (engine_ != nullptr) {
    engine_->record(std::move(push));
  } else {
    push();
  }
}

void FlightRecorder::note(sim::Engine& engine, std::string category,
                          std::string what) {
  note(engine.now(), std::move(category), std::move(what),
       engine.current_trace().trace_id);
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  std::vector<Event> out = ring_;
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  return out;
}

void FlightRecorder::dump(std::ostream& os) const {
  const std::vector<Event> evs = events();
  os << "=== flight recorder: " << evs.size() << " of " << seq_
     << " events (capacity " << capacity_ << ") ===\n";
  for (const Event& e : evs) {
    os << "t=" << e.time << " [" << e.category << "] " << e.what;
    if (e.trace_id != 0) os << " trace=0x" << std::hex << e.trace_id
                            << std::dec;
    os << '\n';
  }
}

std::string FlightRecorder::dump() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

void FlightRecorder::clear() {
  ring_.clear();
  next_ = 0;
  seq_ = 0;
}

}  // namespace dacc::obs

// Engine::set_flight_recorder lives here (next to set_metrics in
// metrics.cpp) so dacc_sim never links against dacc_obs: the engine only
// holds an opaque pointer.
namespace dacc::sim {

void Engine::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (recorder != nullptr) recorder->attach(this);
}

}  // namespace dacc::sim
