#include "obs/profiler.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace dacc::obs {

namespace {

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
}

}  // namespace

void Profiler::begin_run(int shards, int workers) {
  if (static_cast<std::size_t>(shards) > shard_slots_.size()) {
    shard_slots_.resize(static_cast<std::size_t>(shards));
  }
  if (static_cast<std::size_t>(workers) > worker_slots_.size()) {
    worker_slots_.resize(static_cast<std::size_t>(workers));
  }
}

void Profiler::shard_phase(int shard, Phase phase, std::uint64_t ns) {
  ShardSlot& slot = shard_slots_[static_cast<std::size_t>(shard)];
  slot.ns[phase] += ns;
  ++slot.samples[phase];
}

void Profiler::worker_wait(int worker, std::uint64_t ns) {
  WorkerSlot& slot = worker_slots_[static_cast<std::size_t>(worker)];
  slot.wait_ns += ns;
  ++slot.waits;
}

void Profiler::serial(std::uint64_t ns, std::uint64_t events) {
  serial_ns_ += ns;
  serial_events_ += events;
}

void Profiler::coordinator_wait(std::uint64_t ns) {
  coordinator_wait_ns_ += ns;
}

void Profiler::run_complete(std::uint64_t wall_ns, int threads) {
  measured_ns_ += wall_ns * static_cast<std::uint64_t>(threads);
  ++runs_;
}

std::uint64_t Profiler::shard_ns(int shard, Phase phase) const {
  const auto s = static_cast<std::size_t>(shard);
  return s < shard_slots_.size() ? shard_slots_[s].ns[phase] : 0;
}

std::uint64_t Profiler::shard_samples(int shard, Phase phase) const {
  const auto s = static_cast<std::size_t>(shard);
  return s < shard_slots_.size() ? shard_slots_[s].samples[phase] : 0;
}

std::uint64_t Profiler::worker_wait_ns(int worker) const {
  const auto s = static_cast<std::size_t>(worker);
  return s < worker_slots_.size() ? worker_slots_[s].wait_ns : 0;
}

std::uint64_t Profiler::attributed_ns() const {
  std::uint64_t total = serial_ns_ + coordinator_wait_ns_;
  for (const ShardSlot& slot : shard_slots_) {
    for (const std::uint64_t ns : slot.ns) total += ns;
  }
  for (const WorkerSlot& slot : worker_slots_) total += slot.wait_ns;
  return total;
}

const char* Profiler::phase_name(Phase phase) {
  switch (phase) {
    case kBusy:
      return "busy";
    case kStall:
      return "stall";
    case kInbox:
      return "inbox";
    case kSync:
      return "sync";
    default:
      return "unknown";
  }
}

namespace {
using Series = std::pair<std::string, std::uint64_t>;
}  // namespace

void Profiler::write_prometheus(std::ostream& os) const {
  std::vector<Series> out;
  const std::string prefix(kSeriesPrefix);
  for (std::size_t s = 0; s < shard_slots_.size(); ++s) {
    const std::string id = std::to_string(s);
    for (int p = 0; p < kPhases; ++p) {
      const auto phase = static_cast<Phase>(p);
      out.emplace_back(
          labeled(prefix + "shard_" + phase_name(phase) + "_ns", "shard", id),
          shard_slots_[s].ns[p]);
      out.emplace_back(labeled(prefix + "shard_" + phase_name(phase) +
                                   "_samples_total",
                               "shard", id),
                       shard_slots_[s].samples[p]);
    }
  }
  for (std::size_t i = 0; i < worker_slots_.size(); ++i) {
    const std::string id = std::to_string(i);
    out.emplace_back(labeled(prefix + "worker_wait_ns", "worker", id),
                     worker_slots_[i].wait_ns);
    out.emplace_back(labeled(prefix + "worker_waits_total", "worker", id),
                     worker_slots_[i].waits);
  }
  out.emplace_back(prefix + "serial_ns", serial_ns_);
  out.emplace_back(prefix + "serial_events_total", serial_events_);
  out.emplace_back(prefix + "coordinator_wait_ns", coordinator_wait_ns_);
  out.emplace_back(prefix + "attributed_ns", attributed_ns());
  out.emplace_back(prefix + "measured_ns", measured_ns_);
  out.emplace_back(prefix + "runs_total", runs_);
  std::sort(out.begin(), out.end());
  for (const Series& s : out) {
    os << s.first << ' ' << s.second << '\n';
  }
}

void Profiler::write_json(std::ostream& os) const {
  std::ostringstream prom;
  write_prometheus(prom);
  // Same series, same order, JSON shape for bench embedding.
  os << "{\"profile\":[";
  std::istringstream in(prom.str());
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"";
    json_escape(os, std::string_view(line).substr(0, sp));
    os << "\",\"value\":" << line.substr(sp + 1) << '}';
  }
  os << "]}\n";
}

std::string Profiler::prometheus() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

std::string Profiler::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void Profiler::reset() {
  shard_slots_.clear();
  worker_slots_.clear();
  serial_ns_ = 0;
  serial_events_ = 0;
  coordinator_wait_ns_ = 0;
  measured_ns_ = 0;
  runs_ = 0;
}

}  // namespace dacc::obs
