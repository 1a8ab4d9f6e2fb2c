// Wallclock profiler (dacc::obs) — the non-deterministic observability tier.
//
// Implements sim::WallSink: the engine attributes host-wallclock intervals
// to per-shard phases (busy / horizon-stall / inbox-drain / band-gap-sync),
// per-worker waits, serial-context execution and the coordinator's waits on
// pool eras. Attribution is chained (each clock read closes the previous
// interval) and books every thread a run occupies once, so the sums tile
// the measured thread wallclock — `attributed_ns()` over `measured_ns()`
// is the coverage identity the bench holds between 95% and 105%.
//
// Everything here is explicitly OUTSIDE the deterministic snapshot contract:
// the profiler is a separate object from obs::Registry, its exporters emit
// only `dacc_prof_*` series, and scripts/check_determinism.sh proves the
// byte-compared snapshots are identical with the profiler on and off.
//
// Threading: shard slots are single-writer (the engine's stable
// shard->worker stride assignment), worker slots are written only by their
// own worker, and serial/run totals only from the coordinator. Reads
// (export, accessors) are meant for after run() returns, where the era
// barrier already ordered every write.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace dacc::obs {

class Profiler final : public sim::WallSink {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // --- sim::WallSink ------------------------------------------------------
  void begin_run(int shards, int workers) override;
  void shard_phase(int shard, Phase phase, std::uint64_t ns) override;
  void worker_wait(int worker, std::uint64_t ns) override;
  void serial(std::uint64_t ns, std::uint64_t events) override;
  void coordinator_wait(std::uint64_t ns) override;
  void run_complete(std::uint64_t wall_ns, int threads) override;

  // --- readouts (after run) ----------------------------------------------
  int shards() const { return static_cast<int>(shard_slots_.size()); }
  std::uint64_t shard_ns(int shard, Phase phase) const;
  std::uint64_t shard_samples(int shard, Phase phase) const;
  std::uint64_t worker_wait_ns(int worker) const;
  std::uint64_t serial_ns() const { return serial_ns_; }
  std::uint64_t serial_events() const { return serial_events_; }
  std::uint64_t coordinator_wait_ns() const { return coordinator_wait_ns_; }

  /// Total wallclock the profiler attributed to a category (phases + worker
  /// waits + serial + coordinator waits). Compare against measured_ns() for
  /// coverage.
  std::uint64_t attributed_ns() const;
  /// Total measured thread-wallclock budget: sum over runs of run-wall *
  /// threads. A run on a started worker pool counts its workers and the
  /// coordinator; every other run counts one thread.
  std::uint64_t measured_ns() const { return measured_ns_; }

  static const char* phase_name(Phase phase);

  /// Exporters, separate from Registry's by construction: every series name
  /// starts with kSeriesPrefix. Sorted; values are wallclock ns, so the
  /// output is NOT deterministic and must never be byte-compared.
  static constexpr std::string_view kSeriesPrefix = "dacc_prof_";
  void write_prometheus(std::ostream& os) const;
  void write_json(std::ostream& os) const;
  std::string prometheus() const;
  std::string json() const;

  void reset();

 private:
  struct alignas(64) ShardSlot {
    std::uint64_t ns[kPhases] = {0, 0, 0, 0};
    std::uint64_t samples[kPhases] = {0, 0, 0, 0};
  };
  struct alignas(64) WorkerSlot {
    std::uint64_t wait_ns = 0;
    std::uint64_t waits = 0;
  };
  std::vector<ShardSlot> shard_slots_;
  std::vector<WorkerSlot> worker_slots_;
  std::uint64_t serial_ns_ = 0;
  std::uint64_t serial_events_ = 0;
  std::uint64_t coordinator_wait_ns_ = 0;
  std::uint64_t measured_ns_ = 0;
  std::uint64_t runs_ = 0;
};

}  // namespace dacc::obs
