// Deterministic metrics registry (dacc::obs).
//
// Named counters, gauges and fixed-bucket histograms over simulated-time
// quantities (latencies, bytes, queue depths). Components hold cheap handles
// (a registry pointer + index) so the hot path is one branch and one integer
// update; a default-constructed handle is a no-op, which keeps every
// instrumentation site free when no registry is attached.
//
// Determinism contract: all stored state is integral (no floats), and every
// update goes through sim::Engine::record, like a sim::Tracer span: on the
// parallel backend's worker pool the engine keeps it under the emitting
// event's canonical key and applies it in canonical order when the run
// ends, not in worker order. The whole snapshot is therefore byte-identical
// across the coroutine and parallel backends and every shard count
// (tests/obs/obs_determinism_test.cpp enforces this).
//
// Components register their series when they are built, against the
// registry attached to their engine then (Engine::set_metrics, which must
// precede the node topology): a series exists, at zero, as long as its
// component does. Without a registry nothing registers and every handle is a
// no-op.
//
// Exporters: write_json (machine-readable snapshot, folded into BENCH_*.json
// by bench_util) and write_prometheus (text exposition format). Both sort by
// metric name so the output does not depend on registration order, which may
// legitimately differ between backends: accelerator proxies and their
// channels are built inside process bodies, which run on shard workers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace dacc::sim {
class Engine;
}

namespace dacc::obs {

class Registry;

/// Monotonic event count. `add` is hot-path safe from any simulation context.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t v = 1);
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t idx) : reg_(reg), idx_(idx) {}
  Registry* reg_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Last-write-wins level (pool occupancy, queue depth). Signed.
class Gauge {
 public:
  Gauge() = default;
  inline void set(std::int64_t v);
  inline void add(std::int64_t delta);
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t idx) : reg_(reg), idx_(idx) {}
  Registry* reg_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Fixed-bound histogram; buckets are cumulative in exports (Prometheus
/// semantics). Observations are unsigned (sim-time ns, bytes, percentages).
class Histogram {
 public:
  Histogram() = default;
  inline void observe(std::uint64_t value);
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t idx) : reg_(reg), idx_(idx) {}
  Registry* reg_ = nullptr;
  std::uint32_t idx_ = 0;
};

/// Default latency bounds (ns): 1us .. 1s, decades.
std::vector<std::uint64_t> latency_bounds_ns();

/// Composes a metric name with one embedded Prometheus-style label:
/// labeled("dacc_raft_term", "replica", "2") -> `dacc_raft_term{replica="2"}`.
/// An empty name yields just the label suffix, for callers that append it to
/// several series of one component. Backslash, double quote and newline in
/// the value are escaped per the Prometheus text exposition format, so the
/// stored series name is already a valid exposition label.
std::string labeled(std::string_view name, std::string_view key,
                    std::string_view value);

/// Read-only histogram readout with fixed-bucket quantile estimation — the
/// SLO layer. Snapshot semantics: `Registry::hist` copies the buckets, so a
/// Hist stays stable while the run continues. All arithmetic is integral
/// (quantiles are requested in permille), so a quantile computed from a
/// deterministic snapshot is itself deterministic.
class Hist {
 public:
  /// False when the series does not exist (or is not a histogram); every
  /// readout on an invalid Hist returns 0.
  bool valid() const { return valid_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }

  /// Quantile estimate: q in permille (500 = p50, 990 = p99). Locates the
  /// bucket holding the ceil(q*count/1000)-th observation and interpolates
  /// linearly between the bucket's bounds. An empty histogram yields 0; a
  /// rank landing in the overflow bucket clamps to the highest finite bound
  /// (fixed-bucket histograms cannot see past it).
  std::uint64_t quantile_permille(std::uint32_t q) const;
  std::uint64_t p50() const { return quantile_permille(500); }
  std::uint64_t p90() const { return quantile_permille(900); }
  std::uint64_t p99() const { return quantile_permille(990); }

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Non-cumulative, one extra overflow bucket past the last bound.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  friend class Registry;
  bool valid_ = false;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
};

/// One per-series SLO target: "quantile q of `series` must be <= bound".
struct Slo {
  std::string series;
  std::uint32_t q_permille = 990;
  std::uint64_t bound = 0;
};

/// Result of evaluating one Slo against the current snapshot. A series with
/// zero observations passes vacuously (nothing was measured, nothing was
/// violated); a missing series fails so typos surface.
struct SloResult {
  Slo slo;
  std::uint64_t observed = 0;
  std::uint64_t count = 0;
  bool ok = true;
};

/// Deterministic fixed-order table of SLO results (one line per target:
/// series, quantile, bound, observed, sample count, PASS/FAIL). Shared by
/// the readout examples and benches so their byte-compared digests agree.
void write_slo_report(const std::vector<SloResult>& results,
                      std::ostream& os);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. Names follow Prometheus conventions; labels are embedded
  /// in the name, e.g. `dacc_dmpi_msgs_total{rank="3"}`. Re-registering an
  /// existing name with a different kind (or different histogram bounds)
  /// throws std::invalid_argument.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name,
                      std::vector<std::uint64_t> bounds);

  // --- snapshot reads (tests / harnesses; not hot-path) -------------------
  std::size_t size() const;
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;
  std::uint64_t histogram_count(const std::string& name) const;
  std::uint64_t histogram_sum(const std::string& name) const;

  /// Quantile readout: copies the named histogram's buckets into a Hist
  /// (invalid when the series is missing or not a histogram).
  Hist hist(const std::string& name) const;

  /// Registers an SLO target evaluated by check_slos(). Targets are not part
  /// of the snapshot exporters, so registering them never perturbs the
  /// byte-compared deterministic output.
  void set_slo(std::string series, std::uint32_t q_permille,
               std::uint64_t bound);

  /// Evaluates every registered SLO against the current buckets, in
  /// registration order. Deterministic: quantiles are integer math over the
  /// deterministic histogram state.
  std::vector<SloResult> check_slos() const;

  /// JSON snapshot: {"metrics":[{...}, ...]} sorted by name. Deterministic.
  void write_json(std::ostream& os) const;
  std::string json() const;

  /// Prometheus text exposition format, sorted by name. Deterministic.
  void write_prometheus(std::ostream& os) const;
  std::string prometheus() const;

  /// Resets all values (registrations and handles stay valid).
  void reset();

 private:
  friend class sim::Engine;
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  enum class OpKind : std::uint8_t { kAdd, kSet, kGaugeAdd, kObserve };

  struct Metric {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t count = 0;  ///< counter value / histogram observation count
    std::int64_t gauge = 0;
    std::uint64_t sum = 0;                 ///< histogram sum
    std::vector<std::uint64_t> bounds;     ///< upper bounds, ascending
    std::vector<std::uint64_t> buckets;    ///< non-cumulative, +1 overflow
  };

  /// Engine::set_metrics's hook.
  void attach(sim::Engine* engine) { engine_ = engine; }

  std::uint32_t intern(const std::string& name, Kind kind,
                       const std::vector<std::uint64_t>* bounds);
  void record(std::uint32_t idx, OpKind op, std::int64_t value);
  void apply(std::uint32_t idx, OpKind op, std::int64_t value);
  const Metric* find(const std::string& name, Kind kind) const;
  std::vector<const Metric*> collect() const;  ///< sorted by name

  sim::Engine* engine_ = nullptr;
  /// Guards names_/metrics_ during registration only: components built
  /// inside process bodies (accelerator proxies, their channels) and a
  /// replica that becomes leader register from shard workers. Hot-path
  /// updates never take it — on the worker pool the engine keeps each
  /// update in the emitting shard's own buffer; elsewhere, execution is
  /// single-threaded.
  mutable std::mutex reg_mutex_;
  std::vector<Metric> metrics_;
  std::map<std::string, std::uint32_t> names_;
  std::vector<Slo> slos_;
};

inline void Counter::add(std::uint64_t v) {
  if (reg_ != nullptr) {
    reg_->record(idx_, Registry::OpKind::kAdd, static_cast<std::int64_t>(v));
  }
}

inline void Gauge::set(std::int64_t v) {
  if (reg_ != nullptr) reg_->record(idx_, Registry::OpKind::kSet, v);
}

inline void Gauge::add(std::int64_t delta) {
  if (reg_ != nullptr) reg_->record(idx_, Registry::OpKind::kGaugeAdd, delta);
}

inline void Histogram::observe(std::uint64_t value) {
  if (reg_ != nullptr) {
    reg_->record(idx_, Registry::OpKind::kObserve,
                 static_cast<std::int64_t>(value));
  }
}

}  // namespace dacc::obs
