#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace dacc::obs {

std::vector<std::uint64_t> latency_bounds_ns() {
  return {1'000,      10'000,      100'000,      1'000'000,
          10'000'000, 100'000'000, 1'000'000'000};
}

std::string labeled(std::string_view name, std::string_view key,
                    std::string_view value) {
  std::string out;
  out.reserve(name.size() + key.size() + value.size() + 5);
  out.append(name);
  out.push_back('{');
  out.append(key);
  out.append("=\"");
  // Prometheus label-value escaping: backslash, double quote and newline
  // would otherwise terminate or corrupt the exposition line.
  for (const char c : value) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '"':
        out.append("\\\"");
        break;
      case '\n':
        out.append("\\n");
        break;
      default:
        out.push_back(c);
    }
  }
  out.append("\"}");
  return out;
}

// ---------------------------------------------------------------------------
// SLO readout layer
// ---------------------------------------------------------------------------

std::uint64_t Hist::quantile_permille(std::uint32_t q) const {
  if (!valid_ || count_ == 0) return 0;
  if (q > 1000) q = 1000;
  // Rank of the target observation, 1-based, ceil(q * count / 1000) but at
  // least 1 so p0 still points at the first observation.
  std::uint64_t rank = (count_ * q + 999) / 1000;
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i];
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds_.size()) {
      // Overflow bucket: the estimator cannot see past the last finite
      // bound, so clamp there.
      return bounds_.empty() ? 0 : bounds_.back();
    }
    const std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1];
    const std::uint64_t hi = bounds_[i];
    const std::uint64_t k = rank - cum;  // 1..in_bucket
    return lo + (hi - lo) * k / in_bucket;
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

Hist Registry::hist(const std::string& name) const {
  Hist h;
  const Metric* m = find(name, Kind::kHistogram);
  if (m == nullptr) return h;
  h.valid_ = true;
  h.count_ = m->count;
  h.sum_ = m->sum;
  h.bounds_ = m->bounds;
  h.buckets_ = m->buckets;
  return h;
}

void Registry::set_slo(std::string series, std::uint32_t q_permille,
                       std::uint64_t bound) {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  slos_.push_back(Slo{std::move(series), q_permille, bound});
}

std::vector<SloResult> Registry::check_slos() const {
  std::vector<SloResult> out;
  out.reserve(slos_.size());
  for (const Slo& slo : slos_) {
    SloResult r;
    r.slo = slo;
    const Hist h = hist(slo.series);
    if (!h.valid()) {
      r.ok = false;  // missing series: surface the typo, don't pass silently
      out.push_back(std::move(r));
      continue;
    }
    r.count = h.count();
    r.observed = h.quantile_permille(slo.q_permille);
    r.ok = r.count == 0 || r.observed <= slo.bound;
    out.push_back(std::move(r));
  }
  return out;
}

void write_slo_report(const std::vector<SloResult>& results,
                      std::ostream& os) {
  os << "slo report (" << results.size() << " targets)\n";
  for (const SloResult& r : results) {
    os << (r.ok ? "PASS" : "FAIL") << " " << r.slo.series << " p"
       << r.slo.q_permille << "<=" << r.slo.bound << " observed=" << r.observed
       << " n=" << r.count << "\n";
  }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

std::uint32_t Registry::intern(const std::string& name, Kind kind,
                               const std::vector<std::uint64_t>* bounds) {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  const auto it = names_.find(name);
  if (it != names_.end()) {
    const Metric& m = metrics_[it->second];
    if (m.kind != kind) {
      throw std::invalid_argument("Registry: '" + name +
                                  "' already registered with another kind");
    }
    if (kind == Kind::kHistogram && bounds != nullptr && m.bounds != *bounds) {
      throw std::invalid_argument("Registry: '" + name +
                                  "' already registered with other bounds");
    }
    return it->second;
  }
  Metric m;
  m.name = name;
  m.kind = kind;
  if (kind == Kind::kHistogram) {
    if (bounds == nullptr || bounds->empty()) {
      throw std::invalid_argument("Registry: histogram '" + name +
                                  "' needs at least one bucket bound");
    }
    if (!std::is_sorted(bounds->begin(), bounds->end())) {
      throw std::invalid_argument("Registry: histogram '" + name +
                                  "' bounds must be ascending");
    }
    m.bounds = *bounds;
    m.buckets.assign(bounds->size() + 1, 0);  // +1 = overflow (+Inf)
  }
  const auto idx = static_cast<std::uint32_t>(metrics_.size());
  metrics_.push_back(std::move(m));
  names_.emplace(name, idx);
  return idx;
}

Counter Registry::counter(const std::string& name) {
  return Counter(this, intern(name, Kind::kCounter, nullptr));
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge(this, intern(name, Kind::kGauge, nullptr));
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<std::uint64_t> bounds) {
  return Histogram(this, intern(name, Kind::kHistogram, &bounds));
}

// ---------------------------------------------------------------------------
// Hot path. On the worker pool the engine defers `apply` and replays it in
// canonical order: for counters and histograms the order is immaterial
// (commutative); for gauges (kSet) it decides which write wins.
// ---------------------------------------------------------------------------

void Registry::record(std::uint32_t idx, OpKind op, std::int64_t value) {
  if (engine_ != nullptr) {
    engine_->record([this, idx, op, value] { apply(idx, op, value); });
  } else {
    apply(idx, op, value);
  }
}

void Registry::apply(std::uint32_t idx, OpKind op, std::int64_t value) {
  Metric& m = metrics_[idx];
  switch (op) {
    case OpKind::kAdd:
      m.count += static_cast<std::uint64_t>(value);
      break;
    case OpKind::kSet:
      m.gauge = value;
      break;
    case OpKind::kGaugeAdd:
      m.gauge += value;
      break;
    case OpKind::kObserve: {
      const auto v = static_cast<std::uint64_t>(value);
      ++m.count;
      m.sum += v;
      const auto it = std::lower_bound(m.bounds.begin(), m.bounds.end(), v);
      ++m.buckets[static_cast<std::size_t>(it - m.bounds.begin())];
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot reads
// ---------------------------------------------------------------------------

const Registry::Metric* Registry::find(const std::string& name,
                                       Kind kind) const {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  const auto it = names_.find(name);
  if (it == names_.end()) return nullptr;
  const Metric& m = metrics_[it->second];
  return m.kind == kind ? &m : nullptr;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  return metrics_.size();
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const Metric* m = find(name, Kind::kCounter);
  return m != nullptr ? m->count : 0;
}

std::int64_t Registry::gauge_value(const std::string& name) const {
  const Metric* m = find(name, Kind::kGauge);
  return m != nullptr ? m->gauge : 0;
}

std::uint64_t Registry::histogram_count(const std::string& name) const {
  const Metric* m = find(name, Kind::kHistogram);
  return m != nullptr ? m->count : 0;
}

std::uint64_t Registry::histogram_sum(const std::string& name) const {
  const Metric* m = find(name, Kind::kHistogram);
  return m != nullptr ? m->sum : 0;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  for (Metric& m : metrics_) {
    m.count = 0;
    m.gauge = 0;
    m.sum = 0;
    std::fill(m.buckets.begin(), m.buckets.end(), 0);
  }
}

// ---------------------------------------------------------------------------
// Exporters. Sorted by name; integers only — byte-identical across backends.
// ---------------------------------------------------------------------------

namespace {

/// Splits `dacc_x_ns{op="h2d"}` into base name and label body ("" if none).
void split_labels(const std::string& name, std::string* base,
                  std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  // Everything between the braces, without the braces themselves.
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

}  // namespace

std::vector<const Registry::Metric*> Registry::collect() const {
  std::vector<const Metric*> sorted;
  std::lock_guard<std::mutex> lock(reg_mutex_);
  sorted.reserve(names_.size());
  // names_ is an ordered map: iteration is already sorted by name.
  for (const auto& [name, idx] : names_) sorted.push_back(&metrics_[idx]);
  return sorted;
}

void Registry::write_json(std::ostream& os) const {
  const std::vector<const Metric*> sorted = collect();
  os << "{\"metrics\":[";
  bool first = true;
  for (const Metric* m : sorted) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    util::write_json_string(os, m->name);
    os << ",";
    switch (m->kind) {
      case Kind::kCounter:
        os << "\"type\":\"counter\",\"value\":" << m->count;
        break;
      case Kind::kGauge:
        os << "\"type\":\"gauge\",\"value\":" << m->gauge;
        break;
      case Kind::kHistogram: {
        os << "\"type\":\"histogram\",\"count\":" << m->count
           << ",\"sum\":" << m->sum << ",\"buckets\":[";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m->bounds.size(); ++i) {
          cum += m->buckets[i];
          if (i != 0) os << ",";
          os << "{\"le\":" << m->bounds[i] << ",\"count\":" << cum << "}";
        }
        cum += m->buckets.back();
        if (!m->bounds.empty()) os << ",";
        os << "{\"le\":\"+Inf\",\"count\":" << cum << "}]";
        break;
      }
    }
    os << "}";
  }
  os << "]}\n";
}

std::string Registry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void Registry::write_prometheus(std::ostream& os) const {
  const std::vector<const Metric*> sorted = collect();
  std::string last_family;
  for (const Metric* m : sorted) {
    std::string base, labels;
    split_labels(m->name, &base, &labels);
    if (base != last_family) {
      const char* type = m->kind == Kind::kCounter   ? "counter"
                         : m->kind == Kind::kGauge   ? "gauge"
                                                     : "histogram";
      os << "# TYPE " << base << " " << type << "\n";
      last_family = base;
    }
    const std::string brace_open = labels.empty() ? "" : "{" + labels + "}";
    switch (m->kind) {
      case Kind::kCounter:
        os << base << brace_open << " " << m->count << "\n";
        break;
      case Kind::kGauge:
        os << base << brace_open << " " << m->gauge << "\n";
        break;
      case Kind::kHistogram: {
        const std::string sep = labels.empty() ? "" : labels + ",";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m->bounds.size(); ++i) {
          cum += m->buckets[i];
          os << base << "_bucket{" << sep << "le=\"" << m->bounds[i] << "\"} "
             << cum << "\n";
        }
        cum += m->buckets.back();
        os << base << "_bucket{" << sep << "le=\"+Inf\"} " << cum << "\n";
        os << base << "_sum" << brace_open << " " << m->sum << "\n";
        os << base << "_count" << brace_open << " " << m->count << "\n";
        break;
      }
    }
  }
}

std::string Registry::prometheus() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

}  // namespace dacc::obs

// ---------------------------------------------------------------------------
// Engine::set_metrics lives here (declared in sim/engine.hpp) so dacc_sim
// never depends on dacc_obs: the engine holds the registry behind a pointer,
// and only code that actually attaches a registry links this translation
// unit.
// ---------------------------------------------------------------------------

namespace dacc::sim {

void Engine::set_metrics(obs::Registry* registry) {
  if (node_count() > 0) {
    throw SimError("set_metrics: attach the registry before the components "
                   "it watches (this engine already has a node topology)");
  }
  metrics_ = registry;
  if (registry != nullptr) registry->attach(this);
}

}  // namespace dacc::sim
