// Deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events in a canonical
// (time, source-node, sequence) order. Simulated "processes" (compute-node
// application processes, the back-end daemons, the accelerator resource
// manager) are written as ordinary synchronous C++ functions; execution of
// any one event is always single-threaded, and the canonical order makes the
// simulation bit-for-bit reproducible.
//
// Every process runs as a stackful coroutine on a pooled stack (a process
// switch is two user-space context swaps). Two execution backends dispatch
// events (see sim/exec.hpp): a sequential one, and a conservative parallel
// backend that partitions node-homed work into per-shard event queues. Both
// start on one serial loop over one event queue. A parallel engine leaves
// it once, at a run's first node-homed event, if a safe horizon width
// exists and at least kPoolCrossover node-homed events are queued: it moves
// those events onto their shards and from then on runs in eras on a worker
// pool, where the shards advance asynchronously: each shard repeatedly
// drains up to the minimum of its neighbors' published horizon clocks plus
// the per-shard-pair lookahead (DESIGN.md §5.2). Every path produces the
// same event sequence; tests/sim/determinism_test.cpp enforces that
// contract.
//
// Threading contract: every callback and every process body executes while
// holding the (conceptual) simulation baton for its node. Under the
// sequential backend there is one global baton, so it is always safe to
// touch engine state, schedule events, and wake processes from engine
// callbacks or process bodies — but never from threads outside the engine.
// Under the parallel backend the baton is per node: callbacks and processes
// may freely touch state homed on their own node; effects that target
// another node (fabric delivery, cross-node wakes, posts) are routed through
// staged inboxes and take effect no earlier than the node pair's latency
// floor later — which is exactly the calibrated cross-node link latency, so
// the sequential backend observes the same times.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/exec.hpp"
#include "util/units.hpp"

namespace dacc::obs {
class Registry;
class FlightRecorder;
}

namespace dacc::sim {

class Engine;
class Process;

/// Wallclock profiler sink — the engine's window into the non-deterministic
/// observability tier (obs::Profiler implements it; dacc_sim never depends
/// on dacc_obs). Everything reported here is host wallclock, explicitly
/// outside the byte-identical snapshot contract. When no sink is attached
/// the engine's only cost is a null-pointer check per instrumentation site;
/// the sequential hot loop is never touched per event (whole drains are
/// reported as one serial interval).
///
/// Threading: shard_phase is called by the worker that owns the shard (the
/// stride assignment worker = shard % workers is stable for a run), and
/// worker_wait by that worker for itself — or by the coordinator for a
/// parked worker's idle tail at the end of a pool run — so per-slot state
/// needs no locks; begin_run/run_complete/serial/coordinator_wait arrive
/// from the serial coordinator context.
///
/// Every thread a run occupies is booked once: a worker's wallclock is its
/// shards' phases plus its waits, the coordinator's is its serial work plus
/// its waits on pool eras.
class WallSink {
 public:
  virtual ~WallSink() = default;

  /// Per-shard wallclock phases inside a parallel era.
  enum Phase : int {
    kBusy = 0,   ///< draining events below the horizon bound
    kStall = 1,  ///< horizon scan found no new safe bound (neighbor-bound)
    kInbox = 2,  ///< absorbing staged cross-shard inbox events
    kSync = 3,   ///< shard done, spinning until era barrier
    kPhases = 4,
  };

  /// A new run is starting; sizes per-shard/per-worker state. Serial context.
  virtual void begin_run(int shards, int workers) = 0;
  /// `ns` of wallclock attributed to `phase` on `shard` (one sample).
  virtual void shard_phase(int shard, Phase phase, std::uint64_t ns) = 0;
  /// Worker idle time in a pool run outside its shards' phases: the era
  /// barrier and the coordinator's serial work, from the run's start to
  /// its end.
  virtual void worker_wait(int worker, std::uint64_t ns) = 0;
  /// Serial-context execution: the serial event loop (the sequential
  /// backend, and a parallel engine until it moves to the pool), and on
  /// the pool the coordinator's global-band events and queue scans.
  /// `events` may be 0.
  virtual void serial(std::uint64_t ns, std::uint64_t events) = 0;
  /// The coordinator blocked while the worker threads ran a pool era.
  virtual void coordinator_wait(std::uint64_t ns) = 0;
  /// A run() / run_until() call finished after `wall_ns`, having occupied
  /// `threads`: the pool's workers plus the coordinator once the engine
  /// has started its pool, 1 otherwise (the serial loop, a pool of one).
  virtual void run_complete(std::uint64_t wall_ns, int threads) = 0;
};

/// Causal trace context of a running process: the trace id minted by the
/// front-end API call currently executing and the span id under which any
/// instrumented work it triggers (NIC transfers, daemon handlers) parents
/// itself. Zero ids mean "no active trace".
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// Execution affinity of contexts that belong to no cluster node: the main
/// thread between runs, plain engine callbacks, and processes spawned before
/// any node topology exists. Under the parallel backend the global context
/// runs serially between eras and its events sort ahead of same-time node
/// events, which is what makes it safe to keep shared control state there.
inline constexpr std::int32_t kGlobalNode = -1;

/// Thrown inside process bodies when the engine shuts down while they are
/// blocked; the process trampoline catches it. User code must not swallow it.
struct Shutdown {};

/// Raised on simulation-model violations (e.g., calling a process-context
/// primitive from outside process context).
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Per-worker execution state for the parallel backend. Lives on the worker
/// thread's stack during a shard drain; the thread-local pointer to it is
/// re-read through a non-inlined accessor so coroutine stacks that migrate
/// between workers never see a stale thread-local address.
struct ExecCursor {
  Engine* engine = nullptr;
  SimTime now = 0;
  std::int32_t node = kGlobalNode;
  int shard = -1;
  Process* current = nullptr;
  std::uint64_t ord = 0;         ///< canonical key of the running event
  std::uint32_t record_seq = 0;  ///< observer records within that event
  std::uint64_t switches = 0;    ///< slice hand-offs during this drain
  std::uint64_t wall_tick = 0;   ///< chained wallclock timestamp (profiler)
};

ExecCursor* exec_cursor() noexcept;  ///< null outside parallel drains
void set_exec_cursor(ExecCursor* c) noexcept;

}  // namespace detail

/// The blocking interface available to process bodies. A Context is only
/// valid inside the process it was created for.
class Context {
 public:
  Context(Engine& engine, Process& self) : engine_(engine), self_(self) {}

  SimTime now() const;
  Engine& engine() const { return engine_; }
  Process& self() const { return self_; }

  /// Blocks this process for `d` simulated nanoseconds.
  void wait_for(SimDuration d);

  /// Blocks this process until absolute simulated time `t` (no-op if past).
  void wait_until(SimTime t);

  /// Blocks until another party calls Engine::wake() on this process. Each
  /// wake() delivers one permit; suspend() consumes one permit, blocking only
  /// when none are banked. This is the primitive on which all higher-level
  /// synchronization (mailboxes, wait queues) is built.
  void suspend();

  /// Yields the baton and resumes at the same simulated time, after all
  /// events already scheduled for this time have run.
  void yield();

 private:
  Engine& engine_;
  Process& self_;
};

using ProcessFn = std::function<void(Context&)>;

/// A simulated process. Owned by the engine; user code holds references.
class Process {
 public:
  /// Constructed by Engine::spawn() only; public for std::make_unique.
  Process(Engine& engine, std::uint64_t id, std::string name, ProcessFn fn);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  std::uint64_t id() const { return id_; }
  bool finished() const { return finished_; }

  /// Set if the process body exited via an uncaught exception (other than
  /// engine shutdown); Engine::run rethrows the stored message.
  const std::string& failure() const { return failure_; }

 private:
  friend class Engine;
  friend class Context;

  // Coroutine suspension state (stack and saved contexts); implemented in
  // engine.cpp.
  class Strand;

  void body_main();  // runs fn_ on the strand's coroutine stack

  Engine& engine_;
  std::uint64_t id_;
  std::string name_;
  ProcessFn fn_;

  std::unique_ptr<Strand> strand_;

  // Cluster node this process executes on (kGlobalNode if spawned outside
  // any node context). All of the process's events run on its home node's
  // shard under the parallel backend.
  std::int32_t home_node_ = kGlobalNode;
  bool started_ = false;
  bool finished_ = false;
  bool shutdown_requested_ = false;
  std::string failure_;

  // Blocking bookkeeping (only touched under the home node's baton).
  std::uint64_t wait_seq_ = 0;       // increments on every block
  std::uint64_t current_wait_ = 0;   // nonzero while blocked
  std::uint64_t wake_permits_ = 0;   // banked wake() calls
  bool waiting_for_wake_ = false;    // blocked specifically in suspend()

  // Causal trace context (only touched from the process's own slices, so no
  // synchronization is needed under any backend).
  TraceCtx trace_ctx_;
};

class Engine {
 public:
  /// `shards` is the parallel backend's shard count (0 = auto: one shard
  /// per cluster node, capped at a host-sized limit); ignored by the
  /// sequential backend.
  explicit Engine(ExecBackend backend = default_exec_backend(),
                  int shards = default_parallel_shards());
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Simulated time of the calling context: the running event's time during
  /// a parallel era, the engine clock otherwise.
  SimTime now() const {
    if (par_active_) [[unlikely]] {
      const detail::ExecCursor* c = detail::exec_cursor();
      if (c != nullptr && c->engine == this) return c->now;
    }
    return now_;
  }

  ExecBackend backend() const { return backend_; }

  // --- cluster topology (parallel backend) --------------------------------

  /// Declares the number of cluster nodes (net::Fabric calls this from its
  /// constructor). Under the parallel backend this also sizes the shard set;
  /// it must happen before any node-homed event is scheduled.
  void set_node_count(int nodes);
  int node_count() const { return node_count_; }

  /// Minimum simulated latency of any cross-node interaction — the
  /// conservative lookahead. Cross-node effects scheduled sooner are clamped
  /// up to now + lookahead in EVERY backend, so the parallel horizons and
  /// the sequential replay agree bit for bit. Defaults to 0 (purely
  /// sequential semantics); rt::Cluster sets it to the fabric wire latency.
  void set_lookahead(SimDuration l) {
    lookahead_ = l;
    plan_dirty_ = true;
  }
  SimDuration lookahead() const { return lookahead_; }

  /// Sparse symmetric per-node-pair latency overrides for heterogeneous
  /// topologies (net::Fabric registers its link overrides here).
  /// `default_latency` is the latency of every non-overridden link — the
  /// reference the topology partitioner uses to tell short links from long
  /// ones. The override becomes that node pair's cross-node clamp floor in
  /// EVERY backend (it is part of the simulation semantics, exactly like
  /// set_lookahead), and the per-shard-pair lookahead matrix is derived
  /// from it. Must be called before any node-homed event is scheduled.
  struct LatencyOverride {
    std::int32_t a = 0;
    std::int32_t b = 0;
    SimDuration latency = 0;
  };
  void set_lookahead_overrides(SimDuration default_latency,
                               const std::vector<LatencyOverride>& links);

  /// Conservative clamp floor for an effect traveling src -> dst
  /// (dst == kGlobalNode returns the band gap).
  SimDuration cross_floor(std::int32_t src, std::int32_t dst) const {
    if (dst == kGlobalNode) return effective_band_gap();
    if (!la_override_.empty()) [[unlikely]] {
      const auto it = la_override_.find(pair_key(src, dst));
      if (it != la_override_.end()) return it->second;
    }
    return lookahead_;
  }

  /// Width of the serial-control "era": node->global effects are clamped up
  /// by this much (instead of one lookahead), which lets the shards run
  /// many lookaheads ahead between global-band synchronizations. 0 (the
  /// default) falls back to the plain lookahead — the pre-async behavior.
  /// Like the lookahead it is part of the simulation semantics and applies
  /// identically under every backend. rt::Cluster raises it to a multiple
  /// of the wire latency.
  void set_band_gap(SimDuration g) {
    band_gap_ = g;
    plan_dirty_ = true;
  }
  SimDuration band_gap() const { return band_gap_; }
  SimDuration effective_band_gap() const {
    return band_gap_ > 0 ? band_gap_ : lookahead_;
  }

  /// Shard that node's events execute on (0 when not parallel). Placement
  /// never changes simulated results (shard-count invariance), only
  /// parallelism.
  int shard_of(std::int32_t node) const {
    if (num_shards_ == 0 || node < 0) return 0;
    return shard_target(node);
  }

  int shard_count() const { return num_shards_; }
  /// Worker threads started so far (1 until the engine moves to the pool,
  /// and for a pool of one, which runs inline).
  int worker_count() const { return workers_started_ > 0 ? workers_started_ : 1; }

  // --- scheduling ---------------------------------------------------------

  /// Creates a process that starts at the current simulated time (its first
  /// slice runs when the start event is dequeued). The process is homed on
  /// the calling context's node.
  Process& spawn(std::string name, ProcessFn fn);

  /// Creates a process homed on `node` (kGlobalNode for node-less service
  /// processes). Its events execute on that node's shard under the parallel
  /// backend.
  Process& spawn_on(std::int32_t node, std::string name, ProcessFn fn);

  /// Schedules `fn` to run in engine context at absolute time `t` (>= now)
  /// on the calling context's node. Accepts any callable, including
  /// move-only ones (payload buffers move through events without shared_ptr
  /// wrapping).
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    route(context_node(), t, std::forward<F>(fn));
  }

  template <typename F>
  void schedule_in(SimDuration d, F&& fn) {
    route(context_node(), now() + d, std::forward<F>(fn));
  }

  /// Schedules `fn` to run at time `t` with execution affinity `node`.
  /// When the target differs from the calling context's node, `t` is
  /// clamped up to now + the pair's latency floor — in every backend —
  /// because no cross-node interaction can be faster than the wire.
  template <typename F>
  void post(std::int32_t node, SimTime t, F&& fn) {
    route(node, t, std::forward<F>(fn));
  }

  /// Grants one wake permit to `p` and, if `p` is blocked in suspend(),
  /// schedules its resumption (at the current time when the caller shares
  /// `p`'s node; one pair-latency floor later across nodes).
  void wake(Process& p);

  /// Runs until the event queue is empty. Throws SimError if any process
  /// body failed, or if processes remain blocked with no pending events
  /// (deadlock) — unless they are marked as daemons.
  void run();

  /// Runs until the queue is empty or the clock would pass `t`; returns true
  /// if events remain.
  bool run_until(SimTime t);

  /// Marks `p` as a daemon: it is allowed to still be blocked when the
  /// simulation ends (service loops waiting for requests).
  void set_daemon(Process& p);

  // --- diagnostics --------------------------------------------------------

  /// Number of events executed so far (diagnostics).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of process slices resumed so far (one per baton hand-off to a
  /// process; the unit of the wall-clock switch benchmarks).
  std::uint64_t process_switches() const { return process_switches_; }

  /// Timed waits that ran in place: a wait_until() whose resume would have
  /// been the next event the serial loop pops moves the clock without a
  /// stack switch (DESIGN.md §5.1). events_executed() and
  /// process_switches() still count each as the resume event and the slice
  /// it stands for, so both stay a property of the simulated schedule.
  std::uint64_t fast_forwards() const { return fast_forwards_; }

  /// Event-pool occupancy (live, high-water, pool capacity, heap
  /// fallbacks) — the stress tests assert these stay flat in steady state.
  const EventQueue::Stats& event_stats() const { return queue_.stats(); }
  void reset_event_high_water() { queue_.reset_high_water(); }

  /// Coroutine stacks mapped for this engine's processes: 0 once earlier
  /// engines in the process have left enough stacks in the shared
  /// StackPool, and stable once the engine has reached its high-water
  /// count of live processes.
  std::uint64_t stacks_created() const {
    return stacks_created_.load(std::memory_order_relaxed);
  }

  /// Era accounting for the parallel backend. `windows` counts the serial
  /// synchronization points (eras) the run needed — the quantity the
  /// per-shard-pair asynchronous advancement shrinks. critical_path_events
  /// is the sum over eras of the busiest shard's event count: the events
  /// that cannot overlap anything. parallel_events / critical_path_events
  /// is the exposed parallelism — the speedup an unloaded multi-core host
  /// can realize on this scenario. Only the pool runs eras (on the worker
  /// threads, or inline for a pool of one), so all three stay 0 until the
  /// engine moves there. merged_fallbacks counts runs that kept the serial
  /// loop because no safe horizon width exists (zero lookahead, or a
  /// zero-latency link crossing shards). `shards` splits the eras by
  /// shard, folded at each era barrier; it stays empty until the pool runs
  /// an era. All fields are deterministic for a given scenario and shard
  /// map, and none depends on the worker count.
  struct ShardStats {
    std::uint64_t windows = 0;       ///< eras in which the shard ran events
    std::uint64_t events = 0;        ///< events it ran
    std::uint64_t inbox_events = 0;  ///< cross-shard events it absorbed
    std::uint64_t idle_windows = 0;  ///< eras in which it ran none
    bool operator==(const ShardStats&) const = default;
  };
  struct ParallelStats {
    std::uint64_t windows = 0;
    std::uint64_t parallel_events = 0;
    std::uint64_t critical_path_events = 0;
    std::uint64_t merged_fallbacks = 0;
    std::vector<ShardStats> shards;
  };
  const ParallelStats& parallel_stats() const { return pstats_; }

  /// Pool crossover of the parallel backend: when a run reaches its first
  /// node-homed event with at least this many node-homed events queued
  /// (and a safe horizon width), the engine moves to the worker pool for
  /// that run and every later one; before, it runs the serial loop.
  /// Measured by the size sweep in DESIGN.md §5.2.
  static constexpr std::uint64_t kPoolCrossover = 96;

  /// Currently running process, or nullptr in engine/callback context.
  Process* current() const { return executing(); }

  /// Optional tracer: instrumented components record spans when non-null.
  /// The engine does not own it; an attached tracer records through
  /// record(), so the engine must outlive its last record.
  class Tracer* tracer() const { return tracer_; }
  void set_tracer(class Tracer* tracer);

  /// Optional metrics registry: instrumented components update counters,
  /// gauges and histograms when non-null. Not owned; like the tracer, it
  /// records through record(). Components register their series when they
  /// are built, so the registry must be attached before any of them:
  /// set_metrics throws SimError once the engine has a node topology
  /// (set_node_count, which building a net::Fabric calls). Defined in
  /// obs/metrics.cpp so dacc_sim does not depend on dacc_obs.
  obs::Registry* metrics() const { return metrics_; }
  void set_metrics(obs::Registry* registry);

  /// Optional wallclock profiler sink (the non-deterministic tier; see
  /// obs/profiler.hpp). Not owned. Null = zero instrumentation cost beyond
  /// a pointer check.
  void set_wall_profiler(WallSink* sink) { wall_ = sink; }

  /// Optional flight recorder for rare control-plane events (elections,
  /// revocations, failovers, wire errors). Instrumented components note
  /// events through the returned pointer; like the tracer, an attached
  /// recorder notes through record(). Not owned. Defined in obs/flight.cpp
  /// so dacc_sim does not depend on dacc_obs.
  obs::FlightRecorder* flight() const { return flight_; }
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Causal trace context of the currently executing process ({0,0} in
  /// engine/callback context or when no trace is active).
  TraceCtx current_trace() const {
    const Process* p = executing();
    return p != nullptr ? p->trace_ctx_ : TraceCtx{};
  }

  /// Sets the executing process's trace context; no-op outside process
  /// context. Callers restore the previous context when their span closes.
  void set_current_trace(TraceCtx ctx) {
    Process* p = executing();
    if (p != nullptr) p->trace_ctx_ = ctx;
  }

  /// Observers' entry point (sim::Tracer spans, obs::Registry updates,
  /// obs::FlightRecorder notes):
  /// `apply` runs at once, except during a pool run. There it is kept in
  /// the running shard's buffer, or the serial band's, under the emitting
  /// event's canonical (time, ord, seq) key, and the run applies every
  /// kept step in key order when it ends, also when it throws. So an
  /// observer sees its records in the order the serial loop makes them.
  /// `apply` is stored inline, like an event's callback, so keeping it
  /// allocates nothing once the buffers are warm.
  template <typename F>
  void record(F&& apply) {
    if (!pool_run_) [[likely]] {
      apply();
    } else {
      keep(std::forward<F>(apply));
    }
  }

 private:
  friend class Context;
  friend class Process;

  /// A step record() kept during a pool run, under its emitting event's
  /// key. `apply` runs the stored callable and destroys it.
  struct Kept {
    SimTime time = 0;
    std::uint64_t ord = 0;
    std::uint32_t seq = 0;
    void (*apply)(Kept&) = nullptr;
    alignas(std::max_align_t) std::byte storage[EventQueue::kInlineBytes];
  };
  /// The steps one shard, or the serial band, kept during a pool run, in
  /// the order it made them; the chunks stay allocated from run to run.
  struct KeptSteps {
    static constexpr std::size_t kChunk = 256;
    std::vector<std::unique_ptr<Kept[]>> chunks;
    std::size_t size = 0;

    Kept& operator[](std::size_t i) { return chunks[i / kChunk][i % kChunk]; }
    Kept& push() {
      if (size == chunks.size() * kChunk) {
        chunks.push_back(std::make_unique<Kept[]>(kChunk));
      }
      return (*this)[size++];
    }
  };

  struct Shard {
    EventQueue q;
    KeptSteps kept;
    SimTime last_time = 0;
    std::uint64_t events = 0;        ///< events executed this era
    std::uint64_t switches = 0;
    std::uint64_t inbox_events = 0;  ///< cross-shard events received this era

    /// Published horizon clock: this shard promises never to execute an
    /// event earlier than `horizon`. Written with release by the owning
    /// worker after each drain — including drains that executed nothing,
    /// which is the null-message push that keeps idle shards from stalling
    /// their neighbors. Read with acquire by every other shard.
    std::atomic<SimTime> horizon{0};

    // Owner-worker-local era state (reset by the coordinator between eras).
    SimTime last_bound = 0;  ///< highest drain bound already executed to
    bool done = false;       ///< horizon reached the era end
  };
  struct ParallelRt;  // worker pool (engine.cpp)

  /// Execution affinity of the calling context.
  std::int32_t context_node() const {
    if (par_active_) [[unlikely]] {
      const detail::ExecCursor* c = detail::exec_cursor();
      if (c != nullptr && c->engine == this) return c->node;
    }
    return cur_node_;
  }

  Process* executing() const {
    if (par_active_) [[unlikely]] {
      const detail::ExecCursor* c = detail::exec_cursor();
      if (c != nullptr && c->engine == this) return c->current;
    }
    return current_;
  }

  /// Canonical ordering key: (src_node + 1) << 48 | per-node sequence. The
  /// per-node counters advance identically under every backend and shard
  /// count (each node's events execute in the same order everywhere), so
  /// the key — and with it the merged event order — is backend-invariant.
  std::uint64_t next_ord(std::int32_t src) {
    std::uint64_t& ctr = node_seq_[static_cast<std::size_t>(src + 1)];
    return (static_cast<std::uint64_t>(src + 1) << 48) | ctr++;
  }

  static std::uint64_t pair_key(std::int32_t a, std::int32_t b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  /// Target shard of a node's events: the shard map when the topology
  /// partitioner computed one, round robin otherwise.
  int shard_target(std::int32_t node) const {
    if (!shard_of_.empty()) [[unlikely]] {
      return shard_of_[static_cast<std::size_t>(node)];
    }
    return static_cast<int>(node % num_shards_);
  }

  /// Single funnel for every schedule/post/spawn/resume: applies the
  /// cross-node latency-floor clamp (per pair when overrides exist, the
  /// band gap towards the global band), assigns the canonical key, and
  /// places the event in the right queue: the band queue until the engine
  /// is on the pool, then the target's shard (directly when the caller
  /// owns it, staged when another worker does).
  template <typename F>
  void route(std::int32_t node, SimTime t, F&& fn) {
    std::int32_t src = cur_node_;
    SimTime ref = now_;
    detail::ExecCursor* c = nullptr;
    if (par_active_) [[unlikely]] {
      c = detail::exec_cursor();
      if (c != nullptr && c->engine == this) {
        src = c->node;
        ref = c->now;
      } else {
        c = nullptr;
      }
    }
    if (src != kGlobalNode && node != src) {
      const SimTime floor = ref + cross_floor(src, node);
      if (t < floor) t = floor;
    }
    if (t < ref) {
      throw SimError("schedule_at: time in the past");
    }
    const std::uint64_t ord = next_ord(src);
    const int target =
        (node == kGlobalNode || !on_pool_) ? -1 : shard_target(node);
    if (c == nullptr) {
      // Serial context: the serial loop, the global band, between runs.
      if (target < 0) {
        queue_.push(t, ord, node, std::forward<F>(fn));
      } else {
        shards_[static_cast<std::size_t>(target)]->q.push(
            t, ord, node, std::forward<F>(fn));
      }
    } else if (target == c->shard) {
      shards_[static_cast<std::size_t>(target)]->q.push(
          t, ord, node, std::forward<F>(fn));
    } else if (target < 0) {
      queue_.stage(t, ord, node, std::forward<F>(fn));
    } else {
      shards_[static_cast<std::size_t>(target)]->q.stage(
          t, ord, node, std::forward<F>(fn));
    }
  }

  // Process-context blocking helpers (called via Context).
  std::uint64_t prepare_block(Process& p);
  /// Context::wait_until's fast path: when the calling process's resume
  /// at `t` would be the next event run() pops, takes the resume's key,
  /// counts it and its slice, sets the clock to `t` and returns true.
  bool wait_in_place(SimTime t);
  void block(Process& p);  // yields the baton; returns when resumed
  void schedule_resume(Process& p, std::uint64_t wait_id, SimTime t);
  void local_wake(Process& p);

  // Hands the baton to `p` for one slice (tracks the executing process and
  // the switch counter).
  void resume_slice(Process& p);

  /// run() and run_until(): the serial loop over the band queue, until the
  /// engine moves to the pool (at this run's first node-homed event, or
  /// before the run when it already has).
  bool run_events(SimTime limit);
  /// Moves the engine to the pool when `next`, a node-homed event just
  /// popped from the band queue, and the node-homed events still queued
  /// there number at least kPoolCrossover: hands them all to their shards
  /// and returns true. run_parallel starts the workers.
  bool promote(EventQueue::Node* next);

  // Parallel driver (engine.cpp). The run started at wallclock `run_t0`
  // and booked its serial work up to `booked` (both 0 without a profiler).
  bool run_parallel(SimTime limit, std::uint64_t run_t0,
                    std::uint64_t booked);
  /// Runs one era on the worker pool (inline when the pool has one
  /// worker), then the era barrier: absorbs the inboxes and folds the
  /// per-shard counters into ParallelStats.
  void run_era(SimTime floor, SimTime era_end);
  /// record() during a pool run: files `apply` under the calling
  /// context's key, in its shard's buffer or the serial band's.
  template <typename F>
  void keep(F&& apply) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= EventQueue::kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "record() stores its callable inline");
    detail::ExecCursor* c = detail::exec_cursor();
    Kept* k = nullptr;
    if (c != nullptr && c->engine == this) {
      k = &shards_[static_cast<std::size_t>(c->shard)]->kept.push();
      k->time = c->now;
      k->ord = c->ord;
      k->seq = c->record_seq++;
    } else {
      k = &band_kept_.push();
      k->time = now_;
      k->ord = serial_ord_;
      k->seq = serial_record_seq_++;
    }
    ::new (static_cast<void*>(k->storage)) Fn(std::forward<F>(apply));
    k->apply = [](Kept& m) {
      Fn* fn = std::launder(reinterpret_cast<Fn*>(m.storage));
      (*fn)();
      fn->~Fn();
    };
  }
  /// Ends a pool run's keeping: applies every kept step in key order.
  void replay_kept();
  bool advance_shard(int shard, detail::ExecCursor& cursor);
  void drain_shard(int shard, SimTime bound, detail::ExecCursor& cursor);
  void worker_main(int index);
  /// Worker threads a pool era runs on (<= 1: inline on the coordinator).
  int pool_size() const;
  void ensure_workers();
  void stop_workers();

  /// Rebuilds the derived parallel plan (per-shard-pair lookahead matrix,
  /// minimum cross-shard lookahead) when topology inputs changed.
  void ensure_parallel_plan();
  /// Recomputes the node->shard map: the topology partitioner when link
  /// overrides exist, round robin otherwise.
  void recompute_shard_map();
  /// Groups nodes connected by short links (latency < the default) onto
  /// the same shard: union-find over short links, split oversized groups
  /// into contiguous chunks, then greedy least-loaded assignment (the load
  /// rebalancing for skewed topologies). Deterministic.
  std::vector<int> topology_partition() const;

  void shutdown_processes();
  void check_quiescence();
  [[noreturn]] void rethrow_failure();

  ExecBackend backend_;
  int shards_hint_;  // requested shard count (0 = auto)
  SimTime now_ = 0;
  std::int32_t cur_node_ = kGlobalNode;  // affinity of the running event
  int node_count_ = 0;
  SimDuration lookahead_ = 0;
  SimDuration band_gap_ = 0;  // 0 = fall back to lookahead_
  std::vector<std::uint64_t> node_seq_{0};  // per-node ord counters; [0] is
                                            // the global context
  std::uint64_t next_process_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::uint64_t process_switches_ = 0;
  std::uint64_t fast_forwards_ = 0;
  // The band queue: every event until the engine moves to the pool, the
  // global-context ones after. Declared before shards_: it keeps owning
  // the nodes promote() hands them, so it must be destroyed after them.
  EventQueue queue_;
  // Stacks this engine's strands mapped; bumped from the workers that
  // start processes under the parallel backend.
  std::atomic<std::uint64_t> stacks_created_{0};
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Process*> daemons_;
  std::mutex spawn_mutex_;  // guards processes_/daemons_/next_process_id_
  Process* current_ = nullptr;
  std::atomic<bool> any_failure_{false};  // set by process trampolines
  class Tracer* tracer_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;

  // Wallclock tier (non-deterministic; never feeds the snapshot).
  WallSink* wall_ = nullptr;

  // Heterogeneous-latency topology (sparse). Keyed by pair_key(src, dst);
  // symmetric entries are stored in both directions.
  std::unordered_map<std::uint64_t, SimDuration> la_override_;
  SimDuration override_default_ = 0;  // reference latency for "short" links

  // Node -> shard map; empty = round robin (node % num_shards_).
  std::vector<int> shard_of_;

  // Derived parallel plan (rebuilt lazily at run start when dirty).
  std::vector<SimTime> pair_la_;   // shard-pair lookahead matrix [S*S]
  SimDuration min_cross_la_ = 0;   // min off-diagonal entry (0: no pool)
  bool plan_dirty_ = true;
  bool windowed_ = false;          // the current run has a safe horizon width

  // Parallel backend state.
  std::vector<std::unique_ptr<Shard>> shards_;
  int num_shards_ = 0;
  int workers_started_ = 0;  // 0 = inline single-worker mode
  bool par_active_ = false;  // an era is draining on the workers
  SimTime era_end_ = 0;      // exclusive bound of the running era
  std::unique_ptr<ParallelRt> rt_;
  ParallelStats pstats_;
  std::uint64_t serial_ord_ = 0;         // key of the running serial event
  std::uint32_t serial_record_seq_ = 0;  // observer records within that event
  bool on_pool_ = false;  // promoted: node events live on the shards
  bool pool_run_ = false;  // inside run_parallel: record() keeps its steps
  bool in_place_ = false;  // inside run()'s serial loop: wait_in_place may
                           // run a timed wait
  KeptSteps band_kept_;    // the serial band's kept steps
};

}  // namespace dacc::sim
