#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <new>
#include <numeric>
#include <sstream>
#include <thread>
#include <tuple>

#include "sim/trace.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace dacc::sim {

namespace {

/// Host wallclock for the profiler tier only — never feeds simulated state.
inline std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Chained attribution: the interval since the cursor's previous clock read
/// belongs to `phase` on `shard`. Chaining (instead of bracketing each
/// phase) means consecutive intervals tile the worker's wallclock with no
/// gaps, which is what lets the per-shard phases sum to ~100% of measured
/// worker time.
inline void wall_chain(WallSink* w, detail::ExecCursor& cursor, int shard,
                       WallSink::Phase phase) {
  const std::uint64_t t = wall_now_ns();
  if (cursor.wall_tick != 0) w->shard_phase(shard, phase, t - cursor.wall_tick);
  cursor.wall_tick = t;
}

}  // namespace

namespace detail {
namespace {
thread_local ExecCursor* t_cursor = nullptr;
}  // namespace

// Deliberately not inlined: a coroutine that suspends on one worker thread
// and resumes on another must re-derive the thread-local address after the
// stack switch; an out-of-line call is the portable way to defeat cached
// TLS address computations.
__attribute__((noinline)) ExecCursor* exec_cursor() noexcept {
  return t_cursor;
}

__attribute__((noinline)) void set_exec_cursor(ExecCursor* c) noexcept {
  t_cursor = c;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Stack switch (x86-64 System V only).
//
// dacc_sim_switch(save_sp, load_sp) pushes what the ABI makes callee-saved —
// rbp, rbx, r12-r15, the MXCSR and the x87 control word — onto the current
// stack, stores rsp through save_sp, loads rsp from load_sp and pops the same
// frame off that stack, whose return address resumes whoever saved it. Every
// other register is caller-saved, so the compiler has already spilled it
// around the call. The switch makes no system call: the signal mask is left
// alone, since all strands of a thread share it.
//
// The routine carries no unwind info: nothing throws across it, and a DWARF
// unwinder that samples it mid-switch finds no frame info and stops there.
//
// A new strand's first switch "returns" into dacc_sim_strand_start, which
// calls r12(rbx), i.e. Strand::entry(strand). That call never returns, and
// `.cfi_undefined rip` marks the stub as the outermost frame for unwinders.
// ---------------------------------------------------------------------------
#if !defined(__x86_64__)
#error "dacc_sim_switch in src/sim/engine.cpp is x86-64 only; port it first"
#endif

extern "C" {
void dacc_sim_switch(void** save_sp, void* load_sp);
void dacc_sim_strand_start();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl dacc_sim_switch
  .hidden dacc_sim_switch
  .type dacc_sim_switch, @function
dacc_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dacc_sim_switch, .-dacc_sim_switch

  .p2align 4
  .globl dacc_sim_strand_start
  .hidden dacc_sim_strand_start
  .type dacc_sim_strand_start, @function
dacc_sim_strand_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  call *%r12
  ud2
  .cfi_endproc
  .size dacc_sim_strand_start, .-dacc_sim_strand_start
  .popsection
)");

// ---------------------------------------------------------------------------
// Strand: hands execution back and forth between the engine and one process.
// The process body runs as a stackful coroutine on a pooled stack; a switch
// is one dacc_sim_switch call in user space: no system call, no OS scheduler
// involvement. Exactly one side runs at a time. Under the parallel backend
// consecutive slices of one process may be driven by different worker
// threads; the shard's horizon publishes (release) and reads (acquire) order
// those drives, so the strand still sees a strictly alternating
// engine/process hand-off.
//
// Sanitizers cannot follow a stack switch on their own, so every switch is
// annotated: ASan learns which stack is about to run, TSan which fiber (its
// logical thread). TSan's default fiber switch synchronizes, which is exactly
// the alternating hand-off. The annotations compile away in builds without
// -fsanitize=address / -fsanitize=thread.
// ---------------------------------------------------------------------------

class Process::Strand {
 public:
  Strand(StackPool& pool, Process& p) : pool_(pool), process_(&p) {}
  // The coroutine holds this object's address.
  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  ~Strand() { release(); }

  // Engine side: runs the process until it blocks or finishes.
  void run_slice() {
    if (coro_sp_ == nullptr) {
      stack_ = pool_.acquire();
      coro_sp_ = entry_frame();
#if defined(__SANITIZE_THREAD__)
      fiber_ = __tsan_create_fiber(0);
#endif
    }
    // engine_sp_ (and the sanitizers' record of the engine side) is
    // overwritten on every slice, so it always names the worker that drove
    // this slice — the coroutine returns to whoever resumed it.
#if defined(__SANITIZE_THREAD__)
    engine_fiber_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(fiber_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
    void* engine_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&engine_fake_stack, stack_.base,
                                   stack_.size);
#endif
    dacc_sim_switch(&engine_sp_, coro_sp_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(engine_fake_stack, nullptr, nullptr);
#endif
    if (process_->finished()) release();
  }

  // Process side: gives the baton back; returns when resumed.
  void yield_to_engine() {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&fake_stack_, engine_stack_,
                                   engine_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(engine_fiber_, 0);
#endif
    dacc_sim_switch(&coro_sp_, engine_sp_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack_, &engine_stack_,
                                    &engine_stack_size_);
#endif
    if (process_->shutdown_requested_) throw Shutdown{};
  }

 private:
  // The stack image dacc_sim_switch pops, lowest address first.
  struct SwitchFrame {
    std::uint32_t mxcsr;
    std::uint16_t x87_cw;
    std::uint16_t unused;
    std::uintptr_t r15, r14, r13, r12, rbx, rbp;
    std::uintptr_t ret;
  };
  static_assert(sizeof(SwitchFrame) == 64);

  // The frame the first switch onto a fresh stack pops: the start stub as
  // return address, rbx = this, r12 = entry, rbp = 0 (ends frame-pointer
  // walks) and the engine side's control words, which a new process
  // inherits. It sits 16 bytes below the top, so the stub runs with rsp
  // 16-byte aligned, as at a call site, and its CFA inside the stack.
  void* entry_frame() {
    std::byte* top = static_cast<std::byte*>(stack_.base) + stack_.size;
    auto* f = new (top - 16 - sizeof(SwitchFrame)) SwitchFrame{};
    f->r12 = reinterpret_cast<std::uintptr_t>(&Strand::entry);
    f->rbx = reinterpret_cast<std::uintptr_t>(this);
    f->ret = reinterpret_cast<std::uintptr_t>(&dacc_sim_strand_start);
    asm("stmxcsr %0\n\tfnstcw %1" : "=m"(f->mxcsr), "=m"(f->x87_cw));
    return f;
  }

  static void entry(Strand* self) {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &self->engine_stack_,
                                    &self->engine_stack_size_);
#endif
    self->process_->body_main();
    // Leaving for good: one final switch, which nothing resumes. It is
    // announced first (ASan: no fake stack to keep), so no instrumented code
    // runs on this stack after TSan has moved to the engine's fiber.
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(nullptr, self->engine_stack_,
                                   self->engine_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(self->engine_fiber_, 0);
#endif
    dacc_sim_switch(&self->coro_sp_, self->engine_sp_);
    __builtin_unreachable();
  }

  // Returns the stack (and TSan fiber) the moment the body finishes, so
  // long-running engines reuse a small working set of stacks.
  void release() {
    if (stack_.map_base != nullptr) {
      pool_.release(stack_);
      stack_ = StackPool::Stack{};
    }
#if defined(__SANITIZE_THREAD__)
    if (fiber_ != nullptr) {
      __tsan_destroy_fiber(fiber_);
      fiber_ = nullptr;
    }
#endif
  }

  StackPool& pool_;
  Process* process_;
  StackPool::Stack stack_{};
  void* engine_sp_ = nullptr;  // the engine side's rsp while the process runs
  void* coro_sp_ = nullptr;    // the process's rsp while it is switched out;
                               // null until its first slice
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack_ = nullptr;  // the coroutine's, while it is switched out
  const void* engine_stack_ = nullptr;
  std::size_t engine_stack_size_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* fiber_ = nullptr;
  void* engine_fiber_ = nullptr;
#endif
};

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Engine& engine, std::uint64_t id, std::string name,
                 ProcessFn fn)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      fn_(std::move(fn)),
      strand_(std::make_unique<Strand>(engine.stack_pool_, *this)) {}

Process::~Process() = default;

void Process::body_main() {
  if (!shutdown_requested_) {
    started_ = true;
    try {
      Context ctx(engine_, *this);
      fn_(ctx);
    } catch (const Shutdown&) {
      // Normal teardown path for blocked service loops.
    } catch (const std::exception& e) {
      failure_ = e.what();
      engine_.any_failure_.store(true, std::memory_order_release);
    } catch (...) {
      failure_ = "unknown exception";
      engine_.any_failure_.store(true, std::memory_order_release);
    }
  }
  finished_ = true;
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

SimTime Context::now() const { return engine_.now(); }

const std::string& Context::name() const { return self_.name(); }

void Context::wait_for(SimDuration d) { wait_until(engine_.now() + d); }

void Context::wait_until(SimTime t) {
  if (t <= engine_.now()) return;
  const std::uint64_t id = engine_.prepare_block(self_);
  engine_.schedule_resume(self_, id, t);
  engine_.block(self_);
}

void Context::suspend() {
  Process& p = self_;
  if (p.wake_permits_ > 0) {
    --p.wake_permits_;
    return;
  }
  engine_.prepare_block(p);
  p.waiting_for_wake_ = true;
  engine_.block(p);
  // Woken by Engine::wake(): the permit granted there is consumed here.
  --p.wake_permits_;
}

void Context::yield() {
  const std::uint64_t id = engine_.prepare_block(self_);
  engine_.schedule_resume(self_, id, engine_.now());
  engine_.block(self_);
}

Process& Engine::current_process() {
  Process* p = executing();
  if (p == nullptr) {
    throw SimError("operation requires process context");
  }
  return *p;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Worker pool for the parallel backend. Workers sleep between eras; the
/// coordinator publishes an epoch and waits for every worker to check back
/// in. The mutex hand-offs double as the happens-before edges that make
/// shard state written in era N visible to whichever worker drives the
/// shard in era N+1; within an era the per-shard horizon atomics provide
/// the ordering.
struct Engine::ParallelRt {
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t epoch = 0;
  int pending = 0;
  bool quit = false;
  std::exception_ptr failure;
  std::vector<std::thread> threads;
  /// Per worker: wallclock its last era ended (the run's start before its
  /// first era; 0 = no profiler).
  std::vector<std::uint64_t> idle_since;
};

Engine::Engine(ExecBackend backend, int shards)
    : backend_(backend), shards_hint_(shards) {}

Engine::~Engine() {
  stop_workers();
  shutdown_processes();
}

void Engine::set_node_count(int nodes) {
  if (nodes > node_count_) {
    node_count_ = nodes;
    node_seq_.resize(static_cast<std::size_t>(node_count_) + 1, 0);
    plan_dirty_ = true;
  }
  if (backend_ != ExecBackend::kParallel || node_count_ == 0) return;
  // Auto sharding caps at a host-sized shard count: more shards than a
  // small multiple of the worker pool adds horizon-scan and queue overhead
  // without exposing any extra parallelism, and placement never affects
  // simulated results.
  const int want = shards_hint_ > 0
                       ? shards_hint_
                       : std::min(node_count_, default_auto_shard_cap());
  if (want != num_shards_) {
    for (const auto& sh : shards_) {
      if (!sh->q.empty()) {
        throw SimError(
            "set_node_count: cannot re-shard with node events pending");
      }
    }
    stop_workers();
    shards_.clear();
    shards_.reserve(static_cast<std::size_t>(want));
    for (int i = 0; i < want; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    num_shards_ = want;
    plan_dirty_ = true;
  }
  recompute_shard_map();
}

void Engine::set_lookahead_overrides(
    SimDuration default_latency, const std::vector<LatencyOverride>& links) {
  la_override_.clear();
  for (const LatencyOverride& l : links) {
    if (l.a < 0 || l.b < 0 || l.a == l.b) {
      throw SimError("set_lookahead_overrides: invalid link override");
    }
    for (const std::uint64_t key : {pair_key(l.a, l.b), pair_key(l.b, l.a)}) {
      auto [it, fresh] = la_override_.try_emplace(key, l.latency);
      if (!fresh && l.latency < it->second) it->second = l.latency;
    }
  }
  override_default_ = default_latency;
  plan_dirty_ = true;
  if (backend_ == ExecBackend::kParallel && num_shards_ > 0) {
    recompute_shard_map();
  }
}

void Engine::recompute_shard_map() {
  if (num_shards_ <= 0 || node_count_ <= 0) return;
  // An empty map is round robin.
  std::vector<int> map;
  if (!la_override_.empty()) map = topology_partition();
  if (map == shard_of_) return;
  for (const auto& sh : shards_) {
    if (!sh->q.empty()) {
      throw SimError(
          "cannot change the node->shard map with node events pending");
    }
  }
  shard_of_ = std::move(map);
  plan_dirty_ = true;
}

std::vector<int> Engine::topology_partition() const {
  const int n = node_count_;
  const int s = num_shards_;
  // Union-find over short links (latency below the topology default): nodes
  // coupled by a short link want to share a shard so the link never bounds
  // a cross-shard horizon.
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (const auto& [key, lat] : la_override_) {
    if (lat >= override_default_) continue;
    const int a = static_cast<int>(key >> 32);
    const int b = static_cast<int>(key & 0xffffffffu);
    if (a >= n || b >= n) continue;
    const int ra = find(a);
    const int rb = find(b);
    if (ra != rb) parent[static_cast<std::size_t>(std::max(ra, rb))] =
        std::min(ra, rb);
  }
  // Groups in first-member order (deterministic regardless of hash order).
  std::vector<std::vector<int>> groups;
  std::unordered_map<int, std::size_t> group_of_root;
  for (int i = 0; i < n; ++i) {
    const int r = find(i);
    const auto [it, fresh] = group_of_root.try_emplace(r, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  // A group larger than one shard's fair share is sliced into contiguous
  // chunks (a ring of short links would otherwise collapse onto one shard):
  // within a chunk every short link stays intra-shard; only the slice
  // boundaries become cross-shard short links.
  const std::size_t cap =
      (static_cast<std::size_t>(n) + static_cast<std::size_t>(s) - 1) /
      static_cast<std::size_t>(s);
  std::vector<std::vector<int>> chunks;
  for (const auto& g : groups) {
    for (std::size_t off = 0; off < g.size(); off += cap) {
      const std::size_t end = std::min(off + cap, g.size());
      chunks.emplace_back(g.begin() + static_cast<std::ptrdiff_t>(off),
                          g.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  // Load rebalancing: biggest chunk first onto the least-loaded shard
  // (ties: lowest shard id). Deterministic.
  std::vector<std::size_t> order(chunks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&chunks](std::size_t a, std::size_t b) {
                     if (chunks[a].size() != chunks[b].size()) {
                       return chunks[a].size() > chunks[b].size();
                     }
                     return chunks[a].front() < chunks[b].front();
                   });
  std::vector<std::size_t> load(static_cast<std::size_t>(s), 0);
  std::vector<int> map(static_cast<std::size_t>(n), 0);
  for (const std::size_t idx : order) {
    int best = 0;
    for (int k = 1; k < s; ++k) {
      if (load[static_cast<std::size_t>(k)] <
          load[static_cast<std::size_t>(best)]) {
        best = k;
      }
    }
    for (const int node : chunks[idx]) {
      map[static_cast<std::size_t>(node)] = best;
    }
    load[static_cast<std::size_t>(best)] += chunks[idx].size();
  }
  return map;
}

void Engine::ensure_parallel_plan() {
  if (!plan_dirty_) return;
  plan_dirty_ = false;
  const int s = num_shards_;
  pair_la_.assign(static_cast<std::size_t>(s) * static_cast<std::size_t>(s),
                  lookahead_);
  min_cross_la_ = lookahead_;
  if (s <= 1 || la_override_.empty()) return;
  // A shard pair's lookahead is the minimum latency floor over node pairs
  // crossing it. Non-overridden node pairs exist across essentially every
  // shard pair, so each cell starts at the default lookahead and only
  // shorter overrides pull it down — longer overrides can never raise it,
  // which is conservative (correct, merely less parallel).
  for (const auto& [key, lat] : la_override_) {
    const int a = static_cast<int>(key >> 32);
    const int b = static_cast<int>(key & 0xffffffffu);
    if (a >= node_count_ || b >= node_count_) continue;
    const int sa = shard_target(a);
    const int sb = shard_target(b);
    if (sa == sb) continue;
    SimTime& cell =
        pair_la_[static_cast<std::size_t>(sa) * static_cast<std::size_t>(s) +
                 static_cast<std::size_t>(sb)];
    if (lat < cell) cell = lat;
    if (lat < min_cross_la_) min_cross_la_ = lat;
  }
}

void Engine::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) tracer->attach(this);
}

Process& Engine::spawn(std::string name, ProcessFn fn) {
  return spawn_on(context_node(), std::move(name), std::move(fn));
}

Process& Engine::spawn_on(std::int32_t node, std::string name, ProcessFn fn) {
  if (node != kGlobalNode && (node < 0 || node >= node_count_)) {
    throw SimError("spawn_on: node out of range (declare the topology with "
                   "set_node_count first)");
  }
  Process* ref = nullptr;
  {
    std::lock_guard<std::mutex> lock(spawn_mutex_);
    auto proc = std::make_unique<Process>(*this, next_process_id_++,
                                          std::move(name), std::move(fn));
    ref = proc.get();
    ref->home_node_ = node;
    processes_.push_back(std::move(proc));
  }
  // First slice runs as a regular event at the current time on the home
  // node (one latency floor later when spawning across nodes).
  post(node, now(), [this, ref] { resume_slice(*ref); });
  return *ref;
}

void Engine::resume_slice(Process& p) {
  detail::ExecCursor* c = nullptr;
  if (par_active_) [[unlikely]] {
    c = detail::exec_cursor();
    if (c != nullptr && c->engine != this) c = nullptr;
  }
  if (c != nullptr) {
    Process* prev = c->current;
    c->current = &p;
    ++c->switches;
    p.strand_->run_slice();
    c->current = prev;
  } else {
    Process* prev = current_;
    current_ = &p;
    ++process_switches_;
    p.strand_->run_slice();
    current_ = prev;
  }
}

std::uint64_t Engine::prepare_block(Process& p) {
  if (executing() != &p) {
    throw SimError("blocking primitive called outside process context");
  }
  p.current_wait_ = ++p.wait_seq_;
  return p.current_wait_;
}

void Engine::block(Process& p) {
  // Returns when a matching resume hands the baton back.
  p.strand_->yield_to_engine();
  p.current_wait_ = 0;
}

void Engine::schedule_resume(Process& p, std::uint64_t wait_id, SimTime t) {
  post(p.home_node_, t, [this, &p, wait_id] {
    // Stale resumes (process already moved on, or finished) are dropped.
    if (p.finished_ || p.current_wait_ != wait_id) return;
    resume_slice(p);
  });
}

void Engine::local_wake(Process& p) {
  ++p.wake_permits_;
  if (p.waiting_for_wake_) {
    p.waiting_for_wake_ = false;
    schedule_resume(p, p.current_wait_, now());
  }
}

void Engine::wake(Process& p) {
  const std::int32_t src = context_node();
  if (src == kGlobalNode || p.home_node_ == src) {
    // Same baton as the target: deliver immediately.
    local_wake(p);
    return;
  }
  if (p.home_node_ == kGlobalNode) {
    // A node context waking a node-less process. The serial loop holds one
    // baton, so immediate delivery is safe and keeps historical timings;
    // an era cannot reach the global band without breaking the canonical
    // order. A run with a safe horizon width refuses it on either side of
    // the pool crossover, so whether a model is legal never depends on the
    // number of events it queues.
    if (backend_ != ExecBackend::kParallel || num_shards_ == 0 ||
        !windowed_) {
      local_wake(p);
      return;
    }
    throw SimError("cross-node wake of a node-less process '" + p.name_ +
                   "' is not supported under the parallel backend; home the "
                   "process on a node with spawn_on()");
  }
  // Cross-node wake: no interaction crosses nodes faster than the pair's
  // latency floor.
  post(p.home_node_, now() + cross_floor(src, p.home_node_),
       [this, &p] { local_wake(p); });
}

void Engine::set_daemon(Process& p) {
  std::lock_guard<std::mutex> lock(spawn_mutex_);
  daemons_.push_back(&p);
}

// Always inlined, so run() gets its own copy of the loop in which the limit
// test folds away.
__attribute__((always_inline)) inline bool Engine::run_events(
    SimTime limit) {
  WallSink* const w = wall_;
  const std::uint64_t wt0 = w != nullptr ? wall_now_ns() : 0;
  // The promotion probe: armed for a parallel engine still on the serial
  // loop, when this run has a safe horizon width.
  bool probe = false;
  if (backend_ == ExecBackend::kParallel && num_shards_ > 0) {
    ensure_parallel_plan();
    windowed_ = lookahead_ > 0 && min_cross_la_ > 0;
    if (on_pool_) {
      if (!windowed_) {
        throw SimError("the parallel engine runs on its worker pool, which "
                       "needs a safe horizon width (a positive lookahead "
                       "and no zero-latency link crossing shards)");
      }
      return run_parallel(limit, wt0, wt0);
    }
    probe = windowed_;
    if (!windowed_) {
      ++pstats_.merged_fallbacks;
      if (flight_note_) {
        flight_note_("engine", "merged fallback: no safe horizon width");
      }
    }
  }
  const std::uint64_t we0 = events_executed_;
  while (!queue_.empty() && queue_.top_time() <= limit) {
    EventQueue::Node* ev = queue_.pop();
    if (probe && ev->node != kGlobalNode) [[unlikely]] {
      probe = false;
      if (promote(ev)) break;
    }
    now_ = ev->time;
    cur_node_ = ev->node;
    ++events_executed_;
    queue_.run_and_recycle(ev);
    if (any_failure_.load(std::memory_order_acquire)) [[unlikely]] {
      cur_node_ = kGlobalNode;
      rethrow_failure();
    }
  }
  cur_node_ = kGlobalNode;
  std::uint64_t wt1 = 0;
  if (w != nullptr) {
    wt1 = wall_now_ns();
    w->serial(wt1 - wt0, events_executed_ - we0);
    if (!on_pool_) w->run_complete(wt1 - wt0, 1);
  }
  if (on_pool_) return run_parallel(limit, wt0, wt1);
  if (queue_.empty() && limit != kSimTimeNever && now_ < limit) now_ = limit;
  return !queue_.empty();
}

void Engine::run() {
  run_events(kSimTimeNever);
  check_quiescence();
}

bool Engine::run_until(SimTime t) { return run_events(t); }

bool Engine::promote(EventQueue::Node* next) {
  if (queue_.node_homed() + 1 < kPoolCrossover) return false;
  const auto shard_queue = [this](std::int32_t node) -> EventQueue& {
    return shards_[static_cast<std::size_t>(shard_target(node))]->q;
  };
  shard_queue(next->node).requeue(next);
  queue_.move_node_homed(shard_queue);
  on_pool_ = true;
  return true;
}

// ---------------------------------------------------------------------------
// Parallel driver
// ---------------------------------------------------------------------------

int Engine::pool_size() const {
  return std::min(default_parallel_workers(), num_shards_);
}

void Engine::ensure_workers() {
  if (rt_ != nullptr) return;
  const int w = pool_size();
  if (w <= 1) return;  // inline single-worker mode
  rt_ = std::make_unique<ParallelRt>();
  workers_started_ = w;
  rt_->idle_since.assign(static_cast<std::size_t>(w), 0);
  rt_->threads.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    rt_->threads.emplace_back([this, i] { worker_main(i); });
  }
}

void Engine::stop_workers() {
  if (rt_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(rt_->m);
    rt_->quit = true;
  }
  rt_->cv_work.notify_all();
  for (auto& t : rt_->threads) t.join();
  rt_.reset();
  workers_started_ = 0;
}

void Engine::drain_shard(int shard, SimTime bound,
                         detail::ExecCursor& cursor) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  cursor.engine = this;
  cursor.shard = shard;
  EventQueue& q = sh.q;
  while (!q.empty() && q.top_time() < bound) {
    EventQueue::Node* ev = q.pop();
    cursor.now = ev->time;
    cursor.node = ev->node;
    cursor.ord = ev->ord;
    cursor.record_seq = 0;
    sh.last_time = ev->time;
    ++sh.events;
    q.run_and_recycle(ev);
  }
  cursor.engine = nullptr;
}

/// One conservative-PDES advancement step for `shard`: compute the safe
/// drain bound from every neighbor's published horizon plus the shard-pair
/// lookahead, absorb the staged inbox, drain events strictly below the
/// bound, and publish the bound as this shard's new horizon — also when
/// nothing was drained (the null-message push that keeps an idle shard from
/// stalling its neighbors). Returns false when the bound cannot move yet.
///
/// Safety: a neighbor j whose horizon reads h has executed every event
/// before h and will only execute events at u >= h from now on; anything it
/// stages towards this shard is clamped to u + L(j, s) >= h + L(j, s) >=
/// bound. Events staged before j published h are visible to our
/// absorb_staged() (release store on j's horizon, acquire load here). So
/// draining strictly below `bound` can never miss an earlier event — the
/// canonical (time, ord) execution order is exactly the sequential one.
/// The same bound keeps the shard queue monotone: every event absorbed here
/// is at or above the last bound this shard drained below, so none is
/// earlier than the queue's base (sim/event_queue.hpp).
bool Engine::advance_shard(int shard, detail::ExecCursor& cursor) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  WallSink* const w = wall_;
  if (sh.done) {
    if (w != nullptr) [[unlikely]] {
      wall_chain(w, cursor, shard, WallSink::kSync);
    }
    return false;
  }
  SimTime bound = era_end_;
  const SimTime* row =
      &pair_la_[static_cast<std::size_t>(shard) *
                static_cast<std::size_t>(num_shards_)];
  for (int j = 0; j < num_shards_; ++j) {
    if (j == shard) continue;
    const SimTime h =
        shards_[static_cast<std::size_t>(j)]->horizon.load(
            std::memory_order_acquire);
    if (h >= bound) continue;
    const SimDuration l = row[j];
    const SimTime b = h > kSimTimeNever - l ? kSimTimeNever : h + l;
    if (b < bound) bound = b;
  }
  if (bound <= sh.last_bound) {
    if (w != nullptr) [[unlikely]] {
      wall_chain(w, cursor, shard, WallSink::kStall);
    }
    return false;
  }
  sh.last_bound = bound;
  if (w != nullptr) [[unlikely]] {
    // The horizon scan that found the bound counts as stall time: it is
    // the cost of the conservative synchronization protocol, not of work.
    wall_chain(w, cursor, shard, WallSink::kStall);
    sh.inbox_events += sh.q.absorb_staged();
    wall_chain(w, cursor, shard, WallSink::kInbox);
  } else {
    sh.inbox_events += sh.q.absorb_staged();
  }
  cursor.switches = 0;
  drain_shard(shard, bound, cursor);
  if (w != nullptr) [[unlikely]] {
    wall_chain(w, cursor, shard, WallSink::kBusy);
  }
  sh.switches += cursor.switches;
  sh.horizon.store(bound, std::memory_order_release);
  if (bound >= era_end_) sh.done = true;
  return true;
}

void Engine::worker_main(int index) {
  detail::ExecCursor cursor;
  detail::set_exec_cursor(&cursor);
  std::uint64_t seen = 0;
  // Written by this worker after each era and by the coordinator while the
  // worker is parked; the epoch handshake orders both.
  std::uint64_t& idle_since = rt_->idle_since[static_cast<std::size_t>(index)];
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(rt_->m);
      rt_->cv_work.wait(lock,
                        [&] { return rt_->quit || rt_->epoch != seen; });
      if (rt_->quit) break;
      seen = rt_->epoch;
    }
    WallSink* const w = wall_;
    if (w != nullptr) {
      const std::uint64_t t = wall_now_ns();
      // Idle since the previous era (or the run's start) = barrier +
      // coordinator serial work, charged to the worker's wait bucket.
      if (idle_since != 0) w->worker_wait(index, t - idle_since);
      cursor.wall_tick = t;
    } else {
      cursor.wall_tick = 0;
    }
    try {
      // Drive owned shards until each has reached the era end. Progress is
      // guaranteed: the globally least-advanced live shard always finds a
      // bound strictly above its horizon (every cross-shard lookahead is
      // positive in era mode), so horizons rise monotonically to era_end_.
      for (;;) {
        bool progress = false;
        bool all_done = true;
        for (int s = index; s < num_shards_; s += workers_started_) {
          progress = advance_shard(s, cursor) || progress;
          all_done = all_done && shards_[static_cast<std::size_t>(s)]->done;
        }
        if (all_done) break;
        if (!progress) std::this_thread::yield();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(rt_->m);
        if (!rt_->failure) rt_->failure = std::current_exception();
      }
      // Release the neighbors: publish final horizons so the other workers
      // converge to the barrier instead of spinning on our stale clocks.
      for (int s = index; s < num_shards_; s += workers_started_) {
        Shard& sh = *shards_[static_cast<std::size_t>(s)];
        sh.done = true;
        sh.horizon.store(era_end_, std::memory_order_release);
      }
    }
    idle_since = w != nullptr ? cursor.wall_tick : 0;
    {
      std::lock_guard<std::mutex> lock(rt_->m);
      if (--rt_->pending == 0) rt_->cv_done.notify_all();
    }
  }
  detail::set_exec_cursor(nullptr);
}

void Engine::run_era(SimTime floor, SimTime era_end) {
  era_end_ = era_end;
  for (const auto& sh : shards_) {
    sh->horizon.store(floor, std::memory_order_relaxed);
    sh->last_bound = floor;
    sh->done = false;
  }
  par_active_ = true;
  if (workers_started_ == 0) {
    // Single-worker mode: drive every shard on this thread with the same
    // horizon protocol, so shard placement and the asynchronous bounds are
    // exercised (and the output provably shard-count-invariant) even on
    // one core.
    struct Scoped {
      Engine* e;
      detail::ExecCursor* prev;
      ~Scoped() {
        detail::set_exec_cursor(prev);
        e->par_active_ = false;
      }
    } scoped{this, detail::exec_cursor()};
    detail::ExecCursor cursor;
    detail::set_exec_cursor(&cursor);
    if (wall_ != nullptr) cursor.wall_tick = wall_now_ns();
    for (;;) {
      bool all_done = true;
      for (int s = 0; s < num_shards_; ++s) {
        advance_shard(s, cursor);
        all_done = all_done && shards_[static_cast<std::size_t>(s)]->done;
      }
      if (all_done) break;
    }
  } else {
    {
      std::lock_guard<std::mutex> lock(rt_->m);
      rt_->pending = workers_started_;
      ++rt_->epoch;
    }
    rt_->cv_work.notify_all();
    {
      std::unique_lock<std::mutex> lock(rt_->m);
      rt_->cv_done.wait(lock, [this] { return rt_->pending == 0; });
    }
    par_active_ = false;
    if (rt_->failure) {
      std::exception_ptr f = rt_->failure;
      rt_->failure = nullptr;
      std::rethrow_exception(f);
    }
  }
  // Era barrier: absorb every inbox (events staged near the era end land
  // in the next era; the coordinator's floor scan must see them) and fold
  // the per-shard counters into the engine totals and the era accounting.
  // An era always runs the event at its floor, so it counts as a window.
  // The inputs are schedule-independent, so ParallelStats is the same for
  // every worker count.
  queue_.absorb_staged();
  if (pstats_.shards.size() < shards_.size()) {
    pstats_.shards.resize(shards_.size());
  }
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    sh.inbox_events += sh.q.absorb_staged();
    events_executed_ += sh.events;
    process_switches_ += sh.switches;
    if (sh.last_time > now_) now_ = sh.last_time;
    total += sh.events;
    busiest = std::max(busiest, sh.events);
    ShardStats& st = pstats_.shards[s];
    ++(sh.events > 0 ? st.windows : st.idle_windows);
    st.events += sh.events;
    st.inbox_events += sh.inbox_events;
    sh.events = 0;
    sh.switches = 0;
    sh.inbox_events = 0;
  }
  ++pstats_.windows;
  pstats_.parallel_events += total;
  pstats_.critical_path_events += busiest;
}

bool Engine::run_parallel(SimTime limit, std::uint64_t run_t0,
                          std::uint64_t booked) {
  ensure_workers();
  WallSink* const w = wall_;
  std::uint64_t ctick = booked;  // coordinator's chained serial-phase timestamp
  if (w != nullptr) {
    w->begin_run(num_shards_, pool_size());
    if (rt_ != nullptr) {
      for (std::uint64_t& since : rt_->idle_since) since = run_t0;
    }
  }
  const SimDuration gap = effective_band_gap();
  bool more = false;
  pool_run_ = true;
  try {
    for (;;) {
      if (any_failure_.load(std::memory_order_acquire)) [[unlikely]] {
        rethrow_failure();
      }
      const SimTime global_top =
          queue_.empty() ? kSimTimeNever : queue_.top_time();
      SimTime shard_top = kSimTimeNever;
      for (const auto& sh : shards_) {
        if (!sh->q.empty() && sh->q.top_time() < shard_top) {
          shard_top = sh->q.top_time();
        }
      }
      const SimTime t = std::min(global_top, shard_top);
      if (t == kSimTimeNever || t > limit) {
        more = (t != kSimTimeNever);
        break;
      }
      if (global_top <= shard_top) {
        // Global band: runs serially between eras. The canonical order
        // puts global-context events ahead of node events at equal times
        // ((node + 1) packs to 0 in the key), so shared control state
        // written here is safe for every shard to read in the next era.
        EventQueue::Node* ev = queue_.pop();
        now_ = ev->time;
        cur_node_ = ev->node;
        serial_ord_ = ev->ord;
        serial_record_seq_ = 0;
        ++events_executed_;
        queue_.run_and_recycle(ev);
        cur_node_ = kGlobalNode;
        if (w != nullptr) {
          const std::uint64_t wt = wall_now_ns();
          w->serial(wt - ctick, 1);
          ctick = wt;
        }
        continue;
      }
      // Conservative era: no event dated before shard_top exists anywhere,
      // and nothing a shard does before shard_top + band_gap can reach the
      // global band inside the era — so the shards may advance
      // asynchronously (bounded pairwise by the lookahead matrix) up to
      // (exclusive) the era end.
      SimTime era_end =
          shard_top > kSimTimeNever - gap ? kSimTimeNever : shard_top + gap;
      era_end = std::min(era_end, global_top);
      if (limit != kSimTimeNever && era_end > limit) {
        era_end = limit + 1;  // run_until is inclusive of `limit`
      }
      if (w != nullptr) {
        const std::uint64_t wt = wall_now_ns();
        w->serial(wt - ctick, 0);  // queue scans between eras
        ctick = wt;
      }
      run_era(shard_top, era_end);
      if (w != nullptr) {
        const std::uint64_t wt = wall_now_ns();
        if (workers_started_ > 0) w->coordinator_wait(wt - ctick);
        ctick = wt;
      }
    }
  } catch (...) {
    cur_node_ = kGlobalNode;
    replay_kept();
    throw;
  }
  cur_node_ = kGlobalNode;
  replay_kept();
  if (w != nullptr) {
    const std::uint64_t t = wall_now_ns();
    w->serial(t - ctick, 0);
    int threads = 1;
    if (workers_started_ > 0) {
      // The parked workers idled from their last era to here.
      for (int i = 0; i < workers_started_; ++i) {
        std::uint64_t& since = rt_->idle_since[static_cast<std::size_t>(i)];
        if (since != 0) w->worker_wait(i, t - since);
        since = 0;
      }
      threads = workers_started_ + 1;
    }
    w->run_complete(t - run_t0, threads);
  }
  if (!more && limit != kSimTimeNever && now_ < limit) now_ = limit;
  return more;
}

void Engine::replay_kept() {
  pool_run_ = false;
  // Each buffer is already in key order (a shard runs its events in
  // canonical order); the sort interleaves them.
  std::vector<std::tuple<SimTime, std::uint64_t, std::uint32_t, Kept*>> order;
  const auto gather = [&order](KeptSteps& steps) {
    for (std::size_t i = 0; i < steps.size; ++i) {
      Kept& k = steps[i];
      order.emplace_back(k.time, k.ord, k.seq, &k);
    }
    steps.size = 0;
  };
  for (const auto& sh : shards_) gather(sh->kept);
  gather(band_kept_);
  std::sort(order.begin(), order.end());
  for (const auto& key : order) {
    Kept& k = *std::get<3>(key);
    k.apply(k);
  }
}

// ---------------------------------------------------------------------------
// Teardown and failure paths
// ---------------------------------------------------------------------------

void Engine::rethrow_failure() {
  any_failure_.store(false, std::memory_order_relaxed);
  for (const auto& proc : processes_) {
    if (proc->failure_.empty()) continue;
    std::ostringstream os;
    os << "process '" << proc->name_ << "' failed: " << proc->failure_;
    proc->failure_.clear();
    throw SimError(os.str());
  }
  throw SimError("process failure flag set without a stored failure");
}

void Engine::check_quiescence() {
  for (const auto& proc : processes_) {
    if (proc->finished_) continue;
    bool is_daemon = false;
    for (Process* d : daemons_) {
      if (d == proc.get()) {
        is_daemon = true;
        break;
      }
    }
    if (!is_daemon) {
      throw SimError("deadlock: process '" + proc->name_ +
                     "' is blocked with no pending events");
    }
  }
}

void Engine::shutdown_processes() {
  for (const auto& proc : processes_) {
    if (proc->finished_) continue;
    proc->shutdown_requested_ = true;
    // Hand the baton once; the process throws Shutdown and unwinds.
    proc->strand_->run_slice();
  }
}

}  // namespace dacc::sim
