// The dacc public API — the paper's primary contribution.
//
// This is the computation API of Listing 2 (acMemAlloc / acMemCpy /
// acKernelCreate / acKernelSetArgs / acKernelRun / acMemFree) plus the
// resource-management API of Section III.C (acquire/release through the
// ARM), in idiomatic C++:
//
//   core::Session session(...);                 // one per CN process
//   auto accs = session.acquire(2);             // dynamic assignment
//   Accelerator& ac = *accs[0];
//   gpu::DevPtr d = ac.mem_alloc(bytes);        // acMemAlloc
//   ac.memcpy_h2d(d, host_data);                // acMemCpy (H2D)
//   core::Kernel k = ac.kernel_create("daxpy"); // acKernelCreate
//   k.set_args({n, 2.0, dx, dy});               // acKernelSetArgs
//   k.run({});                                  // acKernelRun
//   auto out = ac.memcpy_d2h(d, bytes);         // acMemCpy (D2H)
//   ac.mem_free(d);                             // acMemFree
//
// Each acquired accelerator is served by a front-end proxy process that
// executes its wire-protocol exchanges in order (CUDA-stream semantics per
// device); the *_async variants return Futures so one compute node can keep
// several network-attached accelerators busy simultaneously — the mechanism
// behind the multi-GPU speedups of Figures 9/10.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arm/arm.hpp"
#include "dmpi/mpi.hpp"
#include "gpu/device.hpp"
#include "obs/metrics.hpp"
#include "proto/wire.hpp"
#include "rpc/batch.hpp"
#include "rpc/channel.hpp"
#include "sim/sync.hpp"

namespace dacc::core {

class Session;
class Accelerator;

/// Raised by the synchronous API on any middleware or device failure.
class AcError : public std::runtime_error {
 public:
  AcError(gpu::Result code, const std::string& what)
      : std::runtime_error(what + ": " + gpu::to_string(code)), code_(code) {}
  gpu::Result code() const { return code_; }

 private:
  gpu::Result code_;
};

/// Completion handle for asynchronous operations.
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const;
  gpu::Result status() const;      ///< once done
  gpu::DevPtr ptr() const;         ///< alloc results
  util::Buffer take_data();        ///< D2H results

  /// Blocks the calling simulated process until the operation completes.
  void wait(sim::Context& ctx);
  /// wait() + throw AcError unless the status is success.
  void get(sim::Context& ctx);

 private:
  friend class Accelerator;
  friend class Session;
  struct State;
  explicit Future(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

struct DeviceInfo {
  std::string name;
  std::uint64_t memory_bytes = 0;
  std::uint64_t memory_free = 0;
};

/// Paper-style three-step kernel interface (acKernelCreate / SetArgs / Run).
class Kernel {
 public:
  const std::string& name() const { return name_; }
  void set_args(gpu::KernelArgs args) { args_ = std::move(args); }
  void run(const gpu::LaunchConfig& config = {});
  Future run_async(const gpu::LaunchConfig& config = {});

 private:
  friend class Accelerator;
  Kernel(Accelerator& acc, std::string name) : acc_(&acc), name_(std::move(name)) {}
  Accelerator* acc_;
  std::string name_;
  gpu::KernelArgs args_;
};

/// One exclusively-assigned network-attached accelerator.
class Accelerator {
 public:
  Accelerator(const Accelerator&) = delete;
  Accelerator& operator=(const Accelerator&) = delete;
  ~Accelerator();

  const arm::Lease& lease() const { return lease_; }
  dmpi::Rank daemon_rank() const { return lease_.daemon_rank; }
  Session& session() { return *session_; }

  // --- synchronous computation API (throws AcError) ------------------------
  gpu::DevPtr mem_alloc(std::uint64_t bytes);
  void mem_free(gpu::DevPtr ptr);
  void memcpy_h2d(gpu::DevPtr dst, util::Buffer src);
  util::Buffer memcpy_d2h(gpu::DevPtr src, std::uint64_t bytes);
  void launch(const std::string& kernel, const gpu::LaunchConfig& config,
              gpu::KernelArgs args);
  Kernel kernel_create(const std::string& name);
  DeviceInfo info();

  /// Direct accelerator-to-accelerator copy over the network; the compute
  /// node is not involved in the data path (paper Section III.C).
  void copy_to_peer(gpu::DevPtr src, Accelerator& peer, gpu::DevPtr peer_dst,
                    std::uint64_t bytes);

  // --- asynchronous variants (per-accelerator in-order execution) ----------
  Future mem_alloc_async(std::uint64_t bytes);
  Future memcpy_h2d_async(gpu::DevPtr dst, util::Buffer src);
  Future memcpy_d2h_async(gpu::DevPtr src, std::uint64_t bytes);
  Future launch_async(const std::string& kernel,
                      const gpu::LaunchConfig& config, gpu::KernelArgs args);
  Future copy_to_peer_async(gpu::DevPtr src, Accelerator& peer,
                            gpu::DevPtr peer_dst, std::uint64_t bytes);

  /// Per-call override of the session transfer config (benchmarks sweep
  /// block sizes per copy).
  void set_transfer_config(const proto::TransferConfig& config) {
    transfer_ = config;
  }
  const proto::TransferConfig& transfer_config() const { return transfer_; }

 private:
  friend class Session;
  struct ProxyOp;
  /// One flush of the proxy: a lone op, or a coalesced run of batchable
  /// ops (DESIGN.md §10). Its size decides only which frame goes out.
  using Flush = std::span<const std::unique_ptr<ProxyOp>>;
  /// Replay-table entry: one live allocation, keyed by its app-visible
  /// (virtual) pointer; device_ptr is the current physical pointer on the
  /// leased accelerator and is rewritten wholesale by replay().
  struct AllocSpan {
    std::uint64_t bytes = 0;
    gpu::DevPtr device_ptr = 0;
  };

  Accelerator(Session& session, arm::Lease lease);
  Future enqueue(ProxyOp op);
  void proxy_main(sim::Context& ctx);
  static std::string op_label(const ProxyOp& op);
  /// Queues the stop op behind all in-flight work; waits for it when a
  /// context is given (release paths) and not from the destructor.
  void stop_proxy(sim::Context* ctx = nullptr);

  /// The serve step of every flush: marshalling cost per op, the trace id,
  /// the failure ladder, then the op's span (or the batch[N] span with one
  /// child per op) and the latency metrics.
  void serve(rpc::Channel& ch, sim::Context& ctx, Flush flush);

  // --- failure handling (rpc::RetryPolicy) ---------------------------------
  /// The one failure ladder: revocation check, exchange_with_retry(),
  /// commit of the successes, and after a replacement each failed op again
  /// as a flush of one. Completes every op's Future.
  void run_ladder(rpc::Channel& ch, sim::Context& ctx, Flush flush,
                  std::uint64_t trace_id);
  /// attempt() under the policy's timeout/backoff retry loop; counts the
  /// flush on the channel when the server answers.
  bool exchange_with_retry(rpc::Channel& ch, sim::Context& ctx, Flush flush);
  /// One wire exchange against the current lease: a single-op frame for a
  /// flush of one, a kBatch frame otherwise. Returns false on deadline
  /// expiry (outstanding requests cancelled); otherwise fills each op's
  /// reply.
  bool attempt(rpc::Channel& ch, Flush flush, SimTime deadline);
  /// A batchable op's wire body, with device pointers translated for the
  /// current lease (the virtual->physical table may change across
  /// replacements). A kernel op's body is its own `call` unless the table
  /// maps pointers; otherwise the body is built in `scratch`.
  const rpc::BatchItem& wire_item(const ProxyOp& op,
                                  rpc::BatchItem& scratch) const;
  /// Drains a pending revocation notice for the current lease, if any;
  /// fills `reason` (arm::kRevokeFailure / kRevokePreempted) when found.
  bool consume_revocation(rpc::Channel& ch, std::uint32_t* reason);
  /// release + re-acquire + replay + report_replaced; repoints `ch` at the
  /// replacement daemon. With `broken` the old accelerator is first
  /// reported broken; a preempted lease's slot is healthy (and may already
  /// serve the preemptor), so preemption replacements must not report it.
  bool try_replace(rpc::Channel& ch, sim::Context& ctx, bool broken);
  /// Re-executes the operation log against the (fresh) current lease,
  /// rebuilding the virtual->physical allocation table.
  bool replay(rpc::Channel& ch, sim::Context& ctx, std::uint32_t* ops,
              std::uint64_t* bytes);
  /// Successful-op bookkeeping: appends to the replay log, maintains the
  /// allocation table, and rewrites alloc results to virtual pointers.
  void commit(ProxyOp& op);
  /// Virtual -> physical pointer translation (identity off-policy or for
  /// pointers outside the table).
  gpu::DevPtr to_device(gpu::DevPtr app) const;

  Session* session_;
  arm::Lease lease_;
  proto::TransferConfig transfer_;
  std::unique_ptr<sim::Mailbox<std::unique_ptr<ProxyOp>>> ops_;
  sim::Process* proxy_ = nullptr;
  bool stopped_ = false;

  std::map<gpu::DevPtr, AllocSpan> allocs_;  // keyed by app (virtual) pointer
  std::vector<std::unique_ptr<ProxyOp>> replay_log_;
  gpu::DevPtr next_virtual_ = 0x5f00'0000'0000ull;
  int replacements_ = 0;
  std::uint64_t trace_seq_ = 0;  ///< per-API-call trace-id sequence

  // Metrics, registered at construction (no-op handles without a registry).
  std::array<obs::Histogram, 8> op_latency_;  ///< indexed by proto::Op - 1
};

/// Per-compute-node-process middleware session.
class Session {
 public:
  struct Config {
    /// The ARM's endpoints: the single ARM's rank, or every replica of a
    /// replicated ARM (DESIGN.md §11) in replica order, across which the
    /// client walks the failover ladder so a leader kill is invisible to
    /// the job.
    std::vector<dmpi::Rank> arm_ranks;
    std::uint64_t job_id = 1;
    /// Scheduling priority for every ARM request this session makes
    /// (acquire and post-preemption re-acquire alike). Batch sessions run
    /// at kPriorityBatch and may be preempted by higher classes.
    std::uint32_t priority = arm::kPriorityNormal;
    proto::TransferConfig transfer = proto::TransferConfig::pipeline_adaptive();
    proto::ProtoParams proto;
    rpc::RetryPolicy retry;
    /// Command-stream batching (DESIGN.md §10). Off by default.
    rpc::StreamConfig batch;
  };

  /// `ctx` is the owning compute-node process; `self` its world rank; `comm`
  /// the middleware communicator (normally the world communicator, created
  /// with the help of the ARM — paper Section IV).
  Session(dmpi::World& world, sim::Context& ctx, dmpi::Rank self,
          const dmpi::Comm& comm, Config config);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- resource-management API ---------------------------------------------
  /// Dynamic assignment (paper Figure 3(b)): asks the ARM for `count`
  /// accelerators. Returns fewer than requested only when wait == false and
  /// the pool is exhausted (then: empty). A non-empty `kind` restricts the
  /// grant to that device class ("gpu", "mic", ...).
  std::vector<Accelerator*> acquire(std::uint32_t count, bool wait = false,
                                    const std::string& kind = "");

  /// Typed dynamic assignment: full ResourceRequest control (device class,
  /// minimum memory, gang flag, priority, locality). Fields left at their
  /// defaults are filled from the session: job from config().job_id,
  /// priority from config().priority, locality from the calling rank.
  std::vector<Accelerator*> acquire(arm::ResourceRequest req);

  /// Static assignment (paper Figure 3(a)): wraps leases that the job
  /// launcher already acquired before the job started.
  Accelerator* attach(arm::Lease lease);

  /// Returns one accelerator to the pool.
  void release(Accelerator* acc);

  /// Releases every accelerator and stops the proxies. Called automatically
  /// by the runtime at job end ("accelerators are automatically released").
  void close();

  // --- views ----------------------------------------------------------------
  std::size_t size() const { return accelerators_.size(); }
  Accelerator& operator[](std::size_t i) { return *accelerators_.at(i); }
  arm::ArmClient& arm() { return arm_client_; }
  sim::Context& context() { return ctx_; }
  const Config& config() const { return config_; }

  /// Convenience: wait on many futures.
  void wait_all(std::vector<Future>& futures);

 private:
  friend class Accelerator;

  /// Translates a peer-side app pointer to that accelerator's current
  /// physical pointer (identity when the peer is unknown or untranslated).
  gpu::DevPtr peer_device_ptr(dmpi::Rank peer_daemon, gpu::DevPtr app) const;

  dmpi::World& world_;
  sim::Context& ctx_;
  dmpi::Rank self_;
  const dmpi::Comm& comm_;
  Config config_;
  dmpi::Mpi mpi_;  // the owner process's endpoint view (ARM + sync helpers)
  arm::ArmClient arm_client_;
  std::vector<std::unique_ptr<Accelerator>> accelerators_;
  bool closed_ = false;
};

}  // namespace dacc::core
