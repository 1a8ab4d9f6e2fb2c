// Simulated CUDA-like accelerator device.
//
// The paper's accelerators are NVIDIA Tesla C1060 GPUs driven through the
// CUDA driver API (Section IV). We have no GPUs here, so the device is
// simulated along two axes that share every code path:
//
//   * timing   — copy engines and the compute pipeline are analytic
//                serialized resources (sim::SerialResource) with parameters
//                calibrated to the C1060 numbers the paper reports
//                (~5700 MiB/s pinned DMA, ~4700 MiB/s pageable PIO,
//                Section V.A); kernels charge durations from per-kernel cost
//                models.
//   * function — in functional mode, device memory is real host memory and
//                kernels are host callbacks operating on it, so numerical
//                results can be verified end-to-end through the full remote
//                stack. In phantom mode (used for paper-scale benchmark
//                sizes) memory is size-only and executors are skipped; all
//                timing behaviour is identical.
//
// Streams follow CUDA semantics: operations within one stream serialize;
// operations in different streams may overlap (the pipeline protocol relies
// on this to overlap network receives with host-to-device DMA).
//
// Functional effects are applied at issue time while the clock charge is
// analytic; this is safe because every client issues dependent operations in
// simulated-time order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "util/buffer.hpp"
#include "util/units.hpp"

namespace dacc::gpu {

/// Opaque device pointer. Nonzero values address bytes inside allocations;
/// arithmetic within an allocation (dptr + offset) is allowed, as in CUDA.
using DevPtr = std::uint64_t;
inline constexpr DevPtr kNullDevPtr = 0;

/// CUDA-like status codes carried back over the wire protocol.
enum class Result : std::uint32_t {
  kSuccess = 0,
  kOutOfMemory = 2,
  kInvalidValue = 11,
  kInvalidHandle = 400,
  kNotFound = 500,
  kEccError = 214,     // used by fault injection
  kUnavailable = 999,  // daemon unreachable: retries exhausted, no response
};

const char* to_string(Result r);

/// Where a host-side buffer lives; determines the copy engine model
/// (pinned -> DMA, pageable -> programmed I/O through the CPU).
enum class HostMemType { kPageable, kPinned };

struct DeviceParams {
  std::string name = "Tesla C1060 (simulated)";
  /// Device class used for constrained allocation at the ARM ("gpu",
  /// "mic", ...). The paper's architecture is "extensible to any
  /// accelerator programming interface"; kinds let one pool mix them.
  std::string kind = "gpu";
  std::uint64_t memory_bytes = 4ull * 1024 * 1024 * 1024;

  // Host<->device copy engines (paper Fig. 7/8: ~5700 MiB/s pinned DMA,
  // ~4700 MiB/s pageable PIO on the testbed).
  double h2d_pinned_mib_s = 5720.0;
  double h2d_pageable_mib_s = 4720.0;
  double d2h_pinned_mib_s = 5720.0;
  double d2h_pageable_mib_s = 4720.0;
  SimDuration copy_setup = 10'000;  // ns per copy operation

  /// Device-to-device copy within one GPU's memory.
  double d2d_mib_s = 70000.0;

  SimDuration kernel_launch_overhead = 7'000;  // ns

  /// Scale factor applied to every kernel cost model; lets one binary model
  /// heterogeneous pools (e.g. a MIC-flavoured device, Section VI).
  double compute_scale = 1.0;
};

/// Factory presets.
DeviceParams tesla_c1060();
DeviceParams mic_knc();  ///< "extensible to Intel MIC" (paper Section VI)

struct Dim3 {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  std::uint32_t z = 1;
  std::uint64_t total() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }
};

struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
  std::uint64_t threads() const { return grid.total() * block.total(); }
};

/// Kernel argument: device pointer or scalar.
using KernelArg = std::variant<DevPtr, std::int64_t, double>;
using KernelArgs = std::vector<KernelArg>;

DevPtr arg_ptr(const KernelArgs& args, std::size_t i);
std::int64_t arg_i64(const KernelArgs& args, std::size_t i);
double arg_f64(const KernelArgs& args, std::size_t i);

class Device;

/// Functional body of a kernel: runs host-side on the device's memory.
/// Only invoked in functional mode.
using KernelExecutor =
    std::function<void(Device&, const LaunchConfig&, const KernelArgs&)>;

/// Simulated duration of a kernel launch (before compute_scale).
using KernelCost =
    std::function<SimDuration(const LaunchConfig&, const KernelArgs&)>;

struct KernelDef {
  KernelExecutor executor;  // may be empty (timing-only kernel)
  KernelCost cost;          // required
};

/// Name -> definition map. Usually shared by all devices of a cluster;
/// modules (la, mdsim, examples) register their kernels here.
class KernelRegistry {
 public:
  void register_kernel(std::string name, KernelDef def);
  bool contains(const std::string& name) const;
  const KernelDef& lookup(const std::string& name) const;
  /// The kernel's definition, or nullptr if none is registered as `name`.
  const KernelDef* find(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Registry pre-loaded with the built-in utility kernels (vector_add,
  /// daxpy, dscal, fill, reduce_sum).
  static std::shared_ptr<KernelRegistry> with_builtins();

 private:
  std::map<std::string, KernelDef> kernels_;
};

/// An asynchronous operation's handle: the simulated completion time plus a
/// CUDA-like status (checked by the daemon and relayed over the wire).
struct OpHandle {
  SimTime done_at = 0;
  Result status = Result::kSuccess;
  bool ok() const { return status == Result::kSuccess; }
};

/// A CUDA-like stream: in-order queue of copies and launches.
class Stream {
 public:
  explicit Stream(Device& device) : device_(&device) {}

  /// Completion time of everything enqueued so far.
  SimTime ready_at() const { return ready_; }

 private:
  friend class Device;
  Device* device_;
  SimTime ready_ = 0;
};

/// A CUDA-like event: a marker in a stream's timeline (cuEventRecord /
/// cuStreamWaitEvent), used to express cross-stream dependencies.
struct Event {
  SimTime at = 0;
};

class Device {
 public:
  Device(sim::Engine& engine, DeviceParams params,
         std::shared_ptr<KernelRegistry> registry, bool functional = true);

  const DeviceParams& params() const { return params_; }
  bool functional() const { return functional_; }
  sim::Engine& engine() { return engine_; }
  KernelRegistry& registry() { return *registry_; }

  // --- memory -------------------------------------------------------------
  Result mem_alloc(std::uint64_t bytes, DevPtr* out);
  Result mem_free(DevPtr ptr);
  std::uint64_t memory_used() const { return memory_used_; }
  std::uint64_t memory_free() const {
    return params_.memory_bytes - memory_used_;
  }

  /// Raw access to allocation bytes (functional mode; executors use this).
  std::span<std::byte> span_of(DevPtr ptr, std::uint64_t bytes);
  template <typename T>
  std::span<T> span_as(DevPtr ptr, std::uint64_t count) {
    auto raw = span_of(ptr, count * sizeof(T));
    return {reinterpret_cast<T*>(raw.data()), count};
  }
  bool valid_range(DevPtr ptr, std::uint64_t bytes) const;

  // --- async operations (enqueue on a stream, return completion time) -----
  /// Copies `src` into device memory at `dst`. Functional effect applies
  /// immediately; timing per the pinned/pageable engine model. `extra_busy`
  /// adds serialized host-side cost to this operation (the daemon charges
  /// the staging copy here when GPUDirect is unavailable).
  OpHandle memcpy_htod_async(Stream& stream, DevPtr dst,
                             const util::Buffer& src, HostMemType mem,
                             SimTime earliest, SimDuration extra_busy = 0);
  /// Reads `bytes` from device memory at `src` into a returned buffer
  /// (backed in functional mode, phantom otherwise).
  OpHandle memcpy_dtoh_async(Stream& stream, DevPtr src, std::uint64_t bytes,
                             HostMemType mem, SimTime earliest,
                             util::Buffer* out, SimDuration extra_busy = 0);
  /// Device-internal copy.
  OpHandle memcpy_dtod_async(Stream& stream, DevPtr dst, DevPtr src,
                             std::uint64_t bytes, SimTime earliest);
  /// Launches a registered kernel.
  OpHandle launch_async(Stream& stream, const std::string& kernel,
                        const LaunchConfig& config, const KernelArgs& args,
                        SimTime earliest);

  Stream& default_stream() { return default_stream_; }

  /// Marks the current end of `stream`'s work (cuEventRecord).
  Event record_event(const Stream& stream) const { return {stream.ready_}; }

  /// Makes further work on `stream` wait for `event` (cuStreamWaitEvent).
  void stream_wait_event(Stream& stream, Event event) {
    stream.ready_ = std::max(stream.ready_, event.at);
  }

  /// Utilization accounting for the economy experiments.
  SimDuration compute_busy() const { return compute_.busy_total(); }
  SimDuration copy_busy() const {
    return h2d_.busy_total() + d2h_.busy_total();
  }

  // --- fault injection ----------------------------------------------------
  /// A broken device fails every subsequent operation with kEccError.
  void mark_broken() { broken_ = true; }
  bool broken() const { return broken_; }

 private:
  struct Allocation {
    std::uint64_t bytes;
    util::Buffer storage;  // backed in functional mode, phantom otherwise
  };

  /// Finds the allocation containing [ptr, ptr+bytes), or nullptr.
  Allocation* find(DevPtr ptr, std::uint64_t bytes, std::uint64_t* offset);
  const Allocation* find(DevPtr ptr, std::uint64_t bytes,
                         std::uint64_t* offset) const;

  sim::Engine& engine_;
  DeviceParams params_;
  std::shared_ptr<KernelRegistry> registry_;
  bool functional_;
  bool broken_ = false;

  std::map<DevPtr, Allocation> allocations_;  // keyed by base address
  DevPtr next_addr_ = 0x10000;
  std::uint64_t memory_used_ = 0;

  sim::SerialResource h2d_;
  sim::SerialResource d2h_;
  sim::SerialResource compute_;
  Stream default_stream_;
};

}  // namespace dacc::gpu
