// Blocking "CUDA driver API" facade over the simulated device, for a GPU
// attached to the calling node: the "CUDA local" baselines (core's
// LocalDeviceLink, the figure benches' local copy probes) run through it.
// Memory calls and copies block the calling simulated process until the
// device operation completes; kernels launch asynchronously on a stream,
// and synchronize() waits for one. The back-end daemon (Figure 4: Daemon ->
// CUDA Driver API -> CUDA GPU) drives gpu::Device directly, since it
// overlaps network receives with DMA on its own streams.
#pragma once

#include <stdexcept>
#include <string>

#include "gpu/device.hpp"
#include "sim/engine.hpp"

namespace dacc::gpu {

class DeviceError : public std::runtime_error {
 public:
  DeviceError(Result code, const std::string& what)
      : std::runtime_error(what + ": " + to_string(code)), code_(code) {}
  Result code() const { return code_; }

 private:
  Result code_;
};

class Driver {
 public:
  Driver(Device& device, sim::Context& ctx) : device_(device), ctx_(ctx) {}

  Device& device() { return device_; }

  // --- memory (blocking; throws DeviceError on failure) -------------------
  DevPtr mem_alloc(std::uint64_t bytes);
  void mem_free(DevPtr ptr);

  // --- copies (blocking) ---------------------------------------------------
  void memcpy_htod(DevPtr dst, const util::Buffer& src,
                   HostMemType mem = HostMemType::kPinned);
  util::Buffer memcpy_dtoh(DevPtr src, std::uint64_t bytes,
                           HostMemType mem = HostMemType::kPinned);

  // --- kernels ---------------------------------------------------------------
  OpHandle launch_async(Stream& stream, const std::string& kernel,
                        const LaunchConfig& config, const KernelArgs& args);

  /// Blocks until the stream is idle.
  void synchronize(Stream& stream);
  void synchronize() { synchronize(device_.default_stream()); }

  // --- events (cross-stream dependencies) -----------------------------------
  Event record(const Stream& stream) { return device_.record_event(stream); }
  void stream_wait(Stream& stream, Event event) {
    device_.stream_wait_event(stream, event);
  }
  /// Blocks the host until the event's point in the timeline has passed.
  void synchronize(Event event) { ctx_.wait_until(event.at); }

 private:
  static void check(const OpHandle& op, const char* what);

  Device& device_;
  sim::Context& ctx_;
};

}  // namespace dacc::gpu
