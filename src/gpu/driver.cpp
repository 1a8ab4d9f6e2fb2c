#include "gpu/driver.hpp"

namespace dacc::gpu {

void Driver::check(const OpHandle& op, const char* what) {
  if (!op.ok()) throw DeviceError(op.status, what);
}

DevPtr Driver::mem_alloc(std::uint64_t bytes) {
  DevPtr out = kNullDevPtr;
  const Result r = device_.mem_alloc(bytes, &out);
  if (r != Result::kSuccess) throw DeviceError(r, "mem_alloc");
  return out;
}

void Driver::mem_free(DevPtr ptr) {
  const Result r = device_.mem_free(ptr);
  if (r != Result::kSuccess) throw DeviceError(r, "mem_free");
}

void Driver::memcpy_htod(DevPtr dst, const util::Buffer& src,
                         HostMemType mem) {
  const OpHandle op = device_.memcpy_htod_async(device_.default_stream(), dst,
                                                src, mem, ctx_.now());
  check(op, "memcpy_htod");
  ctx_.wait_until(op.done_at);
}

util::Buffer Driver::memcpy_dtoh(DevPtr src, std::uint64_t bytes,
                                 HostMemType mem) {
  util::Buffer out;
  const OpHandle op = device_.memcpy_dtoh_async(
      device_.default_stream(), src, bytes, mem, ctx_.now(), &out);
  check(op, "memcpy_dtoh");
  ctx_.wait_until(op.done_at);
  return out;
}

OpHandle Driver::launch_async(Stream& stream, const std::string& kernel,
                              const LaunchConfig& config,
                              const KernelArgs& args) {
  return device_.launch_async(stream, kernel, config, args, ctx_.now());
}

void Driver::synchronize(Stream& stream) {
  ctx_.wait_until(stream.ready_at());
}

}  // namespace dacc::gpu
