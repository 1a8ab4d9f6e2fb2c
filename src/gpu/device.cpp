#include "gpu/device.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dacc::gpu {

const char* to_string(Result r) {
  switch (r) {
    case Result::kSuccess:
      return "success";
    case Result::kOutOfMemory:
      return "out of memory";
    case Result::kInvalidValue:
      return "invalid value";
    case Result::kInvalidHandle:
      return "invalid handle";
    case Result::kNotFound:
      return "not found";
    case Result::kEccError:
      return "uncorrectable ECC error";
    case Result::kUnavailable:
      return "accelerator unreachable";
  }
  return "unknown";
}

DeviceParams tesla_c1060() { return DeviceParams{}; }

DeviceParams mic_knc() {
  DeviceParams p;
  p.name = "Xeon Phi KNC (simulated)";
  p.kind = "mic";
  p.memory_bytes = 8ull * 1024 * 1024 * 1024;
  p.h2d_pinned_mib_s = 6300.0;
  p.h2d_pageable_mib_s = 5100.0;
  p.d2h_pinned_mib_s = 6300.0;
  p.d2h_pageable_mib_s = 5100.0;
  p.kernel_launch_overhead = 12'000;  // offload-model launches cost more
  p.compute_scale = 1.3;              // roughly comparable DP throughput
  return p;
}

DevPtr arg_ptr(const KernelArgs& args, std::size_t i) {
  return std::get<DevPtr>(args.at(i));
}
std::int64_t arg_i64(const KernelArgs& args, std::size_t i) {
  return std::get<std::int64_t>(args.at(i));
}
double arg_f64(const KernelArgs& args, std::size_t i) {
  return std::get<double>(args.at(i));
}

// ---------------------------------------------------------------------------
// KernelRegistry
// ---------------------------------------------------------------------------

void KernelRegistry::register_kernel(std::string name, KernelDef def) {
  if (!def.cost) {
    throw std::invalid_argument("kernel '" + name + "' needs a cost model");
  }
  kernels_[std::move(name)] = std::move(def);
}

bool KernelRegistry::contains(const std::string& name) const {
  return kernels_.count(name) != 0;
}

const KernelDef* KernelRegistry::find(const std::string& name) const {
  const auto it = kernels_.find(name);
  return it == kernels_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

Device::Device(sim::Engine& engine, DeviceParams params,
               std::shared_ptr<KernelRegistry> registry, bool functional)
    : engine_(engine),
      params_(std::move(params)),
      registry_(std::move(registry)),
      functional_(functional),
      default_stream_(*this) {
  if (!registry_) {
    throw std::invalid_argument("Device: kernel registry required");
  }
}

Result Device::mem_alloc(std::uint64_t bytes, DevPtr* out) {
  if (out == nullptr || bytes == 0) return Result::kInvalidValue;
  if (broken_) return Result::kEccError;
  if (memory_used_ + bytes > params_.memory_bytes) {
    return Result::kOutOfMemory;
  }
  const DevPtr base = next_addr_;
  // Keep allocations 256-byte aligned and leave a guard gap so that
  // out-of-bounds pointer arithmetic lands in no allocation at all.
  next_addr_ += ((bytes + 255) / 256) * 256 + 256;
  Allocation alloc;
  alloc.bytes = bytes;
  alloc.storage = functional_ ? util::Buffer::backed_zero(bytes)
                              : util::Buffer::phantom(bytes);
  allocations_.emplace(base, std::move(alloc));
  memory_used_ += bytes;
  *out = base;
  return Result::kSuccess;
}

Result Device::mem_free(DevPtr ptr) {
  if (broken_) return Result::kEccError;
  const auto it = allocations_.find(ptr);
  if (it == allocations_.end()) return Result::kInvalidValue;
  memory_used_ -= it->second.bytes;
  allocations_.erase(it);
  return Result::kSuccess;
}

Device::Allocation* Device::find(DevPtr ptr, std::uint64_t bytes,
                                 std::uint64_t* offset) {
  return const_cast<Allocation*>(
      std::as_const(*this).find(ptr, bytes, offset));
}

const Device::Allocation* Device::find(DevPtr ptr, std::uint64_t bytes,
                                       std::uint64_t* offset) const {
  if (ptr == kNullDevPtr || allocations_.empty()) return nullptr;
  auto it = allocations_.upper_bound(ptr);
  if (it == allocations_.begin()) return nullptr;
  --it;
  const DevPtr base = it->first;
  const Allocation& alloc = it->second;
  if (ptr < base || ptr + bytes > base + alloc.bytes) return nullptr;
  if (offset != nullptr) *offset = ptr - base;
  return &alloc;
}

bool Device::valid_range(DevPtr ptr, std::uint64_t bytes) const {
  return find(ptr, bytes, nullptr) != nullptr;
}

std::span<std::byte> Device::span_of(DevPtr ptr, std::uint64_t bytes) {
  std::uint64_t offset = 0;
  Allocation* alloc = find(ptr, bytes, &offset);
  if (alloc == nullptr) {
    throw std::out_of_range("Device::span_of: invalid device range");
  }
  if (!alloc->storage.is_backed()) {
    throw std::logic_error("Device::span_of: phantom-mode device");
  }
  return alloc->storage.mutable_bytes().subspan(offset, bytes);
}

OpHandle Device::memcpy_htod_async(Stream& stream, DevPtr dst,
                                   const util::Buffer& src, HostMemType mem,
                                   SimTime earliest, SimDuration extra_busy) {
  if (broken_) return {engine_.now(), Result::kEccError};
  std::uint64_t offset = 0;
  Allocation* alloc = find(dst, src.size(), &offset);
  if (alloc == nullptr) return {engine_.now(), Result::kInvalidValue};
  // Functional effect now; analytic timing below.
  if (functional_ && src.is_backed()) {
    alloc->storage.write_at(offset, src);
  }
  const double rate = mem == HostMemType::kPinned
                          ? params_.h2d_pinned_mib_s
                          : params_.h2d_pageable_mib_s;
  const SimDuration busy =
      params_.copy_setup + extra_busy + transfer_time(src.size(), rate);
  const auto iv = h2d_.occupy(std::max(earliest, stream.ready_), busy);
  stream.ready_ = iv.end;
  return {iv.end, Result::kSuccess};
}

OpHandle Device::memcpy_dtoh_async(Stream& stream, DevPtr src,
                                   std::uint64_t bytes, HostMemType mem,
                                   SimTime earliest, util::Buffer* out,
                                   SimDuration extra_busy) {
  if (broken_) return {engine_.now(), Result::kEccError};
  std::uint64_t offset = 0;
  Allocation* alloc = find(src, bytes, &offset);
  if (alloc == nullptr || out == nullptr) {
    return {engine_.now(), Result::kInvalidValue};
  }
  *out = alloc->storage.slice(offset, bytes);  // phantom-aware copy-out
  const double rate = mem == HostMemType::kPinned
                          ? params_.d2h_pinned_mib_s
                          : params_.d2h_pageable_mib_s;
  const SimDuration busy =
      params_.copy_setup + extra_busy + transfer_time(bytes, rate);
  const auto iv = d2h_.occupy(std::max(earliest, stream.ready_), busy);
  stream.ready_ = iv.end;
  return {iv.end, Result::kSuccess};
}

OpHandle Device::memcpy_dtod_async(Stream& stream, DevPtr dst, DevPtr src,
                                   std::uint64_t bytes, SimTime earliest) {
  if (broken_) return {engine_.now(), Result::kEccError};
  std::uint64_t src_off = 0;
  std::uint64_t dst_off = 0;
  Allocation* s = find(src, bytes, &src_off);
  Allocation* d = find(dst, bytes, &dst_off);
  if (s == nullptr || d == nullptr) {
    return {engine_.now(), Result::kInvalidValue};
  }
  if (functional_) {
    // view(): read-only alias, one memcpy inside write_at instead of two.
    d->storage.write_at(dst_off, s->storage.view(src_off, bytes));
  }
  const SimDuration busy = transfer_time(bytes, params_.d2d_mib_s);
  const auto iv = compute_.occupy(std::max(earliest, stream.ready_), busy);
  stream.ready_ = iv.end;
  return {iv.end, Result::kSuccess};
}

OpHandle Device::launch_async(Stream& stream, const std::string& kernel,
                              const LaunchConfig& config,
                              const KernelArgs& args, SimTime earliest) {
  if (broken_) return {engine_.now(), Result::kEccError};
  const KernelDef* def = registry_->find(kernel);
  if (def == nullptr) return {engine_.now(), Result::kNotFound};
  if (functional_ && def->executor) {
    def->executor(*this, config, args);
  }
  const auto raw_cost = def->cost(config, args);
  const auto cost = static_cast<SimDuration>(
      static_cast<double>(raw_cost) / params_.compute_scale);
  const SimDuration busy = params_.kernel_launch_overhead + cost;
  const auto iv = compute_.occupy(std::max(earliest, stream.ready_), busy);
  stream.ready_ = iv.end;
  return {iv.end, Result::kSuccess};
}

}  // namespace dacc::gpu
