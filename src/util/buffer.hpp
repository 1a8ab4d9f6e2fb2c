// Message / memory payloads.
//
// dacc runs in two modes that share every code path above the byte level:
//
//  * backed  — the buffer owns real bytes; kernels and copies operate on
//              them, so tests can verify numerics end-to-end.
//  * phantom — the buffer records only a size; transfers and kernels charge
//              the same simulated time but move no data. Benchmarks use this
//              to run paper-scale problem sizes (tens of GiB of traffic)
//              without the memory or wall-clock cost.
//
// A phantom buffer is infectious: slicing or concatenating phantom data
// yields phantom data. Mixing is an error caught at the point of use.
//
// Storage model: a backed buffer is an (offset, size) range over a
// shared, refcounted byte store. Copies and slice() remain deep copies —
// value semantics, exactly as before — but view() produces a zero-copy
// alias of a range, which is what the transfer path uses to fan a payload
// out into blocks without duplicating it. Mutable access unshares first
// (clone-on-write), so no write can ever be observed through an alias.
// Stores recycle their bytes through a global BufferPool, so the
// steady-state message path performs no large allocations.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dacc::util {

/// Size-bucketed recycler for payload byte storage. Buffers return their
/// backing vectors here when the last reference drops; acquire() serves the
/// next payload of similar size from the cache instead of the allocator.
/// The pool is process-global and the parallel simulation backend touches
/// it from several shard workers at once, so access is mutex-protected
/// (uncontended in the sequential backend).
class BufferPool {
 public:
  static BufferPool& instance();

  /// A vector of exactly `size` bytes. When `zeroed`, contents are all
  /// zero; otherwise recycled bytes may be stale (callers that overwrite
  /// the whole range skip the memset).
  std::vector<std::byte> acquire(std::uint64_t size, bool zeroed = true);

  /// Returns storage to the pool (no-op for tiny or empty vectors).
  void release(std::vector<std::byte>&& bytes);

  struct Stats {
    std::uint64_t hits = 0;      ///< acquires served from the cache
    std::uint64_t misses = 0;    ///< acquires that hit the allocator
    std::uint64_t recycled = 0;  ///< vectors accepted by release()
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  /// Drops all cached storage (tests use this to isolate measurements).
  void trim();

 private:
  // Bucket b holds vectors with capacity in [2^b, 2^(b+1)), so any vector
  // in bucket ceil(log2(size)) can serve an acquire of `size`.
  static constexpr std::size_t kMinBytes = 256;  // below this, malloc wins
  static constexpr std::size_t kMaxPerBucket = 16;
  static constexpr int kBuckets = 40;

  static int bucket_for_acquire(std::uint64_t size) {
    return std::bit_width(std::max<std::uint64_t>(size, 1) - 1);
  }
  static int bucket_for_release(std::uint64_t capacity) {
    return std::bit_width(capacity) - 1;
  }

  mutable std::mutex mutex_;
  std::array<std::vector<std::vector<std::byte>>, kBuckets> buckets_;
  Stats stats_;
};

class Buffer {
 public:
  Buffer() = default;

  // Deep value semantics on copy (as the vector-based buffer had); aliasing
  // is only ever created explicitly via view().
  Buffer(const Buffer& other) { *this = other; }
  Buffer& operator=(const Buffer& other);
  Buffer(Buffer&& other) noexcept { *this = std::move(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    is_backed_ = std::exchange(other.is_backed_, true);
    offset_ = std::exchange(other.offset_, 0);
    store_ = std::move(other.store_);
    return *this;
  }
  ~Buffer() = default;

  /// A buffer owning real bytes.
  static Buffer backed(std::vector<std::byte> bytes);

  /// A zero-initialized backed buffer of `size` bytes (pooled storage).
  static Buffer backed_zero(std::uint64_t size);

  /// A backed buffer copied from a raw span (pooled storage).
  static Buffer backed_copy(std::span<const std::byte> src);

  /// A size-only buffer (no storage).
  static Buffer phantom(std::uint64_t size) {
    Buffer b;
    b.size_ = size;
    b.is_backed_ = false;
    return b;
  }

  /// A backed buffer viewing a typed object array (copies the bytes).
  template <typename T>
  static Buffer of(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    return backed_copy(std::as_bytes(values));
  }

  std::uint64_t size() const { return size_; }
  bool is_backed() const { return is_backed_; }
  bool empty() const { return size_ == 0; }

  std::span<const std::byte> bytes() const {
    require_backed();
    if (store_ == nullptr) return {};
    return std::span<const std::byte>(store_->bytes)
        .subspan(offset_, size_);
  }

  /// Mutable access unshares first: writes are never visible through views.
  std::span<std::byte> mutable_bytes() {
    require_backed();
    if (store_ == nullptr) return {};
    unshare();
    return std::span<std::byte>(store_->bytes).subspan(offset_, size_);
  }

  /// Typed view of the contents (size must be a multiple of sizeof(T)).
  template <typename T>
  std::span<const T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    require_element_multiple(sizeof(T));
    const auto b = bytes();
    return {reinterpret_cast<const T*>(b.data()), size_ / sizeof(T)};
  }
  template <typename T>
  std::span<T> as_mutable() {
    static_assert(std::is_trivially_copyable_v<T>);
    require_element_multiple(sizeof(T));
    const auto b = mutable_bytes();
    return {reinterpret_cast<T*>(b.data()), size_ / sizeof(T)};
  }

  /// Copy-out of a byte range [offset, offset+len). Phantom buffers yield
  /// phantom slices.
  Buffer slice(std::uint64_t offset, std::uint64_t len) const {
    check_range(offset, len, "Buffer::slice");
    if (!is_backed_) return phantom(len);
    return backed_copy(bytes().subspan(offset, len));
  }

  /// Zero-copy alias of a byte range: shares the store, copies nothing.
  /// Used on the transfer fast path to carve a payload into blocks. Safe to
  /// hand out freely — any mutable access (on either side) unshares first.
  Buffer view(std::uint64_t offset, std::uint64_t len) const {
    check_range(offset, len, "Buffer::view");
    if (!is_backed_) return phantom(len);
    Buffer b;
    b.size_ = len;
    b.offset_ = offset_ + offset;
    b.store_ = store_;
    return b;
  }
  Buffer view() const { return view(0, size_); }

  /// True if this buffer aliases storage with other holders (diagnostics).
  bool is_shared() const { return store_ != nullptr && store_.use_count() > 1; }

  /// Overwrites [offset, offset+src.size()) with the contents of `src`.
  /// If either side is phantom, only sizes are checked.
  void write_at(std::uint64_t offset, const Buffer& src) {
    if (offset + src.size() > size_) {
      throw std::out_of_range("Buffer::write_at out of range");
    }
    if (!is_backed_ || !src.is_backed_ || src.size() == 0) return;
    unshare();
    // After unshare() our bytes are private, so overlap with `src` is gone.
    std::memcpy(store_->bytes.data() + offset_ + offset, src.bytes().data(),
                src.size());
  }

 private:
  struct Store {
    explicit Store(std::vector<std::byte> b) : bytes(std::move(b)) {}
    ~Store() { BufferPool::instance().release(std::move(bytes)); }
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
    std::vector<std::byte> bytes;
  };

  void require_backed() const {
    if (!is_backed_) {
      throw std::logic_error("Buffer: byte access on phantom buffer");
    }
  }
  void require_element_multiple(std::size_t elem) const {
    require_backed();
    if (size_ % elem != 0) {
      throw std::logic_error("Buffer::as: size not a multiple of element");
    }
  }
  void check_range(std::uint64_t offset, std::uint64_t len,
                   const char* what) const {
    if (offset + len > size_) {
      throw std::out_of_range(std::string(what) + " out of range");
    }
  }

  /// Clones the viewed range into a private store if anyone else holds it.
  void unshare();

  std::uint64_t size_ = 0;
  bool is_backed_ = true;  // default: empty backed buffer
  std::uint64_t offset_ = 0;
  std::shared_ptr<Store> store_;
};

}  // namespace dacc::util
