#include "util/buffer.hpp"

namespace dacc::util {

BufferPool& BufferPool::instance() {
  // Leaked on purpose: Store destructors can run during static teardown,
  // after a function-local static pool would already be gone.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::vector<std::byte> BufferPool::acquire(std::uint64_t size, bool zeroed) {
  const int b = bucket_for_acquire(size);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (b < kBuckets && !buckets_[b].empty()) {
      std::vector<std::byte> v = std::move(buckets_[b].back());
      buckets_[b].pop_back();
      ++stats_.hits;
      if (zeroed) v.clear();  // resize from 0 value-initializes every byte
      v.resize(size);
      return v;
    }
    ++stats_.misses;
  }
  return std::vector<std::byte>(size);
}

void BufferPool::release(std::vector<std::byte>&& bytes) {
  if (bytes.capacity() < kMinBytes) return;
  const int b = bucket_for_release(bytes.capacity());
  std::lock_guard<std::mutex> lock(mutex_);
  if (b >= kBuckets || buckets_[b].size() >= kMaxPerBucket) return;
  ++stats_.recycled;
  buckets_[b].push_back(std::move(bytes));
}

Buffer& Buffer::operator=(const Buffer& other) {
  if (this == &other) return *this;
  size_ = other.size_;
  is_backed_ = other.is_backed_;
  offset_ = 0;
  if (other.store_ != nullptr && other.size_ > 0) {
    auto v = BufferPool::instance().acquire(other.size_, /*zeroed=*/false);
    std::memcpy(v.data(), other.store_->bytes.data() + other.offset_,
                other.size_);
    store_ = std::make_shared<Store>(std::move(v));
  } else {
    store_.reset();
  }
  return *this;
}

Buffer Buffer::backed(std::vector<std::byte> bytes) {
  Buffer b;
  b.size_ = bytes.size();
  b.store_ = std::make_shared<Store>(std::move(bytes));
  return b;
}

Buffer Buffer::backed_zero(std::uint64_t size) {
  return backed(BufferPool::instance().acquire(size, /*zeroed=*/true));
}

Buffer Buffer::backed_copy(std::span<const std::byte> src) {
  auto v = BufferPool::instance().acquire(src.size(), /*zeroed=*/false);
  if (!src.empty()) std::memcpy(v.data(), src.data(), src.size());
  return backed(std::move(v));
}

void Buffer::unshare() {
  if (store_ == nullptr || store_.use_count() == 1) return;
  auto v = BufferPool::instance().acquire(size_, /*zeroed=*/false);
  if (size_ > 0) std::memcpy(v.data(), store_->bytes.data() + offset_, size_);
  store_ = std::make_shared<Store>(std::move(v));
  offset_ = 0;
}

}  // namespace dacc::util
