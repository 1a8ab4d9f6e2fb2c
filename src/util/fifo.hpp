// A FIFO on a power-of-two ring that doubles when full and never shrinks,
// so once it has held its high-water count, pushing and erasing allocate
// nothing (the standard library's deque, used as a FIFO, frees and
// allocates a block every few dozen elements, and allocates two when it is
// built). An empty Fifo owns no memory. Erasing the front is O(1); erasing
// further in moves the later elements up one place.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dacc::util {

template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    ++size_;
    (*this)[size_ - 1] = std::move(value);
  }

  /// Removes element `i` (0 is the oldest) and returns it.
  T take(std::size_t i) {
    T out = std::move((*this)[i]);
    if (i == 0) {
      (*this)[0] = T{};
      head_ = (head_ + 1) & mask();
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
      (*this)[size_ - 1] = T{};
    }
    --size_;
    return out;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dacc::util
