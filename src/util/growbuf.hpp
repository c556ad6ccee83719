// GrowBuf<T>: a growable array of trivially copyable values that extends
// in place, for the arrays a state-graph build appends to (state codes, the
// forward CSR, the marking arena's rows).
//
// std::vector doubles by allocating a fresh buffer and copying into it, so
// every byte of a big array is written twice and every page faulted twice,
// and the old and new buffers are held at once. A GrowBuf below kMapBytes
// lives in a malloc block grown with realloc, as small graphs need. From
// kMapBytes up it is an anonymous mapping grown with mremap(MREMAP_MAYMOVE):
// the kernel moves page tables instead of copying bytes, pages not yet
// written cost no memory, and freeing the buffer unmaps it instead of
// leaving it in the heap (glibc's dynamic mmap threshold would keep blocks
// up to 32 MB in the heap after the first free, where realloc copies). Off
// Linux the large path falls back to realloc.
//
// Under AddressSanitizer the unused capacity [size, capacity) is poisoned on
// both paths, so a write past size() is reported even inside a mapping,
// which ASan does not otherwise see into.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RTCAD_GROWBUF_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RTCAD_GROWBUF_POISONS 1
#endif
#endif
#ifdef RTCAD_GROWBUF_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace rtcad {

template <typename T>
class GrowBuf {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Blocks of at least this many bytes are anonymous mappings.
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  GrowBuf() = default;
  /// An exact-size copy: its capacity is o.size().
  GrowBuf(const GrowBuf& o) {
    if (o.size_ == 0) return;
    data_ = resize_block(nullptr, 0, o.size_);
    cap_ = o.size_;
    std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    size_ = o.size_;
  }
  GrowBuf(GrowBuf&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  ~GrowBuf() {
    unpoison(0, cap_);
    release(data_, cap_);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    unpoison(size_, 1);
    data_[size_++] = v;
  }
  /// Append the `n` values at `p`, which must not point into this buffer.
  void append(const T* p, std::size_t n) {
    if (n > cap_ - size_) grow(size_ + n);
    unpoison(size_, n);
    std::memcpy(data_ + size_, p, n * sizeof(T));
    size_ += n;
  }
  /// Drop every value and keep the capacity.
  void clear() {
    size_ = 0;
    poison_tail();
  }
  void reserve(std::size_t n) {
    if (n > cap_) grow_to(n);
  }

 private:
  /// A block is a mapping exactly when its capacity is kMapBytes or more.
  static bool mapped(std::size_t cap) { return cap * sizeof(T) >= kMapBytes; }

  // Move the block `p` of `old_cap` values (null when 0) to one of
  // `new_cap` > `old_cap` values, keeping its contents.
  static T* resize_block(T* p, std::size_t old_cap, std::size_t new_cap) {
    void* q = nullptr;
#if defined(__linux__)
    if (mapped(new_cap)) {
      if (mapped(old_cap)) {
        q = mremap(p, old_cap * sizeof(T), new_cap * sizeof(T),
                   MREMAP_MAYMOVE);
      } else {
        q = mmap(nullptr, new_cap * sizeof(T), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (q != MAP_FAILED) {
          if (old_cap != 0) std::memcpy(q, p, old_cap * sizeof(T));
          std::free(p);
        }
      }
      if (q == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(q);
    }
#endif
    q = std::realloc(p, new_cap * sizeof(T));
    if (q == nullptr) throw std::bad_alloc();
    return static_cast<T*>(q);
  }

  static void release(T* p, std::size_t cap) {
    if (p == nullptr) return;
#if defined(__linux__)
    if (mapped(cap)) {
      munmap(p, cap * sizeof(T));
      return;
    }
#endif
    std::free(p);
  }

  void grow(std::size_t n) {
    grow_to(std::max({n, 2 * cap_, std::size_t{16}}));
  }

  void grow_to(std::size_t n) {
    unpoison(0, cap_);
    data_ = resize_block(data_, cap_, n);
    cap_ = n;
    poison_tail();
  }

  void poison_tail() {
#ifdef RTCAD_GROWBUF_POISONS
    if (data_ != nullptr)
      ASAN_POISON_MEMORY_REGION(data_ + size_, (cap_ - size_) * sizeof(T));
#endif
  }
  void unpoison([[maybe_unused]] std::size_t from,
                [[maybe_unused]] std::size_t n) {
#ifdef RTCAD_GROWBUF_POISONS
    if (data_ != nullptr)
      ASAN_UNPOISON_MEMORY_REGION(data_ + from, n * sizeof(T));
#endif
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace rtcad
