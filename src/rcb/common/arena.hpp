// Bump arena for per-trial engine scratch state.
//
// The channel engines need a handful of growable scratch arrays per phase
// (presampled event schedules, adversary history, listener lists).  Backing
// them with individual heap vectors means per-trial malloc churn under the
// work-stealing scheduler and no control over alignment.  An Arena instead
// owns a chain of large chunks and hands out bump-pointer allocations:
//
//   * every allocation is aligned to kSimdAlignment (64 B) by default, so
//     any array is safe for aligned AVX2/AVX-512 loads and never straddles
//     a cache line at its head;
//   * reset() rewinds to the first chunk without releasing memory.  A reset
//     arena replays the exact same addresses for the same allocation
//     sequence — a determinism aid when diffing two runs of one trial;
//   * mark()/release() scope a group of allocations: release() rewinds the
//     cursor to the mark, so a caller that releases on return leaves the
//     arena exactly as it found it;
//   * under AddressSanitizer everything past the cursor is poisoned, so
//     use-after-reset, use-after-release and out-of-bounds reads into arena
//     slack are caught like ordinary heap bugs.
//
// ArenaVector<T> is the growable view the engines use: push_back/resize
// semantics over arena storage for trivially copyable element types.
// Growth allocates a fresh doubled block from the arena and memcpys; the
// abandoned block is reclaimed at the next reset().  Arenas and their
// vectors are single-threaded by design — each engine thread owns one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>

#include "rcb/common/contracts.hpp"

namespace rcb {

class Arena {
  struct Chunk;

 public:
  /// Default allocation alignment: one cache line, enough for any SIMD
  /// vector width we dispatch to (AVX2 needs 32, AVX-512 would need 64).
  static constexpr std::size_t kSimdAlignment = 64;

  explicit Arena(std::size_t first_chunk_bytes = std::size_t{1} << 16);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two <=
  /// kSimdAlignment; chunk bases are only kSimdAlignment-aligned).  Never
  /// returns null: grows by appending a doubled chunk when the current one
  /// is exhausted.  `bytes == 0` yields a distinct, valid, unusable pointer.
  void* allocate(std::size_t bytes, std::size_t align = kSimdAlignment);

  /// Typed array allocation (uninitialized storage).
  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena storage is never destructed");
    static_assert(alignof(T) <= kSimdAlignment);
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Allocation cursor captured by mark() and restored by release().
  class Mark {
    friend class Arena;
    Chunk* chunk_ = nullptr;
    std::size_t offset_ = 0;
    std::size_t bytes_used_ = 0;
  };

  /// The current cursor.
  Mark mark() const;

  /// Rewinds to `m`, reclaiming every allocation made since mark() returned
  /// it.  `m` must come from this arena, with no reset() and no release() to
  /// an earlier mark in between.  Chunks are retained; under ASan the
  /// reclaimed span is re-poisoned.
  void release(const Mark& m);

  /// Rewinds to the start of the first chunk: release() to a mark taken at
  /// construction.
  void reset();

  /// Bytes handed out since construction or the last reset() (including
  /// alignment padding).
  std::size_t bytes_used() const { return bytes_used_; }

  /// Number of chunks currently owned (growth observability for tests).
  std::size_t chunk_count() const { return num_chunks_; }

 private:
  struct Chunk {
    std::byte* base = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;  ///< cursor when allocation last moved past it
    Chunk* next = nullptr;
  };

  Chunk* new_chunk(std::size_t min_bytes);

  Chunk* head_ = nullptr;     ///< first chunk in the chain
  Chunk* current_ = nullptr;  ///< chunk allocations come from
  std::size_t offset_ = 0;    ///< bump cursor within current_
  std::size_t bytes_used_ = 0;
  std::size_t num_chunks_ = 0;
  std::size_t next_chunk_bytes_;
};

/// Growable array over Arena storage for trivially copyable element types.
/// clear() keeps capacity (like std::vector); detach() drops the storage so
/// the next use re-allocates from a freshly reset arena.
template <typename T>
class ArenaVector {
 public:
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

  explicit ArenaVector(Arena& arena) : arena_(&arena) {}

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::span<const T> view() const { return {data_, size_}; }

  void clear() { size_ = 0; }

  /// Releases the storage reference (the memory itself is reclaimed by the
  /// owning arena's reset()).  Call between trials, after Arena::reset().
  void detach() {
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void push_back(const T& v) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = v;
  }

  /// Appends `n` copies of `v` (bulk fill for history materialization).
  void append_fill(std::size_t n, const T& v) {
    reserve(size_ + n);
    for (std::size_t i = 0; i < n; ++i) data_[size_ + i] = v;
    size_ += n;
  }

  /// Appends `n` uninitialized elements and returns a pointer to the first
  /// (bulk-write target for the history fill kernels).
  T* append_uninitialized(std::size_t n) {
    reserve(size_ + n);
    T* p = data_ + size_;
    size_ += n;
    return p;
  }

  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::memset(data_ + size_, 0, (n - size_) * sizeof(T));
    size_ = n;
  }

  /// Drops the first `n` elements, shifting the rest down (history window
  /// compaction).
  void erase_prefix(std::size_t n) {
    RCB_ASSERT(n <= size_);
    std::memmove(data_, data_ + n, (size_ - n) * sizeof(T));
    size_ -= n;
  }

 private:
  void grow(std::size_t min_capacity) {
    std::size_t cap = capacity_ == 0 ? 8 : capacity_ * 2;
    if (cap < min_capacity) cap = min_capacity;
    T* fresh = arena_->allocate_array<T>(cap);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    capacity_ = cap;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace rcb
