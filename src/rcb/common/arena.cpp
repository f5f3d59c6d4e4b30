#include "rcb/common/arena.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define RCB_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCB_ARENA_ASAN 1
#endif
#endif

#ifdef RCB_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define RCB_ARENA_POISON(ptr, size) ASAN_POISON_MEMORY_REGION(ptr, size)
#define RCB_ARENA_UNPOISON(ptr, size) ASAN_UNPOISON_MEMORY_REGION(ptr, size)
#else
#define RCB_ARENA_POISON(ptr, size) ((void)0)
#define RCB_ARENA_UNPOISON(ptr, size) ((void)0)
#endif

namespace rcb {
namespace {

constexpr std::size_t kMinChunkBytes = 1024;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace

Arena::Arena(std::size_t first_chunk_bytes)
    : next_chunk_bytes_(first_chunk_bytes < kMinChunkBytes ? kMinChunkBytes
                                                           : first_chunk_bytes) {
  head_ = current_ = new_chunk(0);
}

Arena::~Arena() {
  Chunk* c = head_;
  while (c != nullptr) {
    Chunk* next = c->next;
    RCB_ARENA_UNPOISON(c->base, c->size);
    ::operator delete(c->base, std::align_val_t{kSimdAlignment});
    delete c;
    c = next;
  }
}

Arena::Chunk* Arena::new_chunk(std::size_t min_bytes) {
  std::size_t size = next_chunk_bytes_;
  if (size < min_bytes) size = round_up(min_bytes, kSimdAlignment);
  next_chunk_bytes_ = size * 2;
  auto* c = new Chunk;
  c->base = static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{kSimdAlignment}));
  c->size = size;
  RCB_ARENA_POISON(c->base, c->size);
  ++num_chunks_;
  return c;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  RCB_ASSERT(align != 0 && (align & (align - 1)) == 0 &&
             align <= kSimdAlignment);
  // Rounding the *size* keeps every bump cursor align-aligned (chunk bases
  // are kSimdAlignment-aligned), and keeps distinct allocations in distinct
  // 8-byte ASan shadow granules.
  const std::size_t need = round_up(bytes == 0 ? 1 : bytes, align);
  if (current_->size - offset_ < need) {
    if (current_->next == nullptr ||
        current_->next->size < need) {  // skip-over only when it fits
      Chunk* fresh = new_chunk(need);
      fresh->next = current_->next;
      current_->next = fresh;
    }
    current_->used = offset_;
    current_ = current_->next;
    offset_ = 0;
  }
  std::byte* p = current_->base + offset_;
  offset_ += need;
  bytes_used_ += need;
  RCB_ARENA_UNPOISON(p, need);
  return p;
}

Arena::Mark Arena::mark() const {
  Mark m;
  m.chunk_ = current_;
  m.offset_ = offset_;
  m.bytes_used_ = bytes_used_;
  return m;
}

void Arena::release(const Mark& m) {
  RCB_ASSERT(m.chunk_ != nullptr && m.bytes_used_ <= bytes_used_);
#ifdef RCB_ARENA_ASAN
  // Everything past the cursor is already poisoned, and the chunks from the
  // mark's to the current one were filled in chain order, so only the span
  // handed out since the mark needs re-poisoning.
  for (Chunk* c = m.chunk_;; c = c->next) {
    const std::size_t begin = c == m.chunk_ ? m.offset_ : 0;
    const std::size_t end = c == current_ ? offset_ : c->used;
    RCB_ARENA_POISON(c->base + begin, end - begin);
    if (c == current_) break;
  }
#endif
  current_ = m.chunk_;
  offset_ = m.offset_;
  bytes_used_ = m.bytes_used_;
}

void Arena::reset() {
  Mark start;
  start.chunk_ = head_;
  release(start);
}

}  // namespace rcb
