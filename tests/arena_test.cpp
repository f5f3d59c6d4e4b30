// Tests for the bump arena and ArenaVector (per-trial engine scratch).
#include "rcb/common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define RCB_ARENA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCB_ARENA_TEST_ASAN 1
#endif
#endif

namespace rcb {
namespace {

std::uintptr_t addr(void* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(ArenaTest, DefaultAllocationsAreSimdAligned) {
  Arena arena;
  for (std::size_t bytes : {1u, 3u, 17u, 64u, 65u, 127u, 1000u}) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(addr(p) % Arena::kSimdAlignment, 0u) << "bytes=" << bytes;
  }
}

TEST(ArenaTest, SmallerAlignmentKeepsCursorAligned) {
  Arena arena;
  // Size is rounded to the alignment, so a run of align-8 allocations stays
  // 8-aligned even when the requested sizes are ragged.
  for (std::size_t bytes : {8u, 3u, 5u, 24u, 1u}) {
    void* p = arena.allocate(bytes, 8);
    EXPECT_EQ(addr(p) % 8, 0u) << "bytes=" << bytes;
  }
}

TEST(ArenaTest, ZeroByteAllocationsAreDistinct) {
  Arena arena;
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

TEST(ArenaTest, BytesUsedTracksRoundedAllocations) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.allocate(1);  // rounds to one full alignment quantum
  EXPECT_EQ(arena.bytes_used(), Arena::kSimdAlignment);
  arena.allocate(64);
  EXPECT_EQ(arena.bytes_used(), 2 * Arena::kSimdAlignment);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ArenaTest, ResetReplaysIdenticalAddresses) {
  Arena arena;
  const std::size_t sizes[] = {8, 100, 1000, 9, 64, 4096};
  std::vector<void*> first;
  for (std::size_t s : sizes) first.push_back(arena.allocate(s));
  arena.reset();
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    EXPECT_EQ(arena.allocate(sizes[i]), first[i]) << "allocation " << i;
  }
}

TEST(ArenaTest, GrowsAcrossChunksAndRetainsThemOnReset) {
  Arena arena(1024);  // smallest permitted first chunk
  EXPECT_EQ(arena.chunk_count(), 1u);
  std::vector<void*> first;
  for (int i = 0; i < 16; ++i) first.push_back(arena.allocate(512));
  EXPECT_GT(arena.chunk_count(), 1u);
  const std::size_t chunks = arena.chunk_count();

  arena.reset();
  EXPECT_EQ(arena.chunk_count(), chunks);  // chunks retained, not freed
  // The replay walks the same chunk chain, so every address comes back —
  // including the ones past the first chunk boundary.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(arena.allocate(512), first[i]) << "allocation " << i;
  }
  EXPECT_EQ(arena.chunk_count(), chunks);  // replay allocated no new chunk
}

TEST(ArenaTest, ReleaseRewindsToTheMarkAcrossChunks) {
  Arena arena(1024);
  void* before = arena.allocate(100);
  const std::size_t used = arena.bytes_used();
  const Arena::Mark mark = arena.mark();
  std::vector<void*> scoped;
  for (int i = 0; i < 16; ++i) scoped.push_back(arena.allocate(512));
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GT(chunks, 1u);

  arena.release(mark);
  EXPECT_EQ(arena.bytes_used(), used);
  EXPECT_EQ(arena.chunk_count(), chunks);  // chunks retained, not freed
  // Allocations after the release replay the scoped ones' addresses; the
  // one before the mark is untouched.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(arena.allocate(512), scoped[i]) << "allocation " << i;
  }
  EXPECT_EQ(arena.chunk_count(), chunks);
  arena.reset();
  EXPECT_EQ(arena.allocate(100), before);
}

TEST(ArenaTest, NestedMarksReleaseInnermostFirst) {
  Arena arena;
  const Arena::Mark outer = arena.mark();
  arena.allocate(64);
  const Arena::Mark inner = arena.mark();
  void* a = arena.allocate(64);
  arena.release(inner);
  EXPECT_EQ(arena.bytes_used(), Arena::kSimdAlignment);
  EXPECT_EQ(arena.allocate(64), a);
  arena.release(outer);
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnChunk) {
  Arena arena(1024);
  void* big = arena.allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(addr(big) % Arena::kSimdAlignment, 0u);
  EXPECT_GE(arena.chunk_count(), 2u);
  // The oversized chunk must be writable end to end.
  auto* bytes = static_cast<std::uint8_t*>(big);
  bytes[0] = 1;
  bytes[(1 << 20) - 1] = 2;
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[(1 << 20) - 1], 2);
}

TEST(ArenaVectorTest, PushBackGrowsAndPreservesContents) {
  Arena arena;
  ArenaVector<std::uint32_t> v(arena);
  EXPECT_TRUE(v.empty());
  for (std::uint32_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  EXPECT_GE(v.capacity(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i * 3);
  EXPECT_EQ(v.back(), 999u * 3);
}

TEST(ArenaVectorTest, ClearKeepsCapacityDetachDropsIt) {
  Arena arena;
  ArenaVector<int> v(arena);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), cap);
  v.detach();
  EXPECT_EQ(v.capacity(), 0u);
  EXPECT_EQ(v.data(), nullptr);
}

TEST(ArenaVectorTest, AppendFillAndAppendUninitialized) {
  Arena arena;
  ArenaVector<std::uint16_t> v(arena);
  v.append_fill(5, 7);
  ASSERT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) ASSERT_EQ(v[i], 7u);
  std::uint16_t* tail = v.append_uninitialized(3);
  ASSERT_EQ(v.size(), 8u);
  EXPECT_EQ(tail, v.data() + 5);
  tail[0] = 1;
  tail[1] = 2;
  tail[2] = 3;
  EXPECT_EQ(v[5], 1u);
  EXPECT_EQ(v[7], 3u);
  for (std::size_t i = 0; i < 5; ++i) ASSERT_EQ(v[i], 7u);  // prefix intact
}

TEST(ArenaVectorTest, ResizeZeroFillsNewTail) {
  Arena arena;
  ArenaVector<std::uint64_t> v(arena);
  v.push_back(42);
  v.resize(10);
  ASSERT_EQ(v.size(), 10u);
  EXPECT_EQ(v[0], 42u);
  for (std::size_t i = 1; i < 10; ++i) ASSERT_EQ(v[i], 0u);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
}

TEST(ArenaVectorTest, ErasePrefixShiftsRemainderDown) {
  Arena arena;
  ArenaVector<int> v(arena);
  for (int i = 0; i < 10; ++i) v.push_back(i);
  v.erase_prefix(4);
  ASSERT_EQ(v.size(), 6u);
  for (int i = 0; i < 6; ++i) ASSERT_EQ(v[i], i + 4);
}

TEST(ArenaVectorTest, DetachThenReuseAfterArenaResetReplaysAddresses) {
  // The engine workspace pattern: reset the arena, detach every vector,
  // repeat the same allocation sequence, and land on the same storage.
  Arena arena;
  ArenaVector<std::uint64_t> v(arena);
  for (std::uint64_t i = 0; i < 300; ++i) v.push_back(i);
  const std::uint64_t* first_data = v.data();
  arena.reset();
  v.detach();
  for (std::uint64_t i = 0; i < 300; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), first_data);
}

#ifdef RCB_ARENA_TEST_ASAN
TEST(ArenaAsanDeathTest, UseAfterResetIsPoisoned) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<volatile int*>(arena.allocate(sizeof(int)));
        *p = 42;
        arena.reset();
        const int v = *p;  // reset re-poisoned the whole arena
        (void)v;
      },
      "use-after-poison");
}

TEST(ArenaAsanDeathTest, UseAfterReleaseIsPoisoned) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena(1024);
        arena.allocate(64);
        const Arena::Mark mark = arena.mark();
        arena.allocate(2048);  // spills into a second chunk
        auto* p = static_cast<volatile int*>(arena.allocate(sizeof(int)));
        *p = 42;
        arena.release(mark);
        const int v = *p;  // release re-poisoned everything past the mark
        (void)v;
      },
      "use-after-poison");
}

TEST(ArenaAsanDeathTest, ReadPastAllocationHitsPoisonedSlack) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<volatile std::uint8_t*>(arena.allocate(64));
        const std::uint8_t v = p[64];  // first byte past the allocation
        (void)v;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace rcb
