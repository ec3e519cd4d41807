// Reusable bump allocator for solver scratch.
//
// Every hot-path solver needs transient arrays (BFS queues, parent
// vectors, DP tables) whose sizes are known only per call.  Allocating
// them from the heap each call dominates the constant factor the paper's
// asymptotic bounds hide, so solvers draw scratch from an Arena instead:
// allocation is a pointer bump, release is a checkpoint pop, and after a
// warm-up call the arena serves every later call of the same (or smaller)
// size without touching the heap at all.  PartitionService keeps one
// arena per worker and releases to a checkpoint between jobs.
//
// Memory handed out is uninitialized and no destructors ever run, so only
// trivially destructible element types are allowed (enforced below).
//
// Under AddressSanitizer the arena keeps everything past its frontier
// poisoned: each block when it is acquired, and whatever a release or
// reset hands back.  Each allocation is unpoisoned as it is handed out and
// followed by a poisoned redzone, so a read or write past the end of an
// arena array faults as it would past a heap array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TGP_ARENA_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define TGP_ARENA_ASAN 1
#endif
#if defined(TGP_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace tgp::util {

class Arena {
 public:
  /// `initial_bytes` pre-reserves one block so even the first call can be
  /// heap-free when the caller knows the working-set size.
  explicit Arena(std::size_t initial_bytes = 0) {
    if (initial_bytes > 0) add_block(initial_bytes);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Checkpoint of the current allocation frontier.
  struct Marker {
    std::size_t block = 0;
    std::size_t used = 0;
    std::size_t prefix = 0;  // bytes in blocks preceding `block`
  };

  Marker mark() const { return {cur_, used_, prefix_bytes_}; }

  /// Pop back to a checkpoint.  Blocks acquired since stay owned by the
  /// arena (capacity is retained), so release + re-allocate cycles are
  /// heap-free once the arena has grown to the working-set size.
  void release(const Marker& m) {
    TGP_REQUIRE(m.block < blocks_.size() || (m.block == 0 && blocks_.empty()),
                "marker from another arena");
    poison_back_to(m.block, m.used);
    cur_ = m.block;
    used_ = m.used;
    prefix_bytes_ = m.prefix;
  }

  /// Release everything (capacity retained).
  void reset() {
    poison_back_to(0, 0);
    cur_ = 0;
    used_ = 0;
    prefix_bytes_ = 0;
  }

  /// Raw allocation; `align` must be a power of two.
  void* allocate(std::size_t bytes, std::size_t align) {
    TGP_REQUIRE(align != 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    while (cur_ < blocks_.size()) {
      std::size_t off = (used_ + align - 1) & ~(align - 1);
      if (off + bytes + kRedzone <= blocks_[cur_].size)
        return hand_out(off, bytes);
      // Current block exhausted: move to the next retained block (or fall
      // through to grow).  Skipped tail space is reclaimed on release().
      prefix_bytes_ += blocks_[cur_].size;
      ++cur_;
      used_ = 0;
    }
    add_block(bytes + align + kRedzone);
    return hand_out((used_ + align - 1) & ~(align - 1), bytes);
  }

  /// Uninitialized array of `count` Ts.  T must be trivially destructible:
  /// release() simply abandons the storage and no destructors ever run.
  /// (std::pair of trivial types qualifies even though it is not trivially
  /// copyable.)
  template <typename T>
  T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory never runs destructors");
    static_assert(std::is_default_constructible_v<T>,
                  "arena memory is handed out uninitialized");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Array of `count` Ts, each initialized to `fill`.
  template <typename T>
  T* alloc_filled(std::size_t count, T fill) {
    T* out = alloc_array<T>(count);
    for (std::size_t i = 0; i < count; ++i) out[i] = fill;
    return out;
  }

  // ---- Instrumentation (the zero-allocation test hook) --------------------

  /// Number of heap blocks ever acquired.  A steady-state solver call must
  /// leave this unchanged — tests warm the arena once, snapshot this
  /// counter, run again and assert equality.
  std::uint64_t heap_block_allocs() const { return heap_block_allocs_; }

  /// Total bytes of heap capacity owned by the arena.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// Bytes currently handed out (bump position, includes alignment pad and
  /// the full size of every block before the current one).
  std::size_t bytes_in_use() const { return prefix_bytes_ + used_; }

  /// Largest bytes_in_use() seen since construction / reset_high_water().
  /// PartitionService samples this per job for the arena_bytes_peak
  /// counter.  Note the value depends on the arena's block-boundary
  /// history (padding, skipped block tails), so it is a capacity signal,
  /// not a deterministic function of the solve.
  std::size_t high_water_bytes() const { return high_water_; }

  /// Restart high-water tracking from the current frontier.
  void reset_high_water() { high_water_ = prefix_bytes_ + used_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void add_block(std::size_t min_bytes) {
    std::size_t size = blocks_.empty() ? kMinBlock : blocks_.back().size * 2;
    if (size < min_bytes) size = min_bytes;
    blocks_.push_back({std::make_unique<std::byte[]>(size), size});
#if defined(TGP_ARENA_ASAN)
    ASAN_POISON_MEMORY_REGION(blocks_.back().data.get(), size);
#endif
    ++heap_block_allocs_;
    cur_ = blocks_.size() - 1;
    used_ = 0;
  }

  // Hands out `bytes` at offset `off` of the current block; under ASan the
  // kRedzone bytes after them stay poisoned.
  void* hand_out(std::size_t off, std::size_t bytes) {
    std::byte* p = blocks_[cur_].data.get() + off;
#if defined(TGP_ARENA_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
    used_ = off + bytes + kRedzone;
    bump_high_water();
    return p;
  }

  // Poisons everything from (block, used) up to the frontier, which is
  // about to move back there: what lies past the frontier is already
  // poisoned.
  void poison_back_to(std::size_t block, std::size_t used) {
#if defined(TGP_ARENA_ASAN)
    for (std::size_t b = block; b <= cur_ && b < blocks_.size(); ++b) {
      const std::size_t from = b == block ? used : 0;
      const std::size_t to = b == cur_ ? used_ : blocks_[b].size;
      if (to > from) ASAN_POISON_MEMORY_REGION(blocks_[b].data.get() + from,
                                               to - from);
    }
#else
    (void)block;
    (void)used;
#endif
  }

  void bump_high_water() {
    const std::size_t in_use = prefix_bytes_ + used_;
    if (in_use > high_water_) high_water_ = in_use;
  }

  static constexpr std::size_t kMinBlock = std::size_t{1} << 16;  // 64 KiB
#if defined(TGP_ARENA_ASAN)
  static constexpr std::size_t kRedzone = 32;
#else
  static constexpr std::size_t kRedzone = 0;
#endif

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;   // block currently bumped into
  std::size_t used_ = 0;  // bump offset inside blocks_[cur_]
  std::size_t prefix_bytes_ = 0;  // sum of blocks_[0..cur_).size
  std::size_t high_water_ = 0;
  std::uint64_t heap_block_allocs_ = 0;
};

/// One solver invocation's scratch frame.  Solvers accept an optional
/// `util::Arena*`; a null pointer falls back to a per-thread arena so
/// every caller gets steady-state heap-free scratch without wiring one
/// through.  The frame releases its checkpoint on scope exit — including
/// exception unwind from cancellation — so nested solver calls compose.
class ScratchFrame {
 public:
  explicit ScratchFrame(Arena* opt)
      : arena_(opt != nullptr ? *opt : thread_arena()),
        marker_(arena_.mark()) {}
  ~ScratchFrame() { arena_.release(marker_); }

  ScratchFrame(const ScratchFrame&) = delete;
  ScratchFrame& operator=(const ScratchFrame&) = delete;

  Arena& arena() { return arena_; }
  Arena* operator->() { return &arena_; }

  static Arena& thread_arena() {
    static thread_local Arena arena;
    return arena;
  }

 private:
  Arena& arena_;
  Arena::Marker marker_;
};

/// Minimal growable array over arena storage — for hot loops that collect
/// an unknown number of elements (cut edges, pruned children).  Growth
/// copies into a fresh arena array; the abandoned storage is reclaimed by
/// the caller's next release().  Not a std container: no destructors, no
/// exception guarantees beyond the arena's.
template <typename T>
class ArenaVector {
 public:
  ArenaVector(Arena& arena, std::size_t initial_capacity = 0)
      : arena_(&arena) {
    if (initial_capacity > 0) {
      data_ = arena_->alloc_array<T>(initial_capacity);
      cap_ = initial_capacity;
    }
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }

  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

 private:
  void grow() {
    std::size_t next = cap_ == 0 ? 8 : cap_ * 2;
    T* bigger = arena_->alloc_array<T>(next);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = data_[i];
    data_ = bigger;
    cap_ = next;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace tgp::util
