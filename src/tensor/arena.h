/**
 * @file
 * Static arena allocator for tensor storage.
 *
 * The arena enacts the first-fit buffer plan the graph optimizer
 * derives from captured-graph liveness (docs/GRAPHOPT.md): one slab,
 * 64-byte-aligned first-fit placement, O(live blocks) bookkeeping.
 * TensorImpl storage routes through TensorAllocator, which serves
 * from the arena while it is enabled and falls back to the heap when
 * the slab is exhausted (counted, never failing), so enabling the
 * arena can change *placement* but never values or liveness.
 *
 * The placement policy lives in FirstFitLayout, pure bookkeeping with
 * no memory attached, so the optimizer's capacity simulation and the
 * runtime allocator share one implementation and the simulated
 * high-water mark is exact by construction.
 *
 * Heap policy. The first routed allocation pins glibc's mmap
 * threshold (32 MiB) and trim threshold (64 MiB). Under glibc's
 * dynamic defaults a training step's 128 KiB-0.5 MiB tensor buffers
 * were either mmapped or left at the heap top and trimmed on free, so
 * every step mapped and zero-faulted them again: 11,000-23,000 minor
 * page faults per DC-AI-C9 epoch at 2 threads. With both thresholds
 * pinned the freed pages stay in the heap and a steady-state epoch
 * takes almost none (tests/tensor/test_heap_policy.cc); pinning only
 * one of the two does not help. The cost is memory the heap no longer
 * returns: peak RSS rose 2-4% on the benchmark workloads.
 */

#ifndef AIB_TENSOR_ARENA_H
#define AIB_TENSOR_ARENA_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <new>

namespace aib::arena {

/** Block alignment of every arena placement. */
inline constexpr std::size_t kAlignment = 64;

/** @p v rounded up to the arena alignment. */
inline constexpr std::size_t
alignUp(std::size_t v)
{
    return (v + kAlignment - 1) & ~(kAlignment - 1);
}

/**
 * First-fit address-space bookkeeping: allocated [offset, offset+size)
 * blocks over [0, capacity). No memory is attached; the runtime arena
 * and the planner's capacity simulation both drive this class, so
 * their placement decisions are identical by construction.
 */
class FirstFitLayout
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};

    /** @p capacity bounds placements; npos means unbounded. */
    explicit FirstFitLayout(std::size_t capacity = npos)
        : capacity_(capacity)
    {
    }

    /**
     * Place @p bytes at the lowest aligned offset that fits between
     * existing blocks (and under the capacity). Returns the offset,
     * or npos when no gap is large enough.
     */
    std::size_t reserve(std::size_t bytes);

    /**
     * Place @p bytes at exactly @p offset (plan enactment). Fails when
     * the range collides with a live block or exceeds the capacity.
     */
    bool reserveAt(std::size_t offset, std::size_t bytes);

    /** Release the block starting at @p offset (must exist). */
    void release(std::size_t offset);

    /** Size of the block at @p offset, or npos if none. */
    std::size_t blockSize(std::size_t offset) const;

    /** Max end offset of any block ever placed. */
    std::size_t highWater() const { return high_water_; }
    /** Sum of currently placed block sizes (as requested, unpadded). */
    std::size_t liveBytes() const { return live_bytes_; }
    std::size_t liveBlocks() const { return blocks_.size(); }
    bool empty() const { return blocks_.empty(); }

  private:
    std::size_t capacity_;
    /** offset -> requested size, sorted by offset. */
    std::map<std::size_t, std::size_t> blocks_;
    std::size_t high_water_ = 0;
    std::size_t live_bytes_ = 0;

    bool fits(std::size_t offset, std::size_t bytes) const;
    void place(std::size_t offset, std::size_t bytes);
};

/** Counters of the process-wide arena. */
struct Stats {
    /** Active slab capacity in bytes (0 until configure()). */
    std::size_t capacityBytes = 0;
    /** Bytes currently placed in the active slab. */
    std::size_t liveBytes = 0;
    /** Max end offset reached in the active slab since resetStats(). */
    std::size_t highWaterBytes = 0;
    /** Blocks currently live across all (incl. retired) slabs. */
    std::uint64_t liveBlocks = 0;
    /** Allocations served from the slab since resetStats(). */
    std::uint64_t arenaAllocs = 0;
    std::uint64_t arenaAllocBytes = 0;
    /** Heap fallbacks while enabled (slab full) since resetStats(). */
    std::uint64_t heapFallbackAllocs = 0;
    std::uint64_t heapFallbackBytes = 0;
};

/**
 * (Re)size the arena slab. A current slab that still holds live
 * blocks is retired — kept alive until its last block is freed — so
 * reconfiguring never invalidates outstanding tensor storage.
 */
void configure(std::size_t capacity_bytes);

/**
 * Route subsequent TensorAllocator allocations through the arena.
 * Frees of arena-owned blocks work regardless of this switch.
 */
void setEnabled(bool on);
bool enabled();

Stats stats();
/** Zero the counters and the high-water mark (live blocks persist). */
void resetStats();

/** True when @p p points into any arena slab (active or retired). */
bool owns(const void *p);

/**
 * Allocate @p bytes from the active slab (first-fit) or, when the
 * slab is exhausted or the arena is disabled, from the heap
 * (fallback counted while enabled). Never returns nullptr.
 */
void *allocate(std::size_t bytes);

/** Free a block from allocate()/allocateAt(); heap blocks excluded. */
void deallocate(void *p, std::size_t bytes) noexcept;

/**
 * Reserve exactly [offset, offset+bytes) in the active slab (plan
 * enactment). Throws std::bad_alloc on collision or overflow.
 */
void *allocateAt(std::size_t offset, std::size_t bytes);

namespace detail {

/** TensorAllocator backend: arena when enabled, else operator new. */
void *allocateRouted(std::size_t bytes);
/** Matching release; checks arena ownership before heap delete. */
void deallocateRouted(void *p, std::size_t bytes) noexcept;

} // namespace detail

/**
 * Allocator for TensorImpl storage. Stateless: all instances are
 * interchangeable, and routing is decided per-allocation by the
 * process-wide arena switch.
 */
template <class T> struct TensorAllocator {
    using value_type = T;

    TensorAllocator() = default;
    template <class U>
    TensorAllocator(const TensorAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(detail::allocateRouted(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        detail::deallocateRouted(p, n * sizeof(T));
    }

    friend bool
    operator==(const TensorAllocator &, const TensorAllocator &)
    {
        return true;
    }
    friend bool
    operator!=(const TensorAllocator &, const TensorAllocator &)
    {
        return false;
    }
};

} // namespace aib::arena

#endif // AIB_TENSOR_ARENA_H
