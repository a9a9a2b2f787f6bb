#include "tensor/arena.h"

#include <atomic>
#include <cstdlib>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/annotations.h"

namespace aib::arena {

// --------------------------------------------------------------------
// FirstFitLayout

bool
FirstFitLayout::fits(std::size_t offset, std::size_t bytes) const
{
    if (capacity_ != npos && (offset > capacity_ || bytes > capacity_ - offset))
        return false;
    // Predecessor block must end at or before `offset`.
    auto next = blocks_.upper_bound(offset);
    if (next != blocks_.begin()) {
        auto prev = std::prev(next);
        if (prev->first + alignUp(prev->second) > offset)
            return false;
    }
    // Successor block must start at or after the new end.
    if (next != blocks_.end() && next->first < offset + bytes)
        return false;
    return true;
}

void
FirstFitLayout::place(std::size_t offset, std::size_t bytes)
{
    blocks_.emplace(offset, bytes);
    live_bytes_ += bytes;
    if (offset + bytes > high_water_)
        high_water_ = offset + bytes;
}

std::size_t
FirstFitLayout::reserve(std::size_t bytes)
{
    if (bytes == 0)
        bytes = 1; // distinct address per zero-byte request
    // Walk the gaps in offset order: before the first block, between
    // consecutive blocks, and after the last one.
    std::size_t candidate = 0;
    for (const auto &[offset, size] : blocks_) {
        if (candidate + bytes <= offset && fits(candidate, bytes)) {
            place(candidate, bytes);
            return candidate;
        }
        candidate = alignUp(offset + size);
    }
    if (!fits(candidate, bytes))
        return npos;
    place(candidate, bytes);
    return candidate;
}

bool
FirstFitLayout::reserveAt(std::size_t offset, std::size_t bytes)
{
    if (bytes == 0)
        bytes = 1;
    if (offset % kAlignment != 0 || !fits(offset, bytes))
        return false;
    place(offset, bytes);
    return true;
}

void
FirstFitLayout::release(std::size_t offset)
{
    auto it = blocks_.find(offset);
    if (it == blocks_.end())
        return;
    live_bytes_ -= it->second;
    blocks_.erase(it);
}

std::size_t
FirstFitLayout::blockSize(std::size_t offset) const
{
    auto it = blocks_.find(offset);
    return it == blocks_.end() ? npos : it->second;
}

// --------------------------------------------------------------------
// Process-wide arena

namespace {

/** One mapped slab. Retired slabs linger until their blocks drain. */
struct Slab {
    char *base = nullptr;
    std::size_t capacity = 0;
    std::size_t liveBlocks = 0;
    bool retired = false;
};

class Arena
{
  public:
    void
    configure(std::size_t capacity_bytes) AIB_EXCLUDES(mutex_)
    {
        core::MutexLock lock(mutex_);
        if (!slabs_.empty() && !slabs_.back().retired) {
            Slab &cur = slabs_.back();
            if (cur.capacity == capacity_bytes && layout_.empty())
                return; // same size, nothing live: keep the mapping
            if (cur.liveBlocks == 0) {
                ::operator delete(cur.base, std::align_val_t{kAlignment});
                slabs_.pop_back();
            } else {
                cur.retired = true;
            }
        }
        Slab slab;
        slab.capacity = capacity_bytes;
        if (capacity_bytes > 0)
            slab.base = static_cast<char *>(::operator new(
                capacity_bytes, std::align_val_t{kAlignment}));
        slabs_.push_back(slab);
        layout_ = FirstFitLayout(capacity_bytes);
        stats_.capacityBytes = capacity_bytes;
        stats_.highWaterBytes = 0;
    }

    void *
    allocate(std::size_t bytes) AIB_EXCLUDES(mutex_)
    {
        {
            core::MutexLock lock(mutex_);
            if (!slabs_.empty() && !slabs_.back().retired) {
                std::size_t offset = layout_.reserve(bytes);
                if (offset != FirstFitLayout::npos) {
                    Slab &cur = slabs_.back();
                    ++cur.liveBlocks;
                    ++stats_.arenaAllocs;
                    stats_.arenaAllocBytes += bytes;
                    stats_.highWaterBytes = layout_.highWater();
                    return cur.base + offset;
                }
            }
            ++stats_.heapFallbackAllocs;
            stats_.heapFallbackBytes += bytes;
        }
        // Plain new so every heap-owned pointer, fallback or not, is
        // freed the same way in deallocate()/deallocateRouted().
        return ::operator new(bytes);
    }

    void *
    allocateAt(std::size_t offset, std::size_t bytes) AIB_EXCLUDES(mutex_)
    {
        core::MutexLock lock(mutex_);
        if (slabs_.empty() || slabs_.back().retired)
            throw std::bad_alloc();
        if (!layout_.reserveAt(offset, bytes))
            throw std::bad_alloc();
        Slab &cur = slabs_.back();
        ++cur.liveBlocks;
        ++stats_.arenaAllocs;
        stats_.arenaAllocBytes += bytes;
        stats_.highWaterBytes = layout_.highWater();
        return cur.base + offset;
    }

    /** Frees @p p if any slab owns it; false means caller's pointer. */
    bool
    tryDeallocate(void *p) AIB_EXCLUDES(mutex_)
    {
        core::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < slabs_.size(); ++i) {
            Slab &slab = slabs_[i];
            const char *c = static_cast<const char *>(p);
            if (slab.base == nullptr || c < slab.base ||
                c >= slab.base + slab.capacity)
                continue;
            if (!slab.retired && i + 1 == slabs_.size())
                layout_.release(static_cast<std::size_t>(c - slab.base));
            if (slab.liveBlocks > 0)
                --slab.liveBlocks;
            if (slab.retired && slab.liveBlocks == 0) {
                ::operator delete(slab.base, std::align_val_t{kAlignment});
                slabs_.erase(slabs_.begin() +
                             static_cast<std::ptrdiff_t>(i));
            }
            return true;
        }
        return false;
    }

    bool
    owns(const void *p) AIB_EXCLUDES(mutex_)
    {
        core::MutexLock lock(mutex_);
        const char *c = static_cast<const char *>(p);
        for (const Slab &slab : slabs_)
            if (slab.base != nullptr && c >= slab.base &&
                c < slab.base + slab.capacity)
                return true;
        return false;
    }

    Stats
    stats() AIB_EXCLUDES(mutex_)
    {
        core::MutexLock lock(mutex_);
        Stats out = stats_;
        out.liveBytes = layout_.liveBytes();
        out.liveBlocks = 0;
        for (const Slab &slab : slabs_)
            out.liveBlocks += slab.liveBlocks;
        return out;
    }

    void
    resetStats() AIB_EXCLUDES(mutex_)
    {
        core::MutexLock lock(mutex_);
        std::size_t capacity = stats_.capacityBytes;
        stats_ = Stats{};
        stats_.capacityBytes = capacity;
        stats_.highWaterBytes = layout_.liveBytes() > 0
            ? layout_.highWater()
            : 0;
    }

  private:
    core::Mutex mutex_;
    std::vector<Slab> slabs_ AIB_GUARDED_BY(mutex_);
    /** Placement bookkeeping for the active (last, non-retired) slab. */
    FirstFitLayout layout_ AIB_GUARDED_BY(mutex_){0};
    Stats stats_ AIB_GUARDED_BY(mutex_);
};

/** Leaked: tensor storage may outlive static destruction order. */
Arena &
instance()
{
    static Arena *arena = new Arena();
    return *arena;
}

std::atomic<bool> g_enabled{false};
/** Sticky: once any block may live in a slab, frees must check it. */
std::atomic<bool> g_ever_enabled{false};

} // namespace

void
configure(std::size_t capacity_bytes)
{
    g_ever_enabled.store(true, std::memory_order_release);
    instance().configure(capacity_bytes);
}

void
setEnabled(bool on)
{
    if (on)
        g_ever_enabled.store(true, std::memory_order_release);
    g_enabled.store(on, std::memory_order_release);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_acquire);
}

Stats
stats()
{
    return instance().stats();
}

void
resetStats()
{
    instance().resetStats();
}

bool
owns(const void *p)
{
    if (!g_ever_enabled.load(std::memory_order_acquire))
        return false;
    return instance().owns(p);
}

void *
allocate(std::size_t bytes)
{
    return instance().allocate(bytes);
}

void
deallocate(void *p, std::size_t /*bytes*/) noexcept
{
    if (!instance().tryDeallocate(p))
        ::operator delete(p);
}

void *
allocateAt(std::size_t offset, std::size_t bytes)
{
    return instance().allocateAt(offset, bytes);
}

namespace detail {

namespace {

/**
 * Pin glibc's mmap and trim thresholds (see the file comment in
 * arena.h). Setting either one turns off glibc's dynamic adjustment
 * of both; the mmap threshold is glibc's own dynamic maximum.
 */
bool
pinHeapPolicy()
{
#if defined(__GLIBC__)
    constexpr int kMmapThreshold = 32 << 20;
    constexpr int kTrimThreshold = 64 << 20;
    mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
    mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
#endif
    return true;
}

} // namespace

void *
allocateRouted(std::size_t bytes)
{
    [[maybe_unused]] static const bool pinned = pinHeapPolicy();
    if (enabled())
        return instance().allocate(bytes);
    return ::operator new(bytes);
}

void
deallocateRouted(void *p, std::size_t /*bytes*/) noexcept
{
    if (p == nullptr)
        return;
    // Fast path: the arena has never been touched in this process, so
    // no block can live in a slab and we skip the mutex entirely.
    if (g_ever_enabled.load(std::memory_order_acquire) &&
        instance().tryDeallocate(p))
        return;
    ::operator delete(p);
}

} // namespace detail

} // namespace aib::arena
