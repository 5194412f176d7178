/**
 * @file
 * The one memo type: a thread-safe LRU keyed by a 64-bit content hash.
 *
 * Every memo in the stack is an instance of ContentLru — the
 * estimation engine's energy cache and compile memo (private or hoisted
 * into a session / sweep / daemon instance), and the sweep chunk-plan
 * memo in sim/lane_sweep. Values are pure functions of their key, so a
 * hit, a miss that re-computes, and an insert that loses a race all
 * hand the caller the same bits.
 */

#ifndef EFTVQA_COMMON_CONTENT_LRU_HPP
#define EFTVQA_COMMON_CONTENT_LRU_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace eftvqa {

/**
 * Thread-safe LRU of @p V keyed by content hash. Callers compute the
 * value outside the cache (after a miss) and insert it; concurrent
 * computations of one key resolve first-writer-wins, so every caller
 * ends up holding the resident value.
 */
template <typename V>
class ContentLru
{
  public:
    /** @p capacity entries; must be > 0 (a cache with no storage would
     *  miss on every lookup — leave the cache out instead). */
    explicit ContentLru(size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0)
            throw std::invalid_argument(
                "ContentLru.capacity: must be > 0 (a cache with no "
                "storage would miss on every lookup; drop the cache "
                "instead of zeroing it)");
    }

    ContentLru(const ContentLru &) = delete;
    ContentLru &operator=(const ContentLru &) = delete;

    /** Copy of the entry for @p key, moved to the front; counts one
     *  hit, or one miss when absent. */
    std::optional<V> find(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end()) {
            ++misses_;
            return std::nullopt;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return it->second->value;
    }

    /**
     * Insert @p value under @p key unless the key is resident (first
     * writer wins), evicting the least recently used entry on overflow.
     * Returns the resident value: @p value on a successful insert, the
     * earlier writer's when the key raced in.
     */
    V insert(uint64_t key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it != index_.end())
            return it->second->value;
        lru_.push_front(Entry{key, std::move(value)});
        index_[key] = lru_.begin();
        if (lru_.size() > capacity_) {
            index_.erase(lru_.back().key);
            lru_.pop_back();
        }
        return lru_.front().value;
    }

    size_t hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    size_t misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return lru_.size();
    }

    size_t capacity() const { return capacity_; }

    /** Drop every entry (counters survive). */
    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lru_.clear();
        index_.clear();
    }

  private:
    struct Entry
    {
        uint64_t key;
        V value;
    };

    mutable std::mutex mutex_;
    const size_t capacity_;
    // Front = most recently used; the index points into the list.
    std::list<Entry> lru_;
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator>
        index_;
    size_t hits_ = 0;
    size_t misses_ = 0;
};

} // namespace eftvqa

#endif // EFTVQA_COMMON_CONTENT_LRU_HPP
