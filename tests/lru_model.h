/**
 * @file
 * Reference model for exact LRU replacement, shared by the tests of
 * support::FlatLru and of the TLB and tag cache built on it: a
 * std::list of keys, most recently used first.
 */

#ifndef CHERI_TESTS_LRU_MODEL_H
#define CHERI_TESTS_LRU_MODEL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <vector>

namespace cheri::testing
{

struct ListLruModel
{
    std::list<std::uint64_t> lru; ///< keys, most recently used first
    std::size_t capacity = 0;
    std::uint64_t hits = 0, misses = 0, refills = 0, evictions = 0;

    /**
     * Look key up: a hit moves it to the front; a miss that fills
     * inserts it there, evicting the back first when full (a
     * zero-capacity table still holds the key just filled). Returns
     * whether it hit.
     */
    bool
    access(std::uint64_t key, bool fill = true)
    {
        auto it = std::find(lru.begin(), lru.end(), key);
        if (it != lru.end()) {
            ++hits;
            lru.splice(lru.begin(), lru, it);
            return true;
        }
        ++misses;
        if (!fill)
            return false;
        ++refills;
        if (lru.size() >= capacity && !lru.empty()) {
            lru.pop_back();
            ++evictions;
        }
        lru.push_front(key);
        return false;
    }

    void drop(std::uint64_t key) { lru.remove(key); }

    std::vector<std::uint64_t>
    order() const
    {
        return std::vector<std::uint64_t>(lru.begin(), lru.end());
    }
};

} // namespace cheri::testing

#endif // CHERI_TESTS_LRU_MODEL_H
