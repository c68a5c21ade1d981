/**
 * @file
 * Exact LRU replacement over keyed entries without node containers,
 * shared by the TLB and the tag cache. Entries live in one vector
 * whose capacity is reserved at construction, recency is a doubly
 * linked list threaded through the entries by 32-bit positions, and a
 * hash index maps a key to its position. A hit, a fill, an eviction
 * and an erase each cost O(1); walking most-recently-used first
 * follows the links.
 */

#ifndef CHERI_SUPPORT_FLAT_LRU_H
#define CHERI_SUPPORT_FLAT_LRU_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cheri::support
{

/** Value type for an LRU that only tracks which keys are present. */
struct NoValue
{
};

/**
 * A fixed-capacity, exactly LRU-replaced set of (key, value) entries.
 * A fill into a full table evicts the least recently used entry and
 * reuses its slot; a zero-capacity table still holds the entry just
 * filled. Entry pointers stay valid until that entry is evicted or
 * erased, or the table is cleared, assigned or appended to past its
 * capacity: fills never reallocate, and an erase leaves every other
 * entry in place.
 */
template <typename Key, typename Value = NoValue>
class FlatLru
{
  public:
    struct Entry
    {
        Key key{};
        Value value{};
        // Recency links (positions in slots_; kNil ends the list).
        // Free slots chain through next.
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    explicit FlatLru(std::size_t capacity) : capacity_(capacity)
    {
        slots_.reserve(std::max<std::size_t>(capacity, 1));
    }

    std::size_t size() const { return index_.size(); }

    /** The entry for key, or nullptr. No recency change. */
    Entry *
    find(const Key &key)
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &slots_[it->second];
    }

    const Entry *
    find(const Key &key) const
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &slots_[it->second];
    }

    /** Make a live entry the most recently used. Inline: every TLB
     *  and tag-cache hit runs this. */
    void
    touch(Entry &entry)
    {
        std::uint32_t pos = positionOf(entry);
        std::uint32_t head = head_;
        if (pos == head)
            return;
        // Not the head, so it has a predecessor. Locals keep the
        // compiler from reloading head_ after each link store.
        Entry *slots = slots_.data();
        std::uint32_t prev = entry.prev, next = entry.next;
        slots[prev].next = next;
        if (next != kNil)
            slots[next].prev = prev;
        else
            tail_ = prev;
        entry.prev = kNil;
        entry.next = head;
        slots[head].prev = pos;
        head_ = pos;
    }

    /** What a fill did: the new entry, and whether it evicted. */
    struct Fill
    {
        Entry *entry;
        bool evicted;
    };

    /**
     * Insert key (not present) as the most recently used entry,
     * evicting the least recently used one if the table is full.
     */
    Fill
    insert(const Key &key, const Value &value)
    {
        bool evicted = size() >= capacity_ && size() > 0;
        std::uint32_t pos;
        if (evicted) {
            pos = tail_;
            unlink(pos);
            index_.erase(slots_[pos].key);
        } else if (free_ != kNil) {
            pos = free_;
            free_ = slots_[pos].next;
        } else {
            pos = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Entry &entry = slots_[pos];
        entry.key = key;
        entry.value = value;
        linkFront(pos);
        index_.emplace(key, pos);
        return {&entry, evicted};
    }

    /**
     * Append key (not present) as the least recently used entry, with
     * no eviction: restoring a saved MRU-first order appends in turn.
     */
    void
    append(const Key &key, const Value &value)
    {
        std::uint32_t pos;
        if (free_ != kNil) {
            pos = free_;
            free_ = slots_[pos].next;
        } else {
            pos = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Entry &entry = slots_[pos];
        entry.key = key;
        entry.value = value;
        entry.prev = tail_;
        entry.next = kNil;
        if (tail_ != kNil)
            slots_[tail_].next = pos;
        else
            head_ = pos;
        tail_ = pos;
        index_.emplace(key, pos);
    }

    /** Drop key's entry; returns whether it was present. */
    bool
    erase(const Key &key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return false;
        std::uint32_t pos = it->second;
        index_.erase(it);
        unlink(pos);
        slots_[pos].next = free_;
        free_ = pos;
        return true;
    }

    /** Drop every entry (the reserved capacity stays). */
    void
    clear()
    {
        slots_.clear();
        index_.clear();
        head_ = tail_ = free_ = kNil;
    }

    /** Call fn(entry) for each entry, most recently used first. */
    template <typename Fn>
    void
    forEachMruFirst(Fn &&fn) const
    {
        for (std::uint32_t pos = head_; pos != kNil; pos = slots_[pos].next)
            fn(slots_[pos]);
    }

  private:
    static constexpr std::uint32_t kNil = ~0U;

    std::uint32_t
    positionOf(const Entry &entry) const
    {
        return static_cast<std::uint32_t>(&entry - slots_.data());
    }

    void
    unlink(std::uint32_t pos)
    {
        Entry &entry = slots_[pos];
        if (entry.prev != kNil)
            slots_[entry.prev].next = entry.next;
        else
            head_ = entry.next;
        if (entry.next != kNil)
            slots_[entry.next].prev = entry.prev;
        else
            tail_ = entry.prev;
    }

    void
    linkFront(std::uint32_t pos)
    {
        Entry &entry = slots_[pos];
        entry.prev = kNil;
        entry.next = head_;
        if (head_ != kNil)
            slots_[head_].prev = pos;
        else
            tail_ = pos;
        head_ = pos;
    }

    std::size_t capacity_;
    /** Live and free entries; positions are stable. */
    std::vector<Entry> slots_;
    /** key -> position in slots_. */
    std::unordered_map<Key, std::uint32_t> index_;
    std::uint32_t head_ = kNil; ///< most recently used
    std::uint32_t tail_ = kNil; ///< least recently used
    std::uint32_t free_ = kNil; ///< erased slots awaiting reuse
};

} // namespace cheri::support

#endif // CHERI_SUPPORT_FLAT_LRU_H
