/**
 * @file
 * A software page table mapping virtual to physical pages, with the
 * CHERI page-table-entry extension: per-page bits authorizing
 * capability loads and capability stores (Sections 4.3 and 6.1). The
 * OS uses these to implement revocation and to share memory between
 * processes without creating a capability channel.
 */

#ifndef CHERI_TLB_PAGE_TABLE_H
#define CHERI_TLB_PAGE_TABLE_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace cheri::tlb
{

/** Page size; 4 KB, the common MMU minimum the paper contrasts with. */
constexpr std::uint64_t kPageBytes = 4096;

/** Per-page protection and the CHERI capability-authorization bits. */
struct PteFlags
{
    bool readable = true;
    bool writable = true;
    bool executable = true;
    /** CHERI extension: page may be the source of capability loads. */
    bool cap_load = true;
    /** CHERI extension: page may be the target of capability stores. */
    bool cap_store = true;
};

/** One page-table entry. */
struct Pte
{
    std::uint64_t pfn = 0; ///< physical frame number
    PteFlags flags;
};

/**
 * The per-address-space page table walked on TLB refill. Sparse:
 * unmapped virtual pages simply have no entry.
 *
 * Stored flat: one vector of (vpn, Pte) pairs sorted by vpn. A lookup
 * is a binary search, but lookups only happen on a TLB refill; what
 * the flat layout buys is that copying a table (Machine::fork) is one
 * block copy and freeing it one deallocation. Loaders map ascending
 * ranges, so a map() usually appends.
 */
class PageTable
{
  public:
    /** One mapping. */
    using Entry = std::pair<std::uint64_t, Pte>;

    /** Map virtual page vpn to physical frame pfn with flags; a
     *  mapped vpn is overwritten in place. */
    void map(std::uint64_t vpn, std::uint64_t pfn, PteFlags flags = {});

    /** Remove the mapping for vpn (revocation, unmap); no-op when
     *  unmapped. */
    void unmap(std::uint64_t vpn);

    /** Look up vpn; nullopt when unmapped. */
    std::optional<Pte> lookup(std::uint64_t vpn) const;

    /** Update flags of an existing mapping; false when unmapped. */
    bool protect(std::uint64_t vpn, PteFlags flags);

    /** Number of mappings. */
    std::size_t size() const { return entries_.size(); }

    /** All mappings, captured for machine checkpointing. */
    struct Snapshot
    {
        /** Sorted by vpn, as the table stores them. */
        std::vector<Entry> entries;
    };

    /** Capture all mappings. */
    Snapshot save() const { return Snapshot{entries_}; }

    /**
     * Restore all mappings (the TLB is restored by its owner). Takes
     * the snapshot by value and moves from it, so a caller handing
     * over a temporary (Machine::fork) copies the table only once.
     */
    void
    restore(Snapshot snapshot)
    {
        entries_ = std::move(snapshot.entries);
    }

  private:
    /** First entry whose vpn is not below vpn. */
    std::vector<Entry>::iterator find(std::uint64_t vpn);
    std::vector<Entry>::const_iterator find(std::uint64_t vpn) const;

    std::vector<Entry> entries_;
};

} // namespace cheri::tlb

#endif // CHERI_TLB_PAGE_TABLE_H
