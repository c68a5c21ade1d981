/**
 * @file
 * Unit tests for the page table and TLB, including the CHERI PTE
 * extension bits that gate capability loads and stores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "lru_model.h"
#include "tlb/page_table.h"
#include "tlb/tlb.h"

namespace cheri::tlb
{
namespace
{

PteFlags
flagsAll()
{
    return PteFlags{};
}

TEST(PageTable, MapLookupUnmap)
{
    PageTable table;
    EXPECT_FALSE(table.lookup(5).has_value());
    table.map(5, 100);
    auto pte = table.lookup(5);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->pfn, 100u);
    table.unmap(5);
    EXPECT_FALSE(table.lookup(5).has_value());
}

TEST(PageTable, ProtectUpdatesFlags)
{
    PageTable table;
    table.map(1, 2);
    PteFlags flags;
    flags.writable = false;
    EXPECT_TRUE(table.protect(1, flags));
    EXPECT_FALSE(table.lookup(1)->flags.writable);
    EXPECT_FALSE(table.protect(9, flags));
}

TEST(PageTable, RandomInsertOrderMatchesSortedOrder)
{
    // The flat table keeps its entries sorted whatever order map()
    // sees them in; lookups must not depend on that order.
    std::vector<std::uint64_t> vpns;
    for (std::uint64_t i = 0; i < 300; ++i)
        vpns.push_back(i * 7 + (i % 3)); // gaps, not one dense run
    PageTable ordered;
    for (std::uint64_t vpn : vpns)
        ordered.map(vpn, vpn + 1000);
    std::vector<std::uint64_t> shuffled = vpns;
    std::mt19937_64 rng(1234);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    PageTable random;
    for (std::uint64_t vpn : shuffled)
        random.map(vpn, vpn + 1000);

    EXPECT_EQ(random.size(), ordered.size());
    for (std::uint64_t vpn = 0; vpn < vpns.back() + 10; ++vpn) {
        std::optional<Pte> a = ordered.lookup(vpn);
        std::optional<Pte> b = random.lookup(vpn);
        ASSERT_EQ(a.has_value(), b.has_value()) << vpn;
        if (a) {
            EXPECT_EQ(a->pfn, b->pfn) << vpn;
        }
    }
}

TEST(PageTable, RemapOverwritesInPlace)
{
    PageTable table;
    table.map(3, 30);
    table.map(9, 90);
    table.map(5, 50);
    ASSERT_EQ(table.size(), 3u);
    PteFlags flags;
    flags.cap_store = false;
    table.map(5, 55, flags); // middle entry
    table.map(9, 99);        // last entry
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.lookup(5)->pfn, 55u);
    EXPECT_FALSE(table.lookup(5)->flags.cap_store);
    EXPECT_EQ(table.lookup(9)->pfn, 99u);
    EXPECT_EQ(table.lookup(3)->pfn, 30u);
}

TEST(PageTable, UnmapAndProtectOfAbsentVpn)
{
    PageTable table;
    table.unmap(4); // empty table
    EXPECT_FALSE(table.protect(4, PteFlags{}));
    table.map(2, 20);
    table.map(6, 60);
    table.unmap(4);  // between two entries
    table.unmap(1);  // below the first
    table.unmap(99); // past the last
    EXPECT_FALSE(table.protect(4, PteFlags{}));
    EXPECT_FALSE(table.protect(99, PteFlags{}));
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.lookup(2)->pfn, 20u);
    EXPECT_EQ(table.lookup(6)->pfn, 60u);
    EXPECT_FALSE(table.lookup(4).has_value());
}

TEST(PageTable, SnapshotRoundTrip)
{
    PageTable table;
    for (std::uint64_t vpn : {40u, 10u, 30u, 20u})
        table.map(vpn, vpn * 2);
    PteFlags ro;
    ro.writable = false;
    table.protect(30, ro);
    PageTable::Snapshot snapshot = table.save();

    // Diverge, then roll back.
    table.unmap(10);
    table.map(50, 1);
    table.map(20, 7);
    table.restore(snapshot);
    EXPECT_EQ(table.size(), 4u);
    EXPECT_EQ(table.lookup(10)->pfn, 20u);
    EXPECT_EQ(table.lookup(20)->pfn, 40u);
    EXPECT_FALSE(table.lookup(30)->flags.writable);
    EXPECT_FALSE(table.lookup(50).has_value());

    // A restored copy is independent of the table it came from.
    PageTable copy;
    copy.restore(table.save());
    table.unmap(40);
    EXPECT_EQ(copy.lookup(40)->pfn, 80u);
    EXPECT_EQ(copy.size(), 4u);
}

TEST(Tlb, TranslatesThroughPageTable)
{
    PageTable table;
    table.map(0x10, 0x20, flagsAll());
    Tlb tlb(table);
    TlbResult result =
        tlb.translate(0x10 * kPageBytes + 0x123, Access::kLoad);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.paddr, 0x20 * kPageBytes + 0x123);
}

TEST(Tlb, MissThenHit)
{
    PageTable table;
    table.map(1, 1, flagsAll());
    Tlb tlb(table);

    TlbResult first = tlb.translate(kPageBytes, Access::kLoad);
    EXPECT_TRUE(first.ok());
    EXPECT_GT(first.penalty_cycles, 0u);
    EXPECT_EQ(tlb.stats().get("tlb.misses"), 1u);

    TlbResult second = tlb.translate(kPageBytes + 8, Access::kLoad);
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.penalty_cycles, 0u);
    EXPECT_EQ(tlb.stats().get("tlb.hits"), 1u);
}

TEST(Tlb, UnmappedFaults)
{
    PageTable table;
    Tlb tlb(table);
    TlbResult result = tlb.translate(0x5000, Access::kLoad);
    EXPECT_EQ(result.fault, TlbFault::kNoMapping);
}

TEST(Tlb, PermissionFaults)
{
    PageTable table;
    PteFlags read_only;
    read_only.writable = false;
    read_only.executable = false;
    table.map(0, 0, read_only);
    Tlb tlb(table);

    EXPECT_TRUE(tlb.translate(0, Access::kLoad).ok());
    EXPECT_EQ(tlb.translate(4, Access::kStore).fault,
              TlbFault::kNotWritable);
    EXPECT_EQ(tlb.translate(8, Access::kFetch).fault,
              TlbFault::kNotExecutable);
}

TEST(Tlb, CapabilityPteBitsGateCapAccess)
{
    PageTable table;
    PteFlags no_caps;
    no_caps.cap_load = false;
    no_caps.cap_store = false;
    table.map(0, 0, no_caps);
    Tlb tlb(table);

    // Ordinary data access is unaffected (Section 6.1: shared memory
    // that cannot act as a capability channel).
    EXPECT_TRUE(tlb.translate(0, Access::kLoad).ok());
    EXPECT_TRUE(tlb.translate(0, Access::kStore).ok());
    EXPECT_EQ(tlb.translate(0, Access::kCapLoad).fault,
              TlbFault::kCapLoadDenied);
    EXPECT_EQ(tlb.translate(0, Access::kCapStore).fault,
              TlbFault::kCapStoreDenied);
}

TEST(Tlb, CapacityEviction)
{
    PageTable table;
    for (std::uint64_t vpn = 0; vpn < 10; ++vpn)
        table.map(vpn, vpn, flagsAll());
    Tlb tlb(table, TlbConfig{4, 30});

    // Touch 5 pages; with 4 entries the first one is evicted.
    for (std::uint64_t vpn = 0; vpn < 5; ++vpn)
        tlb.translate(vpn * kPageBytes, Access::kLoad);
    EXPECT_EQ(tlb.stats().get("tlb.misses"), 5u);

    TlbResult result = tlb.translate(0, Access::kLoad);
    EXPECT_TRUE(result.ok());
    EXPECT_GT(result.penalty_cycles, 0u); // refilled again
    EXPECT_EQ(tlb.stats().get("tlb.misses"), 6u);
}

TEST(Tlb, DefaultCoversOneMegabyte)
{
    // 256 entries x 4 KB pages = 1 MB, the Figure 5 knee.
    TlbConfig config;
    EXPECT_EQ(config.entries * kPageBytes, 1024u * 1024u);
}

TEST(Tlb, FlushDropsEntries)
{
    PageTable table;
    table.map(0, 0, flagsAll());
    Tlb tlb(table);
    tlb.translate(0, Access::kLoad);
    tlb.flush();
    TlbResult result = tlb.translate(0, Access::kLoad);
    EXPECT_GT(result.penalty_cycles, 0u);
}

TEST(Tlb, FlushPageIsSelective)
{
    PageTable table;
    table.map(0, 0, flagsAll());
    table.map(1, 1, flagsAll());
    Tlb tlb(table);
    tlb.translate(0, Access::kLoad);
    tlb.translate(kPageBytes, Access::kLoad);

    tlb.flushPage(0);
    EXPECT_EQ(tlb.translate(kPageBytes, Access::kLoad).penalty_cycles,
              0u);
    EXPECT_GT(tlb.translate(0, Access::kLoad).penalty_cycles, 0u);
}

TEST(Tlb, RevocationViaUnmapTakesEffectAfterFlush)
{
    // The OS revocation path (Section 6.1): unmap the page, flush the
    // TLB; stale capabilities then fault on use.
    PageTable table;
    table.map(0, 0, flagsAll());
    Tlb tlb(table);
    EXPECT_TRUE(tlb.translate(0, Access::kLoad).ok());

    table.unmap(0);
    tlb.flush();
    EXPECT_EQ(tlb.translate(0, Access::kLoad).fault,
              TlbFault::kNoMapping);
}

TEST(Tlb, SetTableSwitchesAddressSpace)
{
    PageTable a, b;
    a.map(0, 1, flagsAll());
    b.map(0, 2, flagsAll());
    Tlb tlb(a);
    EXPECT_EQ(tlb.translate(0, Access::kLoad).paddr, kPageBytes);
    tlb.setTable(b);
    EXPECT_EQ(tlb.translate(0, Access::kLoad).paddr, 2 * kPageBytes);
}

/**
 * The TLB replaces exactly like a list LRU. A seeded
 * random drive mixes every path that touches an entry — translate,
 * the fetch hint, data-hint and deferred fetch-hit replays — with
 * misses past capacity, unmapped pages, flushPage, flush, and
 * save/restore (into the same TLB from an older snapshot, and into a
 * fresh one). After each step the MRU order (cachedVpns and the
 * snapshot) and all counters must equal the model's.
 */
TEST(Tlb, LruMatchesListModel)
{
    constexpr unsigned kEntries = 8;
    constexpr std::uint64_t kVpns = 3 * kEntries;
    PageTable table;
    for (std::uint64_t vpn = 0; vpn < kVpns; ++vpn) {
        if (vpn % 7 != 3) // leave a few holes that fault
            table.map(vpn, 100 + vpn, flagsAll());
    }
    auto mapped = [](std::uint64_t vpn) { return vpn % 7 != 3; };

    auto tlb = std::make_unique<Tlb>(table, TlbConfig{kEntries, 30});
    testing::ListLruModel model;
    model.capacity = kEntries;
    Tlb::FetchHint fetch_hint;
    // Refills and evictions as the TLB shows them: a translation that
    // paid the refill penalty, and one that did so without growing
    // the cached set.
    struct Seen
    {
        std::uint64_t refills = 0, evictions = 0;
    } seen;
    struct Saved
    {
        Tlb::Snapshot snapshot;
        testing::ListLruModel model;
        Seen seen;
    };
    std::optional<Saved> saved;
    std::mt19937_64 rng(20140614);

    for (int step = 0; step < 20000; ++step) {
        std::uint64_t vpn = rng() % kVpns;
        std::uint64_t vaddr = vpn * kPageBytes + rng() % kPageBytes;
        std::size_t cached_before = tlb->cachedVpns().size();
        unsigned op = rng() % 100;
        bool translated = false;
        TlbResult result;
        if (op < 50) {
            result = tlb->translate(vaddr, Access::kLoad);
            translated = true;
        } else if (op < 70) {
            result = tlb->translateFetch(vaddr, fetch_hint);
            translated = true;
        } else if (op < 80) {
            Tlb::DataHint hint;
            if (tlb->probeDataHint(vaddr, hint)) {
                tlb->replayHit(hint);
                model.access(vpn);
            }
        } else if (op < 88) {
            Tlb::FetchHint hint;
            if (tlb->probeFetchHint(vaddr, hint) &&
                hint.generation == tlb->generation()) {
                tlb->replayFetchHitLru(hint);
                tlb->applyDeferredFetchHits(1);
                model.access(vpn);
            }
        } else if (op < 94) {
            tlb->flushPage(vaddr);
            model.drop(vpn);
        } else if (op < 95) {
            tlb->flush();
            model.lru.clear();
        } else if (op < 97) {
            saved = Saved{tlb->save(), model, seen};
        } else if (op < 99 && saved) {
            tlb->restore(saved->snapshot);
            model = saved->model;
            seen = saved->seen;
        } else if (saved) {
            tlb = std::make_unique<Tlb>(table, TlbConfig{kEntries, 30});
            tlb->restore(saved->snapshot);
            model = saved->model;
            seen = saved->seen;
            fetch_hint = Tlb::FetchHint{};
        }
        if (translated) {
            model.access(vpn, mapped(vpn));
            EXPECT_EQ(result.ok(), mapped(vpn)) << "step " << step;
            if (result.ok() && result.penalty_cycles > 0) {
                ++seen.refills;
                if (tlb->cachedVpns().size() == cached_before)
                    ++seen.evictions;
            }
        }

        std::vector<std::uint64_t> expected = model.order();
        ASSERT_EQ(tlb->cachedVpns(), expected) << "step " << step;
        Tlb::Snapshot snapshot = tlb->save();
        ASSERT_EQ(snapshot.entries.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(snapshot.entries[i].first, expected[i]);
            ASSERT_EQ(snapshot.entries[i].second.pfn, 100 + expected[i]);
        }
        ASSERT_EQ(tlb->stats().get("tlb.hits"), model.hits);
        ASSERT_EQ(tlb->stats().get("tlb.misses"), model.misses);
        // Only unmapped pages fault, and they never refill.
        ASSERT_EQ(tlb->stats().get("tlb.faults"),
                  model.misses - model.refills);
        ASSERT_EQ(seen.refills, model.refills);
        ASSERT_EQ(seen.evictions, model.evictions);
    }
    EXPECT_GT(model.evictions, 100u);
    EXPECT_GT(model.misses - model.refills, 100u);
}

} // namespace
} // namespace cheri::tlb
