/**
 * @file
 * Unit tests for the memory substrate: flat DRAM, the tag table, and
 * the tag manager's 257-bit interface and tag-cache accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "lru_model.h"
#include "mem/physical_memory.h"
#include "mem/tag_manager.h"
#include "mem/tag_table.h"
#include "support/rng.h"

namespace cheri::mem
{
namespace
{

TEST(PhysicalMemory, ZeroInitialized)
{
    PhysicalMemory dram(4096);
    for (std::uint64_t addr = 0; addr < 4096; addr += 512)
        EXPECT_EQ(dram.readByte(addr), 0);
}

TEST(PhysicalMemory, ByteRoundTrip)
{
    PhysicalMemory dram(4096);
    dram.writeByte(100, 0xab);
    EXPECT_EQ(dram.readByte(100), 0xab);
    EXPECT_EQ(dram.readByte(99), 0);
    EXPECT_EQ(dram.readByte(101), 0);
}

TEST(PhysicalMemory, LittleEndianValues)
{
    PhysicalMemory dram(4096);
    dram.write(64, 8, 0x0123456789abcdefULL);
    EXPECT_EQ(dram.readByte(64), 0xef);
    EXPECT_EQ(dram.readByte(71), 0x01);
    EXPECT_EQ(dram.read(64, 8), 0x0123456789abcdefULL);
    EXPECT_EQ(dram.read(64, 4), 0x89abcdefULL);
    EXPECT_EQ(dram.read(68, 4), 0x01234567ULL);
    EXPECT_EQ(dram.read(64, 2), 0xcdefULL);
    EXPECT_EQ(dram.read(64, 1), 0xefULL);
}

TEST(PhysicalMemory, LineRoundTrip)
{
    PhysicalMemory dram(4096);
    Line line{};
    for (unsigned i = 0; i < kLineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(i * 3);
    dram.writeLine(128, line);
    EXPECT_EQ(dram.readLine(128), line);
    // Bytes visible through the scalar interface too.
    EXPECT_EQ(dram.readByte(128 + 5), 15);
}

TEST(PhysicalMemory, BlockWrite)
{
    PhysicalMemory dram(4096);
    std::uint8_t data[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    dram.writeBlock(200, data, 10);
    EXPECT_EQ(dram.readByte(200), 1);
    EXPECT_EQ(dram.readByte(209), 10);
}

TEST(PhysicalMemory, OutOfRangePanics)
{
    PhysicalMemory dram(4096);
    EXPECT_DEATH(dram.readByte(4096), "beyond DRAM");
    EXPECT_DEATH(dram.write(4090, 8, 0), "beyond DRAM");
}

TEST(TagTable, StartsClear)
{
    TagTable tags(4096);
    EXPECT_EQ(tags.popCount(), 0u);
    for (std::uint64_t addr = 0; addr < 4096; addr += 32)
        EXPECT_FALSE(tags.get(addr));
}

TEST(TagTable, SetClearPerLine)
{
    TagTable tags(4096);
    tags.set(64, true);
    EXPECT_TRUE(tags.get(64));
    // Same line, any byte address within it.
    EXPECT_TRUE(tags.get(65));
    EXPECT_TRUE(tags.get(95));
    // Adjacent lines unaffected.
    EXPECT_FALSE(tags.get(63));
    EXPECT_FALSE(tags.get(96));
    tags.set(64, false);
    EXPECT_FALSE(tags.get(64));
}

TEST(TagTable, PopCount)
{
    TagTable tags(64 * 1024);
    for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 1024)
        tags.set(addr, true);
    EXPECT_EQ(tags.popCount(), 64u);
}

TEST(TagTable, CoverageRatioMatchesPaper)
{
    // One tag bit per 256-bit line: 4 MB of tag space per GB of
    // memory (Section 4.2): 1 GB / 32 B = 2^25 bits = 4 MB.
    TagTable tags(1ULL << 30);
    EXPECT_EQ(tags.lineCount() / 8, 4ULL * 1024 * 1024);
}

TEST(TagManager, TagTravelsWithLine)
{
    PhysicalMemory dram(64 * 1024);
    TagTable tags(64 * 1024);
    TagManager manager(dram, tags);

    TaggedLine line;
    line.data[0] = 0x42;
    line.tag = true;
    manager.writeLine(1024, line);

    TaggedLine readback = manager.readLine(1024);
    EXPECT_TRUE(readback.tag);
    EXPECT_EQ(readback.data[0], 0x42);

    // Untagged overwrite clears the stored tag.
    line.tag = false;
    manager.writeLine(1024, line);
    EXPECT_FALSE(manager.readLine(1024).tag);
}

TEST(TagManager, TagCacheHitsOnLocality)
{
    PhysicalMemory dram(1024 * 1024);
    TagTable tags(1024 * 1024);
    TagManager manager(dram, tags);

    // Repeated access to the same line: 1 compulsory tag-table read.
    for (int i = 0; i < 100; ++i)
        manager.readLine(4096);
    EXPECT_EQ(manager.stats().get("tag.table_reads"), 1u);
    EXPECT_EQ(manager.stats().get("tag.cache_hits"), 99u);
}

TEST(TagManager, TagCacheEvictsBeyondCapacity)
{
    PhysicalMemory dram(256ULL * 1024 * 1024);
    TagTable tags(256ULL * 1024 * 1024);
    // Tiny tag cache: 2 entries of 32 tag-table bytes each.
    TagManager manager(dram, tags, TagCacheConfig{64, 32});

    // Each 32-byte tag-table entry covers 32*8 lines * 32 bytes = 8 KB
    // of data; touch three distinct 8 KB regions round-robin.
    for (int round = 0; round < 3; ++round) {
        manager.readLine(0);
        manager.readLine(8192);
        manager.readLine(16384);
    }
    // With 2 entries and 3 hot regions in LRU rotation, every access
    // misses.
    EXPECT_EQ(manager.stats().get("tag.cache_hits"), 0u);
    EXPECT_EQ(manager.stats().get("tag.cache_misses"), 9u);
}

TEST(TagManager, StatsCountTransactions)
{
    PhysicalMemory dram(64 * 1024);
    TagTable tags(64 * 1024);
    TagManager manager(dram, tags);
    manager.readLine(0);
    manager.writeLine(32, TaggedLine{});
    manager.readLine(64);
    EXPECT_EQ(manager.stats().get("dram.reads"), 2u);
    EXPECT_EQ(manager.stats().get("dram.writes"), 1u);
}

TEST(TagManager, RandomizedConsistencyWithReference)
{
    PhysicalMemory dram(1024 * 1024);
    TagTable tags(1024 * 1024);
    TagManager manager(dram, tags, TagCacheConfig{128, 32});
    support::Xoshiro256 rng(99);

    // Reference model: plain map of line -> (byte0, tag).
    struct Ref
    {
        std::uint8_t byte;
        bool tag;
    };
    std::map<std::uint64_t, Ref> reference;

    for (int i = 0; i < 5000; ++i) {
        std::uint64_t line_addr = rng.nextBelow(1024 * 1024 / 32) * 32;
        if (rng.nextBool()) {
            TaggedLine line;
            line.data[0] = static_cast<std::uint8_t>(rng.next());
            line.tag = rng.nextBool();
            manager.writeLine(line_addr, line);
            reference[line_addr] = Ref{line.data[0], line.tag};
        } else {
            TaggedLine line = manager.readLine(line_addr);
            auto it = reference.find(line_addr);
            if (it == reference.end()) {
                EXPECT_EQ(line.data[0], 0);
                EXPECT_FALSE(line.tag);
            } else {
                EXPECT_EQ(line.data[0], it->second.byte);
                EXPECT_EQ(line.tag, it->second.tag);
            }
        }
    }
}

/**
 * The tag cache replaces exactly like a list LRU. A
 * seeded random drive of reads, writes and tag reads over more
 * tag-table lines than the cache holds, with save/restore into the
 * same manager from an older snapshot and into a fresh one, is
 * checked after every step against a reference list: the snapshot's
 * MRU order, the hit/miss/table counters, and the refills and
 * evictions the snapshot shows.
 */
TEST(TagManager, LruMatchesListModel)
{
    constexpr std::uint64_t kBytes = 1024 * 1024;
    constexpr std::uint64_t kEntries = 8;
    PhysicalMemory dram(kBytes);
    TagTable tags(kBytes);
    const TagCacheConfig config{kEntries * 32, 32};
    auto manager = std::make_unique<TagManager>(dram, tags, config);
    support::Xoshiro256 rng(20140614);

    testing::ListLruModel model; ///< over table lines
    model.capacity = kEntries;
    std::uint64_t table_writes = 0, seen_evictions = 0;
    struct Saved
    {
        TagManager::Snapshot snapshot;
        testing::ListLruModel model;
        std::uint64_t table_writes, seen_evictions;
    };
    std::optional<Saved> saved;

    for (int step = 0; step < 20000; ++step) {
        // 3x the cache's reach, so misses past capacity are common.
        std::uint64_t paddr = rng.nextBelow(3 * kEntries * 8192 / 32) * 32;
        std::size_t cached_before = manager->save().lru.size();
        unsigned op = static_cast<unsigned>(rng.nextBelow(100));
        bool touched = true, dirtying = false;
        if (op < 45) {
            manager->readLine(paddr);
        } else if (op < 80) {
            manager->writeLine(paddr, TaggedLine{});
            dirtying = true;
        } else if (op < 95) {
            manager->readTag(paddr);
        } else {
            touched = false;
            if (op < 97) {
                saved = Saved{manager->save(), model, table_writes,
                              seen_evictions};
            } else if (saved) {
                if (op >= 99)
                    manager =
                        std::make_unique<TagManager>(dram, tags, config);
                manager->restore(saved->snapshot);
                model = saved->model;
                table_writes = saved->table_writes;
                seen_evictions = saved->seen_evictions;
            }
        }
        if (touched) {
            std::uint64_t line = tags.tableByteFor(paddr) / 32;
            if (!model.access(line) &&
                manager->save().lru.size() == cached_before)
                ++seen_evictions;
            if (dirtying)
                ++table_writes;
        }

        TagManager::Snapshot snapshot = manager->save();
        ASSERT_EQ(snapshot.lru, model.order()) << "step " << step;
        const support::StatSet &stats = manager->stats();
        ASSERT_EQ(stats.get("tag.cache_hits"), model.hits);
        ASSERT_EQ(stats.get("tag.cache_misses"), model.misses);
        ASSERT_EQ(stats.get("tag.table_reads"), model.misses);
        ASSERT_EQ(stats.get("tag.table_writes"), table_writes);
        ASSERT_EQ(seen_evictions, model.evictions);
    }
    EXPECT_GT(model.evictions, 100u);
}

} // namespace
} // namespace cheri::mem
