/**
 * @file
 * Unit tests for the support library: bit manipulation, the
 * deterministic RNG, statistics and table formatting, and the flat
 * LRU table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "lru_model.h"
#include "support/bits.h"
#include "support/flat_lru.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/stats.h"

namespace cheri::support
{
namespace
{

TEST(Bits, ExtractBasic)
{
    EXPECT_EQ(bits(0xdeadbeefULL, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeefULL, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeefULL, 28, 4), 0xdu);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(Bits, InsertBasic)
{
    EXPECT_EQ(insertBits(0, 8, 8, 0xab), 0xab00ULL);
    EXPECT_EQ(insertBits(0xffffULL, 4, 8, 0), 0xf00fULL);
    // Field wider than value: excess bits masked off.
    EXPECT_EQ(insertBits(0, 0, 4, 0xff), 0xfULL);
}

TEST(Bits, InsertExtractRoundTrip)
{
    Xoshiro256 rng(1);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t value = rng.next();
        unsigned lo = static_cast<unsigned>(rng.nextBelow(56));
        unsigned width = 1 + static_cast<unsigned>(rng.nextBelow(8));
        std::uint64_t field = rng.next() & ((1ULL << width) - 1);
        EXPECT_EQ(bits(insertBits(value, lo, width, field), lo, width),
                  field);
    }
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234);
    EXPECT_EQ(signExtend(~0ULL, 64), -1);
}

TEST(Bits, PowersOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(4097));
    EXPECT_EQ(nextPowerOfTwo(0), 1u);
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(3), 4u);
    EXPECT_EQ(nextPowerOfTwo(4096), 4096u);
    EXPECT_EQ(nextPowerOfTwo(4097), 8192u);
}

TEST(Bits, Rounding)
{
    EXPECT_EQ(roundUp(0, 32), 0u);
    EXPECT_EQ(roundUp(1, 32), 32u);
    EXPECT_EQ(roundUp(32, 32), 32u);
    EXPECT_EQ(roundDown(33, 32), 32u);
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(4096), 12u);
    EXPECT_EQ(log2Floor(4097), 12u);
}

TEST(Rng, Deterministic)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoundsRespected)
{
    Xoshiro256 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        std::uint64_t v = rng.nextInRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, CountersAccumulate)
{
    StatSet stats;
    EXPECT_EQ(stats.get("x"), 0u);
    stats.add("x");
    stats.add("x", 4);
    EXPECT_EQ(stats.get("x"), 5u);
    stats.reset();
    EXPECT_EQ(stats.get("x"), 0u);
}

TEST(Stats, TableRendersAligned)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22222"});
    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Stats, PercentFormatting)
{
    EXPECT_EQ(percent(0.123), "12.3%");
    EXPECT_EQ(overheadPercent(132, 100), "+32.0%");
    EXPECT_EQ(overheadPercent(90, 100), "-10.0%");
    EXPECT_EQ(overheadPercent(1, 0), "n/a");
}

TEST(Logging, FormatProducesExpectedText)
{
    EXPECT_EQ(format("%s=%d", "x", 7), "x=7");
}

/**
 * FlatLru replaces exactly like a list LRU at capacities 0, 1 and 5:
 * a seeded drive of lookups (a hit touches, a miss fills), erases,
 * clears and rebuilds from a saved MRU-first order, checked after
 * every step against the shared list model. Every cached entry must
 * still sit where its fill (or rebuild) put it, because the TLB's
 * host hints point at entries.
 */
TEST(FlatLru, MatchesListModel)
{
    for (std::size_t capacity : {0, 1, 5}) {
        FlatLru<std::uint64_t, std::uint64_t> lru(capacity);
        testing::ListLruModel model;
        model.capacity = capacity;
        Xoshiro256 rng(7 + capacity);
        // Where each cached key's entry was put when it was filled.
        std::map<std::uint64_t,
                 const FlatLru<std::uint64_t, std::uint64_t>::Entry *>
            placed;

        for (int step = 0; step < 5000; ++step) {
            std::uint64_t key = rng.nextBelow(3 * capacity + 3);
            unsigned op = static_cast<unsigned>(rng.nextBelow(100));
            if (op < 80) {
                std::uint64_t evictions = model.evictions;
                bool hit = model.access(key);
                if (auto *entry = lru.find(key)) {
                    ASSERT_TRUE(hit);
                    ASSERT_EQ(entry->value, key * 10);
                    lru.touch(*entry);
                } else {
                    ASSERT_FALSE(hit);
                    auto fill = lru.insert(key, key * 10);
                    ASSERT_EQ(fill.evicted, model.evictions != evictions);
                    placed[key] = fill.entry;
                }
            } else if (op < 92) {
                ASSERT_EQ(lru.erase(key),
                          std::find(model.lru.begin(), model.lru.end(),
                                    key) != model.lru.end());
                model.drop(key);
            } else if (op < 94) {
                lru.clear();
                model.lru.clear();
            } else {
                std::vector<std::uint64_t> saved;
                lru.forEachMruFirst(
                    [&](const auto &entry) { saved.push_back(entry.key); });
                lru.clear();
                for (std::uint64_t k : saved) {
                    lru.append(k, k * 10);
                    placed[k] = lru.find(k);
                }
            }

            std::vector<std::uint64_t> order;
            lru.forEachMruFirst(
                [&](const auto &entry) { order.push_back(entry.key); });
            ASSERT_EQ(order, model.order()) << "step " << step;
            ASSERT_EQ(lru.size(), model.lru.size());
            for (std::uint64_t k : model.lru)
                ASSERT_EQ(lru.find(k), placed.at(k)) << "step " << step;
        }
        if (capacity > 0) {
            EXPECT_GT(model.evictions, 100u);
        }
    }
}

} // namespace
} // namespace cheri::support
