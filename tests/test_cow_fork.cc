/**
 * @file
 * Copy-on-write fork correctness. Machine::fork() must be an exact
 * clone of the simulated state (differential against a deep
 * snapshot-restore clone, across kernels and host fast-path modes),
 * siblings must be fully isolated (randomized interleaved writes in
 * K forks swept against per-fork models over every DRAM byte and tag
 * bit), fork must chain (fork-of-fork sees ancestor writes made
 * before its mint, never after), a child's page-table edits must not
 * reach the parent's table or TLB, and the COW accounting
 * (CowStore::cowFaults / sharedPages) must tick exactly on first
 * writes. The sparse two-level page map gets edge cases of its own
 * (partial trailing page and chunk, chunk-straddling copies, flatten/
 * assign round trips, a fresh 1 GiB store, writes into a chunk shared
 * with a fork) and a contending stress test: threads forking one
 * parent concurrently, run under TSan by sanitize-thread-smoke. The
 * harness fork modes ride on the same substrate, so the campaign and
 * fuzz reports must be byte-identical with forks on.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/fault_campaign.h"
#include "check/fuzz.h"
#include "isa/assembler.h"
#include "mem/cow_store.h"
#include "support/rng.h"
#include "workloads/guest_olden.h"

namespace
{

using namespace cheri;

workloads::GuestProgram
kernelByName(const std::string &name)
{
    if (name == "treeadd")
        return workloads::guestTreeadd(5, 2);
    if (name == "bisort")
        return workloads::guestBisort(48);
    if (name == "mst")
        return workloads::guestMst(12);
    return workloads::guestEm3d(10, 3, 2);
}

core::MachineConfig
smallConfig()
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    return config;
}

void
setFastPaths(core::Machine &machine, bool fast, bool superblocks)
{
    machine.cpu().setDecodeCacheEnabled(fast);
    machine.cpu().setDataFastPathEnabled(fast);
    machine.cpu().setSuperblocksEnabled(superblocks);
}

/** Every observable counter (same contract as test_snapshot). */
std::vector<std::pair<std::string, std::uint64_t>>
allCounters(core::Machine &machine)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.emplace_back("instructions",
                     machine.cpu().totalInstructions());
    out.emplace_back("cycles", machine.cpu().totalCycles());
    for (const auto &entry : machine.cpu().stats().all())
        out.push_back(entry);
    support::StatSet memory_stats = machine.memory().collectStats();
    for (const auto &entry : memory_stats.all())
        out.push_back(entry);
    for (const auto &entry : machine.tlb().stats().all())
        out.push_back(entry);
    for (const auto &entry : machine.tagManager().stats().all())
        out.push_back(entry);
    return out;
}

// --- CowStore unit behaviour -----------------------------------------

TEST(CowStore, FreshStoreSharesOneZeroPage)
{
    mem::CowStore store(16 * mem::kCowPageBytes);
    EXPECT_EQ(store.cowFaults(), 0u);
    EXPECT_EQ(store.sharedPages(), 16u);
    for (std::uint64_t paddr = 0; paddr < 16 * mem::kCowPageBytes;
         paddr += 997)
        EXPECT_EQ(store.readByte(paddr), 0u);
}

TEST(CowStore, FirstWriteFaultsOncePerPage)
{
    mem::CowStore store(16 * mem::kCowPageBytes);
    store.writeByte(5, 0xaa);
    EXPECT_EQ(store.cowFaults(), 1u);
    // Second write to the same page: already private, no new fault.
    store.writeByte(mem::kCowPageBytes - 1, 0xbb);
    EXPECT_EQ(store.cowFaults(), 1u);
    // A tag write for a line of the same page: still private.
    store.tagSet(1, true);
    EXPECT_EQ(store.cowFaults(), 1u);
    EXPECT_TRUE(store.tagGet(1));
    // A different page faults separately.
    store.writeByte(3 * mem::kCowPageBytes + 7, 0xcc);
    EXPECT_EQ(store.cowFaults(), 2u);
    EXPECT_EQ(store.sharedPages(), 14u);
    EXPECT_EQ(store.readByte(5), 0xaa);
    EXPECT_EQ(store.readByte(mem::kCowPageBytes - 1), 0xbb);
}

TEST(CowStore, TagWordsNeverStraddlePages)
{
    // Global tag word w covers 64 lines = half a page, so page p owns
    // exactly tag words 2p and 2p+1. Setting the last line of page 0
    // and the first line of page 1 must fault the two pages
    // independently.
    mem::CowStore store(4 * mem::kCowPageBytes);
    store.tagSet(mem::kCowPageLines - 1, true);
    EXPECT_EQ(store.cowFaults(), 1u);
    store.tagSet(mem::kCowPageLines, true);
    EXPECT_EQ(store.cowFaults(), 2u);
    EXPECT_EQ(store.tagPopCount(), 2u);
}

TEST(CowStore, ForkIsolatesWritesBothWays)
{
    mem::CowStore parent(8 * mem::kCowPageBytes);
    parent.writeByte(100, 1);
    parent.tagSet(0, true);
    std::shared_ptr<mem::CowStore> child = parent.fork();
    EXPECT_EQ(child->cowFaults(), 0u);
    EXPECT_EQ(child->readByte(100), 1u);
    EXPECT_TRUE(child->tagGet(0));

    child->writeByte(100, 2);
    EXPECT_EQ(child->cowFaults(), 1u);
    EXPECT_EQ(parent.readByte(100), 1u);

    // The parent's page went shared again at fork time, so its next
    // write faults a private copy too — invisible to the child.
    parent.writeByte(101, 3);
    EXPECT_EQ(parent.readByte(100), 1u);
    EXPECT_EQ(child->readByte(101), 0u);
    child->tagSet(0, false);
    EXPECT_TRUE(parent.tagGet(0));
}

// --- sparse page map edges -------------------------------------------

TEST(CowStore, PartialTrailingPageAndChunk)
{
    // 65 pages + one line: a second, nearly empty chunk whose only
    // page is a one-line partial page.
    constexpr std::uint64_t kSize = 65 * mem::kCowPageBytes + 32;
    mem::CowStore store(kSize);
    EXPECT_EQ(store.pageCount(), 66u);
    EXPECT_EQ(store.lineCount(), 65 * mem::kCowPageLines + 1);
    EXPECT_EQ(store.tagWordCount(), 65 * mem::kCowPageTagWords + 1);
    EXPECT_EQ(store.sharedPages(), 66u);

    // The last line: read, write, tag.
    std::uint64_t last_line = store.lineCount() - 1;
    EXPECT_EQ(store.readByte(kSize - 1), 0u);
    EXPECT_FALSE(store.tagGet(last_line));
    store.writeByte(kSize - 1, 0x5a);
    store.tagSet(last_line, true);
    EXPECT_EQ(store.readByte(kSize - 1), 0x5au);
    EXPECT_TRUE(store.tagGet(last_line));
    EXPECT_EQ(store.cowFaults(), 1u);
    EXPECT_EQ(store.tagPopCount(), 1u);
    EXPECT_EQ(store.sharedPages(), 65u);

    // A copy straddling the chunk boundary (pages 63 and 64).
    std::uint64_t boundary = mem::kCowChunkPages * mem::kCowPageBytes;
    std::vector<std::uint8_t> src(64);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i + 1);
    store.writeBytes(boundary - 24, src.data(), src.size());
    EXPECT_EQ(store.cowFaults(), 3u);
    std::vector<std::uint8_t> dst(src.size() + 2);
    store.readBytes(boundary - 25, dst.data(), dst.size());
    EXPECT_EQ(dst.front(), 0u);
    EXPECT_EQ(dst.back(), 0u);
    EXPECT_EQ(std::vector<std::uint8_t>(dst.begin() + 1, dst.end() - 1),
              src);

    // A read across the boundary between the last full page and the
    // partial one sees the written last byte.
    std::uint8_t tail[40];
    store.readBytes(kSize - sizeof(tail), tail, sizeof(tail));
    EXPECT_EQ(tail[sizeof(tail) - 1], 0x5au);
    EXPECT_EQ(tail[0], 0u);

    std::vector<std::uint64_t> tags = store.flattenTags();
    ASSERT_EQ(tags.size(), store.tagWordCount());
    EXPECT_EQ(tags.back(), 1u);
    std::vector<std::uint8_t> data = store.flattenData();
    ASSERT_EQ(data.size(), kSize);
    EXPECT_EQ(data.back(), 0x5au);
    EXPECT_EQ(data[boundary], src[24]);
}

TEST(CowStore, FlattenAssignRoundTrip)
{
    constexpr std::uint64_t kSize = 3 * mem::kCowChunkPages *
                                        mem::kCowPageBytes +
                                    5 * mem::kCowPageBytes;
    mem::CowStore source(kSize);
    support::Xoshiro256 rng(5);
    for (int i = 0; i < 300; ++i) {
        source.writeByte(rng.next() % kSize,
                         static_cast<std::uint8_t>(rng.next() | 1));
        source.tagSet(rng.next() % source.lineCount(), true);
    }
    std::vector<std::uint8_t> data = source.flattenData();
    std::vector<std::uint64_t> tags = source.flattenTags();

    mem::CowStore copy(kSize);
    copy.assignData(data);
    copy.assignTags(tags);
    EXPECT_EQ(copy.flattenData(), data);
    EXPECT_EQ(copy.flattenTags(), tags);
    EXPECT_EQ(copy.tagPopCount(), source.tagPopCount());
    // Assigning writes every page, so every page is now private.
    EXPECT_EQ(copy.cowFaults(), copy.pageCount());
    EXPECT_EQ(copy.sharedPages(), 0u);
    for (std::uint64_t paddr = 0; paddr < kSize; paddr += 4093)
        EXPECT_EQ(copy.readByte(paddr), source.readByte(paddr));

    // A fork flattens to its parent's image.
    std::shared_ptr<mem::CowStore> child = source.fork();
    EXPECT_EQ(child->flattenData(), data);
    EXPECT_EQ(child->flattenTags(), tags);
}

TEST(CowStore, FreshGibibyteStoreIsAllSharedAndUntagged)
{
    mem::CowStore store(1ULL << 30);
    EXPECT_EQ(store.pageCount(), (1ULL << 30) / mem::kCowPageBytes);
    EXPECT_EQ(store.sharedPages(), store.pageCount());
    EXPECT_EQ(store.tagPopCount(), 0u);
    EXPECT_EQ(store.readByte((1ULL << 30) - 1), 0u);
    EXPECT_FALSE(store.tagGet(store.lineCount() - 1));
    std::shared_ptr<mem::CowStore> child = store.fork();
    EXPECT_EQ(child->sharedPages(), child->pageCount());
    EXPECT_EQ(child->cowFaults(), 0u);
}

TEST(CowStore, ParentWritesIntoAChunkSharedWithAChild)
{
    mem::CowStore parent(2 * mem::kCowChunkPages * mem::kCowPageBytes);
    parent.writeByte(10, 1);        // page 0
    parent.tagSet(1, true);         // page 0
    std::shared_ptr<mem::CowStore> child = parent.fork();

    // Both sides write into chunk 0: the shared page 0, and pages 1
    // and 2 that neither had written.
    parent.writeByte(11, 2);
    parent.writeByte(mem::kCowPageBytes, 3);
    parent.tagSet(2, true);
    child->writeByte(12, 4);
    child->writeByte(2 * mem::kCowPageBytes, 5);
    child->tagSet(1, false);
    // The parent cloned page 0 away from the child, leaving the
    // original private to the child: only the child's page 2 faults.
    EXPECT_EQ(parent.cowFaults(), 1u + 2u);
    EXPECT_EQ(child->cowFaults(), 1u);

    EXPECT_EQ(parent.readByte(10), 1u);
    EXPECT_EQ(parent.readByte(11), 2u);
    EXPECT_EQ(parent.readByte(12), 0u);
    EXPECT_EQ(parent.readByte(mem::kCowPageBytes), 3u);
    EXPECT_EQ(parent.readByte(2 * mem::kCowPageBytes), 0u);
    EXPECT_TRUE(parent.tagGet(1));
    EXPECT_TRUE(parent.tagGet(2));

    EXPECT_EQ(child->readByte(10), 1u);
    EXPECT_EQ(child->readByte(11), 0u);
    EXPECT_EQ(child->readByte(12), 4u);
    EXPECT_EQ(child->readByte(mem::kCowPageBytes), 0u);
    EXPECT_EQ(child->readByte(2 * mem::kCowPageBytes), 5u);
    EXPECT_FALSE(child->tagGet(1));
    EXPECT_FALSE(child->tagGet(2));

    // Chunk 1 was never written: both see zeros and still share it.
    EXPECT_EQ(parent.sharedPages(), parent.pageCount() - 2);
    EXPECT_EQ(child->sharedPages(), child->pageCount() - 2);
}

// --- concurrent forks of one parent ----------------------------------

/**
 * Stress layout: kStressPages pages (the last chunk partial), with
 * the parent writing a pattern into kParentPages only. Each child
 * writes a parent-written page, an untouched page, and a copy across
 * the boundary between chunks 1 and 2.
 */
constexpr std::uint64_t kStressPages = 4 * mem::kCowChunkPages + 3;
constexpr std::uint64_t kParentPages[] = {0, 5, mem::kCowChunkPages + 1};
constexpr std::uint64_t kUntouchedPage = 3 * mem::kCowChunkPages + 7;
constexpr std::uint64_t kChunkBoundary =
    2 * mem::kCowChunkPages * mem::kCowPageBytes;
/** Faults per child: page 5, the untouched page, two straddled. */
constexpr std::uint64_t kStressChildFaults = 4;

std::uint8_t
parentPattern(std::uint64_t paddr)
{
    return static_cast<std::uint8_t>(paddr * 131 + 17);
}

void
seedStressParent(mem::CowStore &parent)
{
    std::vector<std::uint8_t> page(mem::kCowPageBytes);
    for (std::uint64_t p : kParentPages) {
        std::uint64_t base = p * mem::kCowPageBytes;
        for (std::uint64_t i = 0; i < page.size(); ++i)
            page[i] = parentPattern(base + i);
        parent.writeBytes(base, page.data(), page.size());
        for (std::uint64_t line : {0u, 64u, 127u})
            parent.tagSet(p * mem::kCowPageLines + line, true);
    }
}

/**
 * Fork parent, write through the child, read everything back, and
 * return the mismatch count; the child's COW fault count goes to
 * *faults. Salt makes each child's bytes its own, so a write leaking
 * between concurrent siblings shows up as a mismatch.
 */
std::uint64_t
exerciseStressChild(const mem::CowStore &parent, std::uint64_t salt,
                    std::uint64_t *faults)
{
    std::shared_ptr<mem::CowStore> child = parent.fork();
    std::uint64_t mismatches = 0;
    auto expect = [&mismatches](bool ok) { mismatches += ok ? 0 : 1; };
    support::Xoshiro256 rng(salt);
    auto salted = [&rng](std::size_t n) {
        std::vector<std::uint8_t> bytes(n);
        for (std::uint8_t &b : bytes)
            b = static_cast<std::uint8_t>(rng.next());
        return bytes;
    };

    std::uint64_t shared_base = kParentPages[1] * mem::kCowPageBytes;
    std::uint64_t shared_line = kParentPages[1] * mem::kCowPageLines;
    std::uint64_t fresh_base = kUntouchedPage * mem::kCowPageBytes;
    std::uint64_t fresh_line = kUntouchedPage * mem::kCowPageLines;
    std::uint64_t straddle = kChunkBoundary - 16;
    std::uint64_t boundary_line = kChunkBoundary / mem::kLineBytes;

    expect(child->readByte(shared_base + 100) ==
           parentPattern(shared_base + 100));
    expect(child->tagGet(shared_line + 64));

    std::vector<std::uint8_t> a = salted(16);
    std::vector<std::uint8_t> b = salted(8);
    std::vector<std::uint8_t> c = salted(32);
    child->writeBytes(shared_base + 100, a.data(), a.size());
    child->tagSet(shared_line + 64, false);
    child->tagSet(shared_line + 1, true);
    child->writeBytes(fresh_base + 4000, b.data(), b.size());
    child->tagSet(fresh_line + 2, true);
    child->writeBytes(straddle, c.data(), c.size());
    child->tagSet(boundary_line - 1, true);
    child->tagSet(boundary_line, true);

    std::vector<std::uint8_t> got(a.size() + 2);
    child->readBytes(shared_base + 99, got.data(), got.size());
    expect(got.front() == parentPattern(shared_base + 99));
    expect(got.back() == parentPattern(shared_base + 116));
    expect(std::equal(a.begin(), a.end(), got.begin() + 1));
    expect(child->tagGet(shared_line));
    expect(child->tagGet(shared_line + 1));
    expect(!child->tagGet(shared_line + 64));
    expect(child->tagGet(shared_line + 127));

    got.assign(b.size() + 2, 0xff);
    child->readBytes(fresh_base + 3999, got.data(), got.size());
    expect(got.front() == 0 && got.back() == 0);
    expect(std::equal(b.begin(), b.end(), got.begin() + 1));
    expect(child->tagGet(fresh_line + 2) && !child->tagGet(fresh_line));

    got.assign(c.size(), 0);
    child->readBytes(straddle, got.data(), got.size());
    expect(got == c);
    expect(child->tagGet(boundary_line - 1));
    expect(child->tagGet(boundary_line));
    expect(!child->tagGet(boundary_line + 1));

    // A parent page the child never wrote still reads as the parent's.
    std::uint64_t other_base = kParentPages[2] * mem::kCowPageBytes;
    got.assign(mem::kCowPageBytes, 0);
    child->readBytes(other_base, got.data(), got.size());
    for (std::uint64_t i = 0; i < got.size(); ++i)
        expect(got[i] == parentPattern(other_base + i));

    expect(child->sharedPages() ==
           child->pageCount() - kStressChildFaults);
    *faults = child->cowFaults();
    return mismatches;
}

TEST(CowStoreConcurrency, ForkersOfOneParentStayIsolated)
{
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kIterations = 2000;
    mem::CowStore parent(kStressPages * mem::kCowPageBytes);
    seedStressParent(parent);
    std::vector<std::uint8_t> data_before = parent.flattenData();
    std::vector<std::uint64_t> tags_before = parent.flattenTags();
    std::uint64_t parent_faults = parent.cowFaults();
    std::uint64_t parent_shared = parent.sharedPages();

    std::uint64_t serial_faults = 0;
    ASSERT_EQ(exerciseStressChild(parent, 1, &serial_faults), 0u);
    ASSERT_EQ(serial_faults, kStressChildFaults);

    std::vector<std::uint64_t> mismatches(kThreads, 0);
    std::vector<std::uint64_t> fault_mismatches(kThreads, 0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kIterations; ++i) {
                std::uint64_t faults = 0;
                mismatches[t] += exerciseStressChild(
                    parent, (t + 1) * 1000003 + i, &faults);
                fault_mismatches[t] += faults != serial_faults ? 1 : 0;
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
        EXPECT_EQ(fault_mismatches[t], 0u) << "thread " << t;
    }
    EXPECT_EQ(parent.flattenData(), data_before);
    EXPECT_EQ(parent.flattenTags(), tags_before);
    EXPECT_EQ(parent.cowFaults(), parent_faults);
    EXPECT_EQ(parent.sharedPages(), parent_shared);
}

// --- Machine::fork basics --------------------------------------------

TEST(MachineFork, ChildStartsWithZeroCowFaults)
{
    core::Machine parent(smallConfig());
    parent.dram().writeByte(0x1000, 0x42);
    std::unique_ptr<core::Machine> child = parent.fork();
    EXPECT_EQ(child->cowStore().cowFaults(), 0u);
    EXPECT_EQ(child->dram().readByte(0x1000), 0x42u);
    child->dram().writeByte(0x1000, 0x43);
    EXPECT_EQ(child->cowStore().cowFaults(), 1u);
    EXPECT_EQ(parent.dram().readByte(0x1000), 0x42u);
}

TEST(MachineFork, SnapshotRoundTripsOnAFork)
{
    core::Machine parent(smallConfig());
    workloads::GuestProgram prog = kernelByName("treeadd");
    workloads::loadGuestProgram(parent, prog);
    std::unique_ptr<core::Machine> child = parent.fork();
    core::Machine::Snapshot mid = child->saveSnapshot();
    core::RunLimits limits;
    limits.max_instructions = 500;
    child->cpu().run(limits);
    child->restoreSnapshot(mid);
    core::RunResult done = child->cpu().run(core::RunLimits{});
    EXPECT_EQ(done.reason, core::StopReason::kBreak);
    EXPECT_EQ(child->cpu().gpr(isa::reg::v0), prog.expected_checksum);
}

TEST(MachineFork, ForkChainSeesAncestorWritesNotDescendants)
{
    core::Machine root(smallConfig());
    std::vector<std::unique_ptr<core::Machine>> chain;
    core::Machine *parent = &root;
    for (std::uint64_t depth = 0; depth < 8; ++depth) {
        parent->dram().writeByte(depth * mem::kCowPageBytes,
                                 static_cast<std::uint8_t>(depth + 1));
        chain.push_back(parent->fork());
        parent = chain.back().get();
    }
    // The deepest fork sees every ancestor write...
    for (std::uint64_t depth = 0; depth < 8; ++depth)
        EXPECT_EQ(parent->dram().readByte(depth * mem::kCowPageBytes),
                  depth + 1);
    // ...and a write at the bottom never propagates up the chain.
    parent->dram().writeByte(0, 0xff);
    EXPECT_EQ(root.dram().readByte(0), 1u);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
        EXPECT_EQ(chain[i]->dram().readByte(0), 1u);
}

/** (vpn, pfn, flag bits) of every entry, for equality checks. */
std::vector<std::tuple<std::uint64_t, std::uint64_t, unsigned>>
pteList(const std::vector<std::pair<std::uint64_t, tlb::Pte>> &entries)
{
    std::vector<std::tuple<std::uint64_t, std::uint64_t, unsigned>> out;
    for (const auto &[vpn, pte] : entries) {
        const tlb::PteFlags &f = pte.flags;
        unsigned bits = f.readable | f.writable << 1 |
                        f.executable << 2 | f.cap_load << 3 |
                        f.cap_store << 4;
        out.emplace_back(vpn, pte.pfn, bits);
    }
    return out;
}

TEST(MachineFork, ChildPageTableEditsLeaveParentUntouched)
{
    core::Machine parent(smallConfig());
    workloads::GuestProgram prog = kernelByName("treeadd");
    workloads::loadGuestProgram(parent, prog);
    core::RunLimits warm;
    warm.max_instructions = 300;
    ASSERT_EQ(parent.cpu().run(warm).reason,
              core::StopReason::kInstLimit);
    auto table_before = pteList(parent.pageTable().save().entries);
    auto tlb_before = pteList(parent.tlb().save().entries);
    ASSERT_GE(table_before.size(), 3u);
    ASSERT_FALSE(tlb_before.empty());

    // Edit the child's table: unmap a page the parent's TLB caches,
    // protect another, remap a third, map a fresh one.
    std::unique_ptr<core::Machine> child = parent.fork();
    std::uint64_t cached_vpn = std::get<0>(tlb_before.front());
    std::uint64_t protect_vpn = std::get<0>(table_before[1]);
    std::uint64_t remap_vpn = std::get<0>(table_before.back());
    std::uint64_t fresh_vpn = remap_vpn + 100;
    tlb::PteFlags read_only;
    read_only.writable = false;
    child->pageTable().unmap(cached_vpn);
    ASSERT_TRUE(child->pageTable().protect(protect_vpn, read_only));
    child->pageTable().map(remap_vpn, 7);
    child->pageTable().map(fresh_vpn, 8);
    child->tlb().flush();
    EXPECT_FALSE(child->pageTable().lookup(cached_vpn).has_value());
    EXPECT_EQ(child->tlb().translate(cached_vpn * tlb::kPageBytes,
                                     tlb::Access::kLoad)
                  .fault,
              tlb::TlbFault::kNoMapping);
    EXPECT_EQ(child->pageTable().lookup(remap_vpn)->pfn, 7u);

    EXPECT_EQ(pteList(parent.pageTable().save().entries), table_before);
    EXPECT_EQ(pteList(parent.tlb().save().entries), tlb_before);
    EXPECT_FALSE(parent.pageTable().lookup(fresh_vpn).has_value());
    tlb::TlbResult cached = parent.tlb().translate(
        cached_vpn * tlb::kPageBytes, tlb::Access::kLoad);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.paddr, std::get<1>(tlb_before.front()) *
                                tlb::kPageBytes);
    EXPECT_EQ(cached.penalty_cycles, 0u); // still a TLB hit
    ASSERT_EQ(parent.cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    EXPECT_EQ(parent.cpu().gpr(isa::reg::v0), prog.expected_checksum);
}

// --- fork vs deep clone differential ---------------------------------

class ForkVsClone
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::tuple<bool, bool>>>
{
};

TEST_P(ForkVsClone, ForkedRunMatchesDeepCloneBitForBit)
{
    const std::string &kernel = std::get<0>(GetParam());
    auto [fast, superblocks] = std::get<1>(GetParam());
    workloads::GuestProgram prog = kernelByName(kernel);

    core::Machine parent(smallConfig());
    workloads::loadGuestProgram(parent, prog);
    setFastPaths(parent, fast, superblocks);
    core::RunLimits warm;
    warm.max_instructions = 300;
    ASSERT_EQ(parent.cpu().run(warm).reason,
              core::StopReason::kInstLimit);

    // Deep clone: fresh machine + full snapshot restore (+ the host
    // toggles, which are mode, not state, and thus not in snapshots).
    core::Machine clone(parent.config());
    clone.restoreSnapshot(parent.saveSnapshot());
    setFastPaths(clone, fast, superblocks);

    std::unique_ptr<core::Machine> fork = parent.fork();

    core::RunResult clone_done = clone.cpu().run(core::RunLimits{});
    core::RunResult fork_done = fork->cpu().run(core::RunLimits{});
    ASSERT_EQ(clone_done.reason, core::StopReason::kBreak);
    ASSERT_EQ(fork_done.reason, core::StopReason::kBreak);
    EXPECT_EQ(fork->cpu().gpr(isa::reg::v0), prog.expected_checksum);
    EXPECT_EQ(allCounters(*fork), allCounters(clone));

    core::Machine::Snapshot a = fork->saveSnapshot();
    core::Machine::Snapshot b = clone.saveSnapshot();
    EXPECT_EQ(a.dram.data, b.dram.data);
    EXPECT_EQ(a.tags.bits, b.tags.bits);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ForkVsClone,
    ::testing::Combine(
        ::testing::Values("treeadd", "bisort", "mst", "em3d"),
        ::testing::Values(std::make_tuple(false, false),
                          std::make_tuple(true, false),
                          std::make_tuple(true, true))));

// --- randomized sibling isolation ------------------------------------

TEST(MachineFork, SiblingWritesAreInvisibleToEachOther)
{
    constexpr std::uint64_t kDram = 2 * 1024 * 1024;
    constexpr int kSiblings = 6;
    core::MachineConfig config;
    config.dram_bytes = kDram;
    core::Machine parent(config);

    // Seed the parent with a nonzero background pattern.
    support::Xoshiro256 seed_rng(7);
    for (int i = 0; i < 512; ++i) {
        parent.dram().writeByte(seed_rng.next() % kDram,
                                static_cast<std::uint8_t>(
                                    seed_rng.next()));
        parent.tagTable().set((seed_rng.next() % kDram) &
                                  ~(mem::kLineBytes - 1),
                              true);
    }
    mem::PhysicalMemory::Snapshot base_bytes = parent.dram().save();
    mem::TagTable::Snapshot base_tags = parent.tagTable().save();

    std::vector<std::unique_ptr<core::Machine>> siblings;
    for (int s = 0; s < kSiblings; ++s)
        siblings.push_back(parent.fork());

    // Interleave randomized writes round-robin across the siblings,
    // tracking what each one should see in a private model.
    std::vector<std::map<std::uint64_t, std::uint8_t>> byte_model(
        kSiblings);
    std::vector<std::map<std::uint64_t, bool>> tag_model(kSiblings);
    support::Xoshiro256 rng(11);
    for (int round = 0; round < 400; ++round) {
        int s = round % kSiblings;
        std::uint64_t addr = rng.next() % kDram;
        auto value = static_cast<std::uint8_t>(rng.next());
        siblings[s]->dram().writeByte(addr, value);
        byte_model[s][addr] = value;
        std::uint64_t line = (rng.next() % kDram) &
                             ~(mem::kLineBytes - 1);
        bool tag = (rng.next() & 1) != 0;
        siblings[s]->tagTable().set(line, tag);
        tag_model[s][line] = tag;
    }

    // Exit sweep: every DRAM byte and every tag bit, all siblings
    // and the parent, against base-pattern-plus-own-model.
    EXPECT_EQ(parent.dram().save().data, base_bytes.data);
    EXPECT_EQ(parent.tagTable().save().bits, base_tags.bits);
    for (int s = 0; s < kSiblings; ++s) {
        std::vector<std::uint8_t> expect_bytes = base_bytes.data;
        for (const auto &[addr, value] : byte_model[s])
            expect_bytes[addr] = value;
        EXPECT_EQ(siblings[s]->dram().save().data, expect_bytes)
            << "sibling " << s << " DRAM bytes";

        std::vector<std::uint64_t> expect_tags = base_tags.bits;
        for (const auto &[line, tag] : tag_model[s]) {
            std::uint64_t word = line / mem::kLineBytes / 64;
            std::uint64_t bit = line / mem::kLineBytes % 64;
            if (tag)
                expect_tags[word] |= 1ULL << bit;
            else
                expect_tags[word] &= ~(1ULL << bit);
        }
        EXPECT_EQ(siblings[s]->tagTable().save().bits, expect_tags)
            << "sibling " << s << " tag bits";
    }
}

// --- harness fork modes ----------------------------------------------

TEST(HarnessForkMode, CampaignReportIdenticalWithForkTrials)
{
    workloads::GuestProgram prog = kernelByName("treeadd");
    std::vector<check::CampaignGuest> guests = {
        {"treeadd", [prog](core::Machine &machine) {
             workloads::loadGuestProgram(machine, prog);
         }}};
    check::CampaignConfig config;
    config.trials = 6;
    config.seed = 3;
    std::string reference;
    for (bool fork : {false, true}) {
        for (unsigned jobs : {1u, 3u}) {
            config.fork_machines = fork;
            config.jobs = jobs;
            std::string json =
                check::runCampaign(config, guests).toJson();
            if (reference.empty())
                reference = json;
            EXPECT_EQ(json, reference)
                << "fork=" << fork << " jobs=" << jobs;
        }
    }
}

TEST(HarnessForkMode, FuzzOutputIdenticalWithForkMachines)
{
    check::FuzzCampaignConfig config;
    config.seeds = 8;
    config.start_seed = 1;
    config.quiet = true;
    config.fork_machines = false;
    std::string reference = check::runFuzzSeeds(config).text();
    config.fork_machines = true;
    for (unsigned jobs : {1u, 3u}) {
        config.jobs = jobs;
        EXPECT_EQ(check::runFuzzSeeds(config).text(), reference)
            << "jobs=" << jobs;
    }
}

} // namespace
