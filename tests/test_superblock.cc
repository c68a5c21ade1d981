/**
 * @file
 * Superblock-tier hazards and invariance. The tier is a host
 * accelerator: chained straight-line blocks with hoisted guards must
 * be invisible to guest semantics and to simulated timing.
 *
 *  - Self-modifying code landing mid-superblock: a store that
 *    overwrites a later instruction of the very block it executes
 *    from must abort the block before the stale slot dispatches, and
 *    the next entry must fail the guard and re-mint fresh bytes.
 *  - Snapshot restore: restoreSnapshot drops every minted block
 *    (never captures one), and the counter-invisible re-mint replays
 *    the identical tail.
 *  - Timing invariance: every guest Olden kernel retires identical
 *    instruction/cycle counts and identical memory/TLB/CPU counters
 *    with the tier on and off — including under a deliberately tiny
 *    accelerator geometry that forces eviction and re-minting.
 *  - Host-table growth: the VM guest outgrows the tables' start size,
 *    and neither the doublings nor a fork child's small start may
 *    show in simulated counters; a covered store still aborts its
 *    block after the tables have grown; a memo-staleness fault picks
 *    the same target however far the memo has grown.
 */

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "isa/assembler.h"
#include "support/stats.h"
#include "workloads/guest_olden.h"
#include "workloads/vm_guest.h"

namespace
{

using namespace cheri;
using isa::Assembler;
namespace reg = isa::reg;

constexpr std::uint64_t kCodeBase = 0x10000;

core::Machine
makeMachine(core::CpuAccelConfig accel = {})
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    config.accel = accel;
    return core::Machine(config);
}

/** Every observable simulated counter in the machine. */
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

/*
 * A loop whose store patches an instruction BELOW it in the SAME
 * block execution. Iteration 1 runs per-instruction (the loop head
 * is not yet a leader) and stores the site's existing bytes, so
 * nothing changes semantically; the taken back-branch makes the head
 * a mint leader, and iteration 2 enters a freshly minted block whose
 * slots still encode `daddiu v0, zero, 7`. The store this time
 * writes the 99-encoding — the tier must abort the block after the
 * store retires, before the stale predecoded slot behind it can
 * dispatch. s0 accumulates 7 + 99 = 106 iff the fresh bytes ran;
 * a stale mid-block slot would leave 7 + 7 = 14. Layout is assembled
 * to a fixpoint because the li64 length depends on the patch address.
 */
struct MidBlockSmc
{
    std::vector<std::uint32_t> text;
    static constexpr std::uint64_t kExpected = 106; // 7 + 99
};

MidBlockSmc
makeMidBlockSmc(std::uint64_t base = kCodeBase)
{
    std::uint32_t old_word, new_word;
    {
        Assembler enc(0);
        enc.daddiu(reg::v0, reg::zero, 7);
        old_word = enc.finish()[0];
    }
    {
        Assembler enc(0);
        enc.daddiu(reg::v0, reg::zero, 99);
        new_word = enc.finish()[0];
    }

    std::uint64_t patch_addr = base;
    for (int iter = 0; iter < 8; ++iter) {
        Assembler a(base);
        auto loop = a.newLabel();
        a.li64(reg::t1, patch_addr);
        a.li(reg::t0, static_cast<std::int32_t>(old_word));
        a.li(reg::t2, static_cast<std::int32_t>(new_word));
        a.li(reg::s1, 2);
        a.move(reg::s0, reg::zero);
        a.bind(loop);
        a.sw(reg::t0, reg::t1, 0); // iter 1: same bytes; iter 2: patch
        a.move(reg::t0, reg::t2);  // next pass stores the 99-encoding
        std::uint64_t actual = a.here();
        a.daddiu(reg::v0, reg::zero, 7); // the patch site
        a.daddu(reg::s0, reg::s0, reg::v0);
        a.daddiu(reg::s1, reg::s1, -1);
        a.bgtz(reg::s1, loop);
        a.nop();
        a.move(reg::v0, reg::s0);
        a.break_();

        MidBlockSmc prog;
        prog.text = a.finish();
        if (actual == patch_addr)
            return prog;
        patch_addr = actual;
    }
    ADD_FAILURE() << "mid-block SMC layout did not converge";
    return {};
}

std::uint64_t
runMidBlockSmc(bool superblocks, core::SuperblockStats *stats = nullptr)
{
    MidBlockSmc prog = makeMidBlockSmc();
    core::Machine machine = makeMachine();
    machine.cpu().setSuperblocksEnabled(superblocks);
    machine.loadProgram(kCodeBase, prog.text);
    machine.reset(kCodeBase);
    core::RunResult result = machine.cpu().run(10'000);
    EXPECT_EQ(result.reason, core::StopReason::kBreak);
    if (stats != nullptr)
        *stats = machine.cpu().superblockStats();
    return machine.cpu().gpr(reg::v0);
}

TEST(SuperblockSmc, StoreIntoOwnBlockExecutesFreshBytes)
{
    core::SuperblockStats stats;
    EXPECT_EQ(runMidBlockSmc(true, &stats), MidBlockSmc::kExpected);
    // The run actually went through the tier and the covered store
    // aborted a live block.
    EXPECT_GT(stats.entered, 0u);
    EXPECT_GT(stats.invalidated, 0u);
}

TEST(SuperblockSmc, StoreIntoOwnBlockExecutesFreshBytesTierOff)
{
    EXPECT_EQ(runMidBlockSmc(false), MidBlockSmc::kExpected);
}

/**
 * The full stale-block life cycle, one event per loop iteration: a
 * six-pass loop whose body is patched exactly once, on the third
 * pass. Pass 1 warms the decode; pass 2 mints the block; pass 3
 * patches the site from INSIDE the running block (SMC abort); pass 4
 * finds the stale block, fails the entry guard, and re-warms; pass 5
 * re-mints with the fresh bytes; pass 6 re-enters the new block. The
 * accumulated sum proves the fresh bytes ran from the patch on:
 * 3 x 7 + 3 x 99 = 318.
 */
TEST(SuperblockSmc, PatchedBlockRemintsBeforeNextEntry)
{
    std::uint32_t new_word;
    {
        Assembler enc(0);
        enc.daddiu(reg::v0, reg::zero, 99);
        new_word = enc.finish()[0];
    }
    std::uint64_t patch_addr = kCodeBase;
    std::vector<std::uint32_t> text;
    for (int iter = 0; iter < 8; ++iter) {
        Assembler a(kCodeBase);
        auto loop = a.newLabel();
        auto skip = a.newLabel();
        a.li64(reg::t1, patch_addr);
        a.li(reg::t0, static_cast<std::int32_t>(new_word));
        a.li(reg::s1, 6);
        a.li(reg::t3, 4); // patch when s1 == 4 (the third pass)
        a.move(reg::s0, reg::zero);
        a.bind(loop);
        std::uint64_t actual = a.here();
        a.daddiu(reg::v0, reg::zero, 7); // the patch site
        a.daddu(reg::s0, reg::s0, reg::v0);
        a.bne(reg::s1, reg::t3, skip);
        a.nop();
        a.sw(reg::t0, reg::t1, 0); // one-time patch, mid-block
        a.bind(skip);
        a.daddiu(reg::s1, reg::s1, -1);
        a.bgtz(reg::s1, loop);
        a.nop();
        a.move(reg::v0, reg::s0);
        a.break_();
        text = a.finish();
        if (actual == patch_addr)
            break;
        patch_addr = actual;
        text.clear();
    }
    ASSERT_FALSE(text.empty()) << "SMC loop layout did not converge";

    for (bool superblocks : {true, false}) {
        core::Machine machine = makeMachine();
        machine.cpu().setSuperblocksEnabled(superblocks);
        machine.loadProgram(kCodeBase, text);
        machine.reset(kCodeBase);
        core::RunResult result = machine.cpu().run(10'000);
        ASSERT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::v0), 3u * 7u + 3u * 99u);
        if (!superblocks)
            continue;
        const core::SuperblockStats &stats =
            machine.cpu().superblockStats();
        EXPECT_GT(stats.entered, 0u);
        EXPECT_GT(stats.invalidated, 0u); // the mid-block abort
        EXPECT_GT(stats.guard_fails, 0u); // the stale next entry
        EXPECT_GT(stats.minted, 1u);      // the fresh re-mint
    }
}

workloads::GuestProgram
kernelByName(const std::string &name)
{
    if (name == "treeadd")
        return workloads::guestTreeadd(8, 2);
    if (name == "bisort")
        return workloads::guestBisort(64);
    if (name == "mst")
        return workloads::guestMst(12);
    return workloads::guestEm3d(10, 3, 2);
}

struct ModeRun
{
    core::RunResult result;
    std::uint64_t checksum = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    core::SuperblockStats sb;
    core::HostTableSizes sizes;
};

ModeRun
runKernel(const workloads::GuestProgram &prog, bool superblocks,
          core::CpuAccelConfig accel = {})
{
    core::Machine machine = makeMachine(accel);
    machine.cpu().setSuperblocksEnabled(superblocks);
    workloads::loadGuestProgram(machine, prog);
    ModeRun run;
    run.result = workloads::runGuestProgram(machine, prog);
    run.checksum = machine.cpu().gpr(reg::v0);
    run.counters = allCounters(machine);
    run.sb = machine.cpu().superblockStats();
    run.sizes = machine.cpu().hostTableSizes();
    return run;
}

class SuperblockTimingInvariance
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuperblockTimingInvariance, IdenticalAcrossModes)
{
    workloads::GuestProgram prog = kernelByName(GetParam());
    ModeRun sb = runKernel(prog, true);
    ModeRun base = runKernel(prog, false);

    EXPECT_EQ(sb.checksum, prog.expected_checksum);
    EXPECT_EQ(sb.checksum, base.checksum);
    EXPECT_EQ(sb.result.instructions, base.result.instructions);
    EXPECT_EQ(sb.result.cycles, base.result.cycles);
    // Full counter-by-counter equality: one extra or missing cache/
    // TLB/tag event anywhere would show up here.
    EXPECT_EQ(sb.counters, base.counters);
    // The tier actually carried the run...
    EXPECT_GT(sb.sb.entered, 0u);
    EXPECT_GT(sb.sb.instructions, sb.result.instructions / 2);
    // ...and was fully out of the picture when disabled.
    EXPECT_EQ(base.sb.entered, 0u);
    EXPECT_EQ(base.sb.instructions, 0u);
}

/**
 * Tiny accelerator geometry: 4 decode-cache lines (128 bytes of code
 * coverage), 4 superblock entries, 4-slot blocks. Every kernel is
 * larger than that, so blocks are continually evicted, guard-failed,
 * and re-minted — and none of it may leak into simulated state.
 */
TEST_P(SuperblockTimingInvariance, TinyGeometryIdenticalToDefault)
{
    workloads::GuestProgram prog = kernelByName(GetParam());
    core::CpuAccelConfig tiny;
    tiny.decode_cache_lines = 4;
    tiny.superblock_entries = 4;
    tiny.superblock_max_slots = 4;
    ModeRun small = runKernel(prog, true, tiny);
    ModeRun big = runKernel(prog, true);

    EXPECT_EQ(small.checksum, prog.expected_checksum);
    EXPECT_EQ(small.result.instructions, big.result.instructions);
    EXPECT_EQ(small.result.cycles, big.result.cycles);
    EXPECT_EQ(small.counters, big.counters);
    // The squeeze was real: conflicting blocks were evicted and
    // re-minted far more often than under the default geometry.
    // (Evictions surface as cold re-mints, not guard failures —
    // those are covered deterministically by SuperblockSmc.)
    EXPECT_GT(small.sb.minted, big.sb.minted);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SuperblockTimingInvariance,
                         ::testing::Values("treeadd", "bisort", "mst",
                                           "em3d"),
                         [](const auto &info) { return info.param; });

/**
 * Snapshot restore drops all superblock state: the restored machine
 * re-mints from scratch and replays the identical tail, bit for bit
 * — the PR 4 memo proof extended to the tier.
 */
TEST(SuperblockSnapshot, RestoreLeavesNoSuperblockState)
{
    workloads::GuestProgram prog = workloads::guestTreeadd(8, 2);

    // Uninterrupted baseline, tier on.
    core::Machine baseline = makeMachine();
    baseline.cpu().setSuperblocksEnabled(true);
    workloads::loadGuestProgram(baseline, prog);
    core::RunResult clean = baseline.cpu().run(core::RunLimits{});
    ASSERT_EQ(clean.reason, core::StopReason::kBreak);
    ASSERT_EQ(baseline.cpu().gpr(reg::v0), prog.expected_checksum);
    auto expected = allCounters(baseline);
    std::uint64_t clean_instructions =
        baseline.cpu().totalInstructions();

    // Snapshot mid-kernel — mid-superblock-working-set by
    // construction, since the tier covers essentially every retired
    // instruction of the kernel.
    core::Machine machine = makeMachine();
    machine.cpu().setSuperblocksEnabled(true);
    workloads::loadGuestProgram(machine, prog);
    core::RunLimits half;
    half.max_instructions = clean_instructions / 2;
    core::RunResult mid = machine.cpu().run(half);
    ASSERT_EQ(mid.reason, core::StopReason::kInstLimit);
    ASSERT_GT(machine.cpu().superblockStats().entered, 0u);
    core::Machine::Snapshot snapshot = machine.saveSnapshot();

    // Taking the snapshot must not perturb the continuation.
    core::RunResult rest = machine.cpu().run(core::RunLimits{});
    ASSERT_EQ(rest.reason, core::StopReason::kBreak);
    EXPECT_EQ(allCounters(machine), expected);

    // Restoring must replay the identical tail, twice, re-minting
    // every block it needs (counter-invisibly).
    for (int round = 0; round < 2; ++round) {
        machine.restoreSnapshot(snapshot);
        EXPECT_EQ(machine.cpu().totalInstructions(),
                  half.max_instructions);
        std::uint64_t minted_before =
            machine.cpu().superblockStats().minted;
        core::RunResult replay = machine.cpu().run(core::RunLimits{});
        ASSERT_EQ(replay.reason, core::StopReason::kBreak);
        EXPECT_EQ(allCounters(machine), expected) << "round " << round;
        EXPECT_EQ(machine.cpu().gpr(reg::v0), prog.expected_checksum);
        // The tail re-minted blocks from scratch: restore left none.
        EXPECT_GT(machine.cpu().superblockStats().minted,
                  minted_before)
            << "round " << round;
    }
}

// --- host-table growth ---------------------------------------------

/** The VM guest: at 550 words of text it outgrows the 64-line start
 *  of the predecode table. */
workloads::GuestProgram
vmGuest()
{
    return workloads::guestVm(workloads::VmConfig{});
}

core::CpuAccelConfig
tinyGeometry()
{
    core::CpuAccelConfig tiny;
    tiny.decode_cache_lines = 4;
    tiny.superblock_entries = 4;
    tiny.superblock_max_slots = 4;
    return tiny;
}

TEST(HostTableGrowth, FreshCpuStartsSmall)
{
    core::Machine machine = makeMachine();
    core::HostTableSizes sizes = machine.cpu().hostTableSizes();
    EXPECT_EQ(sizes.decode_lines, core::Cpu::kHostTableStartEntries);
    EXPECT_EQ(sizes.superblocks, core::Cpu::kHostTableStartEntries);
    EXPECT_EQ(sizes.data_memo_lines, core::Cpu::kHostTableStartEntries);
    // A cap below the start size is the start size.
    core::Machine tiny = makeMachine(tinyGeometry());
    EXPECT_EQ(tiny.cpu().hostTableSizes().decode_lines, 4u);
    EXPECT_EQ(tiny.cpu().hostTableSizes().superblocks, 4u);
}

/**
 * Three runs of the VM guest must retire bit-identical counters: the
 * default caps (the tables grow past their start), the tiny 4-entry
 * geometry (they cannot grow), and a fork child of a half-run parent
 * (its tables start small again) against a deep clone of the same
 * parent.
 */
TEST(HostTableGrowth, VmGuestCountersIdenticalAcrossGrowth)
{
    workloads::GuestProgram prog = vmGuest();
    ASSERT_GT(prog.text.size(),
              core::Cpu::kHostTableStartEntries * mem::kLineBytes / 4);

    ModeRun grown = runKernel(prog, true);
    ASSERT_EQ(grown.checksum, prog.expected_checksum);
    const core::HostTableSizes &sizes = grown.sizes;
    const core::CpuAccelConfig caps;
    EXPECT_GT(sizes.decode_lines, core::Cpu::kHostTableStartEntries);
    EXPECT_LE(sizes.decode_lines, caps.decode_cache_lines);
    EXPECT_LE(sizes.superblocks, caps.superblock_entries);
    EXPECT_GE(sizes.superblocks, core::Cpu::kHostTableStartEntries);
    EXPECT_GE(sizes.data_memo_lines, core::Cpu::kHostTableStartEntries);

    ModeRun tiny = runKernel(prog, true, tinyGeometry());
    EXPECT_EQ(tiny.checksum, prog.expected_checksum);
    EXPECT_EQ(tiny.counters, grown.counters);

    // Fork child against deep clone, from a parent halfway through.
    core::Machine parent = makeMachine();
    workloads::loadGuestProgram(parent, prog);
    core::RunLimits half;
    half.max_instructions = grown.result.instructions / 2;
    ASSERT_EQ(parent.cpu().run(half).reason,
              core::StopReason::kInstLimit);
    core::Machine clone = makeMachine();
    clone.restoreSnapshot(parent.saveSnapshot());
    std::unique_ptr<core::Machine> child = parent.fork();
    // Forks carry no host-table state: the child starts small.
    EXPECT_EQ(child->cpu().hostTableSizes().decode_lines,
              core::Cpu::kHostTableStartEntries);
    ASSERT_EQ(child->cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    ASSERT_EQ(clone.cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    EXPECT_EQ(child->cpu().gpr(reg::v0), prog.expected_checksum);
    EXPECT_EQ(allCounters(*child), allCounters(clone));
    EXPECT_EQ(allCounters(*child), grown.counters);
    // The grown sizes never pass their caps.
    core::HostTableSizes child_sizes = child->cpu().hostTableSizes();
    EXPECT_LE(child_sizes.decode_lines, caps.decode_cache_lines);
    EXPECT_LE(child_sizes.superblocks, caps.superblock_entries);
    EXPECT_LE(child_sizes.data_memo_lines, 1024u);
}

/**
 * A store into the dispatching block still aborts it once the tables
 * have grown: the VM guest grows them, then the mid-block SMC loop
 * runs on the same CPU. Counters match the tier-off run.
 */
TEST(HostTableGrowth, SmcAbortAfterGrowth)
{
    workloads::GuestProgram vm = vmGuest();
    constexpr std::uint64_t kSmcBase = 0x300000;
    MidBlockSmc smc = makeMidBlockSmc(kSmcBase);
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> runs;
    for (bool superblocks : {true, false}) {
        core::Machine machine = makeMachine();
        machine.cpu().setSuperblocksEnabled(superblocks);
        workloads::loadGuestProgram(machine, vm);
        ASSERT_EQ(workloads::runGuestProgram(machine, vm).reason,
                  core::StopReason::kBreak);
        core::HostTableSizes grown = machine.cpu().hostTableSizes();
        ASSERT_GT(grown.decode_lines, core::Cpu::kHostTableStartEntries);
        core::SuperblockStats before = machine.cpu().superblockStats();

        machine.loadProgram(kSmcBase, smc.text);
        machine.reset(kSmcBase);
        ASSERT_EQ(machine.cpu().run(10'000).reason,
                  core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::v0), MidBlockSmc::kExpected);
        // loadProgram's invalidation keeps the grown sizes.
        EXPECT_GE(machine.cpu().hostTableSizes().decode_lines,
                  grown.decode_lines);
        if (superblocks) {
            const core::SuperblockStats &after =
                machine.cpu().superblockStats();
            EXPECT_GT(after.entered, before.entered);
            EXPECT_GT(after.invalidated, before.invalidated);
        }
        runs.push_back(allCounters(machine));
    }
    EXPECT_EQ(runs[0], runs[1]);
}

/**
 * The data memo keeps its live entries when it doubles, so what it
 * holds — and so the target a memo-staleness fault picks — depends
 * on the guest's accesses since the last restore, not on how far the
 * memo grew before it. The guest stores to three lines: A and B sit
 * on either side of a 64-line boundary (so a 64-entry memo orders
 * them B, A and a full-size one A, B), and C shares B's slot until
 * the memo doubles. It then reloads them, weighted so that any
 * skewed victim shows in v0. A fresh CPU (memo grows 64 -> 128 under
 * the guest) and one whose memo the VM guest already grew must skew
 * the same entry and end with the same v0 and counters.
 */
TEST(HostTableGrowth, MemoSkewTargetIndependentOfGrowth)
{
    constexpr std::uint64_t kData = 0x200000;
    Assembler a(kCodeBase);
    a.li64(reg::t0, kData);
    a.li(reg::t1, 5);
    a.sd(reg::t1, reg::t0, 0x7e0); // A: line 63 past kData
    a.li(reg::t1, 7);
    a.sd(reg::t1, reg::t0, 0x800); // B: line 64
    a.li(reg::t1, 11);
    a.sd(reg::t1, reg::t0, 0x1000); // C: line 128, B's slot below 128
    a.break_(); // the injection point
    a.ld(reg::t3, reg::t0, 0x7e0);
    a.ld(reg::t4, reg::t0, 0x800);
    a.ld(reg::t5, reg::t0, 0x1000);
    a.dsll(reg::t4, reg::t4, 8);
    a.dsll(reg::t5, reg::t5, 16);
    a.daddu(reg::v0, reg::t3, reg::t4);
    a.daddu(reg::v0, reg::v0, reg::t5);
    a.break_();
    constexpr std::uint64_t kUnskewed = 5 + (7 << 8) + (11 << 16);

    core::Machine origin = makeMachine();
    origin.mapRange(kData, 2 * tlb::kPageBytes);
    origin.loadProgram(kCodeBase, a.finish());
    origin.reset(kCodeBase);
    core::Machine::Snapshot entry = origin.saveSnapshot();
    workloads::GuestProgram grower = vmGuest();

    bool skew_seen = false;
    for (std::uint64_t pick : {0ull, 1ull, 2ull}) {
        std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
            runs;
        std::vector<std::size_t> memo_sizes;
        for (bool pregrown : {false, true}) {
            core::Machine machine = makeMachine();
            if (pregrown) {
                workloads::loadGuestProgram(machine, grower);
                workloads::runGuestProgram(machine, grower);
            }
            machine.restoreSnapshot(entry);
            ASSERT_EQ(machine.cpu().run(100).reason,
                      core::StopReason::kBreak);
            memo_sizes.push_back(
                machine.cpu().hostTableSizes().data_memo_lines);
            ASSERT_TRUE(machine.cpu().injectMemoSkew(pick));
            ASSERT_EQ(machine.cpu().run(100).reason,
                      core::StopReason::kBreak);
            auto counters = allCounters(machine);
            counters.emplace_back("v0", machine.cpu().gpr(reg::v0));
            skew_seen |= machine.cpu().gpr(reg::v0) != kUnskewed;
            runs.push_back(counters);
        }
        EXPECT_EQ(memo_sizes[0], 2 * core::Cpu::kHostTableStartEntries);
        EXPECT_GT(memo_sizes[1], memo_sizes[0]);
        EXPECT_EQ(runs[0], runs[1]) << "pick " << pick;
    }
    EXPECT_TRUE(skew_seen);
}

/**
 * A superblock-table doubling re-inserts the live blocks, so what the
 * table holds does not depend on how far it has grown: a fork child
 * whose table grows under it mints exactly the blocks that a machine
 * with a larger table mints over the same run. The child forks a warm
 * VM-guest parent, as cheri-serve does (its table starts at 64
 * entries and grows to 512). The other machine first runs the whole
 * guest, which grows its table to 256 entries, then restores the
 * parent's snapshot. With the blocks dropped on each doubling the
 * child minted 58 blocks to the other machine's 47. Both runs must
 * also retire bit-identical counters.
 */
TEST(HostTableGrowth, GrownChildMintsLikeFullSizeTable)
{
    workloads::GuestProgram prog = vmGuest();
    core::Machine parent = makeMachine();
    workloads::loadGuestProgram(parent, prog);
    ASSERT_EQ(parent.cpu().run(256).reason, core::StopReason::kInstLimit);

    core::Machine full = makeMachine();
    workloads::loadGuestProgram(full, prog);
    ASSERT_EQ(workloads::runGuestProgram(full, prog).reason,
              core::StopReason::kBreak);
    full.restoreSnapshot(parent.saveSnapshot());
    std::size_t full_start = full.cpu().hostTableSizes().superblocks;
    std::uint64_t full_minted_before = full.cpu().superblockStats().minted;
    ASSERT_EQ(full.cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);

    std::unique_ptr<core::Machine> child = parent.fork();
    ASSERT_EQ(child->cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    EXPECT_EQ(child->cpu().gpr(reg::v0), prog.expected_checksum);
    // The child's table grew under it from a smaller start.
    EXPECT_GT(full_start, core::Cpu::kHostTableStartEntries);
    EXPECT_GT(child->cpu().hostTableSizes().superblocks,
              core::Cpu::kHostTableStartEntries);
    EXPECT_EQ(child->cpu().superblockStats().minted,
              full.cpu().superblockStats().minted - full_minted_before);
    EXPECT_EQ(allCounters(*child), allCounters(full));
}

} // namespace
