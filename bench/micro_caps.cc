/**
 * @file
 * Microbenchmarks (google-benchmark) for the claims of Section 4.4:
 * capability manipulation is single-cycle in the architectural model
 * (contrast: at least 241 cycles for protected-segment manipulation
 * on IA32), and the emulator's own throughput for capability
 * operations, checked accesses, and whole guest instructions. The
 * fork cases time the mem/core layers cheri-serve pays per guest:
 * CowStore fork + teardown (alone and with four threads forking one
 * parent), a copy-on-write page fault, and Machine::fork of a warm
 * guest. The per-access cases time the memory model's host tables: a
 * TLB hit that moves the LRU order, a tag-cache hit, a TLB and a tag
 * cache thrashed one page or line past capacity (every access a miss
 * that evicts), and a workload context's pointer load.
 */

#include <benchmark/benchmark.h>

#include "cap/cap128.h"
#include "cap/cap_ops.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "isa/text_assembler.h"
#include "mem/cow_store.h"
#include "mem/tag_manager.h"
#include "os/revoker.h"
#include "tlb/tlb.h"
#include "workloads/context.h"
#include "workloads/guest_olden.h"

using namespace cheri;
using namespace cheri::isa::reg;

namespace
{

void
BM_CapIncBase(benchmark::State &state)
{
    cap::Capability c = cap::Capability::make(0x10000, 0x10000,
                                              cap::kPermAll);
    std::uint64_t delta = 16;
    for (auto _ : state) {
        cap::CapOpResult r = cap::incBase(c, delta);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_CapIncBase);

void
BM_CapCheckedAccess(benchmark::State &state)
{
    cap::Capability c = cap::Capability::make(0x10000, 0x10000,
                                              cap::kPermAll);
    std::uint64_t offset = 0;
    for (auto _ : state) {
        cap::CapCause cause =
            cap::checkDataAccess(c, offset, 8, cap::kPermLoad);
        benchmark::DoNotOptimize(cause);
        offset = (offset + 8) & 0xfff8;
    }
}
BENCHMARK(BM_CapCheckedAccess);

void
BM_Cap128Compress(benchmark::State &state)
{
    cap::Capability c = cap::Capability::make(0x10000, 0x10000,
                                              cap::kPermAll);
    for (auto _ : state) {
        auto compressed = cap::Cap128::compress(c);
        benchmark::DoNotOptimize(compressed);
    }
}
BENCHMARK(BM_Cap128Compress);

/** Whole-machine: guest ALU loop, reporting guest instructions/sec. */
void
BM_GuestAluLoop(benchmark::State &state)
{
    isa::Assembler a(0x10000);
    auto loop = a.newLabel();
    a.li(t0, 0);
    a.bind(loop);
    a.daddiu(t0, t0, 1);
    a.b(loop);
    a.nop();

    core::Machine machine;
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);

    for (auto _ : state) {
        core::RunResult r = machine.cpu().run(10000);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_GuestAluLoop);

/** Whole-machine: capability load/store loop (CLC/CSC). */
void
BM_GuestCapMemLoop(benchmark::State &state)
{
    isa::Assembler a(0x10000);
    auto loop = a.newLabel();
    a.li(t0, 0x20000);
    a.cincbase(1, 0, t0);
    a.li(t1, 0x1000);
    a.csetlen(1, 1, t1);
    a.bind(loop);
    a.csc(1, 1, zero, 0);
    a.clc(2, 1, zero, 0);
    a.b(loop);
    a.nop();

    core::Machine machine;
    machine.mapRange(0x20000, 0x1000);
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);

    for (auto _ : state) {
        core::RunResult r = machine.cpu().run(10000);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_GuestCapMemLoop);

/**
 * Architectural latency claim of Section 4.4: a capability
 * manipulation instruction retires in one cycle on the model. The
 * "benchmark" measures modeled cycles per CIncBase in a tight guest
 * loop (loop overhead included) and reports it as a counter.
 */
void
BM_ModeledCapManipCycles(benchmark::State &state)
{
    isa::Assembler a(0x10000);
    auto loop = a.newLabel();
    a.li(t0, 0);
    a.bind(loop);
    // 8 capability manipulations per iteration.
    for (int i = 0; i < 8; ++i)
        a.cincbase(1, 0, t0);
    a.b(loop);
    a.nop();

    core::Machine machine;
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);
    // Warm the caches so the steady state is measured.
    machine.cpu().run(1000);

    std::uint64_t cycles_before = machine.cpu().totalCycles();
    std::uint64_t insts_before = machine.cpu().totalInstructions();
    for (auto _ : state) {
        core::RunResult r = machine.cpu().run(10000);
        benchmark::DoNotOptimize(r);
    }
    double cycles = static_cast<double>(machine.cpu().totalCycles() -
                                        cycles_before);
    double insts = static_cast<double>(
        machine.cpu().totalInstructions() - insts_before);
    state.counters["modeled_cpi"] =
        insts > 0 ? cycles / insts : 0.0;
}
BENCHMARK(BM_ModeledCapManipCycles);

void
BM_CapSealUnseal(benchmark::State &state)
{
    cap::Capability data = cap::Capability::make(0x10000, 0x1000,
                                                 cap::kPermAll);
    cap::Capability authority =
        cap::Capability::make(42, 1, cap::kPermSeal);
    for (auto _ : state) {
        cap::CapOpResult sealed = cap::seal(data, authority);
        cap::CapOpResult unsealed =
            cap::unseal(sealed.value, authority);
        benchmark::DoNotOptimize(unsealed);
    }
}
BENCHMARK(BM_CapSealUnseal);

/** Revocation sweep cost vs heap population (Section 11). */
void
BM_RevokerSweep(benchmark::State &state)
{
    core::Machine machine;
    machine.mapRange(0x100000, 4 * 1024 * 1024);
    // Park registers away from the swept range.
    for (unsigned i = 0; i < cap::kNumCapRegs; ++i)
        machine.cpu().caps().write(
            i, cap::Capability::make(0x10000, 16, cap::kPermLoad));

    // Populate N tagged capabilities.
    cap::Capability value =
        cap::Capability::make(0x7000000, 8, cap::kPermAll);
    for (std::int64_t i = 0; i < state.range(0); ++i)
        machine.cpu().debugWriteCap(
            0x100000 + static_cast<std::uint64_t>(i) * 64, value);

    os::CapabilityRevoker revoker(machine);
    for (auto _ : state) {
        os::SweepStats stats = revoker.revoke(0x9000000, 16);
        benchmark::DoNotOptimize(stats);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RevokerSweep)->Arg(100)->Arg(1000)->Arg(10000);

/** Text-assembler throughput (lines/second). */
void
BM_TextAssemble(benchmark::State &state)
{
    std::string source;
    for (int i = 0; i < 100; ++i)
        source += "daddiu $t0, $t0, 1\ncld $t1, 8($c1)\n";
    for (auto _ : state) {
        isa::AsmResult result = isa::assembleText(source, 0x10000);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_TextAssemble);

/**
 * CowStore fork + teardown of a fresh 64 MB store. With Threads(4)
 * every thread forks the same parent, the contended case of a
 * cheri-serve fleet at --jobs 4.
 */
void
BM_CowStoreFork(benchmark::State &state)
{
    static const mem::CowStore parent(core::MachineConfig{}.dram_bytes);
    for (auto _ : state) {
        std::shared_ptr<mem::CowStore> child = parent.fork();
        benchmark::DoNotOptimize(child.get());
    }
}
BENCHMARK(BM_CowStoreFork)->Threads(1)->Threads(4)->UseRealTime();

/**
 * One copy-on-write fault: a forked child's first write to a page
 * its parent wrote (clone of the 4 KB page and its tag slice, plus
 * a 1/kCowChunkPages share of cloning the chunk's slot array).
 */
void
BM_CowCopyFault(benchmark::State &state)
{
    mem::CowStore parent(core::MachineConfig{}.dram_bytes);
    for (std::uint64_t p = 0; p < mem::kCowChunkPages; ++p)
        parent.writeByte(p * mem::kCowPageBytes, 1);
    for (auto _ : state) {
        state.PauseTiming();
        std::shared_ptr<mem::CowStore> child = parent.fork();
        state.ResumeTiming();
        for (std::uint64_t p = 0; p < mem::kCowChunkPages; ++p)
            child->writeByte(p * mem::kCowPageBytes + 1, 2);
        benchmark::DoNotOptimize(child.get());
        benchmark::ClobberMemory();
        state.PauseTiming();
        child.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                mem::kCowChunkPages));
}
BENCHMARK(BM_CowCopyFault);

/** Construction + teardown of a default Machine (64 MB, no guest). */
void
BM_MachineNew(benchmark::State &state)
{
    for (auto _ : state) {
        auto machine = std::make_unique<core::Machine>();
        benchmark::DoNotOptimize(machine.get());
    }
}
BENCHMARK(BM_MachineNew);

/** A warm treeadd parent, as cheri-serve warms its default guest. */
void
warmTreeaddParent(core::Machine &parent)
{
    workloads::loadGuestProgram(parent, workloads::guestTreeadd(5, 2));
    core::RunLimits warm;
    warm.max_instructions = 256;
    parent.cpu().run(warm);
}

/** Machine::fork + teardown of a warm treeadd parent (cheri-serve's
 *  default guest and warm-up). */
void
BM_MachineFork(benchmark::State &state)
{
    core::Machine parent;
    warmTreeaddParent(parent);
    for (auto _ : state) {
        std::unique_ptr<core::Machine> child = parent.fork();
        benchmark::DoNotOptimize(child.get());
    }
}
BENCHMARK(BM_MachineFork);

/**
 * One whole short guest: fork the warm treeadd parent, run the child
 * to BREAK, tear it down. Against BM_MachineFork it shows whether
 * host tables that start small only move cost into the child's run.
 */
void
BM_MachineForkRun(benchmark::State &state)
{
    core::Machine parent;
    warmTreeaddParent(parent);
    for (auto _ : state) {
        std::unique_ptr<core::Machine> child = parent.fork();
        core::RunResult r = child->cpu().run(core::RunLimits{});
        if (r.reason != core::StopReason::kBreak)
            state.SkipWithError("guest did not reach BREAK");
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MachineForkRun);

/**
 * TLB hits on two pages in turn, so every hit moves the LRU order:
 * the translate() memo path the interpreter and TimingContext take.
 */
void
BM_TlbTranslateHit(benchmark::State &state)
{
    tlb::PageTable table;
    table.map(1, 1);
    table.map(2, 2);
    tlb::Tlb tlb(table);
    std::uint64_t vpn = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.translate(vpn * tlb::kPageBytes, tlb::Access::kLoad));
        vpn ^= 3;
    }
}
BENCHMARK(BM_TlbTranslateHit);

/** Tag-cache hits on two tag-table lines in turn (the lookup every
 *  DRAM transaction makes below the last-level cache). */
void
BM_TagCacheTouch(benchmark::State &state)
{
    mem::PhysicalMemory dram(1024 * 1024);
    mem::TagTable tags(1024 * 1024);
    mem::TagManager manager(dram, tags);
    // One 32-byte tag-table line covers 8 KB of data.
    std::uint64_t paddr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(manager.readTag(paddr));
        paddr ^= 8192;
    }
}
BENCHMARK(BM_TagCacheTouch);

/**
 * A default 256-entry TLB walked round-robin over 257 pages: every
 * translation misses, refills from the page table and evicts the
 * least recently used entry (the Figure 5 points past 1 MB).
 */
void
BM_TlbThrash(benchmark::State &state)
{
    constexpr std::uint64_t kPages = tlb::TlbConfig{}.entries + 1;
    tlb::PageTable table;
    for (std::uint64_t vpn = 0; vpn < kPages; ++vpn)
        table.map(vpn, vpn);
    tlb::Tlb tlb(table);
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tlb.translate(vpn * tlb::kPageBytes, tlb::Access::kLoad));
        vpn = vpn + 1 == kPages ? 0 : vpn + 1;
    }
}
BENCHMARK(BM_TlbThrash);

/** The default 8 KB tag cache (256 lines) walked round-robin over 257
 *  tag-table lines: every lookup misses and evicts. */
void
BM_TagCacheThrash(benchmark::State &state)
{
    constexpr std::uint64_t kLines = 257;
    constexpr std::uint64_t kBytes = kLines * 8192;
    mem::PhysicalMemory dram(kBytes);
    mem::TagTable tags(kBytes);
    mem::TagManager manager(dram, tags);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(manager.readTag(line * 8192));
        line = line + 1 == kLines ? 0 : line + 1;
    }
}
BENCHMARK(BM_TagCacheThrash);

/** A workload context with no timing model: only the context's own
 *  bookkeeping runs. */
class BareContext : public workloads::Context
{
  public:
    BareContext() : Context(workloads::CompileModel::kCheri) {}

  protected:
    void onAlloc(std::uint64_t, std::uint64_t) override {}
    void onFree(std::uint64_t) override {}
    void onLoad(std::uint64_t, std::uint64_t, bool,
                std::uint64_t) override
    {
    }
    void onStore(std::uint64_t, std::uint64_t, bool, std::uint64_t,
                 std::uint64_t) override
    {
    }
    void onInstructions(std::uint64_t) override {}
};

/**
 * Context::loadPtr around a 4096-node ring: the field lookup and the
 * pointee's allocation-size lookup every Olden pointer move makes.
 */
void
BM_ContextLoadPtr(benchmark::State &state)
{
    using workloads::FieldKind;
    BareContext ctx;
    unsigned node = ctx.defineType({FieldKind::kWord, FieldKind::kPtr});
    constexpr int kNodes = 4096;
    workloads::ObjRef first = ctx.alloc(node);
    workloads::ObjRef prev = first;
    for (int i = 1; i < kNodes; ++i) {
        workloads::ObjRef next = ctx.alloc(node);
        ctx.storePtr(prev, 1, next);
        prev = next;
    }
    ctx.storePtr(prev, 1, first);
    workloads::ObjRef cursor = first;
    for (auto _ : state) {
        cursor = ctx.loadPtr(cursor, 1);
        benchmark::DoNotOptimize(cursor);
    }
}
BENCHMARK(BM_ContextLoadPtr);

} // namespace
