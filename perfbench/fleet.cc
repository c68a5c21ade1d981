/**
 * @file
 * The fleet workload: cheri-serve's serving loop rebuilt from public
 * calls. One warm parent per guest kind; every guest is a
 * Machine::fork of its parent, personalised with a seeded salt in the
 * heap tail, run in 500-instruction Cpu::run quanta over
 * support::GuestScheduler, and verified by checksum and salt
 * readback. A round serves one batch of each kind, in a seeded order;
 * like a cheri-serve fleet, a batch's guests all fork one parent.
 * Within a batch each worker takes its next guest the moment its last
 * one finishes.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "isa/assembler.h"
#include "support/rng.h"
#include "support/scheduler.h"
#include "workloads/guest_olden.h"
#include "workloads/vm_guest.h"

namespace perfbench
{

using cheri::core::Machine;
using cheri::workloads::GuestProgram;

namespace
{

/** cheri-serve's quantum and parent warm-up, in instructions. */
constexpr std::uint64_t kQuantum = 500;
constexpr std::uint64_t kWarmup = 256;
/** A kind's batch is this many guests per percent of weight, so a
 *  round of every kind's batch is 1000 guests, about a second of
 *  serving; the batch barrier idles each worker for under one guest's
 *  time per batch. */
constexpr std::size_t kGuestsPerWeight = 10;
/** More workers than this measure the host's core count, not the
 *  emulator. */
constexpr unsigned kMaxWorkers = 4;
/** Cores left to the rest of the system: when every core serves
 *  guests, each OS preemption lands in some guest's latency. */
constexpr unsigned kSpareCores = 1;

struct GuestKind
{
    std::string name;
    GuestProgram prog;
    /** Share of the fleet, in percent. */
    unsigned weight = 0;
    std::unique_ptr<Machine> parent;
    std::uint64_t parent_insts = 0;
    std::uint64_t parent_cycles = 0;
    /** Counter changes of one guest from fork to BREAK. */
    Counters reference;
    /** The reference's instructions, cycles and COW faults. */
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t cow_faults = 0;
};

/** A guest while it is being served. */
struct LiveGuest
{
    std::unique_ptr<Machine> machine;
    std::size_t kind = 0;
    std::uint64_t salt = 0;
    std::uint64_t run = 0;
    std::uint64_t root = 0;
    Clock::time_point start;
    Clock::time_point last_end;
    /** Scaled CPU ms of the guest's quantum() calls so far. */
    double cpu_ms = 0.0;
    /** Set by the call that verified the guest. */
    bool verified = false;
};

/** One worker's share of the tally; padded so workers never share a
 *  cache line. */
struct alignas(64) WorkerLog
{
    std::vector<std::vector<double>> run_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t verified = 0;
    std::uint64_t insts = 0;
    /** Scaled CPU ms of every quantum() call. */
    double cpu_ms = 0.0;
    /** Host speed as this worker sees it. */
    PaceMeter pace;
    Clock::time_point last_end;
};

std::uint64_t
saltAddr(const GuestProgram &prog)
{
    return prog.layout.heap_base + prog.layout.heap_bytes - 8;
}

class Fleet : public Workload
{
  public:
    Fleet(std::uint64_t seed, unsigned workers)
        : seed_(seed), rotation_(seed)
    {
        unsigned cores = std::thread::hardware_concurrency();
        workers_ = workers != 0
                       ? workers
                       : std::clamp(cores, 1 + kSpareCores,
                                    kMaxWorkers + kSpareCores) -
                             kSpareCores;
        for (const GuestKind &kind : assembleKinds())
            kind_names_.push_back(kind.name);
    }

    const std::vector<std::string> &runKinds() const override
    {
        return kind_names_;
    }

    unsigned workers() const override { return workers_; }

    void
    setup(Tracer *tracer) override
    {
        kinds_ = assembleKinds();
        for (std::size_t k = 0; k < kinds_.size(); ++k) {
            GuestKind &kind = kinds_[k];
            Span span;
            span.run_kind = static_cast<std::uint32_t>(k);
            span.kind = SpanKind::kMachineNew;
            span.start = Clock::now();
            kind.parent = std::make_unique<Machine>();
            span.end = Clock::now();
            if (tracer != nullptr)
                tracer->add(0, span);
            span.kind = SpanKind::kLoad;
            span.start = Clock::now();
            cheri::workloads::loadGuestProgram(*kind.parent, kind.prog);
            span.end = Clock::now();
            if (tracer != nullptr)
                tracer->add(0, span);

            cheri::core::RunLimits limits;
            limits.max_instructions = kWarmup;
            cheri::core::RunResult warm = kind.parent->cpu().run(limits);
            kind.parent_insts = kind.parent->cpu().totalInstructions();
            kind.parent_cycles = kind.parent->cpu().totalCycles();
            bool ok = warm.reason == cheri::core::StopReason::kInstLimit &&
                      runProbeGuest(kind, kind.reference);
            if (!ok) {
                std::fprintf(stderr, "perfbench: fleet parent %s failed\n",
                             kind.name.c_str());
                std::exit(1);
            }
            kind.insts = kind.reference.at("sim.insts");
            kind.cycles = kind.reference.at("sim.cycles");
            kind.cow_faults = kind.reference.at("cow.faults");
            counts_.add(kind.reference, kind.weight);
        }
    }

    Tally
    serve(Clock::time_point deadline, Tracer *tracer) override
    {
        std::vector<WorkerLog> logs(workers_);
        for (WorkerLog &log : logs)
            log.run_ms.resize(kinds_.size());
        cheri::support::GuestScheduler scheduler(workers_);
        Tally tally;
        std::vector<std::size_t> order(kinds_.size());
        for (std::size_t k = 0; k < order.size(); ++k)
            order[k] = k;
        Clock::time_point phase_start = Clock::now();
        Clock::time_point phase_end = phase_start;
        while (Clock::now() < deadline) {
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rotation_.nextBelow(i)]);
            std::uint64_t insts_before = 0, verified_before = 0;
            double cpu_before = 0.0;
            for (const WorkerLog &log : logs) {
                insts_before += log.insts;
                verified_before += log.verified;
                cpu_before += log.cpu_ms;
            }
            std::atomic<bool> cut{false};
            for (std::size_t k : order) {
                std::size_t batch = kinds_[k].weight * kGuestsPerWeight;
                std::vector<LiveGuest> live(batch);
                std::uint64_t first_index = next_index_;
                next_index_ += batch;
                Clock::time_point batch_start = Clock::now();
                for (WorkerLog &log : logs)
                    log.last_end = batch_start;
                scheduler.run(batch, [&](std::size_t slot, unsigned worker) {
                    LiveGuest &guest = live[slot];
                    WorkerLog &log = logs[worker];
                    log.pace.tick();
                    double cpu_start = threadCpuMs();
                    cheri::support::QuantumResult result =
                        quantum(guest, k, first_index + slot, log, worker,
                                deadline, tracer, cut);
                    double cpu_ms =
                        log.pace.charge(threadCpuMs() - cpu_start);
                    guest.cpu_ms += cpu_ms;
                    log.cpu_ms += cpu_ms;
                    if (guest.verified)
                        log.run_ms[guest.kind].push_back(guest.cpu_ms);
                    return result;
                });
            }
            phase_end = Clock::now();
            std::uint64_t insts = 0, verified = 0;
            double cpu_ms = 0.0;
            for (const WorkerLog &log : logs) {
                insts += log.insts;
                verified += log.verified;
                cpu_ms += log.cpu_ms;
            }
            // A round cut short by the deadline is not a full round.
            // Its rates are per scaled CPU second of serving, times
            // the workers: what the fleet sustains with a core per
            // worker.
            if (!cut.load()) {
                double seconds = (cpu_ms - cpu_before) / 1e3 / workers_;
                tally.round_mips.push_back(
                    static_cast<double>(insts - insts_before) / seconds /
                    1e6);
                tally.round_rate.push_back(
                    static_cast<double>(verified - verified_before) /
                    seconds);
            }
        }
        tally.wall_s = msBetween(phase_start, phase_end) / 1e3;
        tally.run_ms.resize(kinds_.size());
        for (const WorkerLog &log : logs) {
            tally.attempted += log.attempted;
            tally.failed += log.failed;
            tally.pace_ms.insert(tally.pace_ms.end(),
                                 log.pace.readings().begin(),
                                 log.pace.readings().end());
            for (std::size_t k = 0; k < kinds_.size(); ++k) {
                tally.run_ms[k].insert(tally.run_ms[k].end(),
                                       log.run_ms[k].begin(),
                                       log.run_ms[k].end());
            }
        }
        return tally;
    }

    const EventCounts &counts() const override { return counts_; }

    ProbeInput
    probeInput() const override
    {
        ProbeInput input;
        std::vector<std::uint64_t> lines;
        for (const GuestKind &kind : kinds_) {
            input.text.insert(input.text.end(), kind.prog.text.begin(),
                              kind.prog.text.end());
            // Halfway through a guest: the VM scrubs its heap at exit.
            std::unique_ptr<Machine> child = kind.parent->fork();
            child->cpu().run(kind.insts / 2);
            std::vector<std::uint64_t> own =
                touchedLines(*child, kind.prog.layout.heap_base,
                             kind.prog.layout.heap_bytes);
            lines.insert(lines.end(), own.begin(), own.end());
        }
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
        input.lines = std::move(lines);
        GuestProgram first = kinds_.front().prog;
        input.map = [first](Machine &machine) {
            cheri::workloads::loadGuestProgram(machine, first);
        };
        return input;
    }

    double
    cowFaultUs() const override
    {
        // The kind whose dirty lines reach DRAM has the COW traffic.
        return probeCowFaultUs(*kinds_.back().parent);
    }

    /**
     * After the fleet each parent must be byte-clean (no guest write
     * leaked into it), unchanged, and still forkable, and a fresh
     * guest must repeat the reference counters exactly.
     */
    std::uint64_t
    finalFailures() override
    {
        std::uint64_t failures = 0;
        for (GuestKind &kind : kinds_) {
            // Fork first: the debugRead below warms the parent's TLB
            // and caches, which a later fork would inherit.
            Counters delta;
            bool forkable = runProbeGuest(kind, delta) &&
                            sameSimulated(delta, kind.reference);
            std::uint64_t salt = 1;
            bool clean =
                kind.parent->cpu().debugRead(saltAddr(kind.prog), 8, salt) &&
                salt == 0 &&
                kind.parent->cpu().totalInstructions() == kind.parent_insts;
            if (!clean || !forkable) {
                std::fprintf(stderr,
                             "perfbench: fleet parent %s %s after the "
                             "fleet\n",
                             kind.name.c_str(),
                             !clean ? "is not clean" : "does not fork");
                ++failures;
            }
        }
        return failures;
    }

  private:
    static std::vector<GuestKind>
    assembleKinds()
    {
        // cheri-serve's shapes, plus a tree big enough that its dirty
        // lines leave the 64 KB L2 and copy-fault pages in the child.
        std::vector<GuestKind> kinds;
        auto add = [&](std::string name, GuestProgram prog,
                       unsigned weight) {
            GuestKind kind;
            kind.name = std::move(name);
            kind.prog = std::move(prog);
            kind.weight = weight;
            kinds.push_back(std::move(kind));
        };
        add("treeadd", cheri::workloads::guestTreeadd(5, 2), 20);
        add("bisort", cheri::workloads::guestBisort(48), 20);
        add("mst", cheri::workloads::guestMst(12), 20);
        add("em3d", cheri::workloads::guestEm3d(10, 3, 2), 20);
        add("vm", cheri::workloads::guestVm(cheri::workloads::VmConfig{}),
            15);
        add("treeadd_dram", cheri::workloads::guestTreeadd(12, 1), 5);
        return kinds;
    }

    /** Fork, salt and run one guest the way the fleet does, and
     *  check it. (The salt store moves the simulated caches, so the
     *  reference guest is salted too.) */
    bool
    runProbeGuest(GuestKind &kind, Counters &delta) const
    {
        std::unique_ptr<Machine> child = kind.parent->fork();
        Counters before = machineCounters(*child);
        if (!child->cpu().debugWrite(saltAddr(kind.prog), 8, 1))
            return false;
        cheri::core::RunLimits limits;
        limits.max_instructions = kQuantum;
        cheri::core::RunResult result;
        do {
            result = child->cpu().run(limits);
        } while (result.reason == cheri::core::StopReason::kInstLimit);
        delta = counterDelta(before, machineCounters(*child));
        return result.reason == cheri::core::StopReason::kBreak &&
               child->cpu().gpr(cheri::isa::reg::v0) ==
                   kind.prog.expected_checksum;
    }

    cheri::support::QuantumResult
    quantum(LiveGuest &guest, std::size_t kind_index, std::uint64_t index,
            WorkerLog &log, unsigned worker, Clock::time_point deadline,
            Tracer *tracer, std::atomic<bool> &cut)
    {
        using cheri::support::QuantumResult;
        Clock::time_point now = Clock::now();
        Span span;
        auto record = [&](SpanKind kind, Clock::time_point start,
                          Clock::time_point end, std::uint64_t insts) {
            if (tracer == nullptr)
                return;
            span.kind = kind;
            span.start = start;
            span.end = end;
            span.insts = insts;
            tracer->add(worker, span);
        };
        auto fail = [&](const char *why) {
            std::fprintf(stderr, "perfbench: fleet guest %llu (%s): %s\n",
                         static_cast<unsigned long long>(index),
                         kinds_[guest.kind].name.c_str(), why);
            ++log.failed;
            guest.machine.reset();
            log.last_end = Clock::now();
            return QuantumResult::kDone;
        };

        if (guest.machine == nullptr) {
            if (now >= deadline) {
                // Unserved: the closed loop is over.
                cut.store(true);
                return QuantumResult::kDone;
            }
            cheri::support::Xoshiro256 rng(seed_ * 0x9e3779b97f4a7c15ULL +
                                           index);
            guest.kind = kind_index;
            guest.salt = rng.next() | 1;
            guest.start = log.last_end;
            guest.run = index + 1;
            guest.root = tracer != nullptr ? tracer->newId() : 0;
            span.run = guest.run;
            span.run_kind = static_cast<std::uint32_t>(guest.kind);
            span.parent = guest.root;
            record(SpanKind::kWait, guest.start, now, 0);
            ++log.attempted;
            const GuestKind &kind = kinds_[guest.kind];
            guest.machine = kind.parent->fork();
            Clock::time_point forked = Clock::now();
            record(SpanKind::kFork, now, forked, 0);
            bool salted = guest.machine->cpu().debugWrite(
                saltAddr(kind.prog), 8, guest.salt);
            now = Clock::now();
            record(SpanKind::kSaltWrite, forked, now, 0);
            if (!salted)
                return fail("salt write failed");
        } else {
            span.run = guest.run;
            span.run_kind = static_cast<std::uint32_t>(guest.kind);
            span.parent = guest.root;
            record(SpanKind::kWait, guest.last_end, now, 0);
        }

        const GuestKind &kind = kinds_[guest.kind];
        cheri::core::Cpu &cpu = guest.machine->cpu();
        cheri::core::RunLimits limits;
        limits.max_instructions = kQuantum;
        std::uint64_t insts_before = cpu.totalInstructions();
        cheri::core::RunResult slice = cpu.run(limits);
        Clock::time_point ran = Clock::now();
        std::uint64_t retired = cpu.totalInstructions() - insts_before;
        record(SpanKind::kQuantum, now, ran, retired);
        log.insts += retired;
        guest.last_end = ran;
        log.last_end = ran;

        std::uint64_t executed = cpu.totalInstructions() - kind.parent_insts;
        if (slice.reason == cheri::core::StopReason::kInstLimit) {
            if (executed > kind.insts)
                return fail("ran past its reference length");
            return QuantumResult::kRunnable;
        }
        if (slice.reason != cheri::core::StopReason::kBreak)
            return fail(cheri::core::stopReasonName(slice.reason));

        std::uint64_t salt = 0;
        bool ok = cpu.gpr(cheri::isa::reg::v0) == kind.prog.expected_checksum &&
                  cpu.debugRead(saltAddr(kind.prog), 8, salt) &&
                  salt == guest.salt && executed == kind.insts &&
                  cpu.totalCycles() - kind.parent_cycles == kind.cycles &&
                  guest.machine->cowStore().cowFaults() == kind.cow_faults;
        Clock::time_point verified = Clock::now();
        record(SpanKind::kVerify, ran, verified, 0);
        if (!ok)
            return fail("checksum, salt or counters differ");
        // Tearing the fork down is the run's last piece of work.
        guest.machine.reset();
        Clock::time_point end = Clock::now();
        if (tracer != nullptr) {
            span.id = guest.root;
            span.parent = 0;
            record(SpanKind::kRun, guest.start, end, 0);
        }
        guest.verified = true;
        ++log.verified;
        log.last_end = end;
        return QuantumResult::kDone;
    }

    std::uint64_t seed_;
    cheri::support::Xoshiro256 rotation_;
    unsigned workers_ = 1;
    std::vector<std::string> kind_names_;
    std::vector<GuestKind> kinds_;
    EventCounts counts_;
    std::uint64_t next_index_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFleet(std::uint64_t seed, unsigned workers)
{
    return std::make_unique<Fleet>(seed, workers);
}

} // namespace perfbench
