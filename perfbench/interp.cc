/**
 * @file
 * The interpreter workloads, olden and vm_gc: guest kernels run from
 * entry to BREAK on one thread, back to back, with one client.
 *
 * olden keeps one warm Machine per kernel and restarts it at the
 * entry point for every run, the way a user re-runs a loaded program.
 * The VM guest cannot be re-run in place (a second run from entry
 * finds its heap already built and retires about 11k instructions
 * instead of 0.88M), so every vm_gc run starts from a fresh fork of
 * the loaded, never-run machine.
 */

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "isa/assembler.h"
#include "workloads/guest_olden.h"
#include "workloads/vm_guest.h"

namespace perfbench
{

using cheri::core::Machine;
using cheri::workloads::GuestProgram;

namespace
{

/** olden runs each kernel this many times back to back per round, so
 *  a round's working set is one kernel's machine at a time. */
constexpr std::size_t kOldenRepeats = 8;

struct Kernel
{
    GuestProgram prog;
    /** olden: the warm machine; vm_gc: the loaded fork parent. */
    std::unique_ptr<Machine> machine;
    /** Counter changes of one warm run, which every run must repeat. */
    Counters reference;
    /** The reference's instructions, cycles and COW faults. */
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t cow_faults = 0;
    /** olden: the machine's counters after its last run. */
    Counters last;
};

class GuestLoop : public Workload
{
  public:
    GuestLoop(std::function<std::vector<GuestProgram>()> assemble,
              bool fork_per_run, std::uint64_t seed)
        : assemble_(std::move(assemble)), fork_per_run_(fork_per_run),
          rotation_(seed)
    {
        for (const GuestProgram &prog : assemble_())
            kinds_.push_back(prog.name);
    }

    const std::vector<std::string> &runKinds() const override
    {
        return kinds_;
    }

    void
    setup(Tracer *tracer) override
    {
        std::vector<GuestProgram> programs = assemble_();
        for (std::size_t k = 0; k < programs.size(); ++k) {
            Kernel kernel;
            kernel.prog = std::move(programs[k]);
            Span span;
            span.run_kind = static_cast<std::uint32_t>(k);
            span.kind = SpanKind::kMachineNew;
            span.start = Clock::now();
            kernel.machine = std::make_unique<Machine>();
            span.end = Clock::now();
            if (tracer != nullptr)
                tracer->add(0, span);
            span.kind = SpanKind::kLoad;
            span.start = Clock::now();
            cheri::workloads::loadGuestProgram(*kernel.machine,
                                               kernel.prog);
            span.end = Clock::now();
            if (tracer != nullptr)
                tracer->add(0, span);
            kernels_.push_back(std::move(kernel));
        }
        // The warm-up: olden's first run fills the caches, its second
        // mints the last superblocks, and its third is the reference;
        // a vm_gc fork run is the reference.
        for (std::size_t k = 0; k < kernels_.size(); ++k) {
            Kernel &kernel = kernels_[k];
            bool ok = true;
            if (fork_per_run_) {
                ok = forkRun(kernel, kernel.reference);
            } else {
                kernel.last = machineCounters(*kernel.machine);
                Counters delta;
                for (int i = 0; i < 3 && ok; ++i) {
                    RunOutcome outcome = runOnce(
                        kernel, nullptr, 0, static_cast<std::uint32_t>(k));
                    ok = outcome.ok;
                    delta = std::move(outcome.delta);
                }
                kernel.reference = std::move(delta);
            }
            if (!ok) {
                std::fprintf(stderr, "perfbench: %s warm-up failed\n",
                             kernel.prog.name.c_str());
                std::exit(1);
            }
            kernel.insts = kernel.reference.at("sim.insts");
            kernel.cycles = kernel.reference.at("sim.cycles");
            kernel.cow_faults = kernel.reference.at("cow.faults");
            counts_.add(kernel.reference, 1.0);
        }
    }

    Tally
    serve(Clock::time_point deadline, Tracer *tracer) override
    {
        return serveRounds(deadline, kernels_.size(),
                           fork_per_run_ ? 1 : kOldenRepeats, rotation_,
                           [&](std::size_t k) {
                               return runOnce(kernels_[k], tracer, ++runs_,
                                              static_cast<std::uint32_t>(k));
                           });
    }

    const EventCounts &counts() const override { return counts_; }

    /** vm_gc checks only counts per run; one more run after the
     *  phase must repeat every counter of the reference. */
    std::uint64_t
    finalFailures() override
    {
        std::uint64_t failures = 0;
        for (Kernel &kernel : kernels_) {
            Counters delta;
            if (fork_per_run_ && (!forkRun(kernel, delta) ||
                                  !sameSimulated(delta, kernel.reference))) {
                std::fprintf(stderr,
                             "perfbench: %s no longer repeats its "
                             "reference counters\n",
                             kernel.prog.name.c_str());
                ++failures;
            }
        }
        return failures;
    }

    ProbeInput
    probeInput() const override
    {
        ProbeInput input;
        for (const Kernel &kernel : kernels_) {
            input.text.insert(input.text.end(), kernel.prog.text.begin(),
                              kernel.prog.text.end());
        }
        // All kernels share one layout; the lines are those any kernel
        // holds data in halfway through a run (the VM guest scrubs its
        // heap before BREAK).
        const cheri::workloads::GuestLayout layout =
            kernels_.front().prog.layout;
        std::vector<std::uint64_t> lines;
        for (const Kernel &kernel : kernels_) {
            std::unique_ptr<Machine> half = kernel.machine->fork();
            half->reset(kernel.prog.layout.code_base);
            half->cpu().run(kernel.insts / 2);
            std::vector<std::uint64_t> own = touchedLines(
                *half, layout.heap_base, layout.heap_bytes);
            lines.insert(lines.end(), own.begin(), own.end());
        }
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
        input.lines = std::move(lines);
        GuestProgram first = kernels_.front().prog;
        input.map = [first](Machine &machine) {
            cheri::workloads::loadGuestProgram(machine, first);
        };
        return input;
    }

  private:
    static constexpr std::uint64_t kMaxInsts = 1'000'000'000;

    struct RunOutcome : RunRecord
    {
        Counters delta; ///< olden: counter changes over the run
    };

    /**
     * One run: (fork,) restart at entry, Cpu::run to BREAK, verify
     * the checksum and the reference's instruction, cycle and COW
     * counts, (tear the fork down). olden then compares every counter
     * with the reference, outside the timed run.
     */
    RunOutcome
    runOnce(Kernel &kernel, Tracer *tracer, std::uint64_t run,
            std::uint32_t kind)
    {
        Span root;
        root.run = run;
        root.run_kind = kind;
        root.id = tracer != nullptr ? tracer->newId() : 0;
        Span child = root;
        child.id = 0;
        child.parent = root.id;
        auto record = [&](SpanKind span_kind, Clock::time_point start,
                          Clock::time_point end, std::uint64_t insts) {
            if (tracer == nullptr)
                return;
            child.kind = span_kind;
            child.start = start;
            child.end = end;
            child.insts = insts;
            tracer->add(0, child);
        };

        double cpu_start = threadCpuMs();
        root.start = Clock::now();
        Machine *machine = kernel.machine.get();
        std::unique_ptr<Machine> fork;
        if (fork_per_run_) {
            fork = kernel.machine->fork();
            machine = fork.get();
            record(SpanKind::kFork, root.start, Clock::now(), 0);
        }
        Clock::time_point run_start = Clock::now();
        machine->reset(kernel.prog.layout.code_base);
        cheri::core::RunResult result = machine->cpu().run(kMaxInsts);
        Clock::time_point run_end = Clock::now();
        record(SpanKind::kQuantum, run_start, run_end, result.instructions);

        bool ok = result.reason == cheri::core::StopReason::kBreak &&
                  machine->cpu().gpr(cheri::isa::reg::v0) ==
                      kernel.prog.expected_checksum;
        // A fork's COW count starts at zero; olden's full check below
        // covers its warm machine.
        bool repeats = kernel.reference.empty() ||
                       (result.instructions == kernel.insts &&
                        result.cycles == kernel.cycles &&
                        (!fork_per_run_ || machine->cowStore().cowFaults() ==
                                               kernel.cow_faults));
        record(SpanKind::kVerify, run_end, Clock::now(), 0);
        fork.reset();
        root.end = Clock::now();
        double cpu_ms = threadCpuMs() - cpu_start;
        if (tracer != nullptr)
            tracer->add(0, root);

        RunOutcome outcome;
        if (!fork_per_run_) {
            Counters after = machineCounters(*machine);
            outcome.delta = counterDelta(kernel.last, after);
            kernel.last = std::move(after);
            repeats = repeats && (kernel.reference.empty() ||
                                  sameSimulated(outcome.delta,
                                                kernel.reference));
        }
        if (!ok || !repeats) {
            std::fprintf(stderr, "perfbench: %s run %llu failed (%s)\n",
                         kernel.prog.name.c_str(),
                         static_cast<unsigned long long>(run),
                         !ok ? "checksum or stop reason"
                             : "counters differ from the reference run");
        }
        outcome.ok = ok && repeats;
        outcome.insts = result.instructions;
        outcome.ms = cpu_ms;
        return outcome;
    }

    /** A vm_gc run with every counter captured, for the reference
     *  and the final repeat check. */
    bool
    forkRun(Kernel &kernel, Counters &delta) const
    {
        std::unique_ptr<Machine> fork = kernel.machine->fork();
        Counters before = machineCounters(*fork);
        fork->reset(kernel.prog.layout.code_base);
        cheri::core::RunResult result = fork->cpu().run(kMaxInsts);
        delta = counterDelta(before, machineCounters(*fork));
        return result.reason == cheri::core::StopReason::kBreak &&
               fork->cpu().gpr(cheri::isa::reg::v0) ==
                   kernel.prog.expected_checksum;
    }

    std::function<std::vector<GuestProgram>()> assemble_;
    bool fork_per_run_;
    /** Seeded order of each round, continued across serve() calls. */
    cheri::support::Xoshiro256 rotation_;
    std::vector<std::string> kinds_;
    std::vector<Kernel> kernels_;
    EventCounts counts_;
    std::uint64_t runs_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeOlden(std::uint64_t seed)
{
    // emu_throughput's full sizes.
    return std::make_unique<GuestLoop>(
        [] {
            return std::vector<GuestProgram>{
                cheri::workloads::guestTreeadd(12, 8),
                cheri::workloads::guestBisort(256),
                cheri::workloads::guestMst(64),
                cheri::workloads::guestEm3d(96, 6, 16)};
        },
        false, seed);
}

std::unique_ptr<Workload>
makeVmGc(std::uint64_t seed)
{
    // emu_throughput --vm size: the CHERI model, capability GC copy.
    return std::make_unique<GuestLoop>(
        [] {
            cheri::workloads::VmConfig config;
            config.rounds = 48;
            config.units = 24;
            config.semispace_objects = 40;
            return std::vector<GuestProgram>{
                cheri::workloads::guestVm(config)};
        },
        true, seed);
}

} // namespace perfbench
