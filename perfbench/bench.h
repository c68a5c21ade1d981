/**
 * @file
 * Shared pieces of the repository benchmark: the clock, the span
 * tracer, the per-phase tally every workload fills, the deterministic
 * event counts behind sim_cpi and the per-layer ratios, and the
 * workload interface main.cc drives. The benchmark only calls public
 * functions of the emulator's libraries and times those calls from
 * outside; see README.md for what each workload is for.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"
#include "support/rng.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/**
 * CPU time the calling thread has used, in ms. Run times and rates
 * are measured on this clock, scaled by a PaceMeter, not on the wall
 * clock: on a shared host the wall clock also counts the time the
 * hypervisor or other tenants hold the vCPU. Spans stay on the wall
 * clock.
 */
double threadCpuMs();

/** CPU time the whole process has used, in ms. */
double processCpuMs();

/** CPU ms of one pass of the fixed reference loop on this thread. */
double paceLoopMs();

/**
 * The host's current speed, from a fixed reference loop timed on the
 * measuring thread between runs. Tenants sharing the physical cores
 * stretch CPU time too: on the host in README.md the same code ran
 * 1.5 to 2.2 times slower for over an hour, and the reference loop
 * slowed with it, if by less. charge() scales a run's CPU time by
 * kNominalMs over the loop's current time, so a scaled time reads as
 * CPU time on a host where the loop takes kNominalMs. A change to the
 * emulator moves the runs and never the loop.
 */
class PaceMeter
{
  public:
    /** The loop's CPU ms that scaled times are quoted at. */
    static constexpr double kNominalMs = 0.5;
    /** CPU ms of runs between two timings of the loop. */
    static constexpr double kEveryMs = 20.0;

    /** Time the loop, on the calling thread, if it is due. */
    void tick();

    /** Count `cpu_ms` of run time and return it scaled. */
    double charge(double cpu_ms);

    /** Every loop time taken, in ms. */
    const std::vector<double> &readings() const { return readings_; }

  private:
    std::vector<double> readings_;
    double current_ms_ = kNominalMs; ///< median of the last readings
    double since_ms_ = 0.0;          ///< run CPU ms since the last one
};

/** What a span brackets: one call into a layer, or a whole run. */
enum class SpanKind : std::uint8_t
{
    kRun,         ///< one verified unit of user work
    kMachineNew,  ///< core::Machine construction
    kLoad,        ///< workloads::loadGuestProgram
    kFork,        ///< core::Machine::fork
    kSaltWrite,   ///< Cpu::debugWrite of a fleet guest's salt
    kQuantum,     ///< one Cpu::run call
    kWait,        ///< scheduler gap before or between a guest's quanta
    kVerify,      ///< checking the run's outputs
    kTimingPoint, ///< one runFpgaComparison/runHeapScaling call
};
constexpr std::size_t kSpanKinds = 9;

const char *spanKindName(SpanKind kind);

/** One traced interval. Spans of one run share `run`; run 0 is set-up. */
struct Span
{
    std::uint64_t id = 0;     ///< unique; 0 asks Tracer::add for one
    std::uint64_t parent = 0; ///< id of the enclosing span, 0 for roots
    std::uint64_t run = 0;
    std::uint32_t run_kind = 0; ///< index into Workload::runKinds()
    SpanKind kind = SpanKind::kRun;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t insts = 0; ///< guest instructions retired (quanta)
};

/**
 * In-memory span store with one buffer per worker thread, so
 * recording never takes a lock. Spans are written out only at exit.
 */
class Tracer
{
  public:
    explicit Tracer(unsigned threads) : buffers_(threads) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::uint64_t newId() { return next_id_.fetch_add(1) + 1; }

    /** Record a span into `thread`'s buffer. */
    void
    add(unsigned thread, Span span)
    {
        if (span.id == 0)
            span.id = newId();
        buffers_[thread].push_back(span);
    }

    /** Every span recorded so far, all threads merged. */
    std::vector<Span> all() const;

  private:
    std::atomic<std::uint64_t> next_id_{0};
    std::vector<std::vector<Span>> buffers_;
};

/** Self time of every span: its duration minus its children's. */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Write spans as JSON lines, times in ns from `epoch`. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans,
                const std::vector<std::string> &run_kinds,
                Clock::time_point epoch);

/** Everything one timed phase measured. */
struct Tally
{
    /** Scaled CPU ms (PaceMeter) of each verified run, one vector
     *  per run kind. */
    std::vector<std::vector<double>> run_ms;
    /** Guest MIPS and verified runs per scaled CPU second of each
     *  round, per client (fleet: times its workers). */
    std::vector<double> round_mips;
    std::vector<double> round_rate;
    /** Reference-loop times of the measuring threads, in ms. */
    std::vector<double> pace_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Host seconds from the first run's start to the last run's end. */
    double wall_s = 0.0;
};

/** One run's outcome. */
struct RunRecord
{
    bool ok = false;
    std::uint64_t insts = 0; ///< guest (or modelled) instructions
    double ms = 0.0;         ///< CPU ms (threadCpuMs) the run took
};

/**
 * Serve closed-loop rounds with one client until `deadline`: each
 * round runs every kind `repeats` times back to back, kinds in an
 * order drawn from `rotation`, and yields one guest-MIPS and one
 * runs-per-second sample when complete.
 */
Tally serveRounds(Clock::time_point deadline, std::size_t kinds,
                  std::size_t repeats, cheri::support::Xoshiro256 &rotation,
                  const std::function<RunRecord(std::size_t kind)> &run);

/** Counter name -> value, from every layer's public counters. */
using Counters = std::map<std::string, std::uint64_t>;

/**
 * Snapshot of a machine's counters: Cpu::stats(), the cache
 * hierarchy's collectStats() (caches, DRAM, tag manager), the TLB's
 * stats(), superblockStats() as "sb.*", cowFaults() as "cow.faults",
 * and the retired instruction and cycle totals as "sim.insts" and
 * "sim.cycles".
 */
Counters machineCounters(cheri::core::Machine &machine);

/** after - before, key by key. */
Counters counterDelta(const Counters &before, const Counters &after);

/** Equal in every simulated counter; the host-side "sb.*" superblock
 *  counters may differ between runs of one kernel. */
bool sameSimulated(const Counters &a, const Counters &b);

/**
 * Deterministic event totals over one reference pass of the
 * workload's run kinds, weighted by the workload's fixed mix; the
 * source of sim_cpi and of the per-layer counts.
 */
struct EventCounts
{
    double runs = 0.0;
    std::map<std::string, double> events;

    void add(const Counters &counters, double weight);
    double get(const std::string &name) const;
};

/** Inputs for the layer probes: the workload's own text and data. */
struct ProbeInput
{
    std::vector<std::uint32_t> text;
    /** Maps the workload's address space on a fresh machine. */
    std::function<void(cheri::core::Machine &)> map;
    /** Virtual addresses of the data lines the workload touches. */
    std::vector<std::uint64_t> lines;
};

/** Host ns per call of each probed layer entry point (0 = none). */
struct ProbeResult
{
    double decode_ns = 0.0;
    double translate_ns = 0.0;
    double read_ns = 0.0;
    double write_ns = 0.0;
};

/** Time isa::decode, Tlb::translate and CacheHierarchy::read/write
 *  on a fresh default Machine over the workload's own inputs. */
ProbeResult probeLayers(const ProbeInput &input, std::uint64_t seed);

/** Host us per CowStore copy-fault, from first writes to the pages
 *  of a fresh fork of `parent`; 0 when no write faulted. */
double probeCowFaultUs(const cheri::core::Machine &parent);

/** Data lines of a guest heap: every line holding a non-zero word. */
std::vector<std::uint64_t> touchedLines(cheri::core::Machine &machine,
                                        std::uint64_t base,
                                        std::uint64_t bytes);

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Names of the run kinds, the index space of Tally::run_ms. */
    virtual const std::vector<std::string> &runKinds() const = 0;

    /**
     * Build everything the timed phase needs. main calls it once per
     * process (setup_s times it in fresh processes); set-up spans go
     * to `tracer` when it is non-null.
     */
    virtual void setup(Tracer *tracer) = 0;

    /** Run closed-loop until `deadline`, verifying every run. */
    virtual Tally serve(Clock::time_point deadline, Tracer *tracer) = 0;

    /** Reference event totals (see EventCounts). */
    virtual const EventCounts &counts() const = 0;

    /** Worker threads serve() uses. */
    virtual unsigned workers() const { return 1; }

    virtual ProbeInput probeInput() const = 0;

    /** Host us per COW copy-fault on this workload's machines. */
    virtual double cowFaultUs() const { return 0.0; }

    /** Checks that need the whole phase over: run after serve(). */
    virtual std::uint64_t finalFailures() { return 0; }
};

std::unique_ptr<Workload> makeOlden(std::uint64_t seed);
std::unique_ptr<Workload> makeVmGc(std::uint64_t seed);
/** `workers` 0: one less than the cores, at most four. */
std::unique_ptr<Workload> makeFleet(std::uint64_t seed, unsigned workers);
std::unique_ptr<Workload> makeFigSweep(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
