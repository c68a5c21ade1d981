/**
 * @file
 * Span bookkeeping, counter snapshots and the layer probes shared by
 * every workload.
 */

#include <algorithm>
#include <ctime>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "isa/decoder.h"
#include "mem/cow_store.h"
#include "tlb/page_table.h"

namespace perfbench
{

namespace
{

/** Calls each probe loop makes; enough to swamp clock overhead. */
constexpr std::size_t kProbeOps = 200'000;

/** Keeps probe results observable so the loops are not elided. */
volatile std::uint64_t probe_sink = 0;

double
nsPerOp(Clock::time_point start, std::size_t ops)
{
    return msBetween(start, Clock::now()) * 1e6 /
           static_cast<double>(ops);
}

double
cpuClockMs(clockid_t clock)
{
    timespec now{};
    clock_gettime(clock, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

} // namespace

double
threadCpuMs()
{
    return cpuClockMs(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuMs()
{
    return cpuClockMs(CLOCK_PROCESS_CPUTIME_ID);
}

double
paceLoopMs()
{
    // An interpreter-shaped loop: a seeded byte program dispatched
    // through a switch, half of whose operations load or store a
    // 256 KiB table, so it leans on the same branch predictors and
    // L1/L2 caches the emulator does.
    constexpr std::size_t kProgram = 4096, kTable = 32768;
    static const std::vector<std::uint8_t> program = [] {
        cheri::support::Xoshiro256 rng(0x70616365);
        std::vector<std::uint8_t> ops(kProgram);
        for (std::uint8_t &op : ops)
            op = static_cast<std::uint8_t>(rng.next());
        return ops;
    }();
    thread_local std::vector<std::uint64_t> table(kTable, 1);
    std::uint64_t reg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::size_t pc = 0;
    double start = threadCpuMs();
    for (std::size_t step = 0; step < 50'000; ++step) {
        std::uint8_t op = program[pc];
        std::uint64_t &a = reg[op & 7];
        std::uint64_t b = reg[(op >> 3) & 7];
        switch (op >> 5) {
        case 0: a += table[(a ^ b) & (kTable - 1)]; break;
        case 1: a ^= table[(b >> 3) & (kTable - 1)]; break;
        case 2: a = table[b & (kTable - 1)]; break;
        case 3: table[a & (kTable - 1)] = b + 1; break;
        case 4:
            if (b & 1)
                pc = (pc + (a & 63)) & (kProgram - 1);
            break;
        case 5: a *= b | 1; break;
        case 6: a = (a << 7) | (a >> 57); break;
        default: a = a < b ? a + 1 : b ^ a; break;
        }
        pc = (pc + 1) & (kProgram - 1);
    }
    double ms = threadCpuMs() - start;
    probe_sink = probe_sink + reg[0] + reg[5];
    return ms;
}

void
PaceMeter::tick()
{
    if (!readings_.empty() && since_ms_ < kEveryMs)
        return;
    readings_.push_back(paceLoopMs());
    since_ms_ = 0.0;
    // The median of the last three, so one interrupted pass does not
    // scale the runs after it.
    std::size_t n = std::min<std::size_t>(readings_.size(), 3);
    std::vector<double> last(readings_.end() - static_cast<long>(n),
                             readings_.end());
    std::sort(last.begin(), last.end());
    current_ms_ = last[n / 2];
}

double
PaceMeter::charge(double cpu_ms)
{
    since_ms_ += cpu_ms;
    return cpu_ms * kNominalMs / current_ms_;
}

const char *
spanKindName(SpanKind kind)
{
    static const char *const kNames[kSpanKinds] = {
        "run",    "machine_new", "load",   "fork",        "salt_write",
        "quantum", "wait",       "verify", "timing_point"};
    return kNames[static_cast<std::size_t>(kind)];
}

std::vector<Span>
Tracer::all() const
{
    std::vector<Span> merged;
    for (const std::vector<Span> &buffer : buffers_)
        merged.insert(merged.end(), buffer.begin(), buffer.end());
    return merged;
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] += msBetween(spans[i].start, spans[i].end);
    // Children of one span never overlap (each run is on one thread at
    // a time), so subtracting their durations leaves the self time.
    for (const Span &span : spans) {
        auto parent = index.find(span.parent);
        if (span.parent != 0 && parent != index.end())
            self[parent->second] -= msBetween(span.start, span.end);
    }
    // Clock rounding can leave a fully covered span a hair below 0.
    for (double &ms : self)
        ms = std::max(ms, 0.0);
    return self;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans,
           const std::vector<std::string> &run_kinds,
           Clock::time_point epoch)
{
    std::ofstream out(path);
    if (!out)
        return false;
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    epoch)
            .count();
    };
    for (const Span &span : spans) {
        out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
            << ", \"run\": " << span.run << ", \"run_kind\": \""
            << (span.run == 0 ? std::string("setup")
                              : run_kinds[span.run_kind])
            << "\", \"kind\": \"" << spanKindName(span.kind)
            << "\", \"start_ns\": " << ns(span.start)
            << ", \"end_ns\": " << ns(span.end)
            << ", \"insts\": " << span.insts << "}\n";
    }
    return static_cast<bool>(out);
}

Tally
serveRounds(Clock::time_point deadline, std::size_t kinds,
            std::size_t repeats, cheri::support::Xoshiro256 &rotation,
            const std::function<RunRecord(std::size_t kind)> &run)
{
    Tally tally;
    tally.run_ms.resize(kinds);
    PaceMeter pace;
    std::vector<std::size_t> order(kinds);
    for (std::size_t i = 0; i < kinds; ++i)
        order[i] = i;
    Clock::time_point phase_start = Clock::now();
    Clock::time_point phase_end = phase_start;
    while (Clock::now() < deadline) {
        for (std::size_t i = kinds; i > 1; --i)
            std::swap(order[i - 1], order[rotation.nextBelow(i)]);
        double round_ms = 0.0;
        std::uint64_t round_insts = 0;
        std::size_t round_runs = 0;
        for (std::size_t i = 0; i < kinds * repeats; ++i) {
            if (Clock::now() >= deadline)
                break;
            std::size_t k = order[i / repeats];
            pace.tick();
            RunRecord record = run(k);
            record.ms = pace.charge(record.ms);
            ++tally.attempted;
            if (!record.ok) {
                ++tally.failed;
                continue;
            }
            tally.run_ms[k].push_back(record.ms);
            round_ms += record.ms;
            round_insts += record.insts;
            ++round_runs;
        }
        phase_end = Clock::now();
        if (round_runs == kinds * repeats) {
            tally.round_mips.push_back(static_cast<double>(round_insts) /
                                       round_ms / 1e3);
            tally.round_rate.push_back(static_cast<double>(round_runs) /
                                       (round_ms / 1e3));
        }
    }
    tally.wall_s = msBetween(phase_start, phase_end) / 1e3;
    tally.pace_ms = pace.readings();
    return tally;
}

Counters
machineCounters(cheri::core::Machine &machine)
{
    const cheri::core::Cpu &cpu = machine.cpu();
    Counters counters = cpu.stats().all();
    cheri::support::StatSet memory = machine.memory().collectStats();
    for (const auto &[name, value] : memory.all())
        counters[name] = value;
    for (const auto &[name, value] : machine.tlb().stats().all())
        counters[name] = value;
    const cheri::core::SuperblockStats &sb = cpu.superblockStats();
    counters["sb.minted"] = sb.minted;
    counters["sb.entered"] = sb.entered;
    counters["sb.guard_fails"] = sb.guard_fails;
    counters["sb.invalidated"] = sb.invalidated;
    counters["sb.instructions"] = sb.instructions;
    counters["cow.faults"] = machine.cowStore().cowFaults();
    counters["sim.insts"] = cpu.totalInstructions();
    counters["sim.cycles"] = cpu.totalCycles();
    return counters;
}

Counters
counterDelta(const Counters &before, const Counters &after)
{
    Counters delta;
    for (const auto &[name, value] : after) {
        auto it = before.find(name);
        delta[name] = value - (it == before.end() ? 0 : it->second);
    }
    return delta;
}

bool
sameSimulated(const Counters &a, const Counters &b)
{
    auto simulated = [](const Counters &counters) {
        Counters out;
        for (const auto &[name, value] : counters) {
            if (name.rfind("sb.", 0) != 0)
                out.emplace(name, value);
        }
        return out;
    };
    return simulated(a) == simulated(b);
}

void
EventCounts::add(const Counters &counters, double weight)
{
    runs += weight;
    for (const auto &[name, value] : counters)
        events[name] += weight * static_cast<double>(value);
}

double
EventCounts::get(const std::string &name) const
{
    auto it = events.find(name);
    return it == events.end() ? 0.0 : it->second;
}

std::vector<std::uint64_t>
touchedLines(cheri::core::Machine &machine, std::uint64_t base,
             std::uint64_t bytes)
{
    cheri::core::Cpu &cpu = machine.cpu();
    std::vector<std::uint64_t> lines;
    for (std::uint64_t line = base; line < base + bytes;
         line += cheri::mem::kLineBytes) {
        for (std::uint64_t word = 0; word < cheri::mem::kLineBytes;
             word += 8) {
            std::uint64_t value = 0;
            if (cpu.debugRead(line + word, 8, value) && value != 0) {
                lines.push_back(line);
                break;
            }
        }
    }
    return lines;
}

ProbeResult
probeLayers(const ProbeInput &input, std::uint64_t seed)
{
    ProbeResult result;
    std::uint64_t sink = 0;
    if (!input.text.empty()) {
        std::size_t ops = 0;
        Clock::time_point start = Clock::now();
        while (ops < kProbeOps) {
            for (std::uint32_t word : input.text)
                sink += cheri::isa::decode(word).raw;
            ops += input.text.size();
        }
        result.decode_ns = nsPerOp(start, ops);
    }
    if (input.lines.empty()) {
        probe_sink = sink;
        return result;
    }

    cheri::core::Machine machine;
    input.map(machine);
    std::vector<std::uint64_t> lines = input.lines;
    cheri::support::Xoshiro256 rng(seed);
    for (std::size_t i = lines.size(); i > 1; --i)
        std::swap(lines[i - 1], lines[rng.nextBelow(i)]);

    std::vector<std::uint64_t> paddrs(lines.size());
    std::size_t ops = 0;
    Clock::time_point start = Clock::now();
    while (ops < kProbeOps) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            cheri::tlb::TlbResult tr =
                machine.tlb().translate(lines[i], cheri::tlb::Access::kLoad);
            paddrs[i] = tr.paddr;
        }
        ops += lines.size();
    }
    result.translate_ns = nsPerOp(start, ops);

    std::uint64_t cycles = 0;
    ops = 0;
    start = Clock::now();
    while (ops < kProbeOps) {
        for (std::uint64_t paddr : paddrs)
            sink += machine.memory().read(paddr, 8, cycles);
        ops += paddrs.size();
    }
    result.read_ns = nsPerOp(start, ops);

    ops = 0;
    start = Clock::now();
    while (ops < kProbeOps) {
        for (std::uint64_t paddr : paddrs)
            machine.memory().write(paddr, 8, ops, cycles);
        ops += paddrs.size();
    }
    result.write_ns = nsPerOp(start, ops);
    probe_sink = sink + cycles;
    return result;
}

double
probeCowFaultUs(const cheri::core::Machine &parent)
{
    std::unique_ptr<cheri::core::Machine> child = parent.fork();
    std::uint64_t frames = parent.allocatedFrames();
    std::uint64_t before = child->cowStore().cowFaults();
    Clock::time_point start = Clock::now();
    for (std::uint64_t frame = 0; frame < frames; ++frame)
        child->dram().write(frame * cheri::tlb::kPageBytes, 8, frame + 1);
    double ms = msBetween(start, Clock::now());
    std::uint64_t faults = child->cowStore().cowFaults() - before;
    return faults == 0 ? 0.0 : ms * 1e3 / static_cast<double>(faults);
}

} // namespace perfbench
