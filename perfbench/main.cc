/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload olden|vm_gc|fleet|fig_sweep --seed N
 *             --seconds S --trace 0|1 [--workers N] [--commit ID]
 *             [--spans PATH]
 *
 * First starts fresh copies of itself that only set the workload up
 * (setup_s is the median of the CPU time each uses up to the end of
 * its set-up), then sets it up once, runs it closed-loop for S
 * seconds and verifies every run. Runs are timed in CPU time. With --trace 0 the last line is the end-to-end result; with
 * --trace 1 one-second untraced and traced slices alternate, and the
 * last line is the per-layer result. Exit 0 only when every run passed
 * its checks; 2 on bad arguments; 3 when the build is not an
 * optimized, unsanitized one.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"

extern char **environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench
{
namespace
{

/** Fresh set-up processes per run, setup_s being the median of
 *  their times: at least kSetups, and more until kSetupSeconds have
 *  gone by, so that a 12 ms set-up is not one scheduler tick away
 *  from a 30% swing. */
constexpr std::size_t kSetups = 5;
constexpr double kSetupSeconds = 1.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** fleet's worker threads; 0 picks the default. */
    unsigned workers = 0;
    std::string commit = "unknown";
    std::string spans;
    /** Set the workload up once, print when that ended, and exit. */
    bool setup_only = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "olden|vm_gc|fleet|fig_sweep --seed N --seconds S "
                 "--trace 0|1 [--workers N] [--commit ID] "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && options.seconds > 0.0 &&
                           options.seconds <= 3600.0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (flag == "--workers") {
            unsigned long workers = std::strtoul(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty() || workers < 1 ||
                workers > 256)
                usage("--workers must be 1..256");
            options.workers = static_cast<unsigned>(workers);
        } else if (flag == "--setup-only") {
            options.setup_only = value == "1";
        } else if (flag == "--commit") {
            options.commit = value;
        } else if (flag == "--spans") {
            options.spans = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace ||
        options.workload.empty())
        usage("--workload, --seed, --seconds and --trace are required");
    if (options.workers != 0 && options.workload != "fleet")
        usage("--workers applies to the fleet workload only");
    return options;
}

/** A timing summary: the median, and the tail: the value at the
 *  highest of the percentiles 50, 75, 90 and 95 that has at least
 *  ten samples beyond it. Higher percentiles of a fleet's 20k runs
 *  would rank single host hiccups. */
struct Summary
{
    double median = 0.0;
    double tail = NAN;
    double tail_pct = NAN;
    std::size_t n = 0;
};

/** `slow_high`: the slow end is the high end (times), else the low
 *  end (rates). */
Summary
summarize(std::vector<double> values, bool slow_high = true)
{
    Summary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    if (!slow_high)
        std::reverse(values.begin(), values.end());
    std::size_t mid = s.n / 2;
    s.median = s.n % 2 == 1 ? values[mid]
                            : (values[mid - 1] + values[mid]) / 2.0;
    for (double pct : {95.0, 90.0, 75.0, 50.0}) {
        // Nearest rank: the sample with pct% of the samples at or
        // before it.
        auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(s.n)));
        if (rank >= 1 && s.n - rank >= 10) {
            s.tail = values[rank - 1];
            s.tail_pct = slow_high ? pct : 100.0 - pct;
            break;
        }
    }
    return s;
}

/**
 * Runs of several kinds (olden's four kernels, fleet's six guest
 * kinds, fig_sweep's four points): the median is the geometric mean
 * of the per-kind medians, so the mix cannot move it from one kind to
 * another, and the tail is that median times the tail of every run's
 * time over its own kind's median, pooled.
 */
Summary
summarizeRuns(const std::vector<std::vector<double>> &run_ms)
{
    double log_median = 0.0;
    std::size_t kinds = 0;
    std::vector<double> relative;
    for (const std::vector<double> &samples : run_ms) {
        if (samples.empty())
            continue;
        double median = summarize(samples).median;
        log_median += std::log(median);
        ++kinds;
        for (double ms : samples)
            relative.push_back(ms / median);
    }
    if (kinds == 0)
        return Summary{};
    Summary out = summarize(relative);
    out.median = std::exp(log_median / static_cast<double>(kinds));
    out.tail *= out.median;
    return out;
}

std::string
num(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Refuse Debug, unoptimized and sanitizer builds: their timings say
 *  nothing about the emulator users run. */
const char *
buildRefusal()
{
    std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo" &&
        type != "MinSizeRel")
        return "an unoptimized build (CMAKE_BUILD_TYPE must be Release, "
               "RelWithDebInfo or MinSizeRel)";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer build";
#endif
    return nullptr;
}

/** The process's resident-set high-water mark. VmHWM, not
 *  getrusage: ru_maxrss keeps the launching process's peak across
 *  exec, which for a Python launcher is larger than this program's. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return NAN;
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

void
merge(Tally &into, const Tally &from)
{
    into.run_ms.resize(std::max(into.run_ms.size(), from.run_ms.size()));
    for (std::size_t k = 0; k < from.run_ms.size(); ++k) {
        into.run_ms[k].insert(into.run_ms[k].end(), from.run_ms[k].begin(),
                              from.run_ms[k].end());
    }
    into.round_mips.insert(into.round_mips.end(), from.round_mips.begin(),
                           from.round_mips.end());
    into.round_rate.insert(into.round_rate.end(), from.round_rate.begin(),
                           from.round_rate.end());
    into.pace_ms.insert(into.pace_ms.end(), from.pace_ms.begin(),
                        from.pace_ms.end());
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.wall_s += from.wall_s;
}

/** One printed metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    Summary summary; ///< n == 0: a single computed value
};

/** Per-layer metrics from the traced half, the counts and probes. */
std::vector<Metric>
layerMetrics(Workload &workload, const std::vector<Span> &spans,
             const Tally &untraced, const Tally &traced,
             std::uint64_t seed,
             std::map<std::string, std::map<std::string, double>> &self_ms,
             std::map<std::string, double> &time_share)
{
    const EventCounts &c = workload.counts();
    double insts = c.get("sim.insts");
    double kinst = insts / 1000.0;
    std::vector<Metric> out;
    auto add = [&](std::string name, std::string unit, double value,
                   Summary summary = {}) {
        out.push_back({std::move(name), std::move(unit), value, summary});
    };

    std::vector<double> by_kind[kSpanKinds];
    double quantum_ns = 0.0, quantum_insts = 0.0;
    double run_total_ms = 0.0, wait_total_ms = 0.0, runs = 0.0;
    std::vector<double> self = selfTimesMs(spans);
    const std::vector<std::string> &kinds = workload.runKinds();
    double self_by_kind[kSpanKinds] = {};
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto kind = static_cast<std::size_t>(span.kind);
        double ms = msBetween(span.start, span.end);
        by_kind[kind].push_back(ms);
        if (span.run == 0)
            continue; // set-up
        self_by_kind[kind] += self[i];
        self_ms[kinds[span.run_kind]][spanKindName(span.kind)] += self[i];
        if (span.kind == SpanKind::kQuantum) {
            quantum_ns += ms * 1e6;
            quantum_insts += static_cast<double>(span.insts);
        } else if (span.kind == SpanKind::kRun) {
            run_total_ms += ms;
            runs += 1.0;
        } else if (span.kind == SpanKind::kWait) {
            wait_total_ms += ms;
        }
    }
    auto spanMs = [&](SpanKind kind) {
        return by_kind[static_cast<std::size_t>(kind)];
    };
    auto scaled = [](std::vector<double> values, double factor) {
        for (double &v : values)
            v *= factor;
        return values;
    };
    // Per-run-kind self times become ms per run of that kind; each
    // run kind's share of all run time is where the host time went.
    std::map<std::string, double> runs_of_kind;
    for (const Span &span : spans) {
        if (span.run != 0 && span.kind == SpanKind::kRun) {
            runs_of_kind[kinds[span.run_kind]] += 1.0;
            time_share[kinds[span.run_kind]] +=
                ratio(msBetween(span.start, span.end), run_total_ms);
        }
    }
    for (auto &[run_kind, per_span] : self_ms) {
        for (auto &[span_kind, ms] : per_span)
            ms = ratio(ms, runs_of_kind[run_kind]);
    }

    ProbeResult probe = probeLayers(workload.probeInput(), seed);
    Summary fork = summarize(scaled(spanMs(SpanKind::kFork), 1e3));
    Summary wait = summarize(scaled(spanMs(SpanKind::kWait), 1e3));
    Summary machine_new = summarize(spanMs(SpanKind::kMachineNew));
    Summary load = summarize(spanMs(SpanKind::kLoad));
    Summary verify = summarize(scaled(spanMs(SpanKind::kVerify), 1e3));

    add("core.run_ns_per_inst", "ns", ratio(quantum_ns, quantum_insts));
    add("core.sb_coverage", "ratio",
        ratio(c.get("sb.instructions"), insts));
    add("core.sb_mints_per_kinst", "1/kinst",
        ratio(c.get("sb.minted"), kinst));
    add("core.sb_guard_fails_per_kinst", "1/kinst",
        ratio(c.get("sb.guard_fails"), kinst));
    add("core.fork_us_p50", "us", fork.median, fork);
    add("core.fork_us_tail", "us", std::isfinite(fork.tail) ? fork.tail : 0,
        fork);
    add("core.machine_new_ms", "ms", machine_new.median, machine_new);
    add("core.capmem_share", "ratio", ratio(c.get("inst.capmem"), insts));
    add("core.branch_share", "ratio", ratio(c.get("inst.branch"), insts));
    add("isa.decode_ns", "ns", probe.decode_ns);
    add("tlb.misses_per_kinst", "1/kinst", ratio(c.get("tlb.misses"), kinst));
    add("tlb.translate_ns", "ns", probe.translate_ns);
    add("cache.l1d_miss_ratio", "ratio",
        ratio(c.get("l1d.misses"), c.get("l1d.hits") + c.get("l1d.misses")));
    add("cache.l2_miss_ratio", "ratio",
        ratio(c.get("l2.misses"), c.get("l2.hits") + c.get("l2.misses")));
    add("cache.l2_writebacks_per_kinst", "1/kinst",
        ratio(c.get("l2.writebacks"), kinst));
    add("cache.dram_transactions_per_kinst", "1/kinst",
        ratio(c.get("dram.transactions"), kinst));
    add("cache.read_ns", "ns", probe.read_ns);
    add("cache.write_ns", "ns", probe.write_ns);
    add("mem.tag_cache_hit_ratio", "ratio",
        ratio(c.get("tag.cache_hits"),
              c.get("tag.cache_hits") + c.get("tag.cache_misses")));
    add("mem.tag_table_reads_per_kinst", "1/kinst",
        ratio(c.get("tag.table_reads"), kinst));
    add("mem.cow_faults_per_guest", "count",
        ratio(c.get("cow.faults"), c.runs));
    add("mem.cow_fault_us", "us", workload.cowFaultUs());
    add("support.sched_wait_us_p50", "us", wait.median, wait);
    add("support.sched_wait_us_tail", "us",
        std::isfinite(wait.tail) ? wait.tail : 0, wait);
    add("support.workers_busy_frac", "ratio",
        ratio(run_total_ms - wait_total_ms,
              traced.wall_s * 1e3 * workload.workers()));
    add("workloads.load_ms", "ms", load.median, load);
    add("workloads.verify_us", "us", verify.median, verify);
    double traced_ms = summarizeRuns(traced.run_ms).median;
    double untraced_ms = summarizeRuns(untraced.run_ms).median;
    add("trace.overhead_frac", "ratio",
        traced_ms > 0.0 && untraced_ms > 0.0 ? traced_ms / untraced_ms - 1.0
                                             : 0.0);
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
        add(std::string("span.") + spanKindName(static_cast<SpanKind>(k)) +
                ".self_ms_per_run",
            "ms", ratio(self_by_kind[k], runs));
    }
    return out;
}

/** Set-up spans plus those of the first traced runs: enough to
 *  inspect, without a file of millions of fleet quanta. */
std::vector<Span>
firstRuns(const std::vector<Span> &spans)
{
    constexpr std::size_t kRuns = 2000;
    std::vector<std::uint64_t> runs;
    for (const Span &span : spans) {
        if (span.kind == SpanKind::kRun)
            runs.push_back(span.run);
    }
    std::sort(runs.begin(), runs.end());
    std::uint64_t last = runs.size() > kRuns ? runs[kRuns - 1] : ~0ULL;
    std::vector<Span> kept;
    for (const Span &span : spans) {
        if (span.run <= last)
            kept.push_back(span);
    }
    return kept;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n  %-36s %-8s %14s %14s %7s %8s\n", title, "metric",
                "unit", "median", "tail", "pct", "n");
    for (const Metric &m : metrics) {
        if (m.summary.n == 0) {
            std::printf("  %-36s %-8s %14.6g %14s %7s %8s\n",
                        m.name.c_str(), m.unit.c_str(), m.value, "-", "-",
                        "-");
        } else if (!std::isfinite(m.summary.tail)) {
            std::printf("  %-36s %-8s %14.6g %14s %7s %8zu\n",
                        m.name.c_str(), m.unit.c_str(), m.value, "-", "-",
                        m.summary.n);
        } else {
            std::printf("  %-36s %-8s %14.6g %14.6g %6.1f%% %8zu\n",
                        m.name.c_str(), m.unit.c_str(), m.value,
                        m.summary.tail, m.summary.tail_pct, m.summary.n);
        }
    }
}

std::string
metricsJson(const std::vector<Metric> &metrics, bool detailed)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i == 0 ? "" : ", ") + quoted(m.name) +
               ": {\"value\": " + num(m.value) +
               ", \"unit\": " + quoted(m.unit);
        if (detailed && m.summary.n != 0) {
            out += ", \"median\": " + num(m.summary.median) +
                   ", \"tail\": " + num(m.summary.tail) +
                   ", \"tail_pct\": " + num(m.summary.tail_pct) +
                   ", \"n\": " + std::to_string(m.summary.n);
        }
        out += "}";
    }
    return out + "}";
}

/**
 * CPU seconds a fresh perfbench process uses from its start to the
 * end of its one set-up: the work a user waits for before the first
 * run, exec and a cold allocator included. Scaled like run times, by
 * the reference loop timed in that process after its set-up. NaN when
 * the process fails.
 */
double
coldSetupSeconds(const Options &options)
{
    int out[2];
    if (pipe(out) != 0)
        return NAN;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    std::vector<std::string> args = {
        "perfbench",    "--workload", options.workload, "--seed",
        std::to_string(options.seed), "--seconds", "1", "--trace", "0",
        "--setup-only", "1"};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                              argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    std::string text;
    char buf[256];
    for (ssize_t got; (got = read(out[0], buf, sizeof buf)) != 0;) {
        if (got > 0)
            text.append(buf, static_cast<std::size_t>(got));
        else if (errno != EINTR)
            break;
    }
    close(out[0]);
    int status = 0;
    if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return NAN;
    double cpu_ms = NAN, pace_ms = NAN;
    std::size_t at = text.find("setup_cpu_ms ");
    if (at == std::string::npos ||
        std::sscanf(text.c_str() + at, "setup_cpu_ms %lf pace_ms %lf",
                    &cpu_ms, &pace_ms) != 2 ||
        !(pace_ms > 0.0))
        return NAN;
    return cpu_ms * PaceMeter::kNominalMs / pace_ms / 1e3;
}

int
run(const Options &options)
{
    Clock::time_point epoch = Clock::now();
    std::unique_ptr<Workload> workload;
    if (options.workload == "olden")
        workload = makeOlden(options.seed);
    else if (options.workload == "vm_gc")
        workload = makeVmGc(options.seed);
    else if (options.workload == "fleet")
        workload = makeFleet(options.seed, options.workers);
    else if (options.workload == "fig_sweep")
        workload = makeFigSweep(options.seed);
    else
        usage(("unknown workload " + options.workload).c_str());

    if (options.setup_only) {
        workload->setup(nullptr);
        double cpu_ms = processCpuMs();
        std::vector<double> pace = {paceLoopMs(), paceLoopMs(), paceLoopMs()};
        std::printf("setup_cpu_ms %.17g pace_ms %.17g\n", cpu_ms,
                    summarize(pace).median);
        return 0;
    }

    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    std::string host = "{\"cpu\": " + quoted(cpuModel()) +
                       ", \"nproc\": " + std::to_string(cores) +
                       ", \"compiler\": " + quoted(compiler()) +
                       ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                       ", \"commit\": " + quoted(options.commit) + "}";
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("host %s\n", host.c_str());
    std::fflush(stdout);

    std::unique_ptr<Tracer> tracer;
    if (options.trace)
        tracer = std::make_unique<Tracer>(workload->workers());

    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < kSetups || setup_total < kSetupSeconds) {
        double seconds = coldSetupSeconds(options);
        if (!std::isfinite(seconds)) {
            std::fprintf(stderr, "perfbench: a set-up process failed\n");
            return 1;
        }
        setups.push_back(seconds);
        setup_total += seconds;
    }
    double own_setup_ms = processCpuMs();
    workload->setup(tracer.get());
    double own_setup_s = (processCpuMs() - own_setup_ms) / 1e3;

    // The traced run alternates one-second untraced and traced slices,
    // so both halves see the same host drift and their difference is
    // the tracing overhead.
    auto after = [](Clock::time_point from, double seconds) {
        return from + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    };
    Tally untraced, traced;
    Clock::time_point end = after(Clock::now(), options.seconds);
    for (bool on = false; Clock::now() < end; on = options.trace && !on) {
        Clock::time_point slice =
            options.trace ? std::min(end, after(Clock::now(), 1.0)) : end;
        merge(on ? traced : untraced,
              workload->serve(slice, on ? tracer.get() : nullptr));
    }
    std::uint64_t attempted = untraced.attempted + traced.attempted;
    std::uint64_t failed = untraced.failed + traced.failed;
    std::uint64_t final_failures = workload->finalFailures();
    attempted += final_failures;
    failed += final_failures;

    const EventCounts &counts = workload->counts();
    Summary setup = summarize(setups);
    Summary mips = summarize(untraced.round_mips, false);
    Summary rate = summarize(untraced.round_rate, false);
    Summary runs = summarizeRuns(untraced.run_ms);
    std::vector<Metric> e2e = {
        {"setup_s", "s", setup.median, setup},
        {"guest_mips", "MIPS", mips.median, mips},
        {"guests_per_s", "1/s", rate.median, rate},
        {"run_ms_p50", "ms", runs.median, runs},
        {"run_ms_tail", "ms", runs.tail, runs},
        {"peak_rss_mb", "MB", peakRssMb(), {}},
        {"sim_cpi", "cycles/inst",
         ratio(counts.get("sim.cycles"), counts.get("sim.insts")), {}},
    };
    double fail_ratio =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    std::printf("\n%llu runs attempted, %llu failed (fail_ratio %.6g); "
                "end-to-end from %.2f s untraced with %u worker%s\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), fail_ratio,
                untraced.wall_s, workload->workers(),
                workload->workers() == 1 ? "" : "s");
    printMetrics("", e2e);
    Summary pace = summarize(untraced.pace_ms);
    std::printf("setup_s: median of %zu fresh processes; this process's "
                "own set-up took %.4f CPU s\n",
                setups.size(), own_setup_s);
    std::printf("times are CPU time scaled by %.4f = nominal %.4g ms / "
                "median reference loop %.6g ms (%zu timings)\n",
                PaceMeter::kNominalMs / pace.median, PaceMeter::kNominalMs,
                pace.median, pace.n);

    std::vector<Metric> layers;
    std::map<std::string, std::map<std::string, double>> self_ms;
    std::map<std::string, double> time_share;
    if (options.trace) {
        std::vector<Span> spans = tracer->all();
        layers = layerMetrics(*workload, spans, untraced, traced,
                              options.seed, self_ms, time_share);
        std::printf("\nper-layer, traced (%zu spans over %.2f s):\n",
                    spans.size(), traced.wall_s);
        printMetrics("", layers);
        std::printf("\nshare of run time, and self time per run in ms, by "
                    "run kind:\n  %-14s %8s", "run kind", "share");
        for (std::size_t k = 0; k < kSpanKinds; ++k)
            std::printf(" %12s", spanKindName(static_cast<SpanKind>(k)));
        std::printf("\n");
        for (const auto &[run_kind, per_span] : self_ms) {
            std::printf("  %-14s %8.4f", run_kind.c_str(),
                        time_share[run_kind]);
            for (std::size_t k = 0; k < kSpanKinds; ++k) {
                auto it = per_span.find(
                    spanKindName(static_cast<SpanKind>(k)));
                std::printf(" %12.6f", it == per_span.end() ? 0.0
                                                            : it->second);
            }
            std::printf("\n");
        }
        std::printf("tracing overhead: run_ms_p50 %.4f ms traced vs "
                    "%.4f ms untraced\n",
                    summarizeRuns(traced.run_ms).median, runs.median);
        if (!options.spans.empty() &&
            !writeSpans(options.spans, firstRuns(spans), workload->runKinds(),
                        epoch)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         options.spans.c_str());
            return 1;
        }
    }

    std::string self_json = "{";
    for (const auto &[run_kind, per_span] : self_ms) {
        self_json += (self_json.size() > 1 ? ", " : "") + quoted(run_kind) +
                     ": {";
        bool first = true;
        for (const auto &[span_kind, ms] : per_span) {
            self_json += (first ? "" : ", ") + quoted(span_kind) + ": " +
                         num(ms);
            first = false;
        }
        self_json += "}";
    }
    self_json += "}";
    std::string share_json = "{";
    for (const auto &[run_kind, share] : time_share) {
        share_json += (share_json.size() > 1 ? ", " : "") +
                      quoted(run_kind) + ": " + num(share);
    }
    share_json += "}";
    std::printf("report {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"host\": %s, \"fail_ratio\": %s, "
                "\"pace_ms\": %s, \"nominal_pace_ms\": %s, "
                "\"end_to_end\": %s, \"per_layer\": %s, "
                "\"span_self_ms_per_run\": %s, \"run_time_share\": %s}\n",
                quoted(options.workload).c_str(),
                static_cast<unsigned long long>(options.seed),
                num(options.seconds).c_str(), options.trace ? 1 : 0,
                host.c_str(), num(fail_ratio).c_str(),
                num(pace.median).c_str(), num(PaceMeter::kNominalMs).c_str(),
                metricsJson(e2e, true).c_str(),
                metricsJson(layers, true).c_str(), self_json.c_str(),
                share_json.c_str());

    bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(options.trace ? layers : e2e, false).c_str());
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options options = perfbench::parseOptions(argc, argv);
    if (const char *why = perfbench::buildRefusal()) {
        std::fprintf(stderr, "perfbench: refusing to report from %s\n",
                     why);
        return 3;
    }
    return perfbench::run(options);
}
