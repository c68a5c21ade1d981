/**
 * @file
 * The fig_sweep workload: the paper-figure path. A run is one figure
 * point: workloads::runFpgaComparison (Figure 4) or one
 * runHeapScaling heap size (Figure 5). Every access goes through a
 * real Machine's TLB, caches, tag manager and DRAM model via
 * TimingContext; no guest code is interpreted.
 *
 * Set-up computes each point's expected results by driving the same
 * TimingContext calls directly, which also yields the counters the
 * figure functions do not return.
 */

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench.h"
#include "mem/cow_store.h"
#include "os/simple_os.h"
#include "workloads/experiments.h"
#include "workloads/timing_context.h"
#include "workloads/workload.h"

namespace perfbench
{

using cheri::workloads::CompileModel;
using cheri::workloads::PhaseCosts;

namespace
{

/** Figure 5 heap sizes, in KB: inside L1, inside L2 and past the
 *  64 KB L2. Larger points cost seconds each (1024 KB: ~16 s). */
const std::uint64_t kHeapKb[] = {32, 64, 128};

struct PointKind
{
    std::string name;
    std::uint64_t heap_kb = 0; ///< 0 = the Figure 4 comparison
    /** Figure 4: per benchmark, the mips/ccured/cheri total costs. */
    std::vector<std::array<PhaseCosts, 3>> fig4;
    /** Figure 5: per benchmark, the CHERI slowdown. */
    std::vector<double> fig5;
    /** Modelled instructions over all of the point's contexts. */
    std::uint64_t insts = 0;
};

bool
sameCosts(const PhaseCosts &a, const PhaseCosts &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles;
}

PhaseCosts
sum(const PhaseCosts &a, const PhaseCosts &b)
{
    return {a.instructions + b.instructions, a.cycles + b.cycles};
}

class FigSweep : public Workload
{
  public:
    explicit FigSweep(std::uint64_t seed) : rotation_(seed)
    {
        kind_names_.push_back("fig4");
        for (std::uint64_t kb : kHeapKb)
            kind_names_.push_back("fig5_" + std::to_string(kb) + "KB");
    }

    const std::vector<std::string> &runKinds() const override
    {
        return kind_names_;
    }

    void
    setup(Tracer *tracer) override
    {
        for (std::size_t k = 0; k < kind_names_.size(); ++k) {
            PointKind point;
            point.name = kind_names_[k];
            point.heap_kb = k == 0 ? 0 : kHeapKb[k - 1];
            Counters point_counters;
            for (const auto &workload :
                 cheri::workloads::fpgaBenchmarks()) {
                cheri::workloads::WorkloadParams params =
                    point.heap_kb == 0
                        ? workload->defaultParams()
                        : workload->paramsForHeapBytes(point.heap_kb *
                                                       1024);
                std::array<PhaseCosts, 3> costs{};
                const CompileModel models[3] = {CompileModel::kMips,
                                                CompileModel::kCcured,
                                                CompileModel::kCheri};
                for (int m = 0; m < 3; ++m) {
                    // Figure 5 compares MIPS with CHERI only.
                    if (point.heap_kb != 0 && m == 1)
                        continue;
                    Span span;
                    span.run_kind = static_cast<std::uint32_t>(k);
                    span.kind = SpanKind::kMachineNew;
                    span.start = Clock::now();
                    cheri::workloads::TimingContext ctx(models[m]);
                    span.end = Clock::now();
                    if (tracer != nullptr)
                        tracer->add(0, span);
                    workload->run(ctx, params);
                    costs[m] = ctx.total();
                    point.insts += costs[m].instructions;
                    Counters counters = machineCounters(ctx.machine());
                    counters["sim.insts"] = costs[m].instructions;
                    counters["sim.cycles"] = costs[m].cycles;
                    for (const auto &[name, value] : counters)
                        point_counters[name] += value;
                    probe_heap_bytes_ =
                        std::max(probe_heap_bytes_, ctx.heapBytes());
                }
                if (point.heap_kb == 0) {
                    point.fig4.push_back(costs);
                } else {
                    // runHeapScaling's arithmetic, term for term.
                    double mips_cycles =
                        static_cast<double>(costs[0].cycles);
                    double cheri_cycles =
                        static_cast<double>(costs[2].cycles);
                    point.fig5.push_back(
                        mips_cycles > 0.0 ? cheri_cycles / mips_cycles - 1.0
                                          : 0.0);
                }
            }
            counts_.add(point_counters, 1.0);
            points_.push_back(std::move(point));
        }
    }

    Tally
    serve(Clock::time_point deadline, Tracer *tracer) override
    {
        return serveRounds(deadline, points_.size(), 1, rotation_,
                           [&](std::size_t k) {
                               RunRecord record;
                               record.ok = runPoint(k, tracer, record.ms);
                               record.insts = points_[k].insts;
                               return record;
                           });
    }

    const EventCounts &counts() const override { return counts_; }

    ProbeInput
    probeInput() const override
    {
        // The largest point's heap: TimingContext allocates it
        // contiguously from the OS heap base and touches all of it.
        ProbeInput input;
        std::uint64_t bytes = probe_heap_bytes_;
        for (std::uint64_t line = 0; line < bytes;
             line += cheri::mem::kLineBytes)
            input.lines.push_back(cheri::os::kHeapBase + line);
        input.map = [bytes](cheri::core::Machine &machine) {
            machine.mapRange(cheri::os::kHeapBase, bytes);
        };
        return input;
    }

  private:
    /** Run one figure point and check it against its reference; `ms`
     *  gets the CPU ms it took. */
    bool
    runPoint(std::size_t k, Tracer *tracer, double &ms)
    {
        const PointKind &point = points_[k];
        Span span;
        span.run = ++runs_;
        span.run_kind = static_cast<std::uint32_t>(k);
        std::uint64_t root = tracer != nullptr ? tracer->newId() : 0;
        span.parent = root;

        double cpu_start = threadCpuMs();
        Clock::time_point start = Clock::now();
        bool ok = true;
        Clock::time_point computed;
        if (point.heap_kb == 0) {
            std::vector<cheri::workloads::FpgaComparisonEntry> entries =
                cheri::workloads::runFpgaComparison(false);
            computed = Clock::now();
            ok = entries.size() == point.fig4.size();
            for (std::size_t b = 0; ok && b < entries.size(); ++b) {
                const auto &entry = entries[b];
                PhaseCosts mips = sum(entry.mips.alloc, entry.mips.compute);
                PhaseCosts ccured =
                    sum(entry.ccured.alloc, entry.ccured.compute);
                PhaseCosts cheri =
                    sum(entry.cheri.alloc, entry.cheri.compute);
                // The paper's shape: MIPS < CHERI < CCured.
                ok = mips.cycles < cheri.cycles &&
                     cheri.cycles < ccured.cycles &&
                     sameCosts(mips, point.fig4[b][0]) &&
                     sameCosts(ccured, point.fig4[b][1]) &&
                     sameCosts(cheri, point.fig4[b][2]);
            }
        } else {
            std::vector<cheri::workloads::HeapScalingSeries> series =
                cheri::workloads::runHeapScaling({point.heap_kb});
            computed = Clock::now();
            ok = series.size() == point.fig5.size();
            for (std::size_t b = 0; ok && b < series.size(); ++b) {
                const auto &points = series[b].points;
                // CHERI is slower than MIPS, but not twice as slow.
                ok = points.size() == 1 &&
                     points[0].first == point.heap_kb &&
                     points[0].second == point.fig5[b] &&
                     points[0].second > 0.0 && points[0].second < 1.0;
            }
        }
        Clock::time_point end = Clock::now();
        double cpu_ms = threadCpuMs() - cpu_start;
        if (tracer != nullptr) {
            span.kind = SpanKind::kTimingPoint;
            span.start = start;
            span.end = computed;
            tracer->add(0, span);
            span.kind = SpanKind::kVerify;
            span.start = computed;
            span.end = end;
            tracer->add(0, span);
            span.id = root;
            span.parent = 0;
            span.kind = SpanKind::kRun;
            span.start = start;
            tracer->add(0, span);
        }
        if (!ok) {
            std::fprintf(stderr,
                         "perfbench: %s differs from its reference or "
                         "the paper's shape\n",
                         point.name.c_str());
        }
        ms = cpu_ms;
        return ok;
    }

    /** Seeded order of each round, continued across serve() calls. */
    cheri::support::Xoshiro256 rotation_;
    std::vector<std::string> kind_names_;
    std::vector<PointKind> points_;
    EventCounts counts_;
    std::uint64_t probe_heap_bytes_ = 0;
    std::uint64_t runs_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFigSweep(std::uint64_t seed)
{
    return std::make_unique<FigSweep>(seed);
}

} // namespace perfbench
