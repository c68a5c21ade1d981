/**
 * @file
 * Tests for the Olden workloads and contexts: layout rules per
 * compilation model, checksum equality across models, algorithmic
 * correctness (bisort actually sorts; treeadd sums; mst weight
 * matches a host reference), and the experiment drivers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "support/rng.h"
#include "trace/profile.h"
#include "workloads/experiments.h"
#include "workloads/olden.h"
#include "workloads/profile_context.h"
#include "workloads/timing_context.h"
#include "workloads/trace_context.h"

namespace cheri::workloads
{
namespace
{

/** Context that observes accesses but models nothing. */
class NullContext : public Context
{
  public:
    explicit NullContext(CompileModel model = CompileModel::kMips)
        : Context(model)
    {
    }

    using Context::allocationSize;

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

TEST(Context, LayoutMatchesSection8NodeSizes)
{
    // A bisort node {word, ptr, ptr} is 24 bytes under MIPS and 96
    // bytes under CHERI (Section 8).
    NullContext mips(CompileModel::kMips);
    unsigned t = mips.defineType(
        {FieldKind::kWord, FieldKind::kPtr, FieldKind::kPtr});
    ObjRef a = mips.alloc(t);
    ObjRef b = mips.alloc(t);
    EXPECT_EQ(b - a, 24u);

    NullContext cheri(CompileModel::kCheri);
    t = cheri.defineType(
        {FieldKind::kWord, FieldKind::kPtr, FieldKind::kPtr});
    a = cheri.alloc(t);
    b = cheri.alloc(t);
    EXPECT_EQ(b - a, 96u);
}

TEST(Context, CapabilityFieldsAligned)
{
    NullContext cheri(CompileModel::kCheri);
    unsigned t = cheri.defineType(
        {FieldKind::kWord, FieldKind::kPtr, FieldKind::kWord,
         FieldKind::kPtr});
    ObjRef obj = cheri.alloc(t);
    EXPECT_EQ(obj % 32, 0u);
    // Store/load pointers through the aligned fields.
    cheri.storePtr(obj, 1, obj);
    EXPECT_EQ(cheri.loadPtr(obj, 1), obj);
}

TEST(Context, ValuesRoundTrip)
{
    NullContext ctx;
    unsigned t = ctx.defineType({FieldKind::kWord, FieldKind::kPtr});
    ObjRef a = ctx.alloc(t);
    ObjRef b = ctx.alloc(t);
    ctx.storeWord(a, 0, 123);
    ctx.storePtr(a, 1, b);
    ctx.storeWord(b, 0, 456);
    EXPECT_EQ(ctx.loadWord(a, 0), 123u);
    EXPECT_EQ(ctx.loadWord(ctx.loadPtr(a, 1), 0), 456u);
}

TEST(Context, ArraysIndexCorrectly)
{
    NullContext ctx;
    ObjRef words = ctx.allocArray(FieldKind::kWord, 10);
    for (std::uint64_t i = 0; i < 10; ++i)
        ctx.storeWordAt(words, i, i * i);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(ctx.loadWordAt(words, i), i * i);

    ObjRef ptrs = ctx.allocArray(FieldKind::kPtr, 4);
    ctx.storePtrAt(ptrs, 2, words);
    EXPECT_EQ(ctx.loadPtrAt(ptrs, 2), words);
    EXPECT_EQ(ctx.loadPtrAt(ptrs, 0), kNull);
}

TEST(Context, FieldKindMismatchPanics)
{
    NullContext ctx;
    unsigned t = ctx.defineType({FieldKind::kWord, FieldKind::kPtr});
    ObjRef obj = ctx.alloc(t);
    EXPECT_DEATH(ctx.loadPtr(obj, 0), "kind mismatch");
    EXPECT_DEATH(ctx.loadWord(obj, 1), "kind mismatch");
    EXPECT_DEATH(ctx.loadWord(obj, 5), "out of range");
}

TEST(Context, AllocationSizeOnlyAtAllocationBases)
{
    NullContext ctx(CompileModel::kCheri);
    unsigned t = ctx.defineType({FieldKind::kWord, FieldKind::kPtr});
    ObjRef obj = ctx.alloc(t);
    ObjRef array = ctx.allocArray(FieldKind::kWord, 5);
    EXPECT_EQ(ctx.allocationSize(obj), 64u);
    EXPECT_EQ(ctx.allocationSize(array), 40u);
    EXPECT_EQ(ctx.allocationSize(kNull), 0u);
    // Interior pointers, aligned or not.
    EXPECT_EQ(ctx.allocationSize(obj + 8), 0u);
    EXPECT_EQ(ctx.allocationSize(obj + 32), 0u);
    EXPECT_EQ(ctx.allocationSize(array + 1), 0u);
    EXPECT_EQ(ctx.allocationSize(array + 32), 0u);
    // Just past the heap, far past it, and below its base.
    EXPECT_EQ(ctx.allocationSize(array + 40), 0u);
    EXPECT_EQ(ctx.allocationSize(array + (1ULL << 40)), 0u);
    EXPECT_EQ(ctx.allocationSize(obj - 32), 0u);
    EXPECT_EQ(ctx.allocationSize(~0ULL), 0u);
}

TEST(Context, KindConfusionPanics)
{
    NullContext ctx;
    unsigned t = ctx.defineType({FieldKind::kWord, FieldKind::kPtr});
    ObjRef obj = ctx.alloc(t);
    ObjRef array = ctx.allocArray(FieldKind::kWord, 4);
    EXPECT_DEATH(ctx.loadWord(array, 0), "field access on non-object");
    EXPECT_DEATH(ctx.storePtr(array, 1, obj), "field access on non-object");
    EXPECT_DEATH(ctx.loadWordAt(obj, 0), "element access on non-array");
    EXPECT_DEATH(ctx.storePtrAt(obj, 0, kNull),
                 "element access on non-array");
    EXPECT_DEATH(ctx.loadWord(obj + 8, 0), "field access on non-object");
    EXPECT_DEATH(ctx.loadWordAt(array + 8, 0),
                 "element access on non-array");
    EXPECT_DEATH(ctx.loadWord(kNull, 0), "field access on non-object");
}

/**
 * A zero-size allocation leaves the bump pointer where it was, so the
 * next allocation shares its base. The address then keeps the first
 * allocation's kind alongside the second's, and the second's size.
 */
TEST(Context, ZeroSizeAllocationSharesItsBase)
{
    NullContext ctx;
    unsigned empty = ctx.defineType({});
    unsigned node = ctx.defineType({FieldKind::kWord, FieldKind::kPtr});

    // An empty object, then an array at the same address: the array
    // works, and the address is still an (empty) object.
    ObjRef obj = ctx.alloc(empty);
    EXPECT_EQ(ctx.allocationSize(obj), 0u);
    ObjRef words = ctx.allocArray(FieldKind::kWord, 4);
    ASSERT_EQ(words, obj);
    EXPECT_EQ(ctx.allocationSize(words), 32u);
    ctx.storeWordAt(words, 3, 9);
    EXPECT_EQ(ctx.loadWordAt(words, 3), 9u);
    EXPECT_DEATH(ctx.loadWord(obj, 0), "field 0 out of range");

    // An empty pointer array, then an object at the same address:
    // fields work, and element access still reads pointer-sized
    // elements at the same base.
    ObjRef ptrs = ctx.allocArray(FieldKind::kPtr, 0);
    EXPECT_EQ(ctx.allocationSize(ptrs), 0u);
    EXPECT_EQ(ctx.loadPtrAt(ptrs, 0), kNull); // past the heap: reads 0
    ObjRef n = ctx.alloc(node);
    ASSERT_EQ(n, ptrs);
    EXPECT_EQ(ctx.allocationSize(n), 16u);
    ctx.storeWord(n, 0, 77);
    ctx.storePtr(n, 1, words);
    EXPECT_EQ(ctx.loadPtrAt(n, 0), 77u);
    EXPECT_EQ(ctx.loadPtrAt(n, 1), words);
    EXPECT_DEATH(ctx.loadWordAt(n, 0), "loadWordAt on pointer array");

    // Two empty objects of different types: the later type wins.
    ObjRef first = ctx.alloc(empty);
    ObjRef second = ctx.alloc(node);
    ASSERT_EQ(first, second);
    ctx.storeWord(second, 0, 5);
    EXPECT_EQ(ctx.loadWord(first, 0), 5u);
}

TEST(Workloads, SuiteContents)
{
    auto fpga = fpgaBenchmarks();
    ASSERT_EQ(fpga.size(), 4u);
    EXPECT_EQ(fpga[0]->name(), "bisort");
    EXPECT_EQ(fpga[1]->name(), "mst");
    EXPECT_EQ(fpga[2]->name(), "treeadd");
    EXPECT_EQ(fpga[3]->name(), "perimeter");
    EXPECT_EQ(oldenSuite().size(), 8u);
    EXPECT_EQ(oldenSuite()[6]->name(), "power");
    EXPECT_EQ(oldenSuite()[7]->name(), "tsp");
    EXPECT_NE(makeWorkload("em3d"), nullptr);
    EXPECT_EQ(makeWorkload("nonesuch"), nullptr);
}

TEST(Workloads, TreeaddComputesExactSum)
{
    Treeadd treeadd;
    NullContext ctx;
    std::uint64_t sum = treeadd.run(ctx, {10, 0, 1});
    EXPECT_EQ(sum, (1u << 10) - 1);
}

TEST(Workloads, BisortActuallySorts)
{
    // Run bisort on a null context, then verify the in-order
    // traversal is sorted by re-walking the tree: rebuild with the
    // same seed, sort, and walk. We verify via a dedicated context
    // that lets us read the final tree.
    class Probe : public NullContext
    {
      public:
        using NullContext::NullContext;
    };

    Probe ctx;
    unsigned type = ctx.defineType(
        {FieldKind::kWord, FieldKind::kPtr, FieldKind::kPtr});
    (void)type;

    // Instead of reaching into bisort's internals, exploit the
    // checksum: the checksum folds the in-order sequence, so we
    // recompute it from a sorted host-side model. Build the same
    // random values, sort ascending, and fold with the same hash.
    Bisort bisort;
    WorkloadParams params{255, 0, 7};
    std::uint64_t checksum = bisort.run(ctx, params);

    // Host model: 255 tree values + 1 spare from the same RNG.
    support::Xoshiro256 rng(params.seed);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 256; ++i)
        values.push_back(rng.next() >> 1);
    std::sort(values.begin(), values.end());

    // In-order fold of the sorted sequence: tree holds the first 255
    // sorted values, the spare is the maximum, and the fold is
    // acc = acc * FNV + v over the tree followed by spare seeding.
    std::uint64_t expected = values.back(); // final spare = max
    // checksum() starts from acc = spare and folds in-order values.
    std::uint64_t acc = expected;
    for (int i = 0; i < 255; ++i)
        acc = acc * 1099511628211ULL + values[static_cast<size_t>(i)];
    EXPECT_EQ(checksum, acc);
}

TEST(Workloads, MstMatchesHostPrim)
{
    // Host-side Prim over the same ring graph must give the same MST
    // weight.
    const std::uint64_t n = 64, degree = 8, seed = 3;
    auto weight = [&](std::uint64_t a, std::uint64_t b) {
        std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
        std::uint64_t x = (lo * 0x9e3779b97f4a7c15ULL) ^
                          (hi * 0xbf58476d1ce4e5b9ULL) ^ seed;
        x ^= x >> 31;
        return x % 2048 + 1;
    };
    std::vector<std::uint64_t> mindist(n, ~0ULL);
    std::vector<bool> inserted(n, false);
    inserted[0] = true;
    std::uint64_t last = 0, expected = 0;
    for (std::uint64_t step = 1; step < n; ++step) {
        std::uint64_t best = ~0ULL, best_v = n;
        for (std::uint64_t v = 0; v < n; ++v) {
            if (inserted[v])
                continue;
            // Edge between v and last when within degree/2 on the
            // ring.
            std::uint64_t fwd = (v + n - last) % n;
            std::uint64_t back = (last + n - v) % n;
            if (std::min(fwd, back) <= degree / 2) {
                std::uint64_t w = weight(v, last);
                mindist[v] = std::min(mindist[v], w);
            }
            if (mindist[v] < best) {
                best = mindist[v];
                best_v = v;
            }
        }
        inserted[best_v] = true;
        last = best_v;
        expected += best;
    }

    Mst mst;
    NullContext ctx;
    EXPECT_EQ(mst.run(ctx, {n, degree, seed}), expected);
}

TEST(Workloads, PerimeterMatchesRasterScan)
{
    // Brute-force perimeter of the same disk image at pixel level.
    const unsigned levels = 5;
    const std::int64_t size = 1 << levels;
    auto black = [&](std::int64_t x, std::int64_t y) {
        if (x < 0 || y < 0 || x >= size || y >= size)
            return false;
        // Mirror Image::classify at side == 1: the square [x,x+1) x
        // [y,y+1) is black iff max corner distance <= r (grey pixels
        // at unit size are forced black, white needs min >= r, and
        // unit grey -> black).
        std::int64_t cx = size / 2, cy = size / 2;
        std::int64_t r = size * 3 / 8;
        auto d2 = [&](std::int64_t px, std::int64_t py) {
            return (px - cx) * (px - cx) + (py - cy) * (py - cy);
        };
        std::int64_t min2 =
            d2(std::clamp(cx, x, x + 1), std::clamp(cy, y, y + 1));
        return min2 < r * r; // not fully outside => black at size 1
    };
    std::uint64_t expected = 0;
    for (std::int64_t x = 0; x < size; ++x) {
        for (std::int64_t y = 0; y < size; ++y) {
            if (!black(x, y))
                continue;
            if (!black(x - 1, y))
                ++expected;
            if (!black(x + 1, y))
                ++expected;
            if (!black(x, y - 1))
                ++expected;
            if (!black(x, y + 1))
                ++expected;
        }
    }

    Perimeter perimeter;
    NullContext ctx;
    EXPECT_EQ(perimeter.run(ctx, {levels, 0, 5}), expected);
}

TEST(Workloads, ChecksumsIdenticalAcrossModels)
{
    for (const auto &workload : oldenSuite()) {
        WorkloadParams params = workload->defaultParams();
        NullContext mips(CompileModel::kMips);
        NullContext ccured(CompileModel::kCcured);
        NullContext cheri(CompileModel::kCheri);
        std::uint64_t a = workload->run(mips, params);
        std::uint64_t b = workload->run(ccured, params);
        std::uint64_t c = workload->run(cheri, params);
        EXPECT_EQ(a, b) << workload->name();
        EXPECT_EQ(a, c) << workload->name();
    }
}

TEST(Workloads, VmChurnRegisteredByNameOnly)
{
    // The managed-runtime profile is reachable by name but must not
    // join the paper-figure suites.
    EXPECT_NE(makeWorkload("vm"), nullptr);
    for (const auto &workload : oldenSuite())
        EXPECT_NE(workload->name(), "vm");
}

TEST(Workloads, VmChurnChecksumIdenticalAcrossModels)
{
    auto vm = makeWorkload("vm");
    ASSERT_NE(vm, nullptr);
    WorkloadParams params = vm->defaultParams();
    NullContext mips(CompileModel::kMips);
    NullContext ccured(CompileModel::kCcured);
    NullContext cheri(CompileModel::kCheri);
    std::uint64_t a = vm->run(mips, params);
    std::uint64_t b = vm->run(ccured, params);
    std::uint64_t c = vm->run(cheri, params);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    // The fold is ((result*31 + collections)*31 + allocations) with
    // result = rounds * units*(units+1)/2 = 468 and allocations =
    // rounds * units = 72. The mod-31 residue pins the allocation
    // count, and the zero-collections fold value is excluded — the
    // churn must actually have forced collections.
    EXPECT_EQ(a % 31, (6ull * 12) % 31);
    EXPECT_NE(a, (468ull * 31 + 0) * 31 + 72);
    EXPECT_GT(a, (468ull * 31 + 0) * 31 + 72);
}

TEST(Workloads, DeterministicAcrossRuns)
{
    for (const auto &workload : oldenSuite()) {
        NullContext first, second;
        EXPECT_EQ(workload->run(first, workload->defaultParams()),
                  workload->run(second, workload->defaultParams()))
            << workload->name();
    }
}

TEST(Workloads, HeapParamsApproximateTarget)
{
    for (const auto &workload : oldenSuite()) {
        for (std::uint64_t kb : {16ULL, 64ULL, 256ULL}) {
            NullContext ctx;
            workload->run(ctx, workload->paramsForHeapBytes(kb * 1024));
            double ratio = static_cast<double>(ctx.heapBytes()) /
                           static_cast<double>(kb * 1024);
            EXPECT_GT(ratio, 0.2) << workload->name() << " @" << kb;
            EXPECT_LT(ratio, 3.0) << workload->name() << " @" << kb;
        }
    }
}

TEST(ProfileContextTest, MatchesTracePlusProfile)
{
    // The streaming profiler must agree exactly with the two-pass
    // trace-then-profile pipeline, on every workload.
    for (const auto &workload : oldenSuite()) {
        WorkloadParams params = workload->defaultParams();
        TraceContext traced;
        workload->run(traced, params);
        trace::TraceProfile expected =
            trace::profileTrace(traced.trace());

        ProfileContext streamed;
        workload->run(streamed, params);
        trace::TraceProfile actual = streamed.profile();

        EXPECT_EQ(actual.base.instructions, expected.base.instructions)
            << workload->name();
        EXPECT_EQ(actual.base.memory_refs, expected.base.memory_refs)
            << workload->name();
        EXPECT_EQ(actual.base.memory_bytes, expected.base.memory_bytes)
            << workload->name();
        EXPECT_EQ(actual.base.pointer_loads, expected.base.pointer_loads)
            << workload->name();
        EXPECT_EQ(actual.base.pointer_stores,
                  expected.base.pointer_stores)
            << workload->name();
        EXPECT_EQ(actual.base.mallocs, expected.base.mallocs)
            << workload->name();
        EXPECT_EQ(actual.base.frees, expected.base.frees)
            << workload->name();
        EXPECT_EQ(actual.base.heap_bytes, expected.base.heap_bytes)
            << workload->name();
        EXPECT_EQ(actual.base.pages_touched, expected.base.pages_touched)
            << workload->name();
        EXPECT_EQ(actual.derefs, expected.derefs) << workload->name();
        EXPECT_EQ(actual.ptr_refs, expected.ptr_refs)
            << workload->name();
        EXPECT_EQ(actual.ptr_locations, expected.ptr_locations)
            << workload->name();
        EXPECT_EQ(actual.ptr_pages, expected.ptr_pages)
            << workload->name();
        EXPECT_EQ(actual.compressible_ptr_refs,
                  expected.compressible_ptr_refs)
            << workload->name();
        EXPECT_EQ(actual.pow2_padding_bytes, expected.pow2_padding_bytes)
            << workload->name();
        EXPECT_EQ(actual.footprint_bytes, expected.footprint_bytes)
            << workload->name();
    }
}

TEST(TraceContextTest, RecordsWorkloadEvents)
{
    Treeadd treeadd;
    TraceContext ctx;
    treeadd.run(ctx, {6, 0, 1});
    trace::BaselineStats stats = trace::baselineStats(ctx.trace());
    EXPECT_EQ(stats.mallocs, 63u); // 2^6 - 1 nodes
    EXPECT_GT(stats.pointer_stores, 0u);
    EXPECT_GT(stats.instructions, stats.memory_refs);
}

TEST(TimingContextTest, CheriSlowerThanMipsOnPointerChase)
{
    Treeadd treeadd;
    TimingContext mips(CompileModel::kMips);
    TimingContext cheri(CompileModel::kCheri);
    WorkloadParams params{10, 0, 1};
    EXPECT_EQ(treeadd.run(mips, params), treeadd.run(cheri, params));
    EXPECT_GT(cheri.total().cycles, mips.total().cycles);
    // Instruction overhead is tiny (one per allocation).
    double instr_ratio = static_cast<double>(cheri.total().instructions) /
                         static_cast<double>(mips.total().instructions);
    EXPECT_LT(instr_ratio, 1.01);
}

TEST(TimingContextTest, PhasesAreSeparated)
{
    Treeadd treeadd;
    TimingContext ctx(CompileModel::kMips);
    treeadd.run(ctx, {8, 0, 1});
    EXPECT_GT(ctx.allocPhase().cycles, 0u);
    EXPECT_GT(ctx.computePhase().cycles, 0u);
    EXPECT_EQ(ctx.total().cycles,
              ctx.allocPhase().cycles + ctx.computePhase().cycles);
}

/**
 * Golden Figure 4 and Figure 5 points: instructions and cycles per
 * phase under every compilation model, pinned from the list-LRU,
 * hash-map implementation this one replaced. Any change to the
 * context's access stream, the TLB or the tag cache shows here.
 */
TEST(TimingContextTest, GoldenPhaseCosts)
{
    struct Point
    {
        std::unique_ptr<Workload> workload;
        WorkloadParams params;
        core::MachineConfig config;
    };
    std::vector<Point> points;
    points.push_back(
        {std::make_unique<Bisort>(), WorkloadParams{511, 0, 7}, {}});
    WorkloadParams mst_params = Mst().paramsForHeapBytes(32 * 1024);
    points.push_back({std::make_unique<Mst>(), mst_params, {}});
    // The same point with an 8-entry TLB and tag cache, so both evict.
    core::MachineConfig small;
    small.tlb.entries = 8;
    small.tag_cache.capacity_bytes = 8 * small.tag_cache.entry_bytes;
    points.push_back({std::make_unique<Mst>(), mst_params, small});

    std::vector<std::uint64_t> got;
    for (const Point &point : points) {
        for (CompileModel model :
             {CompileModel::kMips, CompileModel::kCcured,
              CompileModel::kCheri, CompileModel::kCheri128}) {
            TimingContext ctx(model, point.config);
            point.workload->run(ctx, point.params);
            got.insert(got.end(), {ctx.allocPhase().instructions,
                                   ctx.allocPhase().cycles,
                                   ctx.computePhase().instructions,
                                   ctx.computePhase().cycles});
        }
    }
    // Per point and model: alloc instructions, alloc cycles, compute
    // instructions, compute cycles; models MIPS, CCured, CHERI, 128b
    // CHERI.
    const std::vector<std::uint64_t> expected = {
        // fig4 bisort
        70007, 74372, 208819, 218895,
        104244, 114575, 542039, 566195,
        70518, 87509, 208819, 251383,
        70518, 78988, 208819, 233791,
        // fig5 mst 32KB
        125398, 143120, 157367, 172847,
        197652, 228938, 374993, 404418,
        126308, 174414, 157367, 247442,
        126308, 153236, 157367, 179838,
        // fig5 mst 32KB, small TLB and tag cache
        125398, 143120, 157367, 172847,
        197652, 229028, 374993, 432198,
        126308, 174684, 157367, 303482,
        126308, 153326, 157367, 209748,
    };
    EXPECT_EQ(got, expected);
}

TEST(Experiments, LimitStudySmoke)
{
    LimitStudyResult result = runLimitStudy(false);
    EXPECT_EQ(result.workloads.size(), 8u);
    ASSERT_EQ(result.models.size(), 8u);
    for (const auto &model : result.models)
        EXPECT_EQ(model.per_workload.size(), 8u);
    // CHERI's refs overhead is identically zero.
    for (const auto &model : result.models) {
        if (model.model == "CHERI") {
            EXPECT_EQ(model.mean.refs, 0.0);
        }
    }
}

TEST(Workloads, Cheri128LayoutHalvesPointerFootprint)
{
    NullContext c128(CompileModel::kCheri128);
    unsigned t = c128.defineType(
        {FieldKind::kWord, FieldKind::kPtr, FieldKind::kPtr});
    ObjRef a = c128.alloc(t);
    ObjRef b = c128.alloc(t);
    EXPECT_EQ(b - a, 48u); // 8 (word) + pad + 2 x 16 (caps)
}

TEST(Workloads, Cheri128ChecksumsMatch)
{
    for (const auto &workload : fpgaBenchmarks()) {
        NullContext mips(CompileModel::kMips);
        NullContext c128(CompileModel::kCheri128);
        WorkloadParams params = workload->defaultParams();
        EXPECT_EQ(workload->run(mips, params),
                  workload->run(c128, params))
            << workload->name();
    }
}

TEST(Experiments, CapSizeAblationOrdering)
{
    auto results = runCapSizeAblation(false);
    ASSERT_EQ(results.size(), 4u);
    for (const auto &entry : results) {
        // MIPS < 128-bit CHERI < 256-bit CHERI in cycles.
        EXPECT_LT(entry.mips_cycles, entry.cheri128_cycles)
            << entry.benchmark;
        EXPECT_LT(entry.cheri128_cycles, entry.cheri256_cycles)
            << entry.benchmark;
    }
}

TEST(Experiments, HeapScalingMonotoneEnds)
{
    auto series = runHeapScaling({8, 512});
    ASSERT_EQ(series.size(), 4u);
    for (const auto &entry : series) {
        ASSERT_EQ(entry.points.size(), 2u);
        EXPECT_LT(entry.points[0].second, entry.points[1].second)
            << entry.benchmark;
    }
}

} // namespace
} // namespace cheri::workloads
