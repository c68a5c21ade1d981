/**
 * @file
 * The workload execution context: Olden benchmark implementations are
 * written once against this interface and run under three compilation
 * models (Section 8) —
 *
 *   kMips   unprotected 64-bit MIPS: 8-byte pointers, no checks;
 *   kCcured CCured-style software enforcement: fat pointers plus
 *           explicit bounds-check instruction sequences;
 *   kCheri  CHERI capabilities: 32-byte pointers moved by single
 *           CLC/CSC accesses, hardware-implicit checks, one extra
 *           instruction per allocation to set bounds.
 *
 * The context lays out each object type according to the model's
 * pointer size and alignment (a bisort node is 24 bytes under MIPS
 * and 96 bytes under CHERI, exactly as Section 8 reports), maintains
 * a real backing store so the algorithms compute true results, and
 * reports every access to a subclass hook — the trace recorder for
 * the limit study, or the timing simulator for Figures 4 and 5.
 */

#ifndef CHERI_WORKLOADS_CONTEXT_H
#define CHERI_WORKLOADS_CONTEXT_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.h"

namespace cheri::workloads
{

/** Which compiled form of the benchmark is being modeled. */
enum class CompileModel
{
    kMips,
    kCcured,
    kCheri,
    /** The proposed 128-bit production capability format (Section 7):
     *  16-byte pointers, still one transaction per move, hardware
     *  checks — the capability-size ablation of Section 8's closing
     *  observation that "CHERI will benefit from capability
     *  compression". */
    kCheri128,
};

/** Display name of a compilation model. */
const char *compileModelName(CompileModel model);

/** Execution phase for Figure 4's decomposition. */
enum class Phase
{
    kAlloc,
    kCompute,
};

/** Field kinds within an object type. */
enum class FieldKind
{
    kWord, ///< 8-byte integer data
    kPtr,  ///< pointer to another object
};

/** Reference to a simulated object (its virtual base address). */
using ObjRef = std::uint64_t;
constexpr ObjRef kNull = 0;

/** Per-model cost parameters (documented against Section 8). */
struct ModelCosts
{
    /** Bytes a pointer field occupies in memory. */
    std::uint64_t ptr_bytes = 8;
    /** Alignment of pointer fields (capabilities need 32). */
    std::uint64_t ptr_align = 8;
    /** Memory accesses needed to move one pointer. */
    unsigned ptr_refs = 1;
    /** Extra check instructions charged per object access. */
    std::uint64_t check_instrs = 0;
    /** Baseline allocator instructions per malloc: a realistic
     *  free-list malloc() costs on the order of a hundred
     *  instructions, identical across models (Section 4.2's point
     *  that allocation amortizes kernel entry). */
    std::uint64_t malloc_instrs = 120;
    /** Extra per-allocation setup (bounds/fat-pointer init). */
    std::uint64_t malloc_extra_instrs = 0;
};

/** Address-generation/loop instructions charged with every memory
 *  access: compiled pointer-chasing code spends a few ALU
 *  instructions per load or store, in every compilation model. */
constexpr std::uint64_t kAccessOverheadInstr = 2;

/** Call/return and frame instructions charged by workloads at each
 *  recursive call site, modeling compiled function prologues. */
constexpr std::uint64_t kCallOverheadInstr = 8;

/** Costs for a compilation model. */
ModelCosts modelCosts(CompileModel model);

/**
 * Abstract workload context. Subclasses observe the access stream
 * through the protected hooks.
 */
class Context
{
  public:
    explicit Context(CompileModel model);
    virtual ~Context() = default;

    CompileModel model() const { return model_; }
    const ModelCosts &costs() const { return costs_; }

    /** Define an object type from its field sequence. */
    unsigned defineType(std::vector<FieldKind> fields);

    /** Allocate one object of a defined type. */
    ObjRef alloc(unsigned type_id);

    /** Allocate an array of 'count' elements of the given kind. */
    ObjRef allocArray(FieldKind element, std::uint64_t count);

    /** Release an object (addresses are never reused; Section 11). */
    void free(ObjRef obj);

    // --- typed field access ---
    std::uint64_t loadWord(ObjRef obj, unsigned field);
    void storeWord(ObjRef obj, unsigned field, std::uint64_t value);
    ObjRef loadPtr(ObjRef obj, unsigned field);
    void storePtr(ObjRef obj, unsigned field, ObjRef value);

    // --- array element access ---
    std::uint64_t loadWordAt(ObjRef array, std::uint64_t index);
    void storeWordAt(ObjRef array, std::uint64_t index,
                     std::uint64_t value);
    ObjRef loadPtrAt(ObjRef array, std::uint64_t index);
    void storePtrAt(ObjRef array, std::uint64_t index, ObjRef value);

    /** Charge 'count' non-memory (ALU/branch) instructions. */
    void compute(std::uint64_t count);

    /** Switch Figure 4 phase accounting. */
    virtual void setPhase(Phase phase) { phase_ = phase; }
    Phase phase() const { return phase_; }

    /** Total simulated heap bytes allocated so far. */
    std::uint64_t heapBytes() const { return heap_bytes_; }
    /** Number of allocations so far. */
    std::uint64_t allocCount() const { return alloc_count_; }

  protected:
    // Subclass observation hooks. Sizes are in bytes; is_ptr marks
    // pointer moves; target_size is the pointee allocation size for
    // pointer values (0 for null/unknown). onStore additionally
    // carries the stored pointer value itself (the pointee's simulated
    // base address; 0 for data stores and null pointers) so a timing
    // context can write the real capability image — base and length —
    // into simulated memory, where the pointer-chase prefetcher
    // decodes it on fill.
    virtual void onAlloc(std::uint64_t vaddr, std::uint64_t size) = 0;
    virtual void onFree(std::uint64_t vaddr) = 0;
    virtual void onLoad(std::uint64_t vaddr, std::uint64_t size,
                        bool is_ptr, std::uint64_t target_size) = 0;
    virtual void onStore(std::uint64_t vaddr, std::uint64_t size,
                         bool is_ptr, std::uint64_t target_size,
                         std::uint64_t target) = 0;
    virtual void onInstructions(std::uint64_t count) = 0;

    /** Allocation size of the object at base vaddr (0 if unknown). */
    std::uint64_t allocationSize(ObjRef obj) const;

  private:
    struct TypeLayout
    {
        std::vector<FieldKind> fields;
        std::vector<std::uint64_t> offsets;
        std::uint64_t size = 0;
    };

    /** No type id: the allocation is not an object. */
    static constexpr unsigned kNoType = ~0u;

    /**
     * One allocation's record. A zero-size allocation shares its base
     * with the next allocation, which then updates this record: the
     * size and the kind just allocated are overwritten, the other
     * kind is kept.
     */
    struct Allocation
    {
        std::uint64_t size = 0;
        unsigned type = kNoType; ///< object type id, or kNoType
        FieldKind element = FieldKind::kWord;
        std::uint64_t stride = 0; ///< array stride; 0 = not an array
    };

    /** The record of the allocation based at obj, or nullptr. */
    const Allocation *allocationAt(ObjRef obj) const;
    std::uint64_t fieldAddress(ObjRef obj, unsigned field,
                               FieldKind expected) const;
    std::uint64_t elementAddress(ObjRef array, std::uint64_t index,
                                 FieldKind &kind_out) const;
    ObjRef allocateRaw(std::uint64_t size);

    /** Raw backing store (word granular). */
    std::uint64_t loadRaw(std::uint64_t vaddr) const;
    void storeRaw(std::uint64_t vaddr, std::uint64_t value);

    CompileModel model_;
    ModelCosts costs_;
    Phase phase_ = Phase::kAlloc;

    std::vector<TypeLayout> types_;
    /** Allocation records; entry 0 is unused so index 0 means none. */
    std::vector<Allocation> allocations_;
    /** Per arena word: the record of the allocation based there, or
     *  0. Covers one word past the arena when a zero-size allocation
     *  sits at its end. */
    std::vector<std::uint32_t> base_index_;
    /** Flat word-granular arena backing the bump-allocated heap. */
    std::vector<std::uint64_t> arena_;

    std::uint64_t next_vaddr_;
    std::uint64_t heap_bytes_ = 0;
    std::uint64_t alloc_count_ = 0;
};

} // namespace cheri::workloads

#endif // CHERI_WORKLOADS_CONTEXT_H
