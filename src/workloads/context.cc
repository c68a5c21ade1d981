#include "workloads/context.h"

#include <algorithm>

#include "support/bits.h"

namespace cheri::workloads
{

namespace
{
/** Heap origin for simulated workloads (matches os::kHeapBase). */
constexpr std::uint64_t kWorkloadHeapBase = 0x1000000;
} // namespace

const char *
compileModelName(CompileModel model)
{
    switch (model) {
      case CompileModel::kMips: return "MIPS";
      case CompileModel::kCcured: return "CCured";
      case CompileModel::kCheri: return "CHERI";
      case CompileModel::kCheri128: return "128b CHERI";
    }
    return "?";
}

ModelCosts
modelCosts(CompileModel model)
{
    ModelCosts costs;
    switch (model) {
      case CompileModel::kMips:
        // Plain 64-bit pointers, no checks.
        break;
      case CompileModel::kCcured:
        // CCured-style fat pointers: pointer + metadata word moved by
        // separate loads, and an explicit null/lower/upper check
        // sequence on every object access (~6 instructions). The
        // allocation path runs the wide-pointer wrapper and, like
        // CCured, zero-initializes the block (Section 8: "the
        // software-enforcement case is significantly more complex").
        costs.ptr_bytes = 16;
        costs.ptr_align = 8;
        costs.ptr_refs = 2;
        costs.check_instrs = 6;
        costs.malloc_extra_instrs = 40;
        break;
      case CompileModel::kCheri:
        // 256-bit capabilities, one CLC/CSC per pointer move,
        // hardware-implicit checks, one extra instruction per
        // allocation to set bounds (Section 8).
        costs.ptr_bytes = 32;
        costs.ptr_align = 32;
        costs.ptr_refs = 1;
        costs.check_instrs = 0;
        costs.malloc_extra_instrs = 1;
        break;
      case CompileModel::kCheri128:
        // Compressed capabilities: half the footprint, same single
        // transaction and implicit checks.
        costs.ptr_bytes = 16;
        costs.ptr_align = 16;
        costs.ptr_refs = 1;
        costs.check_instrs = 0;
        costs.malloc_extra_instrs = 1;
        break;
    }
    return costs;
}

Context::Context(CompileModel model)
    : model_(model), costs_(modelCosts(model)),
      allocations_(1), next_vaddr_(kWorkloadHeapBase)
{
}

unsigned
Context::defineType(std::vector<FieldKind> fields)
{
    TypeLayout layout;
    layout.fields = std::move(fields);
    std::uint64_t offset = 0;
    for (FieldKind field : layout.fields) {
        std::uint64_t align =
            field == FieldKind::kPtr ? costs_.ptr_align : 8;
        std::uint64_t size =
            field == FieldKind::kPtr ? costs_.ptr_bytes : 8;
        offset = support::roundUp(offset, align);
        layout.offsets.push_back(offset);
        offset += size;
    }
    // Round the object so arrays of it keep every field aligned.
    std::uint64_t max_align = 8;
    for (FieldKind field : layout.fields)
        if (field == FieldKind::kPtr)
            max_align = std::max<std::uint64_t>(max_align,
                                                costs_.ptr_align);
    layout.size = support::roundUp(offset, max_align);
    types_.push_back(std::move(layout));
    return static_cast<unsigned>(types_.size()) - 1;
}

ObjRef
Context::allocateRaw(std::uint64_t size)
{
    // Allocations are aligned to the model's pointer alignment (32
    // for CHERI so capabilities are storable; 8 otherwise, so MIPS
    // nodes pack densely — Section 8's 24-byte vs 96-byte bisort
    // nodes). Addresses are never reused.
    std::uint64_t vaddr = support::roundUp(
        next_vaddr_, std::max<std::uint64_t>(8, costs_.ptr_align));
    next_vaddr_ = vaddr + size;
    arena_.resize((next_vaddr_ - kWorkloadHeapBase + 7) / 8, 0);
    std::uint64_t word = (vaddr - kWorkloadHeapBase) / 8;
    base_index_.resize(std::max<std::uint64_t>(arena_.size(), word + 1),
                       0);
    if (base_index_[word] == 0) {
        if (allocations_.size() > ~std::uint32_t{0})
            support::panic("workload allocation count overflow");
        base_index_[word] =
            static_cast<std::uint32_t>(allocations_.size());
        allocations_.emplace_back();
    }
    allocations_[base_index_[word]].size = size;
    heap_bytes_ += size;
    ++alloc_count_;
    onInstructions(costs_.malloc_instrs + costs_.malloc_extra_instrs);
    onAlloc(vaddr, size);
    if (model_ == CompileModel::kCcured) {
        // CCured zero-initializes every allocation for safety: one
        // store per word plus loop overhead.
        onInstructions(size / 8 + 2);
        for (std::uint64_t offset = 0; offset < size; offset += 8)
            onStore(vaddr + offset, 8, false, 0, 0);
    }
    return vaddr;
}

ObjRef
Context::alloc(unsigned type_id)
{
    if (type_id >= types_.size())
        support::panic("alloc of undefined type %u", type_id);
    ObjRef obj = allocateRaw(types_[type_id].size);
    allocations_[base_index_[(obj - kWorkloadHeapBase) / 8]].type =
        type_id;
    return obj;
}

ObjRef
Context::allocArray(FieldKind element, std::uint64_t count)
{
    std::uint64_t stride =
        element == FieldKind::kPtr ? costs_.ptr_bytes : 8;
    ObjRef array = allocateRaw(stride * count);
    Allocation &record =
        allocations_[base_index_[(array - kWorkloadHeapBase) / 8]];
    record.element = element;
    record.stride = stride;
    return array;
}

void
Context::free(ObjRef obj)
{
    onFree(obj);
}

const Context::Allocation *
Context::allocationAt(ObjRef obj) const
{
    std::uint64_t offset = obj - kWorkloadHeapBase; // wraps below
    if (offset % 8 != 0 || offset / 8 >= base_index_.size())
        return nullptr;
    std::uint32_t index = base_index_[offset / 8];
    return index == 0 ? nullptr : &allocations_[index];
}

std::uint64_t
Context::allocationSize(ObjRef obj) const
{
    const Allocation *record = allocationAt(obj);
    return record == nullptr ? 0 : record->size;
}

std::uint64_t
Context::fieldAddress(ObjRef obj, unsigned field,
                      FieldKind expected) const
{
    const Allocation *record = allocationAt(obj);
    if (record == nullptr || record->type == kNoType)
        support::panic("field access on non-object 0x%llx",
                       static_cast<unsigned long long>(obj));
    const TypeLayout &layout = types_[record->type];
    if (field >= layout.fields.size())
        support::panic("field %u out of range", field);
    if (layout.fields[field] != expected)
        support::panic("field %u kind mismatch", field);
    return obj + layout.offsets[field];
}

std::uint64_t
Context::elementAddress(ObjRef array, std::uint64_t index,
                        FieldKind &kind_out) const
{
    const Allocation *record = allocationAt(array);
    if (record == nullptr || record->stride == 0)
        support::panic("element access on non-array 0x%llx",
                       static_cast<unsigned long long>(array));
    kind_out = record->element;
    return array + index * record->stride;
}

std::uint64_t
Context::loadRaw(std::uint64_t vaddr) const
{
    std::uint64_t index = (vaddr - kWorkloadHeapBase) / 8;
    return index < arena_.size() ? arena_[index] : 0;
}

void
Context::storeRaw(std::uint64_t vaddr, std::uint64_t value)
{
    std::uint64_t index = (vaddr - kWorkloadHeapBase) / 8;
    if (index >= arena_.size())
        support::panic("workload store outside the allocated heap");
    arena_[index] = value;
}

std::uint64_t
Context::loadWord(ObjRef obj, unsigned field)
{
    std::uint64_t addr = fieldAddress(obj, field, FieldKind::kWord);
    onInstructions(1 + kAccessOverheadInstr + costs_.check_instrs);
    onLoad(addr, 8, false, 0);
    return loadRaw(addr);
}

void
Context::storeWord(ObjRef obj, unsigned field, std::uint64_t value)
{
    std::uint64_t addr = fieldAddress(obj, field, FieldKind::kWord);
    onInstructions(1 + kAccessOverheadInstr + costs_.check_instrs);
    onStore(addr, 8, false, 0, 0);
    storeRaw(addr, value);
}

ObjRef
Context::loadPtr(ObjRef obj, unsigned field)
{
    std::uint64_t addr = fieldAddress(obj, field, FieldKind::kPtr);
    ObjRef value = loadRaw(addr);
    onInstructions(costs_.ptr_refs + kAccessOverheadInstr + costs_.check_instrs);
    onLoad(addr, costs_.ptr_bytes, true, allocationSize(value));
    return value;
}

void
Context::storePtr(ObjRef obj, unsigned field, ObjRef value)
{
    std::uint64_t addr = fieldAddress(obj, field, FieldKind::kPtr);
    onInstructions(costs_.ptr_refs + kAccessOverheadInstr + costs_.check_instrs);
    onStore(addr, costs_.ptr_bytes, true, allocationSize(value),
            value);
    storeRaw(addr, value);
}

std::uint64_t
Context::loadWordAt(ObjRef array, std::uint64_t index)
{
    FieldKind kind;
    std::uint64_t addr = elementAddress(array, index, kind);
    if (kind != FieldKind::kWord)
        support::panic("loadWordAt on pointer array");
    onInstructions(1 + kAccessOverheadInstr + costs_.check_instrs);
    onLoad(addr, 8, false, 0);
    return loadRaw(addr);
}

void
Context::storeWordAt(ObjRef array, std::uint64_t index,
                     std::uint64_t value)
{
    FieldKind kind;
    std::uint64_t addr = elementAddress(array, index, kind);
    if (kind != FieldKind::kWord)
        support::panic("storeWordAt on pointer array");
    onInstructions(1 + kAccessOverheadInstr + costs_.check_instrs);
    onStore(addr, 8, false, 0, 0);
    storeRaw(addr, value);
}

ObjRef
Context::loadPtrAt(ObjRef array, std::uint64_t index)
{
    FieldKind kind;
    std::uint64_t addr = elementAddress(array, index, kind);
    if (kind != FieldKind::kPtr)
        support::panic("loadPtrAt on word array");
    ObjRef value = loadRaw(addr);
    onInstructions(costs_.ptr_refs + kAccessOverheadInstr + costs_.check_instrs);
    onLoad(addr, costs_.ptr_bytes, true, allocationSize(value));
    return value;
}

void
Context::storePtrAt(ObjRef array, std::uint64_t index, ObjRef value)
{
    FieldKind kind;
    std::uint64_t addr = elementAddress(array, index, kind);
    if (kind != FieldKind::kPtr)
        support::panic("storePtrAt on word array");
    onInstructions(costs_.ptr_refs + kAccessOverheadInstr + costs_.check_instrs);
    onStore(addr, costs_.ptr_bytes, true, allocationSize(value),
            value);
    storeRaw(addr, value);
}

void
Context::compute(std::uint64_t count)
{
    onInstructions(count);
}

} // namespace cheri::workloads
