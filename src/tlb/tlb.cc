#include "tlb/tlb.h"

namespace cheri::tlb
{

Tlb::Tlb(const PageTable &table, TlbConfig config)
    : table_(&table), config_(config), entries_(config.entries)
{
    hits_ = &stats_.counter("tlb.hits");
    misses_ = &stats_.counter("tlb.misses");
    faults_ = &stats_.counter("tlb.faults");
}

void
Tlb::setTable(const PageTable &table)
{
    table_ = &table;
    flush();
}

void
Tlb::flush()
{
    entries_.clear();
    ++generation_; // every outstanding FetchHint is now stale
}

void
Tlb::flushPage(std::uint64_t vaddr)
{
    if (entries_.erase(vaddr / kPageBytes))
        ++generation_;
}

TlbResult
Tlb::translateSlow(std::uint64_t vaddr, Access access)
{
    std::uint64_t vpn = vaddr / kPageBytes;

    if (CachedEntry *entry = entries_.find(vpn)) {
        ++*hits_;
        entries_.touch(*entry);
        memo_[vpn & (memo_.size() - 1)] =
            TranslateMemo{vpn, generation_, entry};
        return checkPte(entry->value, vaddr, access, 0);
    }

    ++*misses_;
    std::optional<Pte> pte = table_->lookup(vpn);
    if (!pte) {
        ++*faults_;
        TlbResult result;
        result.fault = TlbFault::kNoMapping;
        result.penalty_cycles = config_.refill_cycles;
        return result;
    }

    Entries::Fill fill = entries_.insert(vpn, *pte);
    if (fill.evicted)
        ++generation_;
    memo_[vpn & (memo_.size() - 1)] =
        TranslateMemo{vpn, generation_, fill.entry};
    return checkPte(*pte, vaddr, access, config_.refill_cycles);
}

std::vector<std::uint64_t>
Tlb::cachedVpns() const
{
    std::vector<std::uint64_t> vpns;
    vpns.reserve(entries_.size());
    entries_.forEachMruFirst(
        [&](const CachedEntry &entry) { vpns.push_back(entry.key); });
    return vpns;
}

bool
Tlb::corruptEntry(std::uint64_t vpn, const Pte &pte)
{
    CachedEntry *entry = entries_.find(vpn);
    if (entry == nullptr)
        return false;
    entry->value = pte;
    // Drop every outstanding host hint/memo: they snapshot PTE fields
    // at mint time, and the corruption must be observed consistently.
    ++generation_;
    memo_.fill(TranslateMemo{});
    return true;
}

Tlb::Snapshot
Tlb::save() const
{
    Snapshot snapshot;
    snapshot.entries.reserve(entries_.size());
    entries_.forEachMruFirst([&](const CachedEntry &entry) {
        snapshot.entries.emplace_back(entry.key, entry.value);
    });
    snapshot.stats = stats_;
    return snapshot;
}

void
Tlb::restore(const Snapshot &snapshot)
{
    entries_.clear();
    for (const auto &[vpn, pte] : snapshot.entries)
        entries_.append(vpn, pte);
    // The generation stays monotonic (never restored): outstanding
    // hints hold CachedEntry pointers into the storage we just
    // rebuilt, and only a fresh generation value keeps them all stale.
    ++generation_;
    memo_.fill(TranslateMemo{});
    stats_.assignFrom(snapshot.stats);
}

TlbResult
Tlb::translateFetchMiss(std::uint64_t vaddr, FetchHint &hint)
{
    std::uint64_t vpn = vaddr / kPageBytes;
    TlbResult result = translate(vaddr, Access::kFetch);
    if (result.ok()) {
        // translate just (re)cached it
        CachedEntry *entry = entries_.find(vpn);
        hint.vpn = vpn;
        hint.paddr_base = entry->value.pfn * kPageBytes;
        hint.generation = generation_;
        hint.entry = entry;
    }
    return result;
}

} // namespace cheri::tlb
