#include "tlb/page_table.h"

#include <algorithm>

namespace cheri::tlb
{

namespace
{

bool
vpnBelow(const PageTable::Entry &entry, std::uint64_t vpn)
{
    return entry.first < vpn;
}

} // namespace

std::vector<PageTable::Entry>::iterator
PageTable::find(std::uint64_t vpn)
{
    return std::lower_bound(entries_.begin(), entries_.end(), vpn,
                            vpnBelow);
}

std::vector<PageTable::Entry>::const_iterator
PageTable::find(std::uint64_t vpn) const
{
    return std::lower_bound(entries_.begin(), entries_.end(), vpn,
                            vpnBelow);
}

void
PageTable::map(std::uint64_t vpn, std::uint64_t pfn, PteFlags flags)
{
    if (entries_.empty() || entries_.back().first < vpn) {
        entries_.emplace_back(vpn, Pte{pfn, flags});
        return;
    }
    auto it = find(vpn);
    if (it != entries_.end() && it->first == vpn)
        it->second = Pte{pfn, flags};
    else
        entries_.emplace(it, vpn, Pte{pfn, flags});
}

void
PageTable::unmap(std::uint64_t vpn)
{
    auto it = find(vpn);
    if (it != entries_.end() && it->first == vpn)
        entries_.erase(it);
}

std::optional<Pte>
PageTable::lookup(std::uint64_t vpn) const
{
    auto it = find(vpn);
    if (it == entries_.end() || it->first != vpn)
        return std::nullopt;
    return it->second;
}

bool
PageTable::protect(std::uint64_t vpn, PteFlags flags)
{
    auto it = find(vpn);
    if (it == entries_.end() || it->first != vpn)
        return false;
    it->second.flags = flags;
    return true;
}

} // namespace cheri::tlb
