#include "mem/tag_manager.h"

namespace cheri::mem
{

TagManager::TagManager(PhysicalMemory &dram, TagTable &tags,
                       TagCacheConfig config)
    : dram_(dram), tags_(tags), config_(config),
      cached_(config.capacity_bytes / config.entry_bytes)
{
    dram_reads_ = &stats_.counter("dram.reads");
    dram_writes_ = &stats_.counter("dram.writes");
    tag_lookups_ = &stats_.counter("tag.lookups");
    tag_cache_hits_ = &stats_.counter("tag.cache_hits");
    tag_cache_misses_ = &stats_.counter("tag.cache_misses");
    tag_table_reads_ = &stats_.counter("tag.table_reads");
    tag_table_writes_ = &stats_.counter("tag.table_writes");
}

void
TagManager::touchTagCache(std::uint64_t paddr, bool dirtying)
{
    ++*tag_lookups_;
    std::uint64_t table_line =
        tags_.tableByteFor(paddr) / config_.entry_bytes;

    if (auto *entry = cached_.find(table_line)) {
        ++*tag_cache_hits_;
        cached_.touch(*entry);
        if (dirtying)
            ++*tag_table_writes_;
        return;
    }

    ++*tag_cache_misses_;
    ++*tag_table_reads_;
    if (dirtying)
        ++*tag_table_writes_;

    cached_.insert(table_line, {});
}

TaggedLine
TagManager::readLine(std::uint64_t paddr)
{
    ++*dram_reads_;
    touchTagCache(paddr, /*dirtying=*/false);
    TaggedLine line;
    line.data = dram_.readLine(paddr);
    line.tag = tags_.get(paddr);
    return line;
}

void
TagManager::writeLine(std::uint64_t paddr, const TaggedLine &line)
{
    ++*dram_writes_;
    touchTagCache(paddr, /*dirtying=*/true);
    dram_.writeLine(paddr, line.data);
    tags_.set(paddr, line.tag);
}

bool
TagManager::readTag(std::uint64_t paddr)
{
    touchTagCache(paddr, /*dirtying=*/false);
    return tags_.get(paddr);
}

TagManager::Snapshot
TagManager::save() const
{
    Snapshot snapshot;
    snapshot.lru.reserve(cached_.size());
    cached_.forEachMruFirst(
        [&](const auto &entry) { snapshot.lru.push_back(entry.key); });
    snapshot.stats = stats_;
    return snapshot;
}

void
TagManager::restore(const Snapshot &snapshot)
{
    cached_.clear();
    for (std::uint64_t table_line : snapshot.lru)
        cached_.append(table_line, {});
    stats_.assignFrom(snapshot.stats);
}

} // namespace cheri::mem
