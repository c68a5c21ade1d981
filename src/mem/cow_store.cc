#include "mem/cow_store.h"

#include <bit>
#include <cstring>

#include "support/logging.h"

namespace cheri::mem
{

namespace
{

/** What every empty slot reads as; never written, never refcounted. */
const CowPage kZeroPage{};

} // namespace

CowStore::CowStore(std::uint64_t size_bytes)
    : size_bytes_(size_bytes), line_count_(size_bytes / kLineBytes),
      page_count_((size_bytes + kCowPageBytes - 1) / kCowPageBytes)
{
    if (size_bytes == 0 || size_bytes % kLineBytes != 0) {
        support::fatal("DRAM size %llu must be a nonzero multiple of "
                       "%llu bytes",
                       static_cast<unsigned long long>(size_bytes),
                       static_cast<unsigned long long>(kLineBytes));
    }
    // Every chunk starts empty (all zero pages), so a new store costs
    // one null pointer per 256 KB of DRAM.
    chunks_.resize((page_count_ + kCowChunkPages - 1) / kCowChunkPages);
}

CowStore::CowStore(const CowStore &parent, ForkTag)
    : size_bytes_(parent.size_bytes_), line_count_(parent.line_count_),
      page_count_(parent.page_count_), chunks_(parent.chunks_)
{
}

std::shared_ptr<CowStore>
CowStore::fork() const
{
    return std::shared_ptr<CowStore>(new CowStore(*this, ForkTag{}));
}

void
CowStore::checkRange(std::uint64_t paddr, std::uint64_t len) const
{
    if (paddr > size_bytes_ || len > size_bytes_ - paddr) {
        support::guestFault(
            "mem", "physical access [0x%llx, +%llu) beyond DRAM size 0x%llx",
            static_cast<unsigned long long>(paddr),
            static_cast<unsigned long long>(len),
            static_cast<unsigned long long>(size_bytes_));
    }
}

CowPage &
CowStore::pageForWrite(std::uint64_t page_index)
{
    std::shared_ptr<Chunk> &chunk = chunks_[page_index / kCowChunkPages];
    if (!chunk) {
        chunk = std::make_shared<Chunk>();
    } else if (chunk.use_count() != 1) {
        // The chunk is visible from another store: clone its slot
        // array (bumping each page's refcount) before touching a
        // slot. The pages themselves are still shared after this.
        chunk = std::make_shared<Chunk>(*chunk);
    }
    std::shared_ptr<CowPage> &slot =
        chunk->pages[page_index % kCowChunkPages];
    if (!slot) {
        // First write to an all-zero page: a fresh private page,
        // counted like a clone of the zero page.
        slot = std::make_shared<CowPage>();
        ++cow_faults_;
    } else if (slot.use_count() != 1) {
        // The page is visible from another store: clone data + tag
        // slice together, then write the private copy. Shared chunks
        // and pages are never mutated in place, so this is safe
        // against sibling stores on other threads.
        slot = std::make_shared<CowPage>(*slot);
        ++cow_faults_;
    }
    return *slot;
}

const CowPage &
CowStore::page(std::uint64_t page_index) const
{
    const Chunk *chunk = chunks_[page_index / kCowChunkPages].get();
    const CowPage *p =
        chunk ? chunk->pages[page_index % kCowChunkPages].get() : nullptr;
    return p ? *p : kZeroPage;
}

std::uint8_t
CowStore::readByte(std::uint64_t paddr) const
{
    checkRange(paddr, 1);
    return page(paddr / kCowPageBytes).data[paddr % kCowPageBytes];
}

void
CowStore::writeByte(std::uint64_t paddr, std::uint8_t value)
{
    checkRange(paddr, 1);
    pageForWrite(paddr / kCowPageBytes).data[paddr % kCowPageBytes] =
        value;
}

void
CowStore::readBytes(std::uint64_t paddr, std::uint8_t *dst,
                    std::uint64_t len) const
{
    checkRange(paddr, len);
    while (len > 0) {
        std::uint64_t offset = paddr % kCowPageBytes;
        std::uint64_t chunk = std::min(len, kCowPageBytes - offset);
        std::memcpy(dst, page(paddr / kCowPageBytes).data.data() + offset,
                    chunk);
        dst += chunk;
        paddr += chunk;
        len -= chunk;
    }
}

void
CowStore::writeBytes(std::uint64_t paddr, const std::uint8_t *src,
                     std::uint64_t len)
{
    checkRange(paddr, len);
    while (len > 0) {
        std::uint64_t offset = paddr % kCowPageBytes;
        std::uint64_t chunk = std::min(len, kCowPageBytes - offset);
        std::memcpy(pageForWrite(paddr / kCowPageBytes).data.data() +
                        offset,
                    src, chunk);
        src += chunk;
        paddr += chunk;
        len -= chunk;
    }
}

bool
CowStore::tagGet(std::uint64_t line_index) const
{
    if (line_index >= line_count_) {
        support::guestFault(
            "mem", "tag read beyond DRAM: line %llu of %llu",
            static_cast<unsigned long long>(line_index),
            static_cast<unsigned long long>(line_count_));
    }
    std::uint64_t word = line_index / 64;
    const CowPage &p = page(word / kCowPageTagWords);
    return (p.tags[word % kCowPageTagWords] >> (line_index % 64)) & 1;
}

void
CowStore::tagSet(std::uint64_t line_index, bool tag)
{
    if (line_index >= line_count_) {
        support::guestFault(
            "mem", "tag write beyond DRAM: line %llu of %llu",
            static_cast<unsigned long long>(line_index),
            static_cast<unsigned long long>(line_count_));
    }
    std::uint64_t word = line_index / 64;
    CowPage &p = pageForWrite(word / kCowPageTagWords);
    std::uint64_t mask = 1ULL << (line_index % 64);
    if (tag)
        p.tags[word % kCowPageTagWords] |= mask;
    else
        p.tags[word % kCowPageTagWords] &= ~mask;
}

std::uint64_t
CowStore::tagPopCount() const
{
    std::uint64_t n = 0;
    std::uint64_t words = tagWordCount();
    for (std::uint64_t c = 0; c < chunks_.size(); ++c) {
        if (!chunks_[c])
            continue; // all zero pages
        for (std::uint64_t s = 0; s < kCowChunkPages; ++s) {
            const CowPage *p = chunks_[c]->pages[s].get();
            if (p == nullptr)
                continue;
            // Only words covering real lines (the trailing page may
            // be partial), as flattenTags() reports them.
            std::uint64_t first =
                (c * kCowChunkPages + s) * kCowPageTagWords;
            for (std::uint64_t w = 0;
                 w < kCowPageTagWords && first + w < words; ++w)
                n += static_cast<std::uint64_t>(std::popcount(p->tags[w]));
        }
    }
    return n;
}

std::vector<std::uint8_t>
CowStore::flattenData() const
{
    std::vector<std::uint8_t> out(size_bytes_);
    readBytes(0, out.data(), size_bytes_);
    return out;
}

std::vector<std::uint64_t>
CowStore::flattenTags() const
{
    std::uint64_t words = tagWordCount();
    std::vector<std::uint64_t> out(words);
    for (std::uint64_t w = 0; w < words; ++w)
        out[w] = page(w / kCowPageTagWords).tags[w % kCowPageTagWords];
    return out;
}

void
CowStore::assignData(const std::vector<std::uint8_t> &data)
{
    if (data.size() != size_bytes_) {
        support::panic("DRAM snapshot size 0x%llx does not match "
                       "configured size 0x%llx",
                       static_cast<unsigned long long>(data.size()),
                       static_cast<unsigned long long>(size_bytes_));
    }
    writeBytes(0, data.data(), data.size());
}

void
CowStore::assignTags(const std::vector<std::uint64_t> &bits)
{
    if (bits.size() != tagWordCount()) {
        support::panic("tag-table snapshot covers %llu words, table "
                       "has %llu",
                       static_cast<unsigned long long>(bits.size()),
                       static_cast<unsigned long long>(tagWordCount()));
    }
    for (std::uint64_t w = 0; w < bits.size(); ++w) {
        std::uint64_t slot = w % kCowPageTagWords;
        pageForWrite(w / kCowPageTagWords).tags[slot] = bits[w];
    }
}

std::uint64_t
CowStore::sharedPages() const
{
    // A slot is private only when its chunk and its page are both
    // reachable from this store alone.
    std::uint64_t private_pages = 0;
    for (const std::shared_ptr<Chunk> &chunk : chunks_) {
        if (!chunk || chunk.use_count() != 1)
            continue;
        for (const std::shared_ptr<CowPage> &p : chunk->pages)
            private_pages += p && p.use_count() == 1 ? 1 : 0;
    }
    return page_count_ - private_pages;
}

} // namespace cheri::mem
