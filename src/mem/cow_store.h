/**
 * @file
 * Page-granular copy-on-write backing store for DRAM and the
 * capability tag table. A CowPage is the unit of sharing: 4 KB of
 * data plus the slice of the tag table covering those lines, so a
 * single write fault materialises both planes together and a forked
 * guest can never observe a parent's data with a child's tags (or
 * vice versa).
 *
 * The page map is sparse and two-level: a short vector of refcounted
 * chunks, each a fixed array of kCowChunkPages refcounted page slots.
 * An empty chunk or an empty slot is an all-zero page; reads of one
 * see a static zero page that no store owns. Sharing is plain
 * shared_ptr refcounting at both levels — there is no base-image
 * chain to walk. fork() copies the chunk-pointer vector (one pointer
 * per 256 KB of DRAM), bumping refcounts only for chunks the parent
 * has written, and teardown drops the same few; neither touches a
 * page the parent never wrote. A write clones a shared chunk first
 * (a pointer array, bumping its pages' refcounts), then a shared
 * page (a "COW fault"); a write into an empty slot creates a private
 * zero page, which counts as a COW fault too.
 *
 * Thread-safety: neither a chunk nor a page reachable from more than
 * one store is written in place (the use_count()==1 tests), and a
 * store only ever writes its own private chunks and pages. Concurrent
 * guests forked from a quiescent parent therefore fault chunks and
 * pages independently; what they share is read-only data and the
 * atomic control blocks of the chunks (and, through a cloned chunk,
 * pages) the parent wrote — none for the untouched bulk of DRAM.
 * use_count() is a relaxed read, so keep the parent alive while its
 * children run on other threads: then anything a child shares with a
 * sibling it also shares with the parent, and a count of 1 can never
 * come from a sibling's release on another thread. A single store is
 * not internally synchronised — one guest, one thread, as everywhere
 * else in the emulator.
 */

#ifndef CHERI_MEM_COW_STORE_H
#define CHERI_MEM_COW_STORE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace cheri::mem
{

/** Bytes per tagged line: 256 bits, the capability size (Figure 1). */
constexpr std::uint64_t kLineBytes = 32;

/** COW granule: one 4 KB page of DRAM plus its tag-table slice. */
constexpr std::uint64_t kCowPageBytes = 4096;
/** Lines per COW page (128). */
constexpr std::uint64_t kCowPageLines = kCowPageBytes / kLineBytes;
/**
 * Tag-bitmap words per COW page (2). kCowPageLines is a multiple of
 * 64, so a tag word never straddles two pages and the global word at
 * index w lives in page w / kCowPageTagWords.
 */
constexpr std::uint64_t kCowPageTagWords = kCowPageLines / 64;

/** Page slots per chunk of the page map (64 pages = 256 KB). */
constexpr std::uint64_t kCowChunkPages = 64;

/** One shareable page: data bytes plus the covering tag bits. */
struct CowPage
{
    std::array<std::uint8_t, kCowPageBytes> data{};
    std::array<std::uint64_t, kCowPageTagWords> tags{};
};

/**
 * The refcounted page store PhysicalMemory and TagTable are facades
 * over. Addresses and line indices are host-checked by the facades;
 * the store panics on its own bounds as a second line of defence.
 */
class CowStore
{
  public:
    /** Zero-filled store; size must be a nonzero multiple of a line. */
    explicit CowStore(std::uint64_t size_bytes);

    CowStore(const CowStore &) = delete;
    CowStore &operator=(const CowStore &) = delete;

    /** DRAM bytes covered. */
    std::uint64_t sizeBytes() const { return size_bytes_; }
    /** Tagged lines covered. */
    std::uint64_t lineCount() const { return line_count_; }
    /** COW pages (including a trailing partial page). */
    std::uint64_t pageCount() const { return page_count_; }
    /** 64-bit words in the flattened tag bitmap. */
    std::uint64_t tagWordCount() const { return (line_count_ + 63) / 64; }

    /**
     * Mint a child store sharing every page of this one. The child
     * copies the chunk-pointer vector (pageCount() / kCowChunkPages
     * entries) and bumps the refcount of each chunk this store has
     * written; no page is touched and no data moves until someone
     * writes.
     */
    std::shared_ptr<CowStore> fork() const;

    /** Read one byte. */
    std::uint8_t readByte(std::uint64_t paddr) const;
    /** Write one byte (may COW-fault its page). */
    void writeByte(std::uint64_t paddr, std::uint8_t value);
    /** Read len bytes (may straddle pages). */
    void readBytes(std::uint64_t paddr, std::uint8_t *dst,
                   std::uint64_t len) const;
    /** Write len bytes (may straddle pages and fault several). */
    void writeBytes(std::uint64_t paddr, const std::uint8_t *src,
                    std::uint64_t len);

    /** Tag bit for an in-range line index. */
    bool tagGet(std::uint64_t line_index) const;
    /** Set/clear a tag bit (may COW-fault the covering page). */
    void tagSet(std::uint64_t line_index, bool tag);
    /** Count of set tags across the store. */
    std::uint64_t tagPopCount() const;

    /** Flatten the data plane (deep snapshots). */
    std::vector<std::uint8_t> flattenData() const;
    /** Flatten the tag plane as tagWordCount() words. */
    std::vector<std::uint64_t> flattenTags() const;
    /** Overwrite the data plane from a sizeBytes()-byte image. */
    void assignData(const std::vector<std::uint8_t> &data);
    /** Overwrite the tag plane from a tagWordCount()-word bitmap. */
    void assignTags(const std::vector<std::uint64_t> &bits);

    /**
     * Pages this store has had to clone on write since construction
     * (includes first writes to never-written, all-zero pages).
     * Deterministic per guest while the fork parent stays alive.
     */
    std::uint64_t cowFaults() const { return cow_faults_; }
    /** Page slots currently shared with another store (or still the
     *  zero page): pageCount() minus the private pages. */
    std::uint64_t sharedPages() const;

  private:
    struct ForkTag
    {
    };
    CowStore(const CowStore &parent, ForkTag);

    /** Second level of the page map; a null slot is a zero page. */
    struct Chunk
    {
        std::array<std::shared_ptr<CowPage>, kCowChunkPages> pages{};
    };

    /**
     * The page for a write: clones a shared chunk, then a shared page,
     * and creates an empty slot's page, so the result is private.
     */
    CowPage &pageForWrite(std::uint64_t page_index);
    /** The page for a read (the static zero page when empty). */
    const CowPage &page(std::uint64_t page_index) const;
    void checkRange(std::uint64_t paddr, std::uint64_t len) const;

    std::uint64_t size_bytes_;
    std::uint64_t line_count_;
    std::uint64_t page_count_;
    /** First level of the page map; a null chunk is all zero pages. */
    std::vector<std::shared_ptr<Chunk>> chunks_;
    std::uint64_t cow_faults_ = 0;
};

} // namespace cheri::mem

#endif // CHERI_MEM_COW_STORE_H
