#include "profiling/profile_view.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "obs/obs.h"
#include "profiling/wire_util.h"
#include "simd/varint.h"

namespace reaper {
namespace profiling {

using common::Error;
using common::Expected;
using common::Status;

using wire::getU32;

namespace {

/** Cap the decode-side reserve so a hostile header claiming 10^12
 *  cells cannot trigger a huge up-front allocation; the vector still
 *  grows geometrically past this if the cells really are there. */
constexpr uint64_t kReserveClampCells = 1u << 20;

/** Result of decoding one block frame from contiguous memory. */
struct BlockDecode
{
    uint32_t cells = 0; ///< cells appended to the output vector
    size_t bytes = 0;   ///< frame bytes consumed (8 + payload + 4)
};

/**
 * Decode one self-contained block frame ([u32 cells][u32 payload
 * len][payload][u32 crc]) from `avail` bytes at `p`, appending its
 * cells to `out`. `prev` is the last cell of the previous block
 * (nullptr for the first block); ordering across the boundary and
 * within the block is enforced. `varints` is reused scratch. On error
 * `out` is restored to its original size. Errors: Corrupt
 * (truncation, checksum, bad varints, ordering, cell count out of
 * range).
 */
Expected<BlockDecode>
decodeBlockFrame(const uint8_t *p, size_t avail, uint32_t blockCellCap,
                 uint64_t cellsRemaining, const dram::ChipFailure *prev,
                 std::vector<dram::ChipFailure> &out,
                 std::vector<uint64_t> &varints)
{
    if (avail < 12)
        return Error::corrupt("truncated block frame");
    uint32_t cells = getU32(p);
    uint32_t payloadBytes = getU32(p + 4);
    if (cells == 0 || cells > blockCellCap)
        return Error::corrupt("bad block cell count " +
                              std::to_string(cells));
    if (cells > cellsRemaining)
        return Error::corrupt("block overruns announced cell count");
    if (payloadBytes >
        static_cast<size_t>(cells) * 2 * simd::kMaxVarintBytes)
        return Error::corrupt("bad block payload length " +
                              std::to_string(payloadBytes));
    size_t frameBytes = 8 + static_cast<size_t>(payloadBytes) + 4;
    if (frameBytes > avail)
        return Error::corrupt("truncated block payload");
    uint32_t crc = crc32c(0, p, 8 + static_cast<size_t>(payloadBytes));
    if (getU32(p + 8 + payloadBytes) != crc)
        return Error::corrupt("block checksum mismatch");

    // Bulk-decode the payload's varints in one dispatched pass (two
    // per cell, by construction of the writer), then reconstruct the
    // delta-coded cells from the flat value array.
    varints.resize(static_cast<size_t>(cells) * 2);
    const uint8_t *v0 = p + 8;
    const uint8_t *vend = v0 + payloadBytes;
    const uint8_t *vp =
        simd::decodeVarints(v0, vend, varints.data(), varints.size());
    if (vp == nullptr)
        return Error::corrupt("bad varint in block");
    if (vp != vend)
        return Error::corrupt("trailing bytes in block payload");

    // Block-first cell: raw (chip, addr), validated with the full
    // cross-block ordering compare.
    dram::ChipFailure firstCell{};
    {
        uint64_t chip = varints[0];
        if (chip > 0xFFFFFFFFull)
            return Error::corrupt("chip index out of range");
        firstCell = {static_cast<uint32_t>(chip), varints[1]};
        if (prev != nullptr && !(*prev < firstCell))
            return Error::corrupt("cells not strictly increasing");
    }
    // Later cells: delta-coded. Reconstruct with prev in registers and
    // raw writes into the pre-grown output — the validation below is
    // the strict-increase check specialized per delta kind (dchip == 0
    // needs addr to grow without wrapping; dchip != 0 needs the new
    // chip to grow and stay in range), exactly the set of streams the
    // general `!(prev < f)` compare accepted.
    size_t base = out.size();
    out.resize(base + cells);
    dram::ChipFailure *dst = out.data() + base;
    *dst++ = firstCell;
    uint64_t chip = firstCell.chip;
    uint64_t addr = firstCell.addr;
    const uint64_t *v = varints.data() + 2;
    for (uint32_t i = 1; i < cells; ++i, v += 2) {
        uint64_t dchip = v[0];
        uint64_t d = v[1];
        if (dchip == 0) {
            // next <= addr catches both d == 0 (equal) and unsigned
            // wraparound (smaller), the two ways !(prev < f) fired.
            uint64_t next = addr + d;
            if (next <= addr) {
                out.resize(base);
                return Error::corrupt("cells not strictly increasing");
            }
            addr = next;
        } else {
            uint64_t next = chip + dchip;
            if (next > 0xFFFFFFFFull) {
                out.resize(base);
                return Error::corrupt("chip index out of range");
            }
            if (next <= chip) {
                out.resize(base);
                return Error::corrupt("cells not strictly increasing");
            }
            chip = next;
            addr = d;
        }
        *dst++ = {static_cast<uint32_t>(chip), addr};
    }
    BlockDecode dec;
    dec.cells = cells;
    dec.bytes = frameBytes;
    return dec;
}

} // namespace

struct ProfileView::Impl
{
    // Backing bytes: either an owned buffer (fromBuffer / mmap
    // fallback) or a read-only file mapping.
    std::string owned;
    const uint8_t *data = nullptr;
    size_t size = 0;
#ifndef _WIN32
    void *mapBase = nullptr;
    size_t mapLen = 0;
#endif

    BinaryHeader header{};
    BinaryFooter footer{};
    std::vector<BlockIndexEntry> index;
    /** Where the index section begins == where the last block ends. */
    uint64_t indexOffset = 0;
    /** The trailing index + footer bytes, pread() into one buffer at
     *  open so validating them costs two syscalls instead of a minor
     *  fault per mapped index page (the dominant open cost on large
     *  profiles). Empty when the tail could not be pre-read; parsing
     *  then falls back to the mapped bytes. */
    std::string idxTail;

    /** Memoized decoded blocks, one slot per block. unique_ptr so a
     *  decoded block's address is stable across later decodes. */
    mutable std::mutex mu;
    mutable std::vector<std::unique_ptr<std::vector<dram::ChipFailure>>>
        memo;
    mutable std::atomic<uint64_t> decodes{0};

    ~Impl()
    {
#ifndef _WIN32
        if (mapBase != nullptr)
            ::munmap(mapBase, mapLen);
#endif
    }

    /**
     * Decode block `i` into `out` using the index for framing (the
     * block spans [offset_i, offset_{i+1}) and must match its index
     * entry exactly — count, first and last key, byte length).
     */
    Expected<BlockDecode>
    decodeSpan(size_t i, std::vector<dram::ChipFailure> &out,
               std::vector<uint64_t> &varints) const
    {
        const BlockIndexEntry &e = index[i];
        uint64_t end = i + 1 < index.size() ? index[i + 1].offset
                                            : indexOffset;
        size_t base = out.size();
        const dram::ChipFailure *prev =
            i > 0 ? &index[i - 1].last : nullptr;
        Expected<BlockDecode> dec = decodeBlockFrame(
            data + e.offset, static_cast<size_t>(end - e.offset),
            header.blockCells, e.cells, prev, out, varints);
        if (!dec)
            return dec;
        if (dec.value().cells != e.cells ||
            dec.value().bytes != end - e.offset ||
            !(out[base] == e.first) || !(out.back() == e.last)) {
            out.resize(base);
            return Error::corrupt("block " + std::to_string(i) +
                                  " does not match index");
        }
        return dec;
    }

    /** Decode-and-memoize block `i`; cheap after the first call. */
    Expected<const std::vector<dram::ChipFailure> *>
    block(size_t i) const
    {
        std::lock_guard<std::mutex> lock(mu);
        if (memo[i])
            return memo[i].get();
        auto cells = std::make_unique<std::vector<dram::ChipFailure>>();
        std::vector<uint64_t> varints;
        Expected<BlockDecode> dec = decodeSpan(i, *cells, varints);
        if (!dec)
            return dec.error();
        memo[i] = std::move(cells);
        decodes.fetch_add(1, std::memory_order_relaxed);
        REAPER_OBS_COUNT("profiling.view_block_decodes");
        return memo[i].get();
    }

    /** Index of the only block that could hold a key in [lo, …], or
     *  index.size() when every block ends before lo. */
    size_t firstCandidate(const dram::ChipFailure &lo) const
    {
        auto it = std::lower_bound(
            index.begin(), index.end(), lo,
            [](const BlockIndexEntry &e, const dram::ChipFailure &k) {
                return e.last < k;
            });
        return static_cast<size_t>(it - index.begin());
    }
};

ProfileView::ProfileView(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl))
{
}

ProfileView::ProfileView(ProfileView &&) noexcept = default;
ProfileView &ProfileView::operator=(ProfileView &&) noexcept = default;
ProfileView::~ProfileView() = default;

Expected<ProfileView>
ProfileView::openImpl(std::unique_ptr<Impl> impl)
{
    const uint8_t *d = impl->data;
    size_t size = impl->size;
    if (size < kBinaryHeaderBytes + kBinaryIndexFixedBytes +
                   kBinaryFooterBytes)
        return Error::corrupt("truncated binary profile (" +
                              std::to_string(size) + " bytes)");
    Expected<BinaryHeader> header = parseBinaryHeader(d);
    if (!header)
        return header.error();
    impl->header = header.value();

    const uint8_t *tail =
        reinterpret_cast<const uint8_t *>(impl->idxTail.data());
    bool haveTail = !impl->idxTail.empty();
    Expected<BinaryFooter> footer = parseBinaryFooter(
        haveTail ? tail + impl->idxTail.size() - kBinaryFooterBytes
                 : d + size - kBinaryFooterBytes);
    if (!footer)
        return footer.error();
    impl->footer = footer.value();

    uint64_t idxBytes = indexSectionBytes(impl->footer.blockCount);
    if (idxBytes + kBinaryHeaderBytes + kBinaryFooterBytes > size)
        return Error::corrupt("file too small for its block index");
    impl->indexOffset = size - kBinaryFooterBytes - idxBytes;
    // The pre-read tail is only usable when it covers exactly the
    // index + footer the footer describes.
    if (impl->idxTail.size() != idxBytes + kBinaryFooterBytes)
        haveTail = false;
    Expected<std::vector<BlockIndexEntry>> index = parseBlockIndex(
        haveTail ? tail : d + impl->indexOffset,
        static_cast<size_t>(idxBytes), impl->footer.blockCount);
    if (!index)
        return index.error();
    impl->index = std::move(index).value();

    // Cross-checks between the fixed sections. Block payloads stay
    // untouched; their CRCs are verified on first decode.
    uint64_t cells = 0;
    for (const BlockIndexEntry &e : impl->index) {
        if (e.cells > impl->header.blockCells)
            return Error::corrupt("index entry exceeds block capacity");
        if (e.offset + 12 > impl->indexOffset)
            return Error::corrupt("index offset past the index section");
        cells += e.cells;
    }
    if (cells != impl->header.cellCount)
        return Error::corrupt("index cell total disagrees with header");
    if (impl->index.empty() &&
        impl->indexOffset != kBinaryHeaderBytes)
        return Error::corrupt("unindexed bytes in empty profile");

    impl->memo.resize(impl->index.size());
    REAPER_OBS_COUNT("profiling.view_opens");
    return ProfileView(std::move(impl));
}

Expected<ProfileView>
ProfileView::open(const std::string &path)
{
    auto impl = std::make_unique<Impl>();
#ifndef _WIN32
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return Error::io("cannot open '" + path + "'");
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return Error::io("cannot stat '" + path + "'");
    }
    impl->size = static_cast<size_t>(st.st_size);
    if (impl->size > 0) {
        void *m = ::mmap(nullptr, impl->size, PROT_READ, MAP_PRIVATE,
                         fd, 0);
        if (m != MAP_FAILED) {
            impl->mapBase = m;
            impl->mapLen = impl->size;
            impl->data = static_cast<const uint8_t *>(m);
        }
    }
    if (impl->data != nullptr &&
        impl->size >= kBinaryHeaderBytes + kBinaryIndexFixedBytes +
                          kBinaryFooterBytes) {
        // Pre-read the trailing index + footer in two pread()s so
        // openImpl validates them without faulting a mapped page per
        // index page. Best-effort: any failure just leaves the mapped
        // fallback.
        uint8_t f[kBinaryFooterBytes];
        if (::pread(fd, f, kBinaryFooterBytes,
                    static_cast<off_t>(impl->size -
                                       kBinaryFooterBytes)) ==
            static_cast<ssize_t>(kBinaryFooterBytes)) {
            Expected<BinaryFooter> ft = parseBinaryFooter(f);
            if (ft.hasValue()) {
                uint64_t tailBytes =
                    indexSectionBytes(ft.value().blockCount) +
                    kBinaryFooterBytes;
                if (tailBytes <= impl->size) {
                    impl->idxTail.resize(
                        static_cast<size_t>(tailBytes));
                    if (::pread(fd, impl->idxTail.data(),
                                static_cast<size_t>(tailBytes),
                                static_cast<off_t>(impl->size -
                                                   tailBytes)) !=
                        static_cast<ssize_t>(tailBytes))
                        impl->idxTail.clear();
                }
            }
        }
    }
    ::close(fd);
#endif
    if (impl->data == nullptr) {
        // No mapping (mmap failed or unsupported): fall back to an
        // owned in-memory copy. Lazy block decode still applies; only
        // the zero-copy property is lost.
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return Error::io("cannot open '" + path + "'");
        std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
        if (!is.good() && !is.eof())
            return Error::io("cannot read '" + path + "'");
        impl->owned = std::move(bytes);
        impl->data =
            reinterpret_cast<const uint8_t *>(impl->owned.data());
        impl->size = impl->owned.size();
    }
    Expected<ProfileView> view = openImpl(std::move(impl));
    if (!view) {
        Error e = view.error();
        e.message = "'" + path + "': " + e.message;
        return e;
    }
    return view;
}

Expected<ProfileView>
ProfileView::fromBuffer(std::string bytes)
{
    auto impl = std::make_unique<Impl>();
    impl->owned = std::move(bytes);
    impl->data = reinterpret_cast<const uint8_t *>(impl->owned.data());
    impl->size = impl->owned.size();
    return openImpl(std::move(impl));
}

const Conditions &
ProfileView::conditions() const
{
    return impl_->header.cond;
}

uint64_t
ProfileView::cellCount() const
{
    return impl_->header.cellCount;
}

uint32_t
ProfileView::blockCells() const
{
    return impl_->header.blockCells;
}

uint32_t
ProfileView::blockCount() const
{
    return impl_->footer.blockCount;
}

uint64_t
ProfileView::sizeBytes() const
{
    return impl_->size;
}

uint32_t
ProfileView::fileCrc() const
{
    return impl_->footer.fileCrc;
}

uint64_t
ProfileView::blocksDecoded() const
{
    return impl_->decodes.load(std::memory_order_relaxed);
}

Expected<bool>
ProfileView::contains(const dram::ChipFailure &cell) const
{
    REAPER_OBS_COUNT("profiling.view_point_lookups");
    size_t i = impl_->firstCandidate(cell);
    if (i == impl_->index.size() || cell < impl_->index[i].first)
        return false; // past the last block, or in an index gap
    Expected<const std::vector<dram::ChipFailure> *> cells =
        impl_->block(i);
    if (!cells)
        return cells.error();
    return std::binary_search(cells.value()->begin(),
                              cells.value()->end(), cell);
}

Expected<bool>
ProfileView::anyInRange(const dram::ChipFailure &lo,
                        const dram::ChipFailure &hi) const
{
    REAPER_OBS_COUNT("profiling.view_point_lookups");
    if (hi < lo)
        return false;
    size_t i = impl_->firstCandidate(lo);
    if (i == impl_->index.size() || hi < impl_->index[i].first)
        return false; // past the last block, or in an index gap
    const BlockIndexEntry &e = impl_->index[i];
    // The index alone settles every case but one: if the range
    // reaches e.first or e.last those keys are cells in range, and
    // any later block whose first key is ≤ hi likewise answers true.
    // Only a range strictly interior to this single block needs a
    // decode — so a lookup costs at most ONE block regardless of
    // profile size.
    if (!(e.first < lo) || !(hi < e.last))
        return true;
    Expected<const std::vector<dram::ChipFailure> *> cells =
        impl_->block(i);
    if (!cells)
        return cells.error();
    auto it = std::lower_bound(cells.value()->begin(),
                               cells.value()->end(), lo);
    return it != cells.value()->end() && !(hi < *it);
}

Status
ProfileView::forEachBlock(
    const std::function<void(const dram::ChipFailure *, size_t)> &fn)
    const
{
    std::vector<dram::ChipFailure> out;
    std::vector<uint64_t> varints;
    for (size_t i = 0; i < impl_->index.size(); ++i) {
        out.clear();
        Expected<BlockDecode> dec = impl_->decodeSpan(i, out, varints);
        if (!dec)
            return dec.error();
        impl_->decodes.fetch_add(1, std::memory_order_relaxed);
        fn(out.data(), out.size());
    }
    REAPER_OBS_COUNT_N("profiling.view_block_decodes",
                       impl_->index.size());
    return common::okStatus();
}

Expected<RetentionProfile>
ProfileView::materialize() const
{
    // A full decode checks every byte before the footer against the
    // file CRC (the lazy paths only cover the bytes a query touches).
    if (crc32c(0, impl_->data, impl_->size - kBinaryFooterBytes) !=
        impl_->footer.fileCrc)
        return Error::corrupt("file checksum mismatch");
    std::vector<dram::ChipFailure> cells;
    cells.reserve(static_cast<size_t>(
        std::min(impl_->header.cellCount, kReserveClampCells)));
    Status walked =
        forEachBlock([&cells](const dram::ChipFailure *p, size_t n) {
            cells.insert(cells.end(), p, p + n);
        });
    if (!walked)
        return walked.error();
    RetentionProfile profile(impl_->header.cond);
    profile.adoptSorted(std::move(cells));
    return profile;
}

} // namespace profiling
} // namespace reaper
