#include "profiling/profile_binary.h"

#include <cstring>
#include <ostream>

#include "common/logging.h"
#include "profiling/wire_util.h"
#include "simd/crc32c.h"
#include "simd/varint.h"

namespace reaper {
namespace profiling {

using common::Error;
using common::Expected;
using common::Status;
using wire::getF64;
using wire::getU32;
using wire::getU64;
using wire::putF64;
using wire::putU32;
using wire::putU64;

namespace {

constexpr uint8_t kMagic[8] = {0x89, 'R', 'P', 'F', '2',
                               0x0D, 0x0A, 0x1A};
constexpr uint8_t kEndMagic[4] = {'R', 'P', 'N', 'D'};
constexpr uint8_t kIndexMagic[4] = {'R', 'P', 'I', 'X'};
constexpr uint32_t kVersion = 2;
/** A varint cell costs at most 2 x 10 bytes: the writer sizes its
 *  block scratch for that worst case. */
constexpr size_t kMaxVarintBytes = simd::kMaxVarintBytes;

void
packIndexEntry(uint8_t *p, const BlockIndexEntry &e)
{
    putU32(p, e.first.chip);
    putU64(p + 4, e.first.addr);
    putU32(p + 12, e.last.chip);
    putU64(p + 16, e.last.addr);
    putU64(p + 24, e.offset);
    putU32(p + 32, e.cells);
}

BlockIndexEntry
unpackIndexEntry(const uint8_t *p)
{
    BlockIndexEntry e;
    e.first = {getU32(p), getU64(p + 4)};
    e.last = {getU32(p + 12), getU64(p + 16)};
    e.offset = getU64(p + 24);
    e.cells = getU32(p + 32);
    return e;
}

} // namespace

uint32_t
crc32c(uint32_t crc, const void *data, size_t len)
{
    return simd::crc32c(crc, data, len);
}

const char *
toString(ProfileFormat f)
{
    switch (f) {
    case ProfileFormat::TextV1:
        return "v1";
    case ProfileFormat::BinaryV2:
        return "v2";
    case ProfileFormat::DeltaV2:
        return "delta";
    }
    return "?";
}

Expected<ProfileFormat>
parseProfileFormat(const std::string &name)
{
    if (name == "v1" || name == "text")
        return ProfileFormat::TextV1;
    if (name == "v2" || name == "binary")
        return ProfileFormat::BinaryV2;
    if (name == "delta")
        return ProfileFormat::DeltaV2;
    return Error::invalidConfig("unknown profile format '" + name +
                                "' (expected v1|text|v2|binary|delta)");
}

// --- fixed-section parsing (ProfileView + delta reader) ---

Expected<BinaryHeader>
parseBinaryHeader(const uint8_t *h)
{
    if (std::memcmp(h, kMagic, 8) != 0)
        return Error::parse("bad binary profile magic");
    if (getU32(h + 40) != crc32c(0, h, 40))
        return Error::corrupt("header checksum mismatch");
    uint32_t version = getU32(h + 8);
    if (version != kVersion)
        return Error::parse("unsupported binary profile version " +
                            std::to_string(version));
    BinaryHeader out;
    out.blockCells = getU32(h + 12);
    if (out.blockCells == 0)
        return Error::corrupt("zero block cell capacity");
    out.cond.refreshInterval = getF64(h + 16);
    out.cond.temperature = getF64(h + 24);
    if (!(out.cond.refreshInterval > 0))
        return Error::corrupt("non-positive refresh interval");
    out.cellCount = getU64(h + 32);
    return out;
}

Expected<BinaryFooter>
parseBinaryFooter(const uint8_t *f)
{
    if (std::memcmp(f, kEndMagic, 4) != 0)
        return Error::corrupt("bad footer magic");
    BinaryFooter out;
    out.blockCount = getU32(f + 4);
    out.fileCrc = getU32(f + 8);
    return out;
}

Expected<std::vector<BlockIndexEntry>>
parseBlockIndex(const uint8_t *p, size_t bytes, uint32_t blockCount)
{
    if (bytes != indexSectionBytes(blockCount))
        return Error::corrupt("bad index section size");
    if (std::memcmp(p, kIndexMagic, 4) != 0)
        return Error::corrupt("bad index magic");
    if (getU32(p + 4) != blockCount)
        return Error::corrupt("index block count mismatch");
    size_t crcOff = bytes - 4;
    if (getU32(p + crcOff) != crc32c(0, p, crcOff))
        return Error::corrupt("index checksum mismatch");

    std::vector<BlockIndexEntry> entries;
    entries.reserve(blockCount);
    uint64_t expectedOffset = kBinaryHeaderBytes;
    for (uint32_t i = 0; i < blockCount; ++i) {
        BlockIndexEntry e =
            unpackIndexEntry(p + 8 + size_t(i) * kBinaryIndexEntryBytes);
        if (e.cells == 0)
            return Error::corrupt("index entry with zero cells");
        if (e.last < e.first)
            return Error::corrupt("index entry key range inverted");
        if (i > 0 && !(entries.back().last < e.first))
            return Error::corrupt("index key ranges not increasing");
        if (i == 0 ? e.offset != expectedOffset
                   : e.offset <= entries.back().offset)
            return Error::corrupt("index offsets not increasing");
        entries.push_back(e);
    }
    return entries;
}

// --- writer ---

BinaryProfileWriter::BinaryProfileWriter(std::ostream &os,
                                         const Conditions &cond,
                                         uint64_t cellCount,
                                         uint32_t blockCells)
    : os_(os), announced_(cellCount),
      blockCells_(blockCells ? blockCells : kDefaultBlockCells)
{
    uint8_t h[kBinaryHeaderBytes];
    std::memcpy(h, kMagic, 8);
    putU32(h + 8, kVersion);
    putU32(h + 12, blockCells_);
    putF64(h + 16, cond.refreshInterval);
    putF64(h + 24, cond.temperature);
    putU64(h + 32, cellCount);
    putU32(h + 40, crc32c(0, h, 40));
    os_.write(reinterpret_cast<const char *>(h), kBinaryHeaderBytes);
    fileCrc_ = crc32c(fileCrc_, h, kBinaryHeaderBytes);
    // Worst case block payload, so the raw-pointer encode in
    // putVarint() never needs a bounds check or reallocation.
    payload_.resize(static_cast<size_t>(blockCells_) * 2 *
                    kMaxVarintBytes);
}

void
BinaryProfileWriter::putVarint(uint64_t v)
{
    payloadSize_ +=
        simd::encodeVarint(payload_.data() + payloadSize_, v);
}

void
BinaryProfileWriter::append(const dram::ChipFailure &f)
{
    if (finished_)
        panic("BinaryProfileWriter: append() after finish()");
    if (appended_ > 0 && !(prev_ < f))
        ordered_ = false; // reported once, by finish()
    if (pending_ == 0) {
        // Block-first cell: raw, so every block decodes on its own.
        blockFirst_ = f;
        putVarint(f.chip);
        putVarint(f.addr);
    } else {
        putVarint(f.chip - prev_.chip);
        if (f.chip != prev_.chip)
            putVarint(f.addr);
        else
            putVarint(f.addr - prev_.addr);
    }
    prev_ = f;
    ++pending_;
    ++appended_;
    if (pending_ == blockCells_)
        flushBlock();
}

void
BinaryProfileWriter::flushBlock()
{
    if (pending_ == 0)
        return;
    uint8_t frame[8];
    putU32(frame, pending_);
    putU32(frame + 4, static_cast<uint32_t>(payloadSize_));
    uint32_t crc = crc32c(0, frame, sizeof(frame));
    crc = crc32c(crc, payload_.data(), payloadSize_);
    uint8_t crcBytes[4];
    putU32(crcBytes, crc);

    os_.write(reinterpret_cast<const char *>(frame), sizeof(frame));
    os_.write(reinterpret_cast<const char *>(payload_.data()),
              static_cast<std::streamsize>(payloadSize_));
    os_.write(reinterpret_cast<const char *>(crcBytes), 4);
    fileCrc_ = crc32c(fileCrc_, frame, sizeof(frame));
    fileCrc_ = crc32c(fileCrc_, payload_.data(), payloadSize_);
    fileCrc_ = crc32c(fileCrc_, crcBytes, 4);

    BlockIndexEntry entry;
    entry.first = blockFirst_;
    entry.last = prev_;
    entry.offset = offset_;
    entry.cells = pending_;
    index_.push_back(entry);
    offset_ += 8 + payloadSize_ + 4;

    ++blockCount_;
    pending_ = 0;
    payloadSize_ = 0;
}

Status
BinaryProfileWriter::finish()
{
    if (finished_)
        panic("BinaryProfileWriter: finish() called twice");
    finished_ = true;
    if (!ordered_)
        return Error::internal("binary profile writer: cells not in "
                               "strictly increasing order");
    if (appended_ != announced_)
        return Error::internal(
            "binary profile writer: appended " +
            std::to_string(appended_) + " cells, announced " +
            std::to_string(announced_));
    flushBlock();

    // Index section: magic, block count, fixed-size entries, CRC.
    std::vector<uint8_t> idx(
        static_cast<size_t>(indexSectionBytes(blockCount_)));
    std::memcpy(idx.data(), kIndexMagic, 4);
    putU32(idx.data() + 4, blockCount_);
    for (size_t i = 0; i < index_.size(); ++i)
        packIndexEntry(idx.data() + 8 + i * kBinaryIndexEntryBytes,
                       index_[i]);
    putU32(idx.data() + idx.size() - 4,
           crc32c(0, idx.data(), idx.size() - 4));
    os_.write(reinterpret_cast<const char *>(idx.data()),
              static_cast<std::streamsize>(idx.size()));
    fileCrc_ = crc32c(fileCrc_, idx.data(), idx.size());

    uint8_t f[kBinaryFooterBytes];
    std::memcpy(f, kEndMagic, 4);
    putU32(f + 4, blockCount_);
    putU32(f + 8, fileCrc_);
    os_.write(reinterpret_cast<const char *>(f), kBinaryFooterBytes);
    os_.flush();
    if (!os_)
        return Error::io("binary profile write failed");
    return common::okStatus();
}

} // namespace profiling
} // namespace reaper
