#include "profiling/profile_delta.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "profiling/profile_binary.h"
#include "profiling/profile_view.h"
#include "profiling/wire_util.h"

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

constexpr uint8_t kDeltaEndMagic[4] = {'R', 'P', 'D', 'N'};
constexpr uint32_t kDeltaVersion = 1;
/** Fixed header bytes before the variable-length base name. */
constexpr size_t kDeltaFixedBytes = 52;
constexpr size_t kDeltaFooterBytes = 8;
/** Base names are store file names; anything longer is corruption. */
constexpr uint32_t kMaxBaseNameBytes = 4096;

bool
strictlySorted(const std::vector<dram::ChipFailure> &v)
{
    for (size_t i = 1; i < v.size(); ++i)
        if (!(v[i - 1] < v[i]))
            return false;
    return true;
}

bool
sortedDisjoint(const std::vector<dram::ChipFailure> &a,
               const std::vector<dram::ChipFailure> &b)
{
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j])
            ++i;
        else if (b[j] < a[i])
            ++j;
        else
            return false;
    }
    return true;
}

/** Serialize `cells` as a complete embedded v2 stream. */
Expected<std::string>
packInnerStream(const Conditions &cond,
                const std::vector<dram::ChipFailure> &cells)
{
    std::ostringstream ss(std::ios::binary);
    BinaryProfileWriter writer(ss, cond, cells.size());
    for (const dram::ChipFailure &f : cells)
        writer.append(f);
    Status st = writer.finish();
    if (!st)
        return st.error();
    return std::move(ss).str();
}

/**
 * Byte length of the v2 stream at the front of [p, p + avail): its
 * header, the block frames that hold the header's cell count, then
 * the index section and footer those frames imply. A bounds-checked
 * walk over the frame headers only; block payloads and checksums are
 * left to ProfileView. Errors: Parse/Corrupt.
 */
Expected<size_t>
embeddedStreamBytes(const uint8_t *p, size_t avail)
{
    if (avail < kBinaryHeaderBytes)
        return Error::corrupt("truncated stream header");
    Expected<BinaryHeader> header = parseBinaryHeader(p);
    if (!header)
        return header.error();
    const BinaryHeader &h = header.value();
    size_t off = kBinaryHeaderBytes;
    uint64_t cells = 0, blocks = 0;
    while (cells < h.cellCount) {
        if (avail - off < 8)
            return Error::corrupt("truncated block frame");
        uint32_t n = getU32(p + off);
        uint64_t frameBytes = 8 + uint64_t(getU32(p + off + 4)) + 4;
        if (n == 0 || n > h.blockCells || n > h.cellCount - cells)
            return Error::corrupt("bad block cell count " +
                                  std::to_string(n));
        if (frameBytes > avail - off)
            return Error::corrupt("block frame runs past the body");
        off += static_cast<size_t>(frameBytes);
        cells += n;
        ++blocks;
    }
    // Every frame is at least 12 bytes, so `blocks` is bounded by the
    // body size and the index size cannot overflow.
    uint64_t tail = indexSectionBytes(blocks) + kBinaryFooterBytes;
    if (tail > avail - off)
        return Error::corrupt("truncated stream index");
    return off + static_cast<size_t>(tail);
}

/** Decode the embedded v2 stream starting at buf[off], which must end
 *  by buf[end], through ProfileView. `bytes` receives its length. */
Expected<RetentionProfile>
readEmbeddedStream(const std::string &buf, size_t off, size_t end,
                   size_t &bytes)
{
    Expected<size_t> n = embeddedStreamBytes(
        reinterpret_cast<const uint8_t *>(buf.data()) + off, end - off);
    if (!n)
        return n.error();
    Expected<ProfileView> view =
        ProfileView::fromBuffer(buf.substr(off, n.value()));
    if (!view)
        return view.error();
    bytes = n.value();
    return view.value().materialize();
}

/** Any fault inside an embedded stream corrupts the whole record. */
Error
streamError(const char *which, Error e)
{
    e.message = std::string("delta ") + which +
                "-cells stream: " + e.message;
    e.category = common::ErrorCategory::Corrupt;
    return e;
}

} // namespace

Expected<uint32_t>
writeProfileDelta(const ProfileDelta &delta, std::ostream &os)
{
    if (!strictlySorted(delta.added) || !strictlySorted(delta.removed))
        return Error::internal(
            "profile delta: added/removed not strictly sorted");
    if (!sortedDisjoint(delta.added, delta.removed))
        return Error::internal(
            "profile delta: added and removed overlap");
    if (delta.baseName.size() > kMaxBaseNameBytes)
        return Error::internal("profile delta: base name too long");

    Expected<std::string> added =
        packInnerStream(delta.cond, delta.added);
    if (!added)
        return added.error();
    Expected<std::string> removed =
        packInnerStream(delta.cond, delta.removed);
    if (!removed)
        return removed.error();

    std::vector<uint8_t> header(kDeltaFixedBytes +
                                delta.baseName.size() + 4);
    std::memcpy(header.data(), kDeltaMagic, 8);
    putU32(header.data() + 8, kDeltaVersion);
    putF64(header.data() + 12, delta.cond.refreshInterval);
    putF64(header.data() + 20, delta.cond.temperature);
    putU64(header.data() + 28, delta.added.size());
    putU64(header.data() + 36, delta.removed.size());
    putU32(header.data() + 44, delta.baseCrc);
    putU32(header.data() + 48,
           static_cast<uint32_t>(delta.baseName.size()));
    std::memcpy(header.data() + kDeltaFixedBytes,
                delta.baseName.data(), delta.baseName.size());
    size_t crcOff = header.size() - 4;
    putU32(header.data() + crcOff,
           crc32c(0, header.data(), crcOff));

    uint32_t fileCrc = crc32c(0, header.data(), header.size());
    fileCrc = crc32c(fileCrc, added.value().data(),
                     added.value().size());
    fileCrc = crc32c(fileCrc, removed.value().data(),
                     removed.value().size());

    os.write(reinterpret_cast<const char *>(header.data()),
             static_cast<std::streamsize>(header.size()));
    os.write(added.value().data(),
             static_cast<std::streamsize>(added.value().size()));
    os.write(removed.value().data(),
             static_cast<std::streamsize>(removed.value().size()));
    uint8_t footer[kDeltaFooterBytes];
    std::memcpy(footer, kDeltaEndMagic, 4);
    putU32(footer + 4, fileCrc);
    os.write(reinterpret_cast<const char *>(footer),
             kDeltaFooterBytes);
    os.flush();
    if (!os)
        return Error::io("delta profile write failed");
    return fileCrc;
}

Expected<uint32_t>
writeProfileDeltaFile(const ProfileDelta &delta,
                      const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return Error::io("cannot open '" + path + "' for writing");
    Expected<uint32_t> written = writeProfileDelta(delta, os);
    if (!written) {
        Error e = written.error();
        e.message = "'" + path + "': " + e.message;
        return e;
    }
    return written;
}

Expected<ProfileDelta>
readProfileDelta(std::istream &is)
{
    // Deltas are small by design (a reprofiling round touches a sliver
    // of the cell set), so buffer the whole record and verify the
    // trailing file CRC before trusting any field.
    std::string buf((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    const uint8_t *d = reinterpret_cast<const uint8_t *>(buf.data());
    size_t size = buf.size();
    if (size < 8)
        return Error::corrupt("truncated delta header");
    if (std::memcmp(d, kDeltaMagic, 8) != 0)
        return Error::parse("bad delta profile magic");
    if (size < kDeltaFixedBytes + 4 + kDeltaFooterBytes)
        return Error::corrupt("truncated delta header");
    uint32_t version = getU32(d + 8);
    if (version != kDeltaVersion)
        return Error::parse("unsupported delta profile version " +
                            std::to_string(version));

    if (std::memcmp(d + size - 8, kDeltaEndMagic, 4) != 0)
        return Error::corrupt("bad delta footer magic");
    if (getU32(d + size - 4) != crc32c(0, d, size - 8))
        return Error::corrupt("delta file checksum mismatch");

    uint32_t nameLen = getU32(d + 48);
    if (nameLen > kMaxBaseNameBytes)
        return Error::corrupt("implausible delta base name length");
    size_t headerBytes = kDeltaFixedBytes + nameLen + 4;
    if (headerBytes + kDeltaFooterBytes > size)
        return Error::corrupt("truncated delta header");
    if (getU32(d + headerBytes - 4) !=
        crc32c(0, d, headerBytes - 4))
        return Error::corrupt("delta header checksum mismatch");

    ProfileDelta delta;
    delta.cond.refreshInterval = getF64(d + 12);
    delta.cond.temperature = getF64(d + 20);
    if (!(delta.cond.refreshInterval > 0))
        return Error::corrupt("non-positive refresh interval");
    uint64_t addedCount = getU64(d + 28);
    uint64_t removedCount = getU64(d + 36);
    delta.baseCrc = getU32(d + 44);
    delta.baseName.assign(buf, kDeltaFixedBytes, nameLen);

    // Body: two complete embedded v2 streams, nothing else. The added
    // stream ends where its frames say; the removed one must end
    // exactly at the footer.
    const size_t bodyEnd = size - kDeltaFooterBytes;
    size_t addedBytes = 0, removedBytes = 0;
    Expected<RetentionProfile> added =
        readEmbeddedStream(buf, headerBytes, bodyEnd, addedBytes);
    if (!added)
        return streamError("added", added.error());
    Expected<RetentionProfile> removed = readEmbeddedStream(
        buf, headerBytes + addedBytes, bodyEnd, removedBytes);
    if (!removed)
        return streamError("removed", removed.error());
    if (headerBytes + addedBytes + removedBytes != bodyEnd)
        return Error::corrupt("trailing bytes in delta body");
    if (added.value().size() != addedCount ||
        removed.value().size() != removedCount)
        return Error::corrupt(
            "delta cell counts disagree with embedded streams");

    delta.added = added.value().cells();
    delta.removed = removed.value().cells();
    if (!sortedDisjoint(delta.added, delta.removed))
        return Error::corrupt("delta added and removed overlap");
    return delta;
}

Expected<ProfileDelta>
readProfileDeltaFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Error::io("cannot open '" + path + "'");
    Expected<ProfileDelta> delta = readProfileDelta(is);
    if (!delta) {
        Error e = delta.error();
        e.message = "'" + path + "': " + e.message;
        return e;
    }
    return delta;
}

Expected<RetentionProfile>
applyProfileDelta(const RetentionProfile &base,
                  const ProfileDelta &delta)
{
    const std::vector<dram::ChipFailure> &b = base.cells();

    // base minus removed: every removed cell must be matched.
    std::vector<dram::ChipFailure> out;
    out.reserve(b.size() + delta.added.size());
    size_t ri = 0;
    for (const dram::ChipFailure &f : b) {
        if (ri < delta.removed.size() && delta.removed[ri] == f) {
            ++ri;
            continue;
        }
        if (ri < delta.removed.size() && delta.removed[ri] < f)
            return Error::corrupt(
                "delta removes a cell absent from its base");
        out.push_back(f);
    }
    if (ri != delta.removed.size())
        return Error::corrupt(
            "delta removes a cell absent from its base");

    // merge in added: no added cell may already be present.
    std::vector<dram::ChipFailure> merged;
    merged.reserve(out.size() + delta.added.size());
    size_t i = 0, j = 0;
    while (i < out.size() && j < delta.added.size()) {
        if (out[i] < delta.added[j])
            merged.push_back(out[i++]);
        else if (delta.added[j] < out[i])
            merged.push_back(delta.added[j++]);
        else
            return Error::corrupt(
                "delta adds a cell already in its base");
    }
    merged.insert(merged.end(), out.begin() + i, out.end());
    merged.insert(merged.end(), delta.added.begin() + j,
                  delta.added.end());

    RetentionProfile result(delta.cond);
    result.adoptSorted(std::move(merged));
    return result;
}

ProfileDelta
diffProfiles(const RetentionProfile &base,
             const RetentionProfile &target)
{
    ProfileDelta delta;
    delta.cond = target.conditions();
    std::set_difference(target.cells().begin(), target.cells().end(),
                        base.cells().begin(), base.cells().end(),
                        std::back_inserter(delta.added));
    std::set_difference(base.cells().begin(), base.cells().end(),
                        target.cells().begin(), target.cells().end(),
                        std::back_inserter(delta.removed));
    return delta;
}

Expected<uint32_t>
recordFileCrc(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return Error::io("cannot open '" + path + "'");
    std::streamoff size = is.tellg();
    if (size < 12)
        return Error::corrupt("'" + path +
                              "': too short for a record footer");
    uint8_t tail[12];
    is.seekg(size - 12);
    is.read(reinterpret_cast<char *>(tail), 12);
    if (is.gcount() != 12)
        return Error::io("cannot read '" + path + "'");
    // v2 full footer: [RPND][block count][crc]; delta footer occupies
    // the last 8 bytes: [RPDN][crc].
    if (std::memcmp(tail, "RPND", 4) == 0 ||
        std::memcmp(tail + 4, kDeltaEndMagic, 4) == 0)
        return getU32(tail + 8);
    return Error::corrupt("'" + path +
                          "': unrecognized record footer");
}

} // namespace profiling
} // namespace reaper
