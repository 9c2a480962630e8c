#include "profiling/profile_io.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/obs.h"
#include "profiling/profile_delta.h"
#include "profiling/profile_view.h"

namespace reaper {
namespace profiling {

using common::Error;
using common::Expected;
using common::Status;

namespace {

constexpr const char *kMagic = "REAPER-PROFILE";
constexpr int kVersion = 1;

/**
 * Cap the up-front reservation for the v1 cell list: the header's
 * count is untrusted, and a corrupt file claiming 10^12 cells must
 * not allocate 16 TB before the first cell is even read. Past the
 * clamp the vector grows geometrically, paced by actual input.
 */
constexpr size_t kReserveClampCells = 1u << 20;

void
writeProfileText(const RetentionProfile &profile, std::ostream &os)
{
    os << kMagic << " v" << kVersion << "\n";
    os << "refresh_interval_ms "
       << secToMs(profile.conditions().refreshInterval) << "\n";
    os << "temperature_c " << profile.conditions().temperature << "\n";
    os << "cells " << profile.size() << "\n";
    for (const dram::ChipFailure &f : profile.cells())
        os << f.chip << " " << f.addr << "\n";
}

Expected<RetentionProfile>
readProfileText(std::istream &is)
{
    std::string magic, version;
    if (!(is >> magic >> version))
        return Error::parse("missing header");
    if (magic != kMagic)
        return Error::parse("bad magic '" + magic + "'");
    if (version != "v1")
        return Error::parse("unsupported version '" + version + "'");

    std::string key;
    double refi_ms = 0, temp = 0;
    size_t count = 0;
    bool have_refi = false, have_temp = false, have_count = false;
    while (is >> key) {
        if (key == "refresh_interval_ms") {
            if (!(is >> refi_ms) || refi_ms <= 0)
                return Error::parse("bad refresh_interval_ms");
            have_refi = true;
        } else if (key == "temperature_c") {
            if (!(is >> temp))
                return Error::parse("bad temperature_c");
            have_temp = true;
        } else if (key == "cells") {
            if (!(is >> count))
                return Error::parse("bad cell count");
            have_count = true;
            break; // cell list follows
        } else {
            return Error::parse("unknown key '" + key + "'");
        }
    }
    if (!have_refi || !have_temp || !have_count)
        return Error::parse("incomplete header");

    std::vector<dram::ChipFailure> cells;
    cells.reserve(std::min(count, kReserveClampCells));
    for (size_t i = 0; i < count; ++i) {
        uint64_t chip, addr;
        if (!(is >> chip >> addr))
            return Error::corrupt("truncated cell list (expected " +
                                  std::to_string(count) + " cells)");
        if (chip > 0xFFFFFFFFull)
            return Error::corrupt("chip index out of range");
        cells.push_back({static_cast<uint32_t>(chip), addr});
    }
    // The header's count is the whole list: an extra cell must not be
    // dropped silently (it would be served as clean).
    is >> std::ws;
    if (is.peek() != std::char_traits<char>::eof())
        return Error::corrupt("content after the " +
                              std::to_string(count) + "-cell list");

    RetentionProfile profile(Conditions{msToSec(refi_ms), temp});
    profile.add(cells);
    return profile;
}

/** Classify serialized profile bytes from their leading magic, the
 *  way sniffProfileFormat does for files. `head`/`len` is a prefix of
 *  at least the bytes available (8 suffice). */
ProfileFormat
classifyMagic(const uint8_t *head, size_t len)
{
    if (len == 0 || head[0] != kBinaryMagicByte)
        return ProfileFormat::TextV1;
    if (len >= sizeof(kDeltaMagic) &&
        std::memcmp(head, kDeltaMagic, sizeof(kDeltaMagic)) == 0)
        return ProfileFormat::DeltaV2;
    return ProfileFormat::BinaryV2;
}

/** Read up to sizeof(head) leading bytes of `path`; returns how many
 *  were read. Io when the file cannot be opened. */
Expected<size_t>
readHead(const std::string &path, uint8_t (&head)[8])
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Error::io("cannot open '" + path + "'");
    is.read(reinterpret_cast<char *>(head), sizeof(head));
    return static_cast<size_t>(is.gcount());
}

Error
deltaIsNotStandalone(const std::string &what)
{
    return Error::invalidConfig(
        what + " is a delta record, not a standalone profile; resolve "
               "the chain through campaign::ProfileStore");
}

/** Prefix an error's message with the file it came from. */
Error
atPath(const std::string &path, Error e)
{
    e.message = "'" + path + "': " + e.message;
    return e;
}

Expected<RetentionProfile>
readMemory(const std::string &bytes)
{
    switch (classifyMagic(
        reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size())) {
    case ProfileFormat::DeltaV2:
        return deltaIsNotStandalone("the buffer");
    case ProfileFormat::BinaryV2: {
        Expected<ProfileView> view = ProfileView::fromBuffer(bytes);
        if (!view)
            return view.error();
        return view.value().materialize();
    }
    case ProfileFormat::TextV1:
        break;
    }
    std::istringstream is(bytes, std::ios::binary);
    return readProfileText(is);
}

Expected<RetentionProfile>
readFile(const std::string &path)
{
    auto start = std::chrono::steady_clock::now();
    uint8_t head[8];
    Expected<size_t> headLen = readHead(path, head);
    if (!headLen)
        return headLen.error();

    // An empty file classifies as v1 text and fails its header parse.
    Expected<RetentionProfile> result =
        Error::internal("unreachable");
    uint64_t bytes = 0;
    switch (classifyMagic(head, headLen.value())) {
    case ProfileFormat::DeltaV2:
        return deltaIsNotStandalone("'" + path + "'");
    case ProfileFormat::BinaryV2: {
        // The eager file read IS the lazy handle, fully drained: one
        // validation story for both paths.
        Expected<ProfileView> view = ProfileView::open(path);
        if (!view)
            return view.error();
        bytes = view.value().sizeBytes();
        result = view.value().materialize();
        break;
    }
    case ProfileFormat::TextV1: {
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return Error::io("cannot open '" + path + "'");
        result = readProfileText(is);
        is.clear(); // the text parser may have tripped eofbit
        std::streampos pos = is.tellg();
        bytes = pos > 0 ? static_cast<uint64_t>(pos) : 0;
        break;
    }
    }
    if (!result)
        return atPath(path, result.error());
    REAPER_OBS_COUNT("profiling.profile_loads");
    REAPER_OBS_COUNT_N("profiling.profile_load_bytes", bytes);
    REAPER_OBS_HIST("profiling.profile_load_seconds",
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    return result;
}

} // namespace

Status
writeProfile(const RetentionProfile &profile, std::ostream &os,
             ProfileFormat format)
{
    if (format == ProfileFormat::DeltaV2)
        return Error::invalidConfig(
            "a delta record is not a standalone profile format; write "
            "it through campaign::ProfileStore::commitDelta");
    if (format == ProfileFormat::BinaryV2) {
        BinaryProfileWriter writer(os, profile.conditions(),
                                   profile.size());
        for (const dram::ChipFailure &f : profile.cells())
            writer.append(f);
        return writer.finish();
    }
    writeProfileText(profile, os);
    os.flush();
    if (!os)
        return Error::io("profile write failed");
    return common::okStatus();
}

Status
writeProfileFile(const RetentionProfile &profile,
                 const std::string &path, ProfileFormat format)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return Error::io("cannot open '" + path + "' for writing");
    Status written = writeProfile(profile, os, format);
    if (!written)
        return atPath(path, written.error());
    return common::okStatus();
}

ProfileSource
ProfileSource::fromFile(std::string path)
{
    ProfileSource src;
    src.kind_ = Kind::File;
    src.payload_ = std::move(path);
    return src;
}

ProfileSource
ProfileSource::fromMemory(std::string bytes)
{
    ProfileSource src;
    src.kind_ = Kind::Memory;
    src.payload_ = std::move(bytes);
    return src;
}

Expected<RetentionProfile>
readProfile(const ProfileSource &src)
{
    if (src.kind_ == ProfileSource::Kind::File)
        return readFile(src.payload_);
    return readMemory(src.payload_);
}

Expected<ProfileFormat>
sniffProfileFormat(const std::string &path)
{
    uint8_t head[8];
    Expected<size_t> headLen = readHead(path, head);
    if (!headLen)
        return headLen.error();
    if (headLen.value() == 0)
        return Error::io("'" + path + "' is empty");
    return classifyMagic(head, headLen.value());
}

} // namespace profiling
} // namespace reaper
