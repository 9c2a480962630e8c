/**
 * @file
 * Tests for REAPER-PROFILE delta records (profiling/profile_delta.h):
 * canonical diff/apply round trips, wire round trips, wrong-base
 * rejection, classification by the sniffing readers (a delta is never
 * a standalone profile), and the corruption story — exhaustive
 * truncation and single-bit flips must all surface as typed errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "profiling/profile_binary.h"
#include "profiling/profile_delta.h"
#include "profiling/profile_io.h"

namespace reaper {
namespace profiling {
namespace {

using common::ErrorCategory;
using common::Expected;

RetentionProfile
randomProfile(uint64_t seed, size_t cells)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({static_cast<uint32_t>(rng.uniformInt(4)),
                     rng.uniformInt(1ull << 40)});
    RetentionProfile p(Conditions{1.024, 45.0});
    p.add(v);
    return p;
}

/** Randomly drop and add cells, modelling a VRT reprofiling round. */
RetentionProfile
drift(const RetentionProfile &base, uint64_t seed, double removeFrac,
      size_t addCount)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> cells;
    for (const dram::ChipFailure &f : base.cells())
        if (rng.uniform() >= removeFrac)
            cells.push_back(f);
    for (size_t i = 0; i < addCount; ++i)
        cells.push_back({static_cast<uint32_t>(rng.uniformInt(4)),
                         rng.uniformInt(1ull << 40)});
    RetentionProfile p(base.conditions());
    p.add(cells);
    return p;
}

TEST(ProfileDelta, DiffApplyRoundTripsRandomDrift)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        RetentionProfile base = randomProfile(seed, 300);
        RetentionProfile target = drift(base, seed * 31, 0.1, 25);
        ProfileDelta delta = diffProfiles(base, target);
        Expected<RetentionProfile> applied =
            applyProfileDelta(base, delta);
        ASSERT_TRUE(applied.hasValue())
            << applied.error().describe();
        EXPECT_EQ(applied.value().cells(), target.cells());
    }
}

TEST(ProfileDelta, DiffOfIdenticalProfilesIsEmpty)
{
    RetentionProfile p = randomProfile(3, 50);
    ProfileDelta delta = diffProfiles(p, p);
    EXPECT_TRUE(delta.empty());
    Expected<RetentionProfile> applied = applyProfileDelta(p, delta);
    ASSERT_TRUE(applied.hasValue());
    EXPECT_EQ(applied.value().cells(), p.cells());
}

TEST(ProfileDelta, WireRoundTripPreservesEveryField)
{
    RetentionProfile base = randomProfile(4, 120);
    RetentionProfile target = drift(base, 99, 0.2, 15);
    ProfileDelta delta = diffProfiles(base, target);
    delta.baseName = "chip-A.profile";
    delta.baseCrc = 0xDEADBEEF;

    std::stringstream os;
    Expected<uint32_t> crc = writeProfileDelta(delta, os);
    ASSERT_TRUE(crc.hasValue()) << crc.error().describe();

    std::stringstream is(os.str());
    Expected<ProfileDelta> loaded = readProfileDelta(is);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().baseName, delta.baseName);
    EXPECT_EQ(loaded.value().baseCrc, delta.baseCrc);
    EXPECT_EQ(loaded.value().added, delta.added);
    EXPECT_EQ(loaded.value().removed, delta.removed);
    EXPECT_DOUBLE_EQ(loaded.value().cond.refreshInterval,
                     delta.cond.refreshInterval);
    EXPECT_DOUBLE_EQ(loaded.value().cond.temperature,
                     delta.cond.temperature);
}

TEST(ProfileDelta, ApplyToWrongBaseIsCorruptNotWrong)
{
    RetentionProfile base = randomProfile(5, 100);
    RetentionProfile target = drift(base, 11, 0.3, 10);
    ProfileDelta delta = diffProfiles(base, target);
    ASSERT_FALSE(delta.removed.empty());
    ASSERT_FALSE(delta.added.empty());

    // A base missing a removed cell: the delta names a cell to remove
    // that is not there.
    {
        std::vector<dram::ChipFailure> cells = base.cells();
        cells.erase(std::find(cells.begin(), cells.end(),
                              delta.removed.front()));
        RetentionProfile wrong(base.conditions());
        wrong.add(cells);
        Expected<RetentionProfile> r =
            applyProfileDelta(wrong, delta);
        ASSERT_FALSE(r.hasValue());
        EXPECT_EQ(r.error().category, ErrorCategory::Corrupt);
    }
    // A base that already holds an added cell.
    {
        std::vector<dram::ChipFailure> cells = base.cells();
        cells.push_back(delta.added.front());
        RetentionProfile wrong(base.conditions());
        wrong.add(cells);
        Expected<RetentionProfile> r =
            applyProfileDelta(wrong, delta);
        ASSERT_FALSE(r.hasValue());
        EXPECT_EQ(r.error().category, ErrorCategory::Corrupt);
    }
}

TEST(ProfileDelta, WriterRejectsNonCanonicalDelta)
{
    ProfileDelta delta;
    delta.cond = Conditions{1.024, 45.0};
    delta.added = {{1, 10}, {0, 5}}; // unsorted
    std::stringstream os;
    Expected<uint32_t> r = writeProfileDelta(delta, os);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Internal);

    delta.added = {{0, 5}};
    delta.removed = {{0, 5}}; // overlaps added
    std::stringstream os2;
    r = writeProfileDelta(delta, os2);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Internal);
}

std::string
deltaBytes(uint64_t seed = 6)
{
    RetentionProfile base = randomProfile(seed, 40);
    RetentionProfile target = drift(base, seed + 1, 0.2, 5);
    ProfileDelta delta = diffProfiles(base, target);
    delta.baseName = "base.profile";
    delta.baseCrc = 0x12345678;
    std::stringstream os;
    EXPECT_TRUE(writeProfileDelta(delta, os).hasValue());
    return os.str();
}

TEST(ProfileDelta, SniffersClassifyDeltaAndRefuseStandaloneReads)
{
    std::string bytes = deltaBytes();
    std::string path = ::testing::TempDir() + "record.d1.profile";
    {
        std::ofstream os(path, std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    Expected<ProfileFormat> fmt = sniffProfileFormat(path);
    ASSERT_TRUE(fmt.hasValue());
    EXPECT_EQ(fmt.value(), ProfileFormat::DeltaV2);

    // Neither the file reader nor the memory source decodes a delta
    // as a standalone profile.
    Expected<RetentionProfile> fromFile =
        readProfile(ProfileSource::fromFile(path));
    ASSERT_FALSE(fromFile.hasValue());
    EXPECT_EQ(fromFile.error().category,
              ErrorCategory::InvalidConfig);
    EXPECT_NE(fromFile.error().message.find("ProfileStore"),
              std::string::npos);

    Expected<RetentionProfile> fromMem =
        readProfile(ProfileSource::fromMemory(bytes));
    ASSERT_FALSE(fromMem.hasValue());
    EXPECT_EQ(fromMem.error().category,
              ErrorCategory::InvalidConfig);

    // recordFileCrc accepts the delta footer.
    Expected<uint32_t> crc = recordFileCrc(path);
    ASSERT_TRUE(crc.hasValue()) << crc.error().describe();
    std::remove(path.c_str());
}

TEST(ProfileDelta, RecordFileCrcMatchesWriterReturnValue)
{
    RetentionProfile base = randomProfile(7, 30);
    ProfileDelta delta = diffProfiles(base, drift(base, 8, 0.1, 3));
    delta.baseName = "b.profile";
    std::string path = ::testing::TempDir() + "crc.d1.profile";
    Expected<uint32_t> written = writeProfileDeltaFile(delta, path);
    ASSERT_TRUE(written.hasValue());
    Expected<uint32_t> read = recordFileCrc(path);
    ASSERT_TRUE(read.hasValue());
    EXPECT_EQ(read.value(), written.value());
    std::remove(path.c_str());

    // And for full v2 records, it returns the footer's file CRC.
    std::string full = ::testing::TempDir() + "crc_full.profile";
    ASSERT_TRUE(writeProfileFile(base, full).hasValue());
    EXPECT_TRUE(recordFileCrc(full).hasValue());
    std::remove(full.c_str());
}

// Every strict prefix of a valid delta record must be rejected with a
// typed error — a torn delta can never apply as a smaller patch.
TEST(ProfileDelta, EveryTruncationIsDetected)
{
    const std::string bytes = deltaBytes(9);
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::stringstream is(bytes.substr(0, len));
        Expected<ProfileDelta> r = readProfileDelta(is);
        ASSERT_FALSE(r.hasValue())
            << "prefix of " << len << " bytes parsed";
        EXPECT_TRUE(r.error().category == ErrorCategory::Corrupt ||
                    r.error().category == ErrorCategory::Parse)
            << "prefix " << len << ": "
            << toString(r.error().category);
        EXPECT_FALSE(r.error().message.empty());
    }
}

// Every single-bit flip anywhere in a delta record is detected: the
// trailing file CRC covers the whole record, so corruption can never
// yield a silently different patch.
TEST(ProfileDelta, EverySingleBitFlipIsDetected)
{
    const std::string bytes = deltaBytes(10);
    for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                static_cast<uint8_t>(mutated[i]) ^ (1u << bit));
            std::stringstream is(mutated);
            Expected<ProfileDelta> r = readProfileDelta(is);
            EXPECT_FALSE(r.hasValue())
                << "bit " << bit << " of byte " << i
                << " flipped but the delta parsed";
        }
    }
}

// Hostile bodies at the boundary between the two embedded streams.
// Each record below is edited and then re-checksummed — block CRCs,
// stream header and file CRCs, and the delta's own file CRC are all
// valid — so only the structure lies, and the frame walk that finds
// where the added stream ends is what must reject it.
namespace hostile {

void
putLe(std::string &b, size_t off, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        b[off + i] = static_cast<char>(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
getLe32(const std::string &b, size_t off)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(static_cast<uint8_t>(b[off + i])) << (8 * i);
    return v;
}

uint32_t
crcOf(const std::string &b, size_t off, size_t len)
{
    return crc32c(0, b.data() + off, len);
}

/** A v2 stream of `cells` in blocks of at most `blockCells`. */
std::string
streamOf(const std::vector<dram::ChipFailure> &cells, uint32_t blockCells)
{
    std::stringstream os;
    BinaryProfileWriter writer(os, Conditions{1.024, 45.0}, cells.size(),
                               blockCells);
    for (const dram::ChipFailure &f : cells)
        writer.append(f);
    EXPECT_TRUE(writer.finish().hasValue());
    return os.str();
}

/** Re-CRC a stream's header and whole-stream footer after an edit. */
void
reCrcStream(std::string &s)
{
    putLe(s, 40, crcOf(s, 0, 40), 4);
    putLe(s, s.size() - 4, crcOf(s, 0, s.size() - kBinaryFooterBytes), 4);
}

/** Re-CRC the block frame at `off` (payload length read from it). */
void
reCrcBlock(std::string &s, size_t off)
{
    size_t payload = getLe32(s, off + 4);
    putLe(s, off + 8 + payload, crcOf(s, off, 8 + payload), 4);
}

struct Fixture
{
    std::string header; ///< delta header bytes (counts 20 added, 5 removed)
    std::vector<dram::ChipFailure> added, removed;
};

Fixture
fixture()
{
    Fixture fx;
    for (uint64_t i = 0; i < 20; ++i)
        fx.added.push_back({0, 100 + 3 * i});
    for (uint64_t i = 0; i < 5; ++i)
        fx.removed.push_back({1, 7 * i});
    ProfileDelta delta;
    delta.cond = Conditions{1.024, 45.0};
    delta.baseName = "base.profile";
    delta.added = fx.added;
    delta.removed = fx.removed;
    std::stringstream os;
    EXPECT_TRUE(writeProfileDelta(delta, os).hasValue());
    // Fixed header + base name + header CRC.
    fx.header = os.str().substr(0, 52 + delta.baseName.size() + 4);
    return fx;
}

/** Frame `body` as a delta record with a valid file CRC. */
std::string
record(const Fixture &fx, const std::string &body)
{
    std::string out = fx.header + body;
    uint32_t crc = crcOf(out, 0, out.size());
    out += "RPDN";
    out.resize(out.size() + 4);
    putLe(out, out.size() - 4, crc, 4);
    return out;
}

Expected<ProfileDelta>
parse(const std::string &bytes)
{
    std::stringstream is(bytes);
    return readProfileDelta(is);
}

} // namespace hostile

TEST(ProfileDelta, ReCrcdRecordsWithBadStreamBoundariesAreCorrupt)
{
    using namespace hostile;
    const Fixture fx = fixture();
    const std::string added = streamOf(fx.added, 8); // frames 8, 8, 4
    const std::string removed = streamOf(fx.removed, 8);
    const size_t frame0 = kBinaryHeaderBytes;

    // Control: multi-block streams assembled this way parse exactly.
    Expected<ProfileDelta> ok = parse(record(fx, added + removed));
    ASSERT_TRUE(ok.hasValue()) << ok.error().describe();
    EXPECT_EQ(ok.value().added, fx.added);
    EXPECT_EQ(ok.value().removed, fx.removed);

    struct Case
    {
        const char *what;
        std::string body;
    };
    std::vector<Case> cases;
    {
        // First frame's payload length runs past the delta body.
        std::string a = added;
        putLe(a, frame0 + 4, 0x00FFFFFFu, 4);
        reCrcStream(a);
        cases.push_back({"payload past body", a + removed});
    }
    {
        std::string a = added;
        putLe(a, frame0, 0, 4);
        reCrcBlock(a, frame0);
        reCrcStream(a);
        cases.push_back({"zero-cell frame", a + removed});
    }
    {
        // Header block capacity 4, frames of 8.
        std::string a = added;
        putLe(a, 12, 4, 4);
        reCrcStream(a);
        cases.push_back({"frame over block capacity", a + removed});
    }
    {
        // Header announces 19 cells; the frames hold 20.
        std::string a = added;
        putLe(a, 32, fx.added.size() - 1, 8);
        reCrcStream(a);
        cases.push_back({"frames overrun cell count", a + removed});
    }
    cases.push_back(
        {"bytes between streams", added + std::string(5, '\0') + removed});
    cases.push_back(
        {"bytes after removed stream", added + removed + "xyz"});

    for (const Case &c : cases) {
        Expected<ProfileDelta> r = parse(record(fx, c.body));
        ASSERT_FALSE(r.hasValue()) << c.what << " parsed";
        EXPECT_EQ(r.error().category, ErrorCategory::Corrupt)
            << c.what << ": " << r.error().describe();
    }
}

} // namespace
} // namespace profiling
} // namespace reaper
