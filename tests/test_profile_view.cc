/**
 * @file
 * Tests for profiling::ProfileView — the lazy, block-indexed, zero-
 * copy v2 read handle. Covers the laziness contract (point and range
 * queries decode at most one block, memoized), equivalence with the
 * eager reader, and the corruption story: exhaustive truncation and
 * bit-flip sweeps over the index + footer region must surface as
 * typed errors, never as a wrong answer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "profiling/profile_binary.h"
#include "profiling/profile_io.h"
#include "profiling/profile_view.h"

namespace reaper {
namespace profiling {
namespace {

using common::ErrorCategory;
using common::Expected;

RetentionProfile
randomProfile(uint64_t seed, size_t cells, uint32_t chips = 4,
              uint64_t addrSpace = 1ull << 40)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({static_cast<uint32_t>(rng.uniformInt(chips)),
                     rng.uniformInt(addrSpace)});
    RetentionProfile p(Conditions{1.024, 45.0});
    p.add(v);
    return p;
}

/** Serialize with small blocks so files have many index entries. */
std::string
binaryOf(const RetentionProfile &p, uint32_t blockCells = 8)
{
    std::stringstream os;
    BinaryProfileWriter writer(os, p.conditions(), p.size(),
                               blockCells);
    for (const dram::ChipFailure &f : p.cells())
        writer.append(f);
    EXPECT_TRUE(writer.finish().hasValue());
    return os.str();
}

std::string
writeTemp(const std::string &bytes, const char *name)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(os.good());
    return path;
}

TEST(ProfileView, OpenExposesHeaderAndIndexShape)
{
    RetentionProfile p = randomProfile(1, 100);
    std::string path = writeTemp(binaryOf(p), "view_shape.profile");
    Expected<ProfileView> view = ProfileView::open(path);
    ASSERT_TRUE(view.hasValue()) << view.error().describe();
    EXPECT_EQ(view.value().cellCount(), 100u);
    EXPECT_EQ(view.value().blockCells(), 8u);
    EXPECT_EQ(view.value().blockCount(), 13u); // ceil(100/8)
    EXPECT_DOUBLE_EQ(view.value().conditions().refreshInterval,
                     1.024);
    EXPECT_EQ(view.value().blocksDecoded(), 0u)
        << "open must not decode any block";
    std::remove(path.c_str());
}

TEST(ProfileView, ContainsAgreesWithEagerReaderAndIsLazy)
{
    RetentionProfile p = randomProfile(2, 500);
    Expected<ProfileView> view =
        ProfileView::fromBuffer(binaryOf(p));
    ASSERT_TRUE(view.hasValue()) << view.error().describe();

    // Every present cell is found, each point lookup decoding at
    // most one new block.
    uint64_t decoded = 0;
    for (const dram::ChipFailure &f : p.cells()) {
        Expected<bool> hit = view.value().contains(f);
        ASSERT_TRUE(hit.hasValue()) << hit.error().describe();
        EXPECT_TRUE(hit.value());
        uint64_t now = view.value().blocksDecoded();
        EXPECT_LE(now, decoded + 1);
        decoded = now;
    }
    // All blocks are memoized by now: re-querying decodes nothing.
    uint64_t afterAll = view.value().blocksDecoded();
    for (const dram::ChipFailure &f : p.cells())
        EXPECT_TRUE(view.value().contains(f).value());
    EXPECT_EQ(view.value().blocksDecoded(), afterAll);

    // Absent cells answer false (decoding at most one block each).
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        dram::ChipFailure probe{
            static_cast<uint32_t>(rng.uniformInt(4)),
            rng.uniformInt(1ull << 40)};
        Expected<bool> hit = view.value().contains(probe);
        ASSERT_TRUE(hit.hasValue());
        EXPECT_EQ(hit.value(), p.contains(probe));
    }
}

TEST(ProfileView, RangeQueriesAnswerFromIndexAlone)
{
    RetentionProfile p = randomProfile(3, 400);
    Expected<ProfileView> view =
        ProfileView::fromBuffer(binaryOf(p));
    ASSERT_TRUE(view.hasValue());
    const auto &cells = p.cells();

    // A range spanning several blocks is provably non-empty from the
    // index: zero decodes.
    Expected<bool> wide =
        view.value().anyInRange(cells.front(), cells.back());
    ASSERT_TRUE(wide.hasValue());
    EXPECT_TRUE(wide.value());
    EXPECT_EQ(view.value().blocksDecoded(), 0u);

    // A range beyond every key is empty, also without decoding.
    dram::ChipFailure past{0xFFFFFFFFu, ~0ull};
    if (cells.back() < past) {
        dram::ChipFailure lo{cells.back().chip,
                             cells.back().addr + 1};
        Expected<bool> none = view.value().anyInRange(lo, past);
        ASSERT_TRUE(none.hasValue());
        EXPECT_FALSE(none.value());
        EXPECT_EQ(view.value().blocksDecoded(), 0u);
    }

    // An interior singleton range needs (at most) one decode and
    // agrees with the eager set.
    Expected<bool> one =
        view.value().anyInRange(cells[5], cells[5]);
    ASSERT_TRUE(one.hasValue());
    EXPECT_TRUE(one.value());
    EXPECT_LE(view.value().blocksDecoded(), 1u);
}

TEST(ProfileView, MaterializeMatchesEagerReaderByteForByte)
{
    const size_t sizes[] = {0, 1, 7, 8, 9, 100, 500};
    for (size_t n : sizes) {
        RetentionProfile p = randomProfile(40 + n, n);
        std::string bytes = binaryOf(p);
        Expected<ProfileView> view = ProfileView::fromBuffer(bytes);
        ASSERT_TRUE(view.hasValue()) << view.error().describe();
        Expected<RetentionProfile> mat = view.value().materialize();
        ASSERT_TRUE(mat.hasValue()) << mat.error().describe();
        EXPECT_EQ(mat.value().cells(), p.cells());
        // Re-serializing the materialized profile reproduces the
        // exact input bytes (same deterministic writer).
        EXPECT_EQ(binaryOf(mat.value()), bytes);
    }
}

TEST(ProfileView, OpenReportsIoForMissingFile)
{
    Expected<ProfileView> view =
        ProfileView::open("/nonexistent/view.profile");
    ASSERT_FALSE(view.hasValue());
    EXPECT_EQ(view.error().category, ErrorCategory::Io);
    EXPECT_NE(view.error().message.find("/nonexistent/view.profile"),
              std::string::npos);
}

// Every strict prefix of a valid file must fail to open or fail to
// materialize — laziness must not turn truncation into a silently
// smaller profile. (The index + footer live at the END of the file,
// so every truncation clips them and open() itself must object.)
TEST(ProfileView, EveryTruncationIsDetected)
{
    RetentionProfile p = randomProfile(5, 37);
    const std::string bytes = binaryOf(p);
    for (size_t len = 0; len < bytes.size(); ++len) {
        Expected<ProfileView> view =
            ProfileView::fromBuffer(bytes.substr(0, len));
        if (!view.hasValue()) {
            EXPECT_TRUE(view.error().category ==
                            ErrorCategory::Corrupt ||
                        view.error().category == ErrorCategory::Parse)
                << "prefix " << len << ": "
                << toString(view.error().category);
            continue;
        }
        Expected<RetentionProfile> mat = view.value().materialize();
        ASSERT_FALSE(mat.hasValue())
            << "prefix of " << len << " bytes materialized";
        EXPECT_EQ(mat.error().category, ErrorCategory::Corrupt);
    }
}

// Every single-bit flip in the index section and footer must be
// detected: the index and the footer's fixed fields are CRC-covered
// and fail at open (index corruption may never redirect a query to
// the wrong block); only the footer's whole-file-CRC field itself is
// deferred to materialize(), which verifies it.
TEST(ProfileView, EveryIndexAndFooterBitFlipIsDetectedAtOpen)
{
    RetentionProfile p = randomProfile(6, 37);
    const std::string bytes = binaryOf(p);
    const uint32_t blocks = 5; // ceil(37/8)
    size_t indexStart = bytes.size() - kBinaryFooterBytes -
                        indexSectionBytes(blocks);
    for (size_t i = indexStart; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                static_cast<uint8_t>(mutated[i]) ^ (1u << bit));
            Expected<ProfileView> view =
                ProfileView::fromBuffer(std::move(mutated));
            if (!view.hasValue())
                continue;
            // Only the footer's trailing fileCrc word may survive an
            // open, and materialize() must then reject it.
            EXPECT_GE(i, bytes.size() - 4)
                << "bit " << bit << " of byte " << i
                << " flipped but the view opened";
            Expected<RetentionProfile> mat =
                view.value().materialize();
            ASSERT_FALSE(mat.hasValue())
                << "bit " << bit << " of byte " << i
                << " flipped but materialize succeeded";
            EXPECT_EQ(mat.error().category, ErrorCategory::Corrupt);
        }
    }
}

// Bit flips in block payloads are caught lazily: open succeeds (the
// damaged block is untouched), the query that lands on it reports
// Corrupt, and no flip anywhere ever yields a wrong answer.
TEST(ProfileView, BlockBitFlipsSurfaceLazilyAsCorrupt)
{
    RetentionProfile p = randomProfile(7, 37);
    const std::string bytes = binaryOf(p);
    size_t blocksEnd = bytes.size() - kBinaryFooterBytes -
                       indexSectionBytes(5);
    for (size_t i = kBinaryHeaderBytes; i < blocksEnd; ++i) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(
            static_cast<uint8_t>(mutated[i]) ^ 0x10);
        Expected<ProfileView> view =
            ProfileView::fromBuffer(std::move(mutated));
        if (!view.hasValue())
            continue; // structural damage caught eagerly: fine
        bool sawError = false;
        for (const dram::ChipFailure &f : p.cells()) {
            Expected<bool> hit = view.value().contains(f);
            if (!hit.hasValue()) {
                EXPECT_EQ(hit.error().category,
                          ErrorCategory::Corrupt);
                sawError = true;
                break;
            }
            EXPECT_TRUE(hit.value())
                << "flip at byte " << i << " gave a wrong answer";
        }
        EXPECT_TRUE(sawError)
            << "flip at byte " << i << " was never detected";
        Expected<RetentionProfile> mat = view.value().materialize();
        EXPECT_FALSE(mat.hasValue())
            << "flip at byte " << i << " materialized";
    }
}

TEST(ProfileView, EmptyProfileViewAnswersWithoutDecoding)
{
    RetentionProfile p(Conditions{0.512, 50.0});
    Expected<ProfileView> view =
        ProfileView::fromBuffer(binaryOf(p));
    ASSERT_TRUE(view.hasValue()) << view.error().describe();
    EXPECT_EQ(view.value().blockCount(), 0u);
    EXPECT_FALSE(view.value().contains({0, 0}).value());
    EXPECT_FALSE(
        view.value().anyInRange({0, 0}, {9, 9}).value());
    EXPECT_EQ(view.value().blocksDecoded(), 0u);
    EXPECT_TRUE(view.value().materialize().value().empty());
}

// The eager file read is a drained view: same cells as the writer's
// input.
TEST(ProfileView, FileSourceRoutesThroughViewAndAgrees)
{
    RetentionProfile p = randomProfile(8, 200);
    std::string path =
        writeTemp(binaryOf(p, kDefaultBlockCells), "view_rt.profile");
    Expected<RetentionProfile> loaded =
        readProfile(ProfileSource::fromFile(path));
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), p.cells());
    std::remove(path.c_str());
}

} // namespace
} // namespace profiling
} // namespace reaper
