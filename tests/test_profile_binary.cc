/**
 * @file
 * Tests for the REAPER-PROFILE v2 binary format: property-style
 * round trips against the v1 text format, exhaustive truncation and
 * single-bit corruption (a damaged file must always surface as a
 * typed error, never a silently wrong profile), hostile-header
 * resource safety, and the sniffing reader that accepts both formats.
 * Every read goes through readProfile(ProfileSource), whose v2 decoder
 * is ProfileView.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.h"
#include "profiling/profile_binary.h"
#include "profiling/profile_io.h"

namespace reaper {
namespace profiling {
namespace {

using common::ErrorCategory;
using common::Expected;
using common::Status;

RetentionProfile
randomProfile(uint64_t seed, size_t cells, uint32_t chips = 4,
              uint64_t addrSpace = 1ull << 44)
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

std::string
textOf(const RetentionProfile &p)
{
    std::stringstream ss;
    EXPECT_TRUE(writeProfile(p, ss, ProfileFormat::TextV1).hasValue());
    return ss.str();
}

std::string
binaryOf(const RetentionProfile &p)
{
    std::stringstream ss;
    Status st = writeProfile(p, ss, ProfileFormat::BinaryV2);
    EXPECT_TRUE(st.hasValue());
    return ss.str();
}

Expected<RetentionProfile>
readBytes(const std::string &bytes)
{
    return readProfile(ProfileSource::fromMemory(bytes));
}

TEST(ProfileBinary, RoundTripPreservesCellsAndConditions)
{
    RetentionProfile original = randomProfile(1, 1000);
    Expected<RetentionProfile> loaded = readBytes(binaryOf(original));
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), original.cells());
    EXPECT_DOUBLE_EQ(loaded.value().conditions().refreshInterval,
                     original.conditions().refreshInterval);
    EXPECT_DOUBLE_EQ(loaded.value().conditions().temperature,
                     original.conditions().temperature);
}

// Property: v1 -> v2 -> v1 is bit-identical text for random profiles
// of many shapes, including exact block-boundary cell counts.
TEST(ProfileBinary, TextV2TextRoundTripIsBitIdentical)
{
    const size_t sizes[] = {0,    1,    2,    100,  4095,
                            4096, 4097, 8192, 10000};
    for (size_t n : sizes) {
        RetentionProfile original = randomProfile(77 + n, n);
        std::string text1 = textOf(original);

        Expected<RetentionProfile> fromText = readBytes(text1);
        ASSERT_TRUE(fromText.hasValue());

        Expected<RetentionProfile> fromBinary =
            readBytes(binaryOf(fromText.value()));
        ASSERT_TRUE(fromBinary.hasValue())
            << fromBinary.error().describe();

        EXPECT_EQ(textOf(fromBinary.value()), text1)
            << "round trip not bit-identical for " << n << " cells";
    }
}

TEST(ProfileBinary, EmptyProfileRoundTrip)
{
    RetentionProfile original(Conditions{0.512, 50.0});
    Expected<RetentionProfile> loaded = readBytes(binaryOf(original));
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_TRUE(loaded.value().empty());
    EXPECT_DOUBLE_EQ(loaded.value().conditions().refreshInterval,
                     0.512);
}

TEST(ProfileBinary, MaxAddressAndChipRoundTrip)
{
    RetentionProfile p(Conditions{1.024, 45.0});
    p.add({{0, 0},
           {0, ~0ull},
           {0xFFFFFFFFu, 0},
           {0xFFFFFFFFu, ~0ull}});
    Expected<RetentionProfile> loaded = readBytes(binaryOf(p));
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), p.cells());
}

TEST(ProfileBinary, BinaryIsSmallerThanText)
{
    // Weak-cell density of a real chip (~1e5 cells in a 1 Gb array):
    // deltas fit in 2-byte varints where v1 spends ~12 text bytes.
    RetentionProfile p = randomProfile(3, 100000, 1, 1ull << 30);
    EXPECT_LT(binaryOf(p).size() * 3, textOf(p).size())
        << "v2 should be >= 3x smaller than v1";
}

// Every strict prefix of a valid v2 file — which includes truncation
// at the header edge, at every block boundary, and mid-footer — must
// be rejected with a typed error, never parsed as a smaller profile.
TEST(ProfileBinary, EveryTruncationIsDetected)
{
    // Small blocks so the file has several block boundaries.
    RetentionProfile p = randomProfile(5, 37);
    std::stringstream os;
    BinaryProfileWriter writer(os, p.conditions(), p.size(),
                               /*blockCells=*/8);
    for (const dram::ChipFailure &f : p.cells())
        writer.append(f);
    ASSERT_TRUE(writer.finish().hasValue());
    const std::string bytes = os.str();

    for (size_t len = 0; len < bytes.size(); ++len) {
        Expected<RetentionProfile> r = readBytes(bytes.substr(0, len));
        ASSERT_FALSE(r.hasValue())
            << "prefix of " << len << " bytes parsed successfully";
        EXPECT_TRUE(r.error().category == ErrorCategory::Corrupt ||
                    r.error().category == ErrorCategory::Parse)
            << "unexpected category at prefix " << len << ": "
            << toString(r.error().category);
        EXPECT_FALSE(r.error().message.empty());
    }
}

// Every single-bit flip anywhere in the file must be detected: the
// header, each block (lengths, payload, CRC), and the footer are all
// checksum-covered, so corruption can never yield a wrong profile.
TEST(ProfileBinary, EverySingleBitFlipIsDetected)
{
    RetentionProfile p = randomProfile(9, 21);
    std::stringstream os;
    BinaryProfileWriter writer(os, p.conditions(), p.size(),
                               /*blockCells=*/8);
    for (const dram::ChipFailure &f : p.cells())
        writer.append(f);
    ASSERT_TRUE(writer.finish().hasValue());
    const std::string bytes = os.str();

    for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                static_cast<uint8_t>(mutated[i]) ^ (1u << bit));
            Expected<RetentionProfile> r = readBytes(mutated);
            if (r.hasValue()) {
                // The only acceptable "success" would be decoding the
                // exact original — and CRC coverage rules even that
                // out, so any success is a detection failure.
                ADD_FAILURE() << "bit " << bit << " of byte " << i
                              << " flipped but the profile parsed";
            }
        }
    }
}

// A corrupt header announcing 10^12 cells must fail fast as Corrupt
// without attempting a ~16 TB up-front reservation.
TEST(ProfileBinary, HostileHeaderCellCountDoesNotPreallocate)
{
    const uint64_t hostile = 1000ull * 1000 * 1000 * 1000;
    std::stringstream os;
    {
        // Writer emits the (valid, CRC'd) header eagerly; dropping it
        // before finish() leaves a header-only stream that promises
        // 10^12 cells and delivers none.
        BinaryProfileWriter writer(os, Conditions{1.024, 45.0},
                                   hostile);
    }
    Expected<RetentionProfile> r = readBytes(os.str());
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Corrupt);

    // The same promise in a complete file: a valid empty profile whose
    // header count is patched and re-CRC'd, so only the count lies.
    std::string bytes = binaryOf(RetentionProfile(Conditions{1.024, 45.0}));
    uint8_t *h = reinterpret_cast<uint8_t *>(bytes.data());
    for (int i = 0; i < 8; ++i)
        h[32 + i] = static_cast<uint8_t>(hostile >> (8 * i));
    uint32_t crc = crc32c(0, h, 40);
    for (int i = 0; i < 4; ++i)
        h[40 + i] = static_cast<uint8_t>(crc >> (8 * i));
    r = readBytes(bytes);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Corrupt);
}

TEST(ProfileBinary, WriterRejectsCellCountMismatch)
{
    std::stringstream os;
    BinaryProfileWriter writer(os, Conditions{1.024, 45.0}, 5);
    writer.append({0, 1});
    Status st = writer.finish();
    ASSERT_FALSE(st.hasValue());
    EXPECT_EQ(st.error().category, ErrorCategory::Internal);
}

TEST(ProfileBinary, WriterRejectsUnsortedCells)
{
    std::stringstream os;
    BinaryProfileWriter writer(os, Conditions{1.024, 45.0}, 2);
    writer.append({1, 10});
    writer.append({0, 5});
    Status st = writer.finish();
    ASSERT_FALSE(st.hasValue());
    EXPECT_EQ(st.error().category, ErrorCategory::Internal);
}

TEST(ProfileBinary, SniffingReaderAcceptsBothFormats)
{
    RetentionProfile p = randomProfile(11, 64);

    Expected<RetentionProfile> fromText = readBytes(textOf(p));
    ASSERT_TRUE(fromText.hasValue());
    EXPECT_EQ(fromText.value().cells(), p.cells());

    Expected<RetentionProfile> fromBinary = readBytes(binaryOf(p));
    ASSERT_TRUE(fromBinary.hasValue());
    EXPECT_EQ(fromBinary.value().cells(), p.cells());
}

TEST(ProfileBinary, WriteProfileHonorsFormatKnob)
{
    RetentionProfile p = randomProfile(13, 8);

    std::stringstream text;
    ASSERT_TRUE(
        writeProfile(p, text, ProfileFormat::TextV1).hasValue());
    EXPECT_EQ(text.str().rfind("REAPER-PROFILE v1", 0), 0u);

    std::stringstream binary;
    ASSERT_TRUE(writeProfile(p, binary).hasValue()); // default = v2
    EXPECT_EQ(static_cast<uint8_t>(binary.str()[0]),
              kBinaryMagicByte);

    // A delta is not a standalone format: refused, nothing written.
    std::stringstream delta;
    Status st = writeProfile(p, delta, ProfileFormat::DeltaV2);
    ASSERT_FALSE(st.hasValue());
    EXPECT_EQ(st.error().category, ErrorCategory::InvalidConfig);
    EXPECT_TRUE(delta.str().empty());
}

TEST(ProfileBinary, ParseProfileFormatNames)
{
    EXPECT_EQ(parseProfileFormat("v1").value(), ProfileFormat::TextV1);
    EXPECT_EQ(parseProfileFormat("text").value(),
              ProfileFormat::TextV1);
    EXPECT_EQ(parseProfileFormat("v2").value(),
              ProfileFormat::BinaryV2);
    EXPECT_EQ(parseProfileFormat("binary").value(),
              ProfileFormat::BinaryV2);
    Expected<ProfileFormat> bad = parseProfileFormat("v3");
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.error().category, ErrorCategory::InvalidConfig);
    EXPECT_EQ(parseProfileFormat("delta").value(),
              ProfileFormat::DeltaV2);
    EXPECT_STREQ(toString(ProfileFormat::TextV1), "v1");
    EXPECT_STREQ(toString(ProfileFormat::BinaryV2), "v2");
    EXPECT_STREQ(toString(ProfileFormat::DeltaV2), "delta");
}

TEST(ProfileBinary, Crc32cMatchesKnownVector)
{
    // RFC 3720 test vector: crc32c("123456789") = 0xE3069283.
    EXPECT_EQ(crc32c(0, "123456789", 9), 0xE3069283u);
    // Incremental computation composes.
    uint32_t inc = crc32c(0, "1234", 4);
    // crc32c(seed, ...) chains through the running value.
    EXPECT_EQ(crc32c(inc, "56789", 5), 0xE3069283u);
}

} // namespace
} // namespace profiling
} // namespace reaper
