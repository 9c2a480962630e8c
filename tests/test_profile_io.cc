/**
 * @file
 * Tests for retention-profile serialization: the Expected-returning
 * readProfile/writeProfile API (typed error categories) and the v1
 * text parser's resource/corruption hardening. The v2 binary format
 * has its own suite in test_profile_binary.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "profiling/profile_io.h"

namespace reaper {
namespace profiling {
namespace {

using common::ErrorCategory;

RetentionProfile
sampleProfile()
{
    RetentionProfile p(Conditions{1.024, 45.0});
    p.add({{0, 12345}, {0, 99}, {3, 7}, {2, 1ull << 40}});
    return p;
}

std::string
textOf(const RetentionProfile &p)
{
    std::stringstream ss;
    EXPECT_TRUE(writeProfile(p, ss, ProfileFormat::TextV1).hasValue());
    return ss.str();
}

RetentionProfile
fromText(const std::string &text)
{
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(text));
    EXPECT_TRUE(r.hasValue()) << r.error().describe();
    return r.hasValue() ? std::move(r).value()
                        : RetentionProfile(Conditions{});
}

TEST(ProfileIo, RoundTrip)
{
    RetentionProfile original = sampleProfile();
    RetentionProfile loaded = fromText(textOf(original));
    EXPECT_EQ(loaded.cells(), original.cells());
    EXPECT_DOUBLE_EQ(loaded.conditions().refreshInterval,
                     original.conditions().refreshInterval);
    EXPECT_DOUBLE_EQ(loaded.conditions().temperature,
                     original.conditions().temperature);
}

TEST(ProfileIo, EmptyProfileRoundTrip)
{
    RetentionProfile original(Conditions{0.512, 50.0});
    RetentionProfile loaded = fromText(textOf(original));
    EXPECT_TRUE(loaded.empty());
    EXPECT_DOUBLE_EQ(loaded.conditions().refreshInterval, 0.512);
}

TEST(ProfileIo, FormatIsHumanReadable)
{
    std::string text = textOf(sampleProfile());
    EXPECT_NE(text.find("REAPER-PROFILE v1"), std::string::npos);
    EXPECT_NE(text.find("refresh_interval_ms 1024"), std::string::npos);
    EXPECT_NE(text.find("temperature_c 45"), std::string::npos);
    EXPECT_NE(text.find("cells 4"), std::string::npos);
}

TEST(ProfileIo, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "reaper_profile_test.txt";
    RetentionProfile original = sampleProfile();
    ASSERT_TRUE(writeProfileFile(original, path).hasValue());
    common::Expected<RetentionProfile> loaded =
        readProfile(ProfileSource::fromFile(path));
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded.value().cells(), original.cells());
    std::remove(path.c_str());
}

TEST(ProfileIo, RejectsBadMagic)
{
    std::stringstream ss("NOT-A-PROFILE v1\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Parse);
    EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(ProfileIo, RejectsUnsupportedVersion)
{
    std::stringstream ss("REAPER-PROFILE v9\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Parse);
    EXPECT_NE(r.error().message.find("version"), std::string::npos);
}

TEST(ProfileIo, RejectsTruncatedCellList)
{
    std::stringstream ss("REAPER-PROFILE v1\n"
                         "refresh_interval_ms 1024\n"
                         "temperature_c 45\n"
                         "cells 3\n"
                         "0 1\n"
                         "0 2\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Corrupt);
    EXPECT_NE(r.error().message.find("truncated"), std::string::npos);
}

TEST(ProfileIo, RejectsIncompleteHeader)
{
    std::stringstream ss("REAPER-PROFILE v1\n"
                         "temperature_c 45\n"
                         "cells 0\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Parse);
    EXPECT_NE(r.error().message.find("incomplete"), std::string::npos);
}

TEST(ProfileIo, RejectsUnknownKey)
{
    std::stringstream ss("REAPER-PROFILE v1\n"
                         "voltage_mv 1100\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Parse);
    EXPECT_NE(r.error().message.find("unknown key"), std::string::npos);
}

TEST(ProfileIo, RejectsNegativeInterval)
{
    std::stringstream ss("REAPER-PROFILE v1\n"
                         "refresh_interval_ms -5\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Parse);
}

TEST(ProfileIo, WriteProfileFileReportsIoOnUnwritablePath)
{
    common::Status st =
        writeProfileFile(sampleProfile(), "/nonexistent_dir/p.txt");
    ASSERT_FALSE(st.hasValue());
    EXPECT_EQ(st.error().category, ErrorCategory::Io);
    EXPECT_NE(st.error().message.find("cannot open"), std::string::npos);
}

TEST(ProfileIo, FileSourceReportsIoOnMissingFile)
{
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromFile("/nonexistent/profile.txt"));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Io);
    // The diagnostic names the offending path.
    EXPECT_NE(r.error().message.find("/nonexistent/profile.txt"),
              std::string::npos);
}

TEST(ProfileIo, FileSourceKeepsParseCategoryAndAddsPath)
{
    std::string path = ::testing::TempDir() + "reaper_bad_profile.txt";
    {
        std::ofstream os(path);
        os << "NOT-A-PROFILE v1\n";
    }
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromFile(path));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Parse);
    EXPECT_NE(r.error().message.find(path), std::string::npos);
    std::remove(path.c_str());
}

TEST(ProfileIo, EmptyStreamFailsWithDiagnostic)
{
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(""));
    ASSERT_FALSE(r.hasValue());
    EXPECT_FALSE(r.error().message.empty());
}

// Property-style: every line-level truncation of a valid profile must
// be rejected with a non-empty diagnostic — a crash-torn profile file
// can never load as a (silently smaller) valid profile.
TEST(ProfileIo, AllLineTruncationsFailWithDiagnostic)
{
    const std::string text = textOf(sampleProfile());

    std::vector<size_t> line_ends;
    for (size_t i = 0; i < text.size(); ++i)
        if (text[i] == '\n')
            line_ends.push_back(i + 1);
    ASSERT_GT(line_ends.size(), 4u);

    for (size_t keep = 0; keep + 1 < line_ends.size(); ++keep) {
        size_t len = keep == 0 ? 0 : line_ends[keep - 1];
        common::Expected<RetentionProfile> r =
            readProfile(ProfileSource::fromMemory(text.substr(0, len)));
        EXPECT_FALSE(r.hasValue())
            << "prefix of " << keep << " lines parsed successfully";
        if (!r.hasValue()) {
            EXPECT_FALSE(r.error().message.empty())
                << "no diagnostic for prefix of " << keep << " lines";
            EXPECT_TRUE(r.error().category == ErrorCategory::Parse ||
                        r.error().category == ErrorCategory::Corrupt)
                << "unexpected category for prefix of " << keep
                << " lines: " << toString(r.error().category);
        }
    }
}

// Property-style: single-token corruptions of a valid profile (bad
// version, non-numeric fields, out-of-range values, content past the
// announced cell list) are all rejected with a non-empty diagnostic.
TEST(ProfileIo, TokenMutationsFailWithDiagnostic)
{
    struct Mutation
    {
        const char *from;
        const char *to;
    };
    const Mutation mutations[] = {
        {"v1", "v7"},                  // unsupported version
        {"REAPER-PROFILE", "REAPERx"}, // bad magic
        {"refresh_interval_ms 1024", "refresh_interval_ms never"},
        {"refresh_interval_ms 1024", "refresh_interval_ms -3"},
        {"temperature_c 45", "temperature_c warm"},
        {"cells 4", "cells many"},
        {"3 7", "99999999999 7"}, // chip index out of range
        {"3 7", "3 seven"},       // non-numeric address
        {"cells 4", "cells 3"},   // a listed cell the count omits
        {"3 7\n", "3 7\ntrailing garbage\n"},
    };
    for (const Mutation &m : mutations) {
        std::string text = textOf(sampleProfile());
        size_t pos = text.find(m.from);
        ASSERT_NE(pos, std::string::npos) << m.from;
        text.replace(pos, std::string(m.from).size(), m.to);

        common::Expected<RetentionProfile> r =
            readProfile(ProfileSource::fromMemory(text));
        EXPECT_FALSE(r.hasValue())
            << "mutation '" << m.to << "' parsed successfully";
        if (!r.hasValue())
            EXPECT_FALSE(r.error().message.empty())
                << "no diagnostic for " << m.to;
    }
}

TEST(ProfileIo, LoadedProfileDrivesMitigation)
{
    // End to end: serialize, reload, and the reloaded profile behaves
    // identically for set queries.
    RetentionProfile original = sampleProfile();
    RetentionProfile loaded = fromText(textOf(original));
    EXPECT_TRUE(loaded.contains({0, 99}));
    EXPECT_FALSE(loaded.contains({0, 100}));
    EXPECT_EQ(loaded.intersectionSize(original.cells()),
              original.size());
}

// Regression: a corrupt v1 header claiming 10^12 cells must fail as
// Corrupt without reserving terabytes up front. Run with a sanitizer
// or a memory limit, an unclamped reserve() aborts here.
TEST(ProfileIo, HostileCellCountDoesNotPreallocate)
{
    std::stringstream ss("REAPER-PROFILE v1\n"
                         "refresh_interval_ms 1024\n"
                         "temperature_c 45\n"
                         "cells 1000000000000\n");
    common::Expected<RetentionProfile> r =
        readProfile(ProfileSource::fromMemory(ss.str()));
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().category, ErrorCategory::Corrupt);
    EXPECT_NE(r.error().message.find("truncated"), std::string::npos);
}

// The source-based API: every source kind round-trips both wire
// formats.
TEST(ProfileIo, ProfileSourceKindsAllRoundTrip)
{
    RetentionProfile original = sampleProfile();
    for (ProfileFormat fmt :
         {ProfileFormat::TextV1, ProfileFormat::BinaryV2}) {
        std::stringstream ss;
        ASSERT_TRUE(writeProfile(original, ss, fmt).hasValue());
        const std::string bytes = ss.str();

        common::Expected<RetentionProfile> fromMem =
            readProfile(ProfileSource::fromMemory(bytes));
        ASSERT_TRUE(fromMem.hasValue()) << toString(fmt);
        EXPECT_EQ(fromMem.value().cells(), original.cells());

        std::string path =
            ::testing::TempDir() + "reaper_src_kind.profile";
        ASSERT_TRUE(writeProfileFile(original, path, fmt).hasValue());
        common::Expected<RetentionProfile> fromFile =
            readProfile(ProfileSource::fromFile(path));
        ASSERT_TRUE(fromFile.hasValue()) << toString(fmt);
        EXPECT_EQ(fromFile.value().cells(), original.cells());
        std::remove(path.c_str());
    }
}

// Files written with the default format knob are v2 binary, and the
// sniffing file reader loads them transparently.
TEST(ProfileIo, DefaultFileFormatIsBinaryAndSniffed)
{
    std::string path = ::testing::TempDir() + "reaper_profile_v2.bin";
    RetentionProfile original = sampleProfile();
    ASSERT_TRUE(writeProfileFile(original, path).hasValue());

    common::Expected<ProfileFormat> fmt = sniffProfileFormat(path);
    ASSERT_TRUE(fmt.hasValue());
    EXPECT_EQ(fmt.value(), ProfileFormat::BinaryV2);

    common::Expected<RetentionProfile> loaded =
        readProfile(ProfileSource::fromFile(path));
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded.value().cells(), original.cells());
    std::remove(path.c_str());
}

} // namespace
} // namespace profiling
} // namespace reaper
