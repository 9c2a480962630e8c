/**
 * @file
 * Retention-profile serialization: the one read/write API.
 *
 * Real deployments persist failure profiles (e.g. the memory
 * controller stores them in the ArchShield FaultMap region or flash)
 * so the system can restore relaxed-refresh operation after a reboot
 * and only reprofile when the longevity model says so.
 *
 * Three wire formats coexist:
 *
 *  - v1: a small line-oriented text file (diffable, greppable). Still
 *    read and written, behind the --profile-format knob.
 *  - v2: the binary delta-varint format of profiling/profile_binary.h
 *    — checksummed, several times smaller, and an order of magnitude
 *    faster to decode. The default for all writes.
 *  - delta: a patch vs a named base profile (profile_delta.h). Not a
 *    standalone profile: readProfile() classifies it (sniff) and
 *    refuses to decode it on its own — chains resolve through
 *    campaign::ProfileStore.
 *
 * readProfile() sniffs the leading magic and accepts v1 or v2
 * transparently, so a store directory may hold a mix of formats
 * (e.g. after flipping --profile-format mid-deployment). v2 content
 * always decodes through profiling::ProfileView (mmap for files, the
 * buffer itself for memory sources), so the eager and lazy paths
 * share one decoder and one validation story.
 *
 * Every entry point returns common::Expected/Status with typed
 * categories — Io for filesystem failures, Parse for malformed
 * headers, Corrupt for truncated or checksum-failing payloads — so
 * callers (the campaign store's index recovery, the serve cache
 * loader) can dispatch without string matching.
 */

#ifndef REAPER_PROFILING_PROFILE_IO_H
#define REAPER_PROFILING_PROFILE_IO_H

#include <iosfwd>
#include <string>

#include "common/expected.h"
#include "profiling/profile.h"
#include "profiling/profile_binary.h"

namespace reaper {
namespace profiling {

/**
 * Serialize a profile to a stream in the requested format. Errors are
 * ErrorCategory::Io, or InvalidConfig for ProfileFormat::DeltaV2 (a
 * delta needs a base; see ProfileStore::commitDelta).
 */
common::Status
writeProfile(const RetentionProfile &profile, std::ostream &os,
             ProfileFormat format = ProfileFormat::BinaryV2);

/**
 * Save to a file path. Errors are ErrorCategory::Io (cannot open,
 * write failed).
 */
common::Status
writeProfileFile(const RetentionProfile &profile,
                 const std::string &path,
                 ProfileFormat format = ProfileFormat::BinaryV2);

/** Where profile bytes come from: a file path or an in-memory copy. */
class ProfileSource
{
  public:
    /** Read from a file path. v2 files are mmapped through
     *  ProfileView::open(); a failure names the path. */
    static ProfileSource fromFile(std::string path);

    /** Read from an in-memory serialized profile. */
    static ProfileSource fromMemory(std::string bytes);

  private:
    friend common::Expected<RetentionProfile>
    readProfile(const ProfileSource &src);

    enum class Kind : uint8_t
    {
        File,
        Memory,
    };
    Kind kind_ = Kind::Memory;
    std::string payload_; ///< path (File) or bytes (Memory)
};

/**
 * Parse a serialized profile, sniffing v1 text vs v2 binary from the
 * leading magic. Errors are ErrorCategory::Parse (bad magic/version/
 * header), ErrorCategory::Corrupt (truncated or checksum-failing
 * payload, or content after the announced v1 cell list), Io (file
 * sources), or InvalidConfig (a delta record, which is not
 * standalone). File reads record obs counters (profile loads, bytes,
 * decode time) under REAPER_OBS=counters.
 */
common::Expected<RetentionProfile>
readProfile(const ProfileSource &src);

/**
 * The format of the profile at `path`, from its leading magic
 * (including DeltaV2 for delta records). Io when the file cannot be
 * opened or is empty; the result says nothing about whether the rest
 * of the file is well-formed.
 */
common::Expected<ProfileFormat>
sniffProfileFormat(const std::string &path);

} // namespace profiling
} // namespace reaper

#endif // REAPER_PROFILING_PROFILE_IO_H
