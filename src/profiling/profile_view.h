/**
 * @file
 * ProfileView: a lazy, mmap-backed, zero-copy read handle over a
 * REAPER-PROFILE v2 file.
 *
 * The view is the only v2 decoder: readProfile() materializes one,
 * and the delta reader decodes its two embedded streams through one.
 * It validates only the fixed-size sections on open (header, footer,
 * and the CRC-covered per-block index), then decodes blocks on demand,
 * so cold-miss latency in serve::ProfileCache does not scale with
 * profile size:
 *
 *   - contains(cell) routes through the index key ranges and decodes
 *     at most ONE block (zero when the key falls in an index gap).
 *   - anyInRange(lo, hi) answers from the index alone unless the
 *     range is strictly interior to a single block, so it too decodes
 *     at most ONE block. This is what serves IsRowWeak queries.
 *   - materialize() decodes everything into a RetentionProfile and —
 *     unlike the lazy paths — verifies the whole-file CRC.
 *
 * Decoded blocks are memoized (thread-safe; per-block CRC checked on
 * first decode and the decoded key range cross-checked against the
 * index), so repeated queries against the same rows stay cheap.
 *
 * Lifetime and aliasing rules (see DESIGN.md §15):
 *   - A view holds the file mapping for its whole lifetime. Decoded
 *     cells returned by queries are owned copies — they never alias
 *     the mapping.
 *   - The underlying file must not be truncated or rewritten in place
 *     while a view is open. Atomic rename-replace (what
 *     campaign::ProfileStore does) is safe: the view keeps reading
 *     the old inode.
 *   - Views are movable, not copyable. All query methods are const
 *     and safe to call concurrently.
 *
 * Obs counters: profiling.view_opens, profiling.view_block_decodes,
 * profiling.view_point_lookups.
 */

#ifndef REAPER_PROFILING_PROFILE_VIEW_H
#define REAPER_PROFILING_PROFILE_VIEW_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.h"
#include "profiling/profile.h"
#include "profiling/profile_binary.h"

namespace reaper {
namespace profiling {

class ProfileView
{
  public:
    /**
     * Map `path` and validate its fixed sections (header magic,
     * version and CRC; index magic, CRC and structural invariants;
     * footer magic and block count; section sizes against the file
     * size). Block payloads are NOT touched — their CRCs are checked
     * lazily on first decode. Errors: Io (open/stat/map failed),
     * Parse (not a v2 profile), Corrupt (damaged fixed sections).
     */
    static common::Expected<ProfileView> open(const std::string &path);

    /** Same validation over an in-memory copy of a v2 file. The view
     *  owns the buffer. Used by the memory-sourced readProfile() path
     *  and the delta reader. */
    static common::Expected<ProfileView> fromBuffer(std::string bytes);

    ProfileView(ProfileView &&) noexcept;
    ProfileView &operator=(ProfileView &&) noexcept;
    ProfileView(const ProfileView &) = delete;
    ProfileView &operator=(const ProfileView &) = delete;
    ~ProfileView();

    /** Header fields. */
    const Conditions &conditions() const;
    uint64_t cellCount() const;
    uint32_t blockCells() const;

    /** Index / file shape. */
    uint32_t blockCount() const;
    uint64_t sizeBytes() const;
    uint32_t fileCrc() const;

    /** Blocks decoded so far through this view (memoized decodes
     *  count once; materialize()/forEachBlock() streaming decodes
     *  count every time). The ci.sh smoke asserts point lookups keep
     *  this ≤ 2 per query regardless of profile size. */
    uint64_t blocksDecoded() const;

    /** Point query: is `cell` in the profile? Decodes at most one
     *  block. Errors: Corrupt (the touched block is damaged). */
    common::Expected<bool> contains(const dram::ChipFailure &cell) const;

    /**
     * Range query: does the profile hold any cell in [lo, hi]
     * (inclusive)? Answered from the index alone (zero decodes)
     * unless the range falls strictly inside one block's key range,
     * which decodes that single block. Errors: Corrupt.
     */
    common::Expected<bool> anyInRange(const dram::ChipFailure &lo,
                                      const dram::ChipFailure &hi) const;

    /**
     * Stream every block's cells through `fn(cells, count)` in file
     * order, using transient scratch (nothing new is memoized).
     * Errors: Corrupt (first damaged block aborts the walk).
     */
    common::Status
    forEachBlock(const std::function<void(const dram::ChipFailure *,
                                          size_t)> &fn) const;

    /**
     * Decode the whole file into a RetentionProfile. Also verifies
     * the footer's whole-file CRC over the mapping. Errors: Corrupt.
     */
    common::Expected<RetentionProfile> materialize() const;

  private:
    struct Impl;
    explicit ProfileView(std::unique_ptr<Impl> impl);
    static common::Expected<ProfileView>
    openImpl(std::unique_ptr<Impl> impl);

    std::unique_ptr<Impl> impl_;
};

} // namespace profiling
} // namespace reaper

#endif // REAPER_PROFILING_PROFILE_VIEW_H
