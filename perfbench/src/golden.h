/**
 * @file
 * Recorded digests of fixed reference inputs. Each workload re-runs its
 * reference input at the end of every run and compares against these:
 * a change that alters a simulated statistic or a stored profile byte
 * fails the correctness gate. Regenerate with `perfbench --print-golden`
 * only for a change that is meant to alter model output.
 */

#ifndef PERFBENCH_GOLDEN_H
#define PERFBENCH_GOLDEN_H

#include <cstdint>
#include <string>

namespace perfbench {
namespace golden {

/** Seed of every reference input (independent of --seed). */
constexpr uint64_t kReferenceSeed = 7;
/** fig13_sweep at tiny size: every sweep-point number. */
constexpr uint64_t kFig13Digest = 0xf4e26c6b3932d56cull;
/** vrt_campaign at tiny size: every byte of the profile store. */
constexpr uint64_t kCampaignDigest = 0xdcf5172e27ab95a0ull;

} // namespace golden

/** Digest of the fig13_sweep reference input (compare kFig13Digest). */
uint64_t fig13ReferenceDigest();
/** Digest of the vrt_campaign reference store (compare kCampaignDigest). */
uint64_t campaignReferenceDigest(const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_H
