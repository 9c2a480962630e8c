/**
 * @file
 * Bracket table of the standard normal quantile over the clamped
 * uniform draw of a latent failure time.
 *
 * DramDevice derives each cell's latent failure time as
 * mu_eff + sigma * normalQuantile(u) for a hashed draw u clamped to
 * [kLatentUMin, kLatentUMax]. Whether a read sees the cell failed is
 * one comparison against the exposure, and for almost every cell that
 * comparison is settled by bounds on normalQuantile(u) alone: the table
 * splits the clamped draw into kQuantileBins equal bins and holds, per
 * bin, a lower and an upper bound of normalQuantile over the bin. The
 * device evaluates the quantile itself only when the exposure falls
 * between the two bounds (DESIGN.md, "The retention read path").
 */

#ifndef REAPER_DRAM_QUANTILE_BRACKET_H
#define REAPER_DRAM_QUANTILE_BRACKET_H

namespace reaper {
namespace dram {

/** Range a latent failure time's uniform draw is clamped to. */
constexpr double kLatentUMin = 1e-12;
constexpr double kLatentUMax = 1.0 - 1e-12;

/** Bins of the table; bin k covers clamped draws in [k/K, (k+1)/K). */
constexpr int kQuantileBins = 4096;

/** Bounds of normalQuantile(u) over every clamped u of one bin. */
struct QuantileBracket
{
    double lo;
    double hi;
};

/** Bin of a clamped draw u in [kLatentUMin, kLatentUMax]. The product
 *  is exact (K is a power of two), so the bin edges are exact too. */
inline int
quantileBin(double u)
{
    return static_cast<int>(u * kQuantileBins);
}

/**
 * The kQuantileBins brackets, built on first use: bin k holds
 * lo = Q(edge_k) - g and hi = Q(edge_k+1) + g, where Q is normalQuantile
 * at the bin's clamped edges and g = 1e-9 * (1 + |Q|) is a guard that
 * absorbs any ulp-level non-monotonicity of Q's refinement step, so
 * lo <= normalQuantile(u) <= hi for every clamped u of the bin.
 */
const QuantileBracket *quantileBrackets();

} // namespace dram
} // namespace reaper

#endif // REAPER_DRAM_QUANTILE_BRACKET_H
