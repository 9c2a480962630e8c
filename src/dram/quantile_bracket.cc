#include "dram/quantile_bracket.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/math_util.h"

namespace reaper {
namespace dram {

namespace {

using BracketTable = std::array<QuantileBracket, kQuantileBins>;

double
guard(double q)
{
    return 1e-9 * (1.0 + std::fabs(q));
}

BracketTable
buildBrackets()
{
    BracketTable table{};
    for (int k = 0; k < kQuantileBins; ++k) {
        double lower = std::max(static_cast<double>(k) / kQuantileBins,
                                kLatentUMin);
        double upper = std::min(
            static_cast<double>(k + 1) / kQuantileBins, kLatentUMax);
        double q_lo = normalQuantile(lower);
        double q_hi = normalQuantile(upper);
        table[k] = {q_lo - guard(q_lo), q_hi + guard(q_hi)};
    }
    return table;
}

} // namespace

const QuantileBracket *
quantileBrackets()
{
    static const BracketTable table = buildBrackets();
    return table.data();
}

} // namespace dram
} // namespace reaper
