#include "profiling/profile.h"

#include <algorithm>

#include "common/logging.h"

namespace reaper {
namespace profiling {

void
RetentionProfile::add(const std::vector<dram::ChipFailure> &failures)
{
    if (failures.empty())
        return;
    // A read (DramModule::readAndCompare) is already strictly
    // increasing: merge it as it is. Anything else is sorted first.
    const bool strictly_increasing =
        std::adjacent_find(failures.begin(), failures.end(),
                           [](const dram::ChipFailure &a,
                              const dram::ChipFailure &b) {
                               return !(a < b);
                           }) == failures.end();
    std::vector<dram::ChipFailure> sorted;
    if (!strictly_increasing) {
        sorted = failures;
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
    }
    const std::vector<dram::ChipFailure> &in =
        strictly_increasing ? failures : sorted;
    if (cells_.empty() || cells_.back() < in.front()) {
        cells_.insert(cells_.end(), in.begin(), in.end());
        return;
    }
    std::vector<dram::ChipFailure> merged;
    merged.reserve(cells_.size() + in.size());
    std::set_union(cells_.begin(), cells_.end(), in.begin(), in.end(),
                   std::back_inserter(merged));
    cells_ = std::move(merged);
}

void
RetentionProfile::adoptSorted(std::vector<dram::ChipFailure> &&cells)
{
    for (size_t i = 1; i < cells.size(); ++i)
        if (!(cells[i - 1] < cells[i]))
            panic("RetentionProfile::adoptSorted: cells not strictly "
                  "increasing at index %zu", i);
    cells_ = std::move(cells);
}

void
RetentionProfile::merge(const RetentionProfile &other)
{
    add(other.cells_);
}

bool
RetentionProfile::contains(const dram::ChipFailure &f) const
{
    return std::binary_search(cells_.begin(), cells_.end(), f);
}

size_t
RetentionProfile::intersectionSize(
    const std::vector<dram::ChipFailure> &other) const
{
    size_t count = 0;
    auto it = cells_.begin();
    auto jt = other.begin();
    while (it != cells_.end() && jt != other.end()) {
        if (*it < *jt) {
            ++it;
        } else if (*jt < *it) {
            ++jt;
        } else {
            ++count;
            ++it;
            ++jt;
        }
    }
    return count;
}

ProfileMetrics
scoreProfile(const RetentionProfile &profile,
             const std::vector<dram::ChipFailure> &truth, Seconds runtime)
{
    ProfileMetrics m;
    m.runtime = runtime;
    m.discovered = profile.size();
    m.truthSize = truth.size();
    m.truePositives = profile.intersectionSize(truth);
    m.falsePositives = m.discovered - m.truePositives;
    m.coverage = truth.empty()
                     ? 1.0
                     : static_cast<double>(m.truePositives) /
                           static_cast<double>(truth.size());
    m.falsePositiveRate =
        m.discovered == 0 ? 0.0
                          : static_cast<double>(m.falsePositives) /
                                static_cast<double>(m.discovered);
    return m;
}

} // namespace profiling
} // namespace reaper
