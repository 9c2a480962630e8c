#include "campaign/profile_store.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "campaign/error.h"
#include "common/logging.h"
#include "obs/obs.h"
#include "profiling/profile_delta.h"

namespace fs = std::filesystem;

namespace reaper {
namespace campaign {

namespace {

/** Current index header: rows are `key file cells format deltas`.
 *  The v2 header (rows without the deltas column) and the v1 header
 *  (rows without format either) are still accepted on load, so
 *  stores written by older builds open cleanly. */
constexpr const char *kIndexMagic = "REAPER-PROFILE-INDEX v3";
constexpr const char *kIndexMagicV2 = "REAPER-PROFILE-INDEX v2";
constexpr const char *kIndexMagicV1 = "REAPER-PROFILE-INDEX v1";
constexpr const char *kIndexName = "index.txt";
constexpr const char *kProfileExt = ".profile";
constexpr const char *kTmpExt = ".tmp";

/**
 * The temp file a write goes to before its rename publishes it.
 * Removed on scope exit unless markPublished(), so a failed write or
 * rename leaves nothing behind in the store directory.
 */
class TempFile
{
  public:
    explicit TempFile(const fs::path &final_path)
        : path_(fs::path(final_path) += kTmpExt)
    {
    }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;
    ~TempFile()
    {
        if (!published_) {
            std::error_code ec;
            fs::remove(path_, ec);
        }
    }
    const fs::path &path() const { return path_; }
    void markPublished() { published_ = true; }

  private:
    fs::path path_;
    bool published_ = false;
};

/** Rename with the error surfaced as a CampaignError. */
void
atomicRename(const fs::path &from, const fs::path &to)
{
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec)
        throw CampaignError("profile store: rename '" + from.string() +
                            "' -> '" + to.string() +
                            "' failed: " + ec.message());
}

bool
fileSafe(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' ||
           c == '-' || c == '@';
}

/** Split a "<base>.d<k>.profile" chain-link file name; false when the
 *  name isn't of that shape. */
bool
parseDeltaFileName(const std::string &name, std::string &baseFile,
                   uint32_t &k)
{
    size_t extLen = std::strlen(kProfileExt);
    if (name.size() <= extLen ||
        name.compare(name.size() - extLen, extLen, kProfileExt) != 0)
        return false;
    std::string stem = name.substr(0, name.size() - extLen);
    size_t pos = stem.rfind(".d");
    if (pos == std::string::npos || pos + 2 >= stem.size())
        return false;
    uint64_t num = 0;
    for (size_t i = pos + 2; i < stem.size(); ++i) {
        char c = stem[i];
        if (c < '0' || c > '9')
            return false;
        num = num * 10 + static_cast<uint64_t>(c - '0');
        if (num > 0xFFFFFFFFull)
            return false;
    }
    if (num == 0)
        return false;
    baseFile = stem.substr(0, pos) + kProfileExt;
    k = static_cast<uint32_t>(num);
    return true;
}

bool
sameConditions(const profiling::Conditions &a,
               const profiling::Conditions &b)
{
    return a.refreshInterval == b.refreshInterval &&
           a.temperature == b.temperature;
}

} // namespace

ProfileStore::ProfileStore(const std::string &dir,
                           profiling::ProfileFormat format)
    : dir_(dir), format_(format)
{
    if (format_ == profiling::ProfileFormat::DeltaV2)
        throw CampaignError("profile store: '" +
                            std::string(profiling::toString(format_)) +
                            "' is not a store format (a delta record "
                            "needs a base profile); use v2 or v1");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw CampaignError("profile store: cannot create '" + dir_ +
                            "': " + ec.message());
    loadIndex();
    scanForUnindexed();
}

std::string
ProfileStore::profileKey(const std::string &chipId,
                         const profiling::Conditions &cond)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "@trefi%.3fms@%.2fC",
                  secToMs(cond.refreshInterval), cond.temperature);
    return chipId + buf;
}

std::string
ProfileStore::fileNameForKey(const std::string &key)
{
    // Keys built from filename-safe chip ids map losslessly; anything
    // else is flattened to '_' (index recovery then sees the flattened
    // key, so prefer safe chip ids).
    std::string name = key;
    for (char &c : name)
        if (!fileSafe(c))
            c = '_';
    return name + kProfileExt;
}

std::string
ProfileStore::deltaFileName(const std::string &baseFile, uint32_t k)
{
    size_t extLen = std::strlen(kProfileExt);
    std::string stem = baseFile.size() > extLen
                           ? baseFile.substr(0, baseFile.size() - extLen)
                           : baseFile;
    return stem + ".d" + std::to_string(k) + kProfileExt;
}

void
ProfileStore::loadIndex()
{
    std::ifstream is(fs::path(dir_) / kIndexName);
    if (!is)
        return; // fresh store (or index lost; the scan recovers)
    std::string line;
    if (!std::getline(is, line))
        throw CampaignError("profile store: bad index header in '" +
                            dir_ + "'");
    bool v1 = line == kIndexMagicV1;
    bool v2 = line == kIndexMagicV2;
    if (!v1 && !v2 && line != kIndexMagic)
        throw CampaignError("profile store: bad index header in '" +
                            dir_ + "'");
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream row(line);
        StoreEntry e;
        if (!(row >> e.key >> e.file >> e.cells))
            throw CampaignError("profile store: malformed index row '" +
                                line + "'");
        if (v1) {
            // v1 rows predate the binary format: text on disk.
            e.format = profiling::ProfileFormat::TextV1;
        } else {
            std::string fmt;
            if (!(row >> fmt))
                throw CampaignError(
                    "profile store: malformed index row '" + line +
                    "'");
            common::Expected<profiling::ProfileFormat> parsed =
                profiling::parseProfileFormat(fmt);
            if (!parsed)
                throw CampaignError(
                    "profile store: malformed index row '" + line +
                    "': " + parsed.error().describe());
            e.format = parsed.value();
            if (!v2 && !(row >> e.deltas))
                throw CampaignError(
                    "profile store: malformed index row '" + line +
                    "'");
        }
        index_[e.key] = e;
    }
}

void
ProfileStore::scanForUnindexed()
{
    bool recovered = false;
    // Chain-link files found on disk, grouped by the base file they
    // claim via their name: baseFile -> (k -> path).
    std::map<std::string, std::map<uint32_t, fs::path>> chains;
    for (const auto &entry : fs::directory_iterator(dir_)) {
        if (!entry.is_regular_file())
            continue;
        const fs::path &p = entry.path();
        if (p.extension() == kTmpExt) {
            // A write that died before its rename: never published,
            // so nothing refers to it.
            warn("profile store: removing stale temp file '%s'",
                 p.string().c_str());
            std::error_code ec;
            fs::remove(p, ec);
            continue;
        }
        if (p.extension() != kProfileExt)
            continue;
        // Delta records are chain links, not standalone profiles:
        // collect them for the chain validation pass below.
        common::Expected<profiling::ProfileFormat> sniffed =
            profiling::sniffProfileFormat(p.string());
        if (sniffed &&
            sniffed.value() == profiling::ProfileFormat::DeltaV2) {
            std::string baseFile;
            uint32_t k = 0;
            if (parseDeltaFileName(p.filename().string(), baseFile,
                                   k)) {
                chains[baseFile][k] = p;
            } else {
                warn("profile store: delta record '%s' has no chain "
                     "file name; ignoring",
                     p.string().c_str());
            }
            continue;
        }
        std::string key = p.stem().string();
        if (index_.count(key))
            continue;
        // A profile committed right before a crash that lost the index
        // update: re-derive its entry from the file itself.
        common::Expected<profiling::RetentionProfile> profile =
            profiling::readProfile(
                profiling::ProfileSource::fromFile(p.string()));
        if (!profile) {
            warn("profile store: skipping unreadable '%s': %s",
                 p.string().c_str(),
                 profile.error().describe().c_str());
            continue;
        }
        StoreEntry e;
        e.key = key;
        e.file = p.filename().string();
        e.cells = profile.value().size();
        e.format = sniffed ? sniffed.value()
                           : profiling::ProfileFormat::TextV1;
        index_[key] = e;
        recovered = true;
    }
    // Entries whose backing file vanished are useless; drop them.
    for (auto it = index_.begin(); it != index_.end();) {
        if (!fs::exists(fs::path(dir_) / it->second.file)) {
            warn("profile store: dropping index entry '%s' (missing "
                 "file '%s')",
                 it->first.c_str(), it->second.file.c_str());
            it = index_.erase(it);
            recovered = true;
        } else {
            ++it;
        }
    }
    // Validate every entry's delta chain link by link (name + base
    // CRC). This both adopts a trailing delta whose index update was
    // lost in a crash, and discards stale links left behind by a
    // crashed compaction (their base CRC no longer matches the
    // rewritten base file).
    for (auto &[key, e] : index_) {
        auto found = chains.find(e.file);
        const std::map<uint32_t, fs::path> *links =
            found != chains.end() ? &found->second : nullptr;
        uint32_t valid = 0;
        std::string predFile = e.file;
        while (links != nullptr) {
            auto link = links->find(valid + 1);
            if (link == links->end())
                break;
            common::Expected<profiling::ProfileDelta> delta =
                profiling::readProfileDeltaFile(link->second.string());
            common::Expected<uint32_t> predCrc = profiling::recordFileCrc(
                (fs::path(dir_) / predFile).string());
            if (!delta || !predCrc ||
                delta.value().baseName != predFile ||
                delta.value().baseCrc != predCrc.value())
                break;
            predFile = deltaFileName(e.file, ++valid);
        }
        if (links != nullptr) {
            for (const auto &[k, path] : *links) {
                if (k <= valid)
                    continue;
                warn("profile store: removing stale delta '%s' "
                     "(broken chain link)",
                     path.string().c_str());
                std::error_code ec;
                fs::remove(path, ec);
            }
            chains.erase(found);
        }
        if (valid != e.deltas) {
            e.deltas = valid;
            common::Expected<profiling::RetentionProfile> resolved =
                resolveChainLocked(e);
            if (resolved)
                e.cells = resolved.value().size();
            else
                warn("profile store: cannot resolve chain for '%s': %s",
                     key.c_str(), resolved.error().describe().c_str());
            recovered = true;
        }
    }
    // Chain links whose base never made it into the index are
    // unusable — there is nothing to apply them to.
    for (const auto &[baseFile, links] : chains) {
        for (const auto &[k, path] : links) {
            warn("profile store: removing orphan delta '%s' (no base "
                 "entry '%s')",
                 path.string().c_str(), baseFile.c_str());
            std::error_code ec;
            fs::remove(path, ec);
        }
    }
    if (recovered)
        writeIndexLocked();
}

bool
ProfileStore::has(const std::string &key) const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return index_.count(key) != 0;
}

size_t
ProfileStore::size() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return index_.size();
}

common::Expected<profiling::RetentionProfile>
ProfileStore::load(const std::string &key) const
{
    fs::path path;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end())
            return common::Error::notFound("no profile for key '" +
                                           key + "'");
        if (it->second.deltas > 0) {
            // Chain reads stay under the shared lock: compaction
            // (exclusive) renames the base and deletes links, and a
            // half-swapped chain must never be observed.
            return resolveChainLocked(it->second);
        }
        path = fs::path(dir_) / it->second.file;
    }
    // Single-file reads happen outside the lock: commits replace
    // files with an atomic rename, so a concurrent reader sees either
    // the old or the new profile, both complete.
    return profiling::readProfile(
        profiling::ProfileSource::fromFile(path.string()));
}

common::Expected<profiling::RetentionProfile>
ProfileStore::resolveChainLocked(const StoreEntry &e) const
{
    fs::path dirp(dir_);
    common::Expected<profiling::RetentionProfile> current =
        profiling::readProfile(profiling::ProfileSource::fromFile(
            (dirp / e.file).string()));
    if (!current)
        return current;
    std::string predFile = e.file;
    for (uint32_t k = 1; k <= e.deltas; ++k) {
        std::string linkFile = deltaFileName(e.file, k);
        common::Expected<profiling::ProfileDelta> delta =
            profiling::readProfileDeltaFile(
                (dirp / linkFile).string());
        if (!delta)
            return delta.error();
        common::Expected<uint32_t> predCrc = profiling::recordFileCrc(
            (dirp / predFile).string());
        if (!predCrc)
            return predCrc.error();
        if (delta.value().baseName != predFile ||
            delta.value().baseCrc != predCrc.value())
            return common::Error::corrupt(
                "delta chain link '" + linkFile +
                "' does not match its predecessor '" + predFile + "'");
        common::Expected<profiling::RetentionProfile> next =
            profiling::applyProfileDelta(current.value(),
                                         delta.value());
        if (!next) {
            common::Error err = next.error();
            err.message =
                "delta chain link '" + linkFile + "': " + err.message;
            return err;
        }
        current = std::move(next);
        predFile = linkFile;
    }
    return current;
}

profiling::RetentionProfile
ProfileStore::loadOrProfile(
    const std::string &key,
    const std::function<profiling::RetentionProfile()> &profileFn)
{
    common::Expected<profiling::RetentionProfile> stored = load(key);
    if (stored)
        return std::move(stored).value();
    // A missing key is the expected cache-miss path; anything else
    // means the stored profile is unusable — reprofile it, loudly.
    if (stored.error().category != common::ErrorCategory::NotFound)
        warn("profile store: reprofiling '%s': %s", key.c_str(),
             stored.error().describe().c_str());
    profiling::RetentionProfile profile = profileFn();
    commit(key, profile);
    return profile;
}

void
ProfileStore::commit(const std::string &key,
                     const profiling::RetentionProfile &profile)
{
    // The whole commit (profile write, rename, index rewrite) runs
    // under the exclusive lock so two commits cannot interleave their
    // temp files or index rewrites.
    std::unique_lock<std::shared_mutex> lock(mutex_);
    commitLocked(key, profile);
}

void
ProfileStore::commitLocked(const std::string &key,
                           const profiling::RetentionProfile &profile)
{
    std::string file = fileNameForKey(key);
    fs::path final_path = fs::path(dir_) / file;
    TempFile tmp(final_path);
    common::Status written =
        profiling::writeProfileFile(profile, tmp.path().string(),
                                    format_);
    if (!written)
        throw CampaignError("profile store: commit of '" + key +
                            "' failed: " +
                            written.error().describe());
    atomicRename(tmp.path(), final_path);
    tmp.markPublished();
    // A full commit supersedes any delta chain: the rename above
    // already broke the links' base CRCs, so drop the files too.
    auto it = index_.find(key);
    uint32_t oldDeltas = it != index_.end() ? it->second.deltas : 0;
    for (uint32_t k = 1; k <= oldDeltas; ++k) {
        std::error_code ec;
        fs::remove(fs::path(dir_) / deltaFileName(file, k), ec);
    }
    index_[key] = {key, file, profile.size(), format_, 0};
    writeIndexLocked();
    REAPER_OBS_COUNT("campaign.store_commits");
}

void
ProfileStore::commitDelta(const std::string &key,
                          const profiling::RetentionProfile &profile)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = index_.find(key);
    // Delta chains need a v2 base to stack on; everything else (no
    // entry yet, a v1-text store or base file) is a full commit.
    if (it == index_.end() ||
        format_ != profiling::ProfileFormat::BinaryV2 ||
        it->second.format != profiling::ProfileFormat::BinaryV2) {
        commitLocked(key, profile);
        return;
    }
    StoreEntry &e = it->second;
    common::Expected<profiling::RetentionProfile> base =
        resolveChainLocked(e);
    if (!base) {
        warn("profile store: chain for '%s' unusable (%s); falling "
             "back to a full commit",
             key.c_str(), base.error().describe().c_str());
        commitLocked(key, profile);
        return;
    }
    profiling::ProfileDelta delta =
        profiling::diffProfiles(base.value(), profile);
    if (delta.empty() && sameConditions(base.value().conditions(),
                                        profile.conditions()))
        return; // nothing changed; don't grow the chain
    std::string predFile =
        e.deltas == 0 ? e.file : deltaFileName(e.file, e.deltas);
    common::Expected<uint32_t> predCrc =
        profiling::recordFileCrc((fs::path(dir_) / predFile).string());
    if (!predCrc) {
        warn("profile store: cannot fingerprint '%s' (%s); falling "
             "back to a full commit",
             predFile.c_str(), predCrc.error().describe().c_str());
        commitLocked(key, profile);
        return;
    }
    delta.baseName = predFile;
    delta.baseCrc = predCrc.value();

    std::string linkFile = deltaFileName(e.file, e.deltas + 1);
    fs::path final_path = fs::path(dir_) / linkFile;
    TempFile tmp(final_path);
    common::Expected<uint32_t> written =
        profiling::writeProfileDeltaFile(delta, tmp.path().string());
    if (!written)
        throw CampaignError("profile store: delta commit of '" + key +
                            "' failed: " +
                            written.error().describe());
    atomicRename(tmp.path(), final_path);
    tmp.markPublished();
    e.deltas += 1;
    e.cells = profile.size();
    writeIndexLocked();
    REAPER_OBS_COUNT("campaign.store_delta_commits");

    // Bound chain length: resolution cost and recovery time stay
    // O(kMaxDeltaChain) per key.
    if (e.deltas >= kMaxDeltaChain) {
        common::Status compacted = compactChainLocked(e);
        if (!compacted)
            warn("profile store: compaction of '%s' failed: %s",
                 key.c_str(), compacted.error().describe().c_str());
    }
}

common::Status
ProfileStore::compactChainLocked(StoreEntry &e) const
{
    common::Expected<profiling::RetentionProfile> resolved =
        resolveChainLocked(e);
    if (!resolved)
        return resolved.error();
    fs::path final_path = fs::path(dir_) / e.file;
    TempFile tmp(final_path);
    // The resolved profile goes through the same deterministic writer
    // as a direct commit, so the compacted base is byte-identical to
    // committing the resolved profile in the first place.
    common::Status written = profiling::writeProfileFile(
        resolved.value(), tmp.path().string(),
        profiling::ProfileFormat::BinaryV2);
    if (!written)
        return written;
    std::error_code ec;
    fs::rename(tmp.path(), final_path, ec);
    if (ec)
        return common::Error::io("rename '" + tmp.path().string() +
                                 "' failed: " + ec.message());
    tmp.markPublished();
    // Base first, links after: if we crash here, recovery sees links
    // whose base CRC no longer matches and discards them.
    uint32_t oldDeltas = e.deltas;
    for (uint32_t k = 1; k <= oldDeltas; ++k)
        fs::remove(fs::path(dir_) / deltaFileName(e.file, k), ec);
    e.deltas = 0;
    e.cells = resolved.value().size();
    e.format = profiling::ProfileFormat::BinaryV2;
    writeIndexLocked();
    REAPER_OBS_COUNT("campaign.store_compactions");
    return common::okStatus();
}

common::Expected<profiling::ProfileView>
ProfileStore::openView(const std::string &key) const
{
    fs::path path;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end())
            return common::Error::notFound("no profile for key '" +
                                           key + "'");
        if (it->second.format != profiling::ProfileFormat::BinaryV2)
            return common::Error::invalidConfig(
                "profile '" + key +
                "' is v1 text (no block index); use load()");
        if (it->second.deltas == 0)
            path = fs::path(dir_) / it->second.file;
    }
    if (path.empty()) {
        // A chain is pending: compact it under the exclusive lock so
        // the view covers the fully resolved cell set.
        std::unique_lock<std::shared_mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end())
            return common::Error::notFound("no profile for key '" +
                                           key + "'");
        if (it->second.deltas > 0) {
            common::Status compacted =
                compactChainLocked(it->second);
            if (!compacted)
                return compacted.error();
        }
        path = fs::path(dir_) / it->second.file;
    }
    // The open itself runs unlocked: a concurrent commit renames a
    // complete replacement file into place, and an already-open view
    // keeps its inode mapped either way.
    return profiling::ProfileView::open(path.string());
}

std::vector<StoreEntry>
ProfileStore::entries() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<StoreEntry> out;
    out.reserve(index_.size());
    for (const auto &[key, entry] : index_)
        out.push_back(entry);
    return out;
}

void
ProfileStore::writeIndexLocked() const
{
    fs::path final_path = fs::path(dir_) / kIndexName;
    TempFile tmp(final_path);
    {
        std::ofstream os(tmp.path());
        if (!os)
            throw CampaignError("profile store: cannot open '" +
                                tmp.path().string() + "' for writing");
        os << kIndexMagic << "\n";
        for (const auto &[key, entry] : index_)
            os << entry.key << " " << entry.file << " " << entry.cells
               << " " << profiling::toString(entry.format) << " "
               << entry.deltas << "\n";
        os.flush();
        if (!os)
            throw CampaignError("profile store: write to '" +
                                tmp.path().string() + "' failed");
    }
    atomicRename(tmp.path(), final_path);
    tmp.markPublished();
}

} // namespace campaign
} // namespace reaper
