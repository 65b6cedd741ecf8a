#include "core/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "check/digest.hh"
#include "core/digest.hh"
#include "core/json_fields.hh"
#include "sim/logging.hh"

namespace jetsim::core {

namespace {

/** The cache key: format version, spec kind and every spec field. */
template <class Spec>
std::uint64_t
keyOf(const char *kind, const Spec &spec)
{
    check::Digest d;
    d.add(std::int64_t{ResultCache::kFormatVersion});
    d.add(kind);
    visitFields(spec, DigestFields{d});
    return d.value();
}

template <class Result>
void
storeIn(const ResultCache &cache, const Result &r)
{
    json::Writer w;
    w.beginObject();
    w.field("version", ResultCache::kFormatVersion);
    w.field("key", ResultCache::specKey(r.spec));
    WriteFields{w}("result", r);
    w.endObject();

    const auto path = cache.pathFor(r.spec);
    if (!json::writeFile(path, w.str()))
        sim::warn("result cache: cannot write '%s'", path.c_str());
}

template <class Result, class Spec>
std::optional<Result>
loadFrom(const ResultCache &cache, const Spec &spec)
{
    const auto text = json::readFile(cache.pathFor(spec));
    if (!text)
        return std::nullopt;
    const auto root = json::parse(*text);
    // The stored spec must echo the requested one: this guards against
    // key collisions.
    Result r;
    if (!root ||
        json::as<int>(root->find("version")) !=
            ResultCache::kFormatVersion ||
        json::as<std::uint64_t>(root->find("key")) !=
            ResultCache::specKey(spec) ||
        !ReadFields::get(root->find("result"), r) || !(r.spec == spec))
        return std::nullopt;
    return r;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    JETSIM_ASSERT(!dir_.empty());
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        sim::warn("result cache: cannot create '%s': %s",
                  dir_.c_str(), ec.message().c_str());
}

std::uint64_t
ResultCache::specKey(const ExperimentSpec &spec)
{
    return keyOf("experiment", spec);
}

std::uint64_t
ResultCache::specKey(const MixedExperimentSpec &spec)
{
    return keyOf("mixed", spec);
}

std::string
ResultCache::pathForKey(std::uint64_t key) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return dir_ + "/jetsim-" + buf + ".json";
}

std::string
ResultCache::pathFor(const ExperimentSpec &spec) const
{
    return pathForKey(specKey(spec));
}

std::string
ResultCache::pathFor(const MixedExperimentSpec &spec) const
{
    return pathForKey(specKey(spec));
}

void
ResultCache::store(const ExperimentResult &r) const
{
    storeIn(*this, r);
}

void
ResultCache::store(const MixedExperimentResult &r) const
{
    storeIn(*this, r);
}

std::optional<ExperimentResult>
ResultCache::load(const ExperimentSpec &spec) const
{
    return loadFrom<ExperimentResult>(*this, spec);
}

std::optional<MixedExperimentResult>
ResultCache::load(const MixedExperimentSpec &spec) const
{
    return loadFrom<MixedExperimentResult>(*this, spec);
}

} // namespace jetsim::core
