#include "mc/ce.hh"

#include "core/json_fields.hh"
#include "mc/explorer.hh"
#include "mc/toylock.hh"

namespace jetsim::mc {

// Field tables (see core/experiment.hh): the file layout is derived
// from them by core::WriteFields / core::ReadFields.

template <class V>
void
fieldTable(core::Fields<DeployConfig::Proc>, V &&v)
{
    using P = DeployConfig::Proc;
    v("net", &P::model);
    v("precision", &P::precision);
    v("batch", &P::batch);
}

template <class V>
void
fieldTable(core::Fields<DeployConfig>, V &&v)
{
    using D = DeployConfig;
    v("device", &D::device);
    v("max_ecs", &D::max_ecs);
    v("pre_enqueue", &D::pre_enqueue);
    v("seed", &D::seed);
    v("max_events", &D::max_events);
    v("shared_buffer", &D::shared_buffer);
    v("procs", &D::procs);
}

template <class V>
void
fieldTable(core::Fields<CounterExample>, V &&v)
{
    using C = CounterExample;
    v("model", &C::model);
    v("what", &C::what);
    v("detail", &C::detail);
    v("ref_digest", &C::ref_digest);
    v("script", &C::script);
    v("deployment", &C::deploy);
}

bool
writeCe(const CounterExample &ce, const std::string &path)
{
    core::json::Writer w(/*pretty_depth=*/1);
    w.beginObject();
    w.field("jetmc_ce", 1);
    core::visitFields(ce, core::WriteFields{w});
    w.endObject();
    return core::json::writeFile(path, w.str() + "\n");
}

bool
readCe(const std::string &path, CounterExample &ce, std::string &err)
{
    const auto text = core::json::readFile(path);
    if (!text) {
        err = "cannot open " + path;
        return false;
    }
    const auto root = core::json::parse(*text);
    if (!root || core::json::as<int>(root->find("jetmc_ce")) != 1) {
        err = path + ": not a jetmc counterexample (v1)";
        return false;
    }
    core::ReadFields r{*root};
    core::visitFields(ce, r);
    if (r.failed) {
        err = path + ": missing or malformed '" + r.failed + "'";
        return false;
    }
    if (ce.model == "deployment" && ce.deploy.procs.empty()) {
        err = path + ": deployment CE with no processes";
        return false;
    }
    if (ce.model != "deployment" && ce.model != "toylock-inverted" &&
        ce.model != "toylock-ordered") {
        err = path + ": unknown model '" + ce.model + "'";
        return false;
    }
    return true;
}

std::unique_ptr<Model>
buildModel(const CounterExample &ce)
{
    if (ce.model == "toylock-inverted")
        return std::make_unique<ToyLockModel>(true);
    if (ce.model == "toylock-ordered")
        return std::make_unique<ToyLockModel>(false);
    return std::make_unique<DeploymentModel>(ce.deploy);
}

std::string
replayCe(const CounterExample &ce)
{
    const auto model = buildModel(ce);
    const RunOutcome out = model->run(ce.script);
    const std::string kind = failureKind(out, ce.ref_digest);
    if (kind == ce.what)
        return "";
    return "expected '" + ce.what + "' but the replay produced '" +
           (kind.empty() ? "clean run" : kind) + "'" +
           (out.detail.empty() ? "" : " (" + out.detail + ")");
}

} // namespace jetsim::mc
