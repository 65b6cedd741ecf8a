#include "core/engine_table.hh"

#include "models/zoo.hh"
#include "sim/logging.hh"
#include "soc/device_spec.hh"

namespace jetsim::core {

EngineTable::EngineTable(const MixedExperimentSpec &spec)
{
    for (const auto &w : spec.workloads)
        add(spec.device, w.model, trt::BuilderConfig{w.precision, w.batch});
}

EngineTable::EngineTable(const FleetSpec &spec)
{
    for (const auto &d : spec.devices)
        add(d.device, d.model, trt::BuilderConfig{d.precision, d.batch});
}

EngineTable::Key
EngineTable::key(const std::string &device, const std::string &model,
                 const trt::BuilderConfig &build)
{
    return {device, model, build.precision, build.batch,
            build.allow_fallback};
}

void
EngineTable::add(const std::string &device, const std::string &model,
                 const trt::BuilderConfig &build)
{
    auto &slot = engines_[key(device, model, build)];
    if (!slot)
        slot = std::make_shared<const trt::Engine>(
            trt::Builder(soc::deviceByName(device))
                .build(models::modelByName(model), build));
}

const trt::SharedEngine &
EngineTable::at(const std::string &device, const std::string &model,
                const trt::BuilderConfig &build) const
{
    const auto it = engines_.find(key(device, model, build));
    JETSIM_ASSERT(it != engines_.end());
    return it->second;
}

} // namespace jetsim::core
