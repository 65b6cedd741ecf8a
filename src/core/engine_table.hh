/**
 * @file
 * The engines of one run, built once and deployed many times.
 *
 * TensorRT deployments build a plan offline and run it from many
 * processes, each with its own ExecutionContext. An EngineTable does
 * the same for one simulated run: it builds one graph and one
 * immutable trt::Engine per distinct (device, model, precision,
 * batch) key when it is made, and every process of a cell and every
 * board of a fleet that deploys that key shares it. Building is
 * deterministic and draws no randomness, so sharing changes no
 * result. A table lives as long as its run; nothing is cached
 * between runs.
 */

#ifndef JETSIM_CORE_ENGINE_TABLE_HH
#define JETSIM_CORE_ENGINE_TABLE_HH

#include <cstddef>
#include <map>
#include <string>
#include <tuple>

#include "core/experiment.hh"
#include "core/fleet.hh"
#include "trt/builder.hh"

namespace jetsim::core {

/** One shared engine per distinct key of a run. */
class EngineTable
{
  public:
    /** The engines runMixedExperiment(@p spec) deploys. */
    explicit EngineTable(const MixedExperimentSpec &spec);

    /** The engines runFleet(@p spec) deploys. */
    explicit EngineTable(const FleetSpec &spec);

    /** The engine of @p model at @p build on @p device; the key must
     * be one the table was made for. */
    const trt::SharedEngine &at(const std::string &device,
                                const std::string &model,
                                const trt::BuilderConfig &build) const;

    /** Engines built: one per distinct key. */
    std::size_t size() const { return engines_.size(); }

  private:
    using Key = std::tuple<std::string, std::string, soc::Precision, int,
                           bool>;

    static Key key(const std::string &device, const std::string &model,
                   const trt::BuilderConfig &build);

    /** Build the key's graph and engine unless the table has it. */
    void add(const std::string &device, const std::string &model,
             const trt::BuilderConfig &build);

    std::map<Key, trt::SharedEngine> engines_;
};

} // namespace jetsim::core

#endif // JETSIM_CORE_ENGINE_TABLE_HH
