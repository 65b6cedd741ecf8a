#include "core/digest.hh"

namespace jetsim::core {

std::uint64_t
resultDigest(const ExperimentResult &r)
{
    check::Digest d;
    visitFields(r, DigestFields{d});
    return d.value();
}

std::uint64_t
resultDigest(const MixedExperimentResult &r)
{
    check::Digest d;
    visitFields(r, DigestFields{d});
    return d.value();
}

std::uint64_t
resultDigest(const FleetResult &r)
{
    check::Digest d;
    d.add(r.spec.label());
    d.add(std::uint64_t{r.all_deployed});
    for (const auto &dev : r.devices) {
        d.add(dev.name);
        d.add(dev.device);
        d.add(std::uint64_t{dev.deployed});
        d.add(dev.arrived);
        d.add(dev.served);
        d.add(dev.throughput);
        d.add(dev.p50_ms);
        d.add(dev.p99_ms);
        d.add(dev.max_ms);
        d.add(dev.max_queue);
    }
    d.add(r.total_throughput);
    d.add(r.p99_ms);
    d.add(r.dispatched);
    // Structural check: the same simulation executes the same
    // number of events.
    d.add(r.events);
    return d.value();
}

} // namespace jetsim::core
