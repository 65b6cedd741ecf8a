/**
 * @file
 * Fleet experiments: a serving deployment over many boards on one
 * event queue.
 *
 * A FleetSpec describes a heterogeneous fleet of simulated Jetson
 * boards, each running one open-loop inference server
 * (workload::ServingProcess), plus a central load balancer that
 * receives fleet-wide Poisson traffic and dispatches requests
 * round-robin over the boards with a fixed network latency. Every
 * board's stack and the balancer share one sim::EventQueue; the
 * dispatch hops are posted as queue messages
 * (EventQueue::scheduleMessage), so a dispatch that ties a board's
 * own event at the same (tick, priority) always runs first.
 *
 * runFleet() is deterministic: equal specs give an equal
 * resultDigest(FleetResult). The `fleet_golden` ctest
 * (`simcheck --fleet-golden`) holds it to the digests committed in
 * GOLDEN_fleet.json. Parallelism across fleets, seeds and replicas
 * comes from running independent runFleet() calls side by side.
 */

#ifndef JETSIM_CORE_FLEET_HH
#define JETSIM_CORE_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::core {

/** One board of the fleet and the engine it serves. */
struct FleetDevice
{
    std::string device = "orin-nano"; ///< soc::deviceByName
    std::string model = "resnet50";   ///< models::modelByName
    soc::Precision precision = soc::Precision::Int8;
    int batch = 1;
    /** Device-local open-loop arrivals (img/s) on top of balancer
     * traffic; 0 = balancer-fed only. */
    double local_rate = 0.0;
};

/** A fleet serving deployment. */
struct FleetSpec
{
    std::vector<FleetDevice> devices;
    /** Fleet-wide Poisson arrivals (img/s) at the balancer,
     * dispatched round-robin. 0 disables the balancer. */
    double balancer_rate = 200.0;
    /** Balancer-to-device dispatch latency: the one cross-device
     * edge. */
    sim::Tick dispatch_latency = sim::usec(200);
    /**
     * Hierarchical dispatch: the root balancer routes each request
     * to a sub-balancer, which forwards it to the device after
     * fanout_latency. Requests arrive at origin + dispatch_latency +
     * fanout_latency. The two-hop path is part of the workload, so
     * the flag is digested (via label()).
     */
    bool hierarchical = false;
    /** Sub-balancer-to-device forwarding latency (hierarchical
     * fleets only). */
    sim::Tick fanout_latency = sim::usec(50);
    sim::Tick warmup = sim::msec(100);
    sim::Tick duration = sim::msec(500);
    std::uint64_t seed = 1;

    /** "fleet[256x orin-nano/resnet50/int8 b1, ...] r200 s1" style
     * tag; runs of identical boards are run-length compressed so a
     * 1000-board fleet stays one line. */
    std::string label() const;
};

/** Per-board outcome of a fleet run. */
struct FleetDeviceResult
{
    std::string name;    ///< "srv0", matching FleetSpec order
    std::string device;  ///< board name
    bool deployed = false;
    std::uint64_t arrived = 0; ///< requests reaching this board
    std::uint64_t served = 0;  ///< requests completed in the window
    double throughput = 0.0;   ///< served img/s
    double p50_ms = 0.0;       ///< request latency median
    double p99_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t max_queue = 0; ///< deepest backlog observed
};

/** Everything one fleet run produces. */
struct FleetResult
{
    FleetSpec spec;
    bool all_deployed = false;
    std::vector<FleetDeviceResult> devices;
    double total_throughput = 0.0;  ///< served img/s, fleet-wide
    double p99_ms = 0.0;            ///< fleet-wide request p99
    std::uint64_t dispatched = 0;   ///< balancer decisions (window)
    /** Events the fleet's queue executed: folded into the digest as
     * a structural check. */
    std::uint64_t events = 0;
};

/** Simulate @p spec. */
FleetResult runFleet(const FleetSpec &spec);

// Field tables (see core/experiment.hh). The order is the fleet
// digest's fold order, which GOLDEN_fleet.json records.

template <class V>
void
fieldTable(Fields<FleetDeviceResult>, V &&v)
{
    using R = FleetDeviceResult;
    v("name", &R::name);
    v("device", &R::device);
    v("deployed", &R::deployed);
    v("arrived", &R::arrived);
    v("served", &R::served);
    v("throughput", &R::throughput);
    v("p50_ms", &R::p50_ms);
    v("p99_ms", &R::p99_ms);
    v("max_ms", &R::max_ms);
    v("max_queue", &R::max_queue);
}

template <class V>
void
fieldTable(Fields<FleetResult>, V &&v)
{
    using R = FleetResult;
    v("spec", &R::spec);
    v("all_deployed", &R::all_deployed);
    v("devices", &R::devices);
    v("total_throughput", &R::total_throughput);
    v("p99_ms", &R::p99_ms);
    v("dispatched", &R::dispatched);
    v("events", &R::events);
}

} // namespace jetsim::core

#endif // JETSIM_CORE_FLEET_HH
