#include "core/fleet.hh"

#include <cstdio>
#include <memory>

#include "core/engine_table.hh"
#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "prof/cdf.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "soc/board.hh"
#include "soc/device_spec.hh"
#include "workload/serving_process.hh"

namespace jetsim::core {

std::string
FleetSpec::label() const
{
    // Runs of identical boards are run-length compressed ("256x
    // orin-nano/mobilenet_v2/int8 b1") so thousand-board fleet
    // labels stay one line.
    const auto same = [](const FleetDevice &a, const FleetDevice &b) {
        return a.device == b.device && a.model == b.model &&
               a.precision == b.precision && a.batch == b.batch &&
               a.local_rate == b.local_rate;
    };
    std::string s = "fleet[";
    for (std::size_t i = 0; i < devices.size();) {
        const auto &d = devices[i];
        std::size_t run = 1;
        while (i + run < devices.size() &&
               same(d, devices[i + run]))
            ++run;
        if (i)
            s += " + ";
        char buf[160];
        if (run > 1) {
            std::snprintf(buf, sizeof(buf), "%zux ", run);
            s += buf;
        }
        std::snprintf(buf, sizeof(buf), "%s/%s/%s b%d",
                      d.device.c_str(), d.model.c_str(),
                      soc::name(d.precision), d.batch);
        s += buf;
        if (d.local_rate > 0.0) {
            std::snprintf(buf, sizeof(buf), " l%g", d.local_rate);
            s += buf;
        }
        i += run;
    }
    char tail[128];
    std::snprintf(tail, sizeof(tail), "] r%g d%gus s%llu",
                  balancer_rate, sim::toUsec(dispatch_latency),
                  static_cast<unsigned long long>(seed));
    s += tail;
    if (hierarchical) {
        std::snprintf(tail, sizeof(tail), " h%gus",
                      sim::toUsec(fanout_latency));
        s += tail;
    }
    return s;
}

namespace {

/** One board's full simulation stack on the fleet's queue. */
struct Node
{
    Node(const FleetDevice &d, sim::EventQueue &eq, std::uint64_t seed)
        : board(soc::deviceByName(d.device), eq, seed), sched(board),
          gpu(board)
    {
        workload::ServingConfig cfg;
        cfg.name = "srv"; // per-fleet index appended by caller
        cfg.build.precision = d.precision;
        cfg.build.batch = d.batch;
        cfg.arrival_rate = d.local_rate; // 0 = balancer-fed only
        srv_cfg = cfg;
    }

    soc::Board board;
    cpu::OsScheduler sched;
    gpu::GpuEngine gpu;
    workload::ServingConfig srv_cfg;
    std::unique_ptr<workload::ServingProcess> srv;
};

/**
 * The central dispatcher: fleet-wide Poisson arrivals, round-robin
 * over deployed boards, each decision posted as a queue message with
 * the spec's dispatch latency.
 *
 * Messages carry the explicit seq (hop << 32) | per-hop counter in
 * EventQueue's message band: hop 0 is the root dispatch, hop 1 the
 * hierarchical sub-balancer's forward. A dispatch therefore beats
 * any board event tied with it at the same (tick, priority), and a
 * root message beats a tied forward. GOLDEN_fleet.json encodes this
 * order.
 */
struct Balancer
{
    enum Hop : int { kRoot = 0, kSub = 1 };

    sim::EventQueue &eq;
    sim::Rng rng;
    double rate;
    sim::Tick latency;
    sim::Tick fanout; ///< sub->device hop (hierarchical only)
    bool hierarchical;
    /** Deployed servers in device order — the round-robin ring. */
    std::vector<workload::ServingProcess *> targets;
    std::size_t next = 0;
    bool measuring = false;
    bool stopped = false;
    std::uint64_t dispatched = 0;
    std::uint32_t sent[2] = {0, 0}; ///< per-hop message counters

    void
    scheduleNext()
    {
        eq.scheduleIn(workload::poissonGap(rng, rate),
                      [this] { onArrival(); });
    }

    void
    post(Hop hop, sim::Tick when, sim::EventQueue::Callback cb)
    {
        const std::uint64_t seq =
            (static_cast<std::uint64_t>(hop) << 32) | sent[hop]++;
        eq.scheduleMessage(when, std::move(cb),
                           sim::EventQueue::kPriDefault, seq);
    }

    void
    onArrival()
    {
        if (stopped)
            return;
        workload::ServingProcess *srv = targets[next];
        next = (next + 1) % targets.size();
        if (measuring)
            ++dispatched;
        // The request's latency clock starts here.
        const sim::Tick origin = eq.now();
        if (!hierarchical) {
            post(kRoot, origin + latency,
                 [srv, origin] { srv->injectArrival(origin); });
        } else {
            post(kRoot, origin + latency, [this, srv, origin] {
                post(kSub, eq.now() + fanout,
                     [srv, origin] { srv->injectArrival(origin); });
            });
        }
        scheduleNext();
    }
};

/** Sum @p xs by folding halves (x[i] += x[i + half]) down to x[0]:
 * the fleet throughput's fixed, digested summation order. */
double
foldHalves(std::vector<double> xs)
{
    for (std::size_t width = xs.size(); width > 1;) {
        const std::size_t half = (width + 1) / 2;
        for (std::size_t i = 0; i + half < width; ++i)
            xs[i] += xs[i + half];
        width = half;
    }
    return xs.empty() ? 0.0 : xs[0];
}

} // namespace

FleetResult
runFleet(const FleetSpec &spec)
{
    JETSIM_ASSERT(!spec.devices.empty());
    JETSIM_ASSERT(spec.dispatch_latency >= 1);
    JETSIM_ASSERT(!spec.hierarchical || spec.fanout_latency >= 1);

    const int n = static_cast<int>(spec.devices.size());
    sim::EventQueue eq;

    FleetResult res;
    res.spec = spec;
    res.all_deployed = true;

    // One graph and engine per distinct board key, shared by every
    // board that serves it.
    const EngineTable engines(spec);

    // Boards in spec order; the seed stride keeps per-board RNG
    // streams independent of fleet size.
    std::vector<std::unique_ptr<Node>> nodes;
    nodes.reserve(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
        const auto &dev = spec.devices[static_cast<std::size_t>(d)];
        auto node = std::make_unique<Node>(
            dev, eq, spec.seed * 1000003 + static_cast<std::uint64_t>(d));
        node->board.start();
        node->srv_cfg.name = "srv" + std::to_string(d);
        node->srv = std::make_unique<workload::ServingProcess>(
            node->board, node->sched, node->gpu,
            engines.at(dev.device, dev.model, node->srv_cfg.build),
            node->srv_cfg);
        if (!node->srv->deploy())
            res.all_deployed = false;
        nodes.push_back(std::move(node));
    }

    Balancer bal{eq,
                 sim::Rng(spec.seed).fork("fleet-balancer"),
                 spec.balancer_rate,
                 spec.dispatch_latency,
                 spec.fanout_latency,
                 spec.hierarchical,
                 {}};
    for (auto &node : nodes)
        if (node->srv->deployed()) {
            bal.targets.push_back(node->srv.get());
            node->srv->start();
        }
    if (spec.balancer_rate > 0.0 && !bal.targets.empty())
        bal.scheduleNext();

    eq.runUntil(spec.warmup);
    for (auto &node : nodes)
        node->srv->beginMeasurement();
    bal.measuring = true;
    eq.runUntil(spec.warmup + spec.duration);
    bal.measuring = false;
    bal.stopped = true;
    for (auto &node : nodes) {
        node->srv->endMeasurement();
        node->srv->stopArrivals();
    }

    std::vector<double> throughputs(static_cast<std::size_t>(n), 0.0);
    prof::Cdf fleet_latency; // quantiles sort: add order is free
    for (int d = 0; d < n; ++d) {
        const auto &srv = *nodes[static_cast<std::size_t>(d)]->srv;
        FleetDeviceResult r;
        r.name = "srv" + std::to_string(d);
        r.device = spec.devices[static_cast<std::size_t>(d)].device;
        r.deployed = srv.deployed();
        if (r.deployed) {
            r.arrived = srv.arrived();
            r.served = srv.served();
            r.throughput = srv.achievedThroughput();
            const auto &lat = srv.requestLatency();
            if (!lat.empty()) {
                r.p50_ms = sim::toMsec(
                    static_cast<sim::Tick>(lat.quantile(0.5)));
                r.p99_ms = sim::toMsec(
                    static_cast<sim::Tick>(lat.quantile(0.99)));
                r.max_ms =
                    sim::toMsec(static_cast<sim::Tick>(lat.max()));
            }
            for (const double x : lat.samples())
                fleet_latency.add(x);
            r.max_queue = srv.maxQueueDepth();
            throughputs[static_cast<std::size_t>(d)] = r.throughput;
        }
        res.devices.push_back(r);
    }
    res.total_throughput = foldHalves(std::move(throughputs));
    if (!fleet_latency.empty())
        res.p99_ms = sim::toMsec(
            static_cast<sim::Tick>(fleet_latency.quantile(0.99)));
    res.dispatched = bal.dispatched;
    res.events = eq.executed();
    return res;
}

} // namespace jetsim::core
