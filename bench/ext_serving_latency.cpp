/**
 * @file
 * Extension bench: open-loop latency-throughput curve.
 *
 * The paper's trtexec methodology measures the capacity bound; a
 * deployment decision also needs the latency curve under offered
 * load (where is the knee, what does p99 look like near saturation).
 * This bench sweeps Poisson arrival rates against a YoloV8n int8
 * server on the Orin Nano and prints the curve, plus the effect of
 * the 15 W power mode.
 */

#include "bench_util.hh"

#include "core/fleet.hh"
#include "sim/logging.hh"

using namespace jetsim;

namespace {

/** One yolov8n int8 server on @p device fed @p rate img/s of local
 * Poisson arrivals: a one-board fleet with the balancer off. */
core::FleetDeviceResult
run(const std::string &device, double rate)
{
    core::FleetSpec spec;
    core::FleetDevice dev;
    dev.device = device;
    dev.model = "yolov8n";
    dev.local_rate = rate;
    spec.devices = {dev};
    spec.balancer_rate = 0.0;
    spec.warmup = sim::msec(500);
    spec.duration = core::env().quick ? sim::sec(1) : sim::sec(4);
    return core::runFleet(spec).devices[0];
}

} // namespace

int
main()
{
    for (const char *device : {"orin-nano", "orin-nano-15w"}) {
        prof::printHeading(std::cout,
                           std::string("Extension: open-loop serving "
                                       "curve, yolov8n int8 b1 on ") +
                               device);
        prof::Table t({"offered (img/s)", "achieved (img/s)",
                       "p50 (ms)", "p99 (ms)", "max queue"});
        for (double rate : {25.0, 50.0, 100.0, 150.0, 200.0, 250.0,
                            300.0, 400.0}) {
            std::fprintf(stderr, "  running %s @ %.0f img/s\n", device,
                         rate);
            const auto r = run(device, rate);
            if (!r.deployed)
                sim::fatal("deploy failed");
            t.addRow({prof::fmt(rate, 0), prof::fmt(r.throughput, 1),
                      prof::fmt(r.p50_ms), prof::fmt(r.p99_ms),
                      std::to_string(r.max_queue)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    std::printf("the knee of the curve - not the trtexec capacity "
                "bound - is the deployable operating point; the 15 W "
                "mode moves it right.\n");
    return 0;
}
