#include "trt/execution_context.hh"

#include "sim/logging.hh"

namespace jetsim::trt {

namespace {

/** Launch-API cost jitter (coefficient of variation). */
constexpr double kLaunchCv = 0.35;

/** Mean launch-API CPU cost on @p board right now. */
double
launchMean(const soc::Board &board)
{
    return static_cast<double>(board.spec().runtime.launch_cpu_cost) *
           board.launchOverheadFactor();
}

} // namespace

ExecutionContext::ExecutionContext(const Engine &engine,
                                   cuda::Stream &stream,
                                   cpu::Thread &thread,
                                   soc::Board &board)
    : engine_(engine), stream_(stream), thread_(thread), board_(board),
      rng_(board.rng().fork("ec-" + engine.model())),
      launch_law_(launchMean(board), kLaunchCv)
{
    JETSIM_ASSERT(!engine_.kernels().empty());
}

void
ExecutionContext::enqueue(DoneFn done, std::function<void()> cpu_done)
{
    JETSIM_ASSERT(!launching_); // enqueues must not overlap
    ++invocations_;
    launching_ = std::make_unique<Pending>();
    launching_->rec.enqueue_begin = board_.eq().now();
    launching_->rec.kernels = static_cast<int>(engine_.kernels().size());
    launching_->done = std::move(done);
    launching_->cpu_done = std::move(cpu_done);
    launchNext(0);
}

void
ExecutionContext::launchNext(std::size_t i)
{
    auto &eq = board_.eq();

    if (i == engine_.kernels().size()) {
        // The chain is over: the EC leaves the member (so cpu_done
        // may enqueue the next one) and lives on in its completion.
        std::unique_ptr<Pending> p = std::move(launching_);
        p->rec.enqueue_end = eq.now();
        auto cpu_done = std::move(p->cpu_done);
        // Wait for everything this EC submitted (stream is FIFO and
        // the caller serialises enqueues, so the tail is ours).
        stream_.onComplete(stream_.submitted(), [this, p = std::move(p)] {
            p->rec.gpu_done = board_.eq().now();
            if (p->done)
                p->done(p->rec);
        });
        if (cpu_done)
            cpu_done();
        return;
    }

    const sim::Tick t0 = eq.now();
    const double mean = launchMean(board_);
    if (mean != launch_law_.mean())
        launch_law_ = sim::Lognormal(mean, kLaunchCv);
    // Bounded draw (sim::kLognormalEnvelope): launch-API worst cases
    // are provable, not just unlikely (src/absint).
    const auto cost = static_cast<sim::Tick>(rng_.draw(launch_law_));
    thread_.exec(cost, [this, i, t0] {
        stream_.launch(&engine_.kernels()[i]);
        launching_->rec.launch_api_total += board_.eq().now() - t0;
        launchNext(i + 1);
    });
}

} // namespace jetsim::trt
