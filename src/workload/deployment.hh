/**
 * @file
 * What deploying one process on a shared engine creates.
 *
 * Both process kinds deploy the same way: pin the CUDA runtime's
 * per-process overhead, pin the engine's device footprint, then open
 * a stream and an ExecutionContext on the shared plan. Memory is
 * accounted per process even though the plan is built once, so
 * unified-memory use and OOM verdicts match one engine per process.
 */

#ifndef JETSIM_WORKLOAD_DEPLOYMENT_HH
#define JETSIM_WORKLOAD_DEPLOYMENT_HH

#include <memory>
#include <string>

#include "cuda/device_buffer.hh"
#include "cuda/stream.hh"
#include "trt/execution_context.hh"

namespace jetsim::workload {

/** One process's deployed state on a shared engine. */
class Deployment
{
  public:
    /**
     * Pin memory for process @p name, then create its stream and
     * context on @p engine (which must outlive the deployment).
     * @return nullptr when unified memory cannot hold the deployment.
     */
    static std::unique_ptr<Deployment>
    tryCreate(soc::Board &board, gpu::GpuEngine &gpu, cpu::Thread &thread,
              const trt::Engine &engine, const std::string &name);

    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;

    trt::ExecutionContext &context() { return ctx_; }

    /** Device bytes pinned (runtime overhead + engine footprint). */
    sim::Bytes
    deviceBytes() const
    {
        return runtime_mem_.size() + engine_mem_.size();
    }

  private:
    Deployment(cuda::DeviceBuffer runtime_mem, cuda::DeviceBuffer engine_mem,
               soc::Board &board, gpu::GpuEngine &gpu, cpu::Thread &thread,
               const trt::Engine &engine, const std::string &name);

    // Declared after the stream it uses, the context is destroyed
    // before it.
    cuda::Stream stream_;
    trt::ExecutionContext ctx_;
    cuda::DeviceBuffer runtime_mem_;
    cuda::DeviceBuffer engine_mem_;
};

} // namespace jetsim::workload

#endif // JETSIM_WORKLOAD_DEPLOYMENT_HH
