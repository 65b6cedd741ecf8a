#include "workload/deployment.hh"

namespace jetsim::workload {

std::unique_ptr<Deployment>
Deployment::tryCreate(soc::Board &board, gpu::GpuEngine &gpu,
                      cpu::Thread &thread, const trt::Engine &engine,
                      const std::string &name)
{
    auto &mem = board.memory();
    auto runtime_mem = cuda::DeviceBuffer::tryAlloc(
        mem, name, board.spec().memory.process_runtime_overhead);
    if (!runtime_mem)
        return nullptr;
    auto engine_mem =
        cuda::DeviceBuffer::tryAlloc(mem, name, engine.deviceBytes());
    if (!engine_mem)
        return nullptr;
    return std::unique_ptr<Deployment>(
        new Deployment(std::move(*runtime_mem), std::move(*engine_mem),
                       board, gpu, thread, engine, name));
}

Deployment::Deployment(cuda::DeviceBuffer runtime_mem,
                       cuda::DeviceBuffer engine_mem, soc::Board &board,
                       gpu::GpuEngine &gpu, cpu::Thread &thread,
                       const trt::Engine &engine, const std::string &name)
    : stream_(gpu, name), ctx_(engine, stream_, thread, board),
      runtime_mem_(std::move(runtime_mem)),
      engine_mem_(std::move(engine_mem))
{
}

} // namespace jetsim::workload
