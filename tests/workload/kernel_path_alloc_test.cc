/**
 * @file
 * Heap allocations on the per-kernel path.
 *
 * A closed-loop process launches every kernel of its engine through
 * the launch chain (ExecutionContext), the thread's work FIFO, the
 * stream and the GPU channel FIFO, and the cost model times each one.
 * In steady state none of that may touch the heap: whatever a cycle
 * allocates, it allocates per EC, not per kernel. The test counts
 * global operator new calls over a measurement window for two models
 * with very different kernel counts per EC and requires the same
 * allocations per EC from both.
 *
 * This binary replaces the global allocation functions, so it holds
 * only this test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "trt/builder.hh"
#include "workload/inference_process.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n, alignof(std::max_align_t));
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace jetsim::workload {
namespace {

struct WindowAllocs
{
    std::size_t kernels_per_ec = 0;
    std::uint64_t ecs = 0;
    double per_ec = 0.0;
    std::uint64_t sbo_misses = 0;
};

/** One int8 process of @p model on an Orin Nano: warm up, then count
 * operator new calls over a one-second window. */
WindowAllocs
measure(const std::string &model)
{
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);
    ProcessConfig cfg;
    cfg.name = "proc";
    cfg.build.precision = soc::Precision::Int8;
    InferenceProcess p(board, sched, gpu, models::modelByName(model), cfg);
    EXPECT_TRUE(p.deploy());
    p.start();
    eq.runUntil(sim::msec(300));
    p.beginMeasurement();
    const std::uint64_t before = g_allocations.load();
    eq.runUntil(eq.now() + sim::sec(1));
    const std::uint64_t after = g_allocations.load();
    p.endMeasurement();
    p.stopEnqueue();

    WindowAllocs w;
    w.kernels_per_ec = p.engine().kernels().size();
    w.ecs = p.ecsCompleted();
    w.per_ec = static_cast<double>(after - before) /
               static_cast<double>(w.ecs);
    w.sbo_misses = eq.stats().sbo_misses;
    return w;
}

TEST(KernelPathAllocs, AllocationsPerEcDoNotGrowWithKernelsPerEc)
{
    const WindowAllocs shallow = measure("resnet18");
    const WindowAllocs deep = measure("yolov8n");
    ASSERT_GT(deep.kernels_per_ec, shallow.kernels_per_ec + 40);
    ASSERT_GT(shallow.ecs, 100u);
    ASSERT_GT(deep.ecs, 100u);
    // A FIFO node or a capture per kernel would add one allocation
    // every few kernels: several per EC across a 45-kernel gap.
    EXPECT_NEAR(deep.per_ec, shallow.per_ec, 0.5)
        << "resnet18: " << shallow.per_ec << " allocs/EC over "
        << shallow.kernels_per_ec << " kernels; yolov8n: " << deep.per_ec
        << " allocs/EC over " << deep.kernels_per_ec << " kernels";
    // Every callback of the loop stays on InlineFn's inline path.
    EXPECT_EQ(shallow.sbo_misses, 0u);
    EXPECT_EQ(deep.sbo_misses, 0u);
}

} // namespace
} // namespace jetsim::workload
