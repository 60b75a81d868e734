/**
 * @file
 * Heap allocations on the training hot path. This binary replaces the
 * global operator new/delete with counting forwarders to malloc/free
 * and trains perfbench's set-up configuration (the shipped Instant-3D
 * field, occupancy grid on, lego) on one thread. Once trained in, an
 * iteration must allocate a small, fixed number of times -- the
 * parallelFor closure, the occupancy refresh's block closure and, with
 * telemetry on, the per-chunk phase-time vector -- and never once per
 * ray, sample or touched entry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/instant3d_config.hh"
#include "nerf/trainer.hh"
#include "obs/telemetry.hh"
#include "scene/scene.hh"

namespace {

std::atomic<uint64_t> allocations{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(n ? n : 1);
    else if (posix_memalign(&p, align, n ? n : 1) != 0)
        p = nullptr;
    return p;
}

void *
countedAllocOrThrow(std::size_t n, std::size_t align)
{
    if (void *p = countedAlloc(n, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n, 0); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n, 0); }
void *operator new(std::size_t n, std::align_val_t a)
{ return countedAllocOrThrow(n, static_cast<std::size_t>(a)); }
void *operator new[](std::size_t n, std::align_val_t a)
{ return countedAllocOrThrow(n, static_cast<std::size_t>(a)); }
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{ return countedAlloc(n, 0); }
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{ return countedAlloc(n, 0); }
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
{ return countedAlloc(n, static_cast<std::size_t>(a)); }
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
{ return countedAlloc(n, static_cast<std::size_t>(a)); }

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{ std::free(p); }
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{ std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{ std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{ std::free(p); }
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{ std::free(p); }
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{ std::free(p); }

namespace instant3d {
namespace {

/**
 * Mean heap allocations per iteration over iterations 50-99 of a
 * 1-thread trainer on perfbench's set-up configuration.
 */
double
allocationsPerIteration(int rays_per_batch, bool telemetry)
{
    DatasetConfig dcfg;
    dcfg.numTrainViews = 8;
    dcfg.numTestViews = 2;
    dcfg.imageWidth = 28;
    dcfg.imageHeight = 28;
    Dataset data = makeDataset(makeSyntheticScene("lego"), dcfg);

    HashEncodingConfig grid;
    grid.numLevels = 5;
    grid.log2TableSize = 13;
    grid.baseResolution = 8;
    grid.growthFactor = 1.6f;
    FieldConfig fcfg = instant3dShippedConfig().makeFieldConfig(grid);
    fcfg.hiddenDim = 16;

    TrainConfig tcfg;
    instant3dShippedConfig().applyTo(tcfg);
    tcfg.useOccupancyGrid = true;
    tcfg.numThreads = 1;
    tcfg.seed = 7;
    tcfg.raysPerBatch = rays_per_batch;

    const bool was_enabled = obs::enabled();
    obs::setEnabled(telemetry);
    Trainer trainer(data, fcfg, tcfg);
    for (int i = 0; i < 50; i++)
        trainer.trainIteration();
    const uint64_t before = allocations.load(std::memory_order_relaxed);
    for (int i = 50; i < 100; i++)
        trainer.trainIteration();
    const uint64_t after = allocations.load(std::memory_order_relaxed);
    obs::setEnabled(was_enabled);
    return static_cast<double>(after - before) / 50.0;
}

TEST(HotPathAllocTest, TrainingIterationAllocatesAFixedSmallAmount)
{
    for (bool telemetry : {true, false}) {
        const double small = allocationsPerIteration(64, telemetry);
        const double large = allocationsPerIteration(192, telemetry);
        EXPECT_LE(small, 4.0) << "telemetry " << telemetry;
        EXPECT_LE(large, 4.0) << "telemetry " << telemetry;
        EXPECT_LE(large, small)
            << "allocations grow with raysPerBatch, telemetry "
            << telemetry;
    }
}

} // namespace
} // namespace instant3d
