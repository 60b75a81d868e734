/**
 * @file
 * The six-step NeRF training loop (paper Sec 2.1, Fig 2):
 *   1. randomly sample pixels as a batch
 *   2. map pixels to rays
 *   3. query features of points along the rays (grid + MLP)
 *   4. predict pixel colors by volume rendering
 *   5. squared-error loss against ground truth
 *   6. back-propagate and update
 *
 * The trainer owns the field, the per-group Adam states, and the
 * update-frequency schedule (F_D : F_C) of the Instant-3D algorithm.
 *
 * Execution model: the ray batch is split into a fixed number of
 * chunks (gradShards) processed by a thread pool. Each ray draws from
 * its own RNG stream keyed by (seed, iteration, ray index), each chunk
 * accumulates gradients into its own shard, and each grid entry takes
 * its shards' values in fixed chunk order -- so training is
 * bit-identical for any thread count. The reduce and the sparse Adam
 * sweep also spread over the pool, in fixed blocks of table entries
 * that no two tasks share. Grid trace sinks remain usable: a traced
 * iteration runs the same chunk loop serially, chunks in order on the
 * calling thread and one ray per stream, so every ray's reads precede
 * its writes and the sinks see program order.
 */

#ifndef INSTANT3D_NERF_TRAINER_HH
#define INSTANT3D_NERF_TRAINER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "kernels/kernel_backend.hh"
#include "common/workspace.hh"
#include "nerf/adam.hh"
#include "nerf/renderer.hh"
#include "nerf/serialize.hh"
#include "scene/dataset.hh"

namespace instant3d {

/** Training-loop configuration. */
struct TrainConfig
{
    int raysPerBatch = 192;
    int samplesPerRay = 48;
    AdamConfig adam;

    /**
     * Update periods in iterations: the branch's parameters receive a
     * back-propagated update every Nth iteration. F_D : F_C = 1 : 0.5
     * means densityUpdatePeriod = 1, colorUpdatePeriod = 2 (the color
     * grid "is updated every two iterations", Sec 5.1).
     */
    int densityUpdatePeriod = 1;
    int colorUpdatePeriod = 1;

    /** Enable Instant-NGP-style occupancy-grid empty-space skipping. */
    bool useOccupancyGrid = false;
    int occupancyUpdatePeriod = 16; //!< Grid refresh interval (iters, >= 1).
    OccupancyGridConfig occupancy;

    /**
     * Worker threads for training and rendering; 0 = auto (the
     * INSTANT3D_THREADS environment variable, else hardware
     * concurrency). Results are bit-identical for any value.
     */
    int numThreads = 0;

    /**
     * Number of gradient shards == ray chunks per batch. This (not the
     * thread count) fixes the floating-point reduction order, so it is
     * part of the determinism contract: changing it changes results,
     * changing numThreads never does. It also caps usable parallelism
     * within one training iteration.
     */
    int gradShards = 8;

    /**
     * Step the grid parameter groups with the sparse lazy Adam: the
     * optimizer visits only the entries this iteration's scatters
     * touched (the dirty union of the shard touch bitmaps) plus the
     * entries still carrying momentum from earlier touches, and the
     * gradient clear visits only the touched entries -- never the full
     * tables. Entries with zero momentum owe only bit-exact no-op
     * updates, so training is bit-identical to the dense optimizer at
     * every iteration. Active when adam.l2Reg == 0 (weight decay makes
     * untouched gradients nonzero); the MLP groups stay dense.
     */
    bool sparseOptimizer = true;

    /**
     * Kernel backend for the batched hot-path kernels: "simd" (the
     * order-preserving vectorized loops) or "scalar_ref" (the
     * reference loops). The INSTANT3D_KERNEL_BACKEND environment
     * variable overrides this field; any other name is fatal. See
     * src/kernels/kernel_backend.hh for the determinism contract.
     */
    std::string kernelBackend = "simd";

    uint64_t seed = 42;
};

/** Per-iteration statistics returned by trainIteration(). */
struct TrainStats
{
    double loss = 0.0;          //!< Mean squared error of the batch.
    uint64_t pointsQueried = 0; //!< Field queries this iteration.
    bool densityUpdated = false;
    bool colorUpdated = false;

    /**
     * Touched grid entries stepped by the sparse optimizer this
     * iteration (0 when stepping densely) -- the per-iteration work
     * the sparse path pays instead of the full table scan.
     */
    uint64_t sparseEntriesStepped = 0;
};

/**
 * Trains a NerfField against a ground-truth Dataset.
 */
class Trainer
{
  public:
    Trainer(const Dataset &dataset, const FieldConfig &field_config,
            const TrainConfig &train_config);

    /** Run one full training iteration (Steps 1-6). */
    TrainStats trainIteration();

    int iteration() const { return iter; }
    NerfField &field() { return *fieldPtr; }
    const VolumeRenderer &renderer() const { return *rendererPtr; }

    /** Worker threads in use (after auto resolution). */
    int threadCount() const { return pool->threadCount(); }

    /** Resolved kernel-backend name (after env resolution). */
    const char *kernelBackendName() const { return backend->name(); }

    /** The occupancy grid, or nullptr when skipping is disabled. */
    const OccupancyGrid *occupancyGrid() const
    { return occupancyPtr.get(); }

    /**
     * Settle any deferred sparse-optimizer updates so the field's
     * parameters equal the dense-Adam trajectory at the current step.
     * The trainer settles after every optimizer step, so this is a
     * cheap no-op in normal operation; rendering and eval still call
     * it defensively. Never changes subsequent training results.
     */
    void syncParams();

    /** True when the grid groups use the sparse lazy optimizer. */
    bool sparseOptimizerActive() const { return sparseActive; }

    /**
     * Checkpoint the live model: settle any deferred sparse-optimizer
     * updates (syncParams()), then serialize the field plus the
     * occupancy grid (when one is attached). This is the supported way
     * to snapshot a *training* model -- calling saveField() directly on
     * a live sparse-Adam trainer would bypass the settling step and
     * could observe parameters that still owe catch-up updates.
     * Returns CheckpointError::None on success; never changes training
     * results. The write is crash-safe (temp file + atomic rename).
     */
    CheckpointError saveCheckpoint(const std::string &path);

    /**
     * Entries currently in the sparse optimizers' sweep sets (all grid
     * groups summed) -- the per-iteration optimizer work beyond the
     * touched entries. 0 when stepping densely.
     */
    size_t sparseActiveEntries() const;

    /** Render an RGB image of the current field from a camera. */
    Image renderImage(const Camera &camera);

    /** Render a depth map of the current field from a camera. */
    std::vector<float> renderDepth(const Camera &camera);

    /** Average RGB PSNR over the dataset's test views. */
    double evalPsnr();

    /**
     * Average depth-map PSNR over the test views (the paper's proxy for
     * density quality, Fig 5); normalized by tFar.
     */
    double evalDepthPsnr();

    /** Total field queries since construction (workload accounting). */
    uint64_t totalPointsQueried() const { return pointsTotal; }

  private:
    bool dueThisIteration(int period) const;

    /**
     * Steps 1-2 of the loop: draw one training pixel (view, column,
     * row) and the jittered ray through it from the ray's own `rng`.
     */
    void sampleTrainingRay(Rng &rng, Ray &ray, Vec3 &gt) const;

    void forEachPixel(
        const Camera &camera,
        const std::function<void(int, int, const RayResult &)> &emit);

    const Dataset &data;
    TrainConfig cfg;
    std::unique_ptr<NerfField> fieldPtr;
    std::unique_ptr<VolumeRenderer> rendererPtr;
    std::unique_ptr<OccupancyGrid> occupancyPtr;
    std::vector<std::unique_ptr<Adam>> optimizers;
    std::vector<ParamGroupId> groups;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<KernelBackend> backend;
    std::vector<Workspace> workspaces;    //!< One per thread rank.
    std::vector<FieldGradients> shards;   //!< One per ray chunk.
    std::vector<double> chunkLoss;
    Rng rng; //!< Draws the occupancy refresh rounds' keys.
    int iter = 0;
    uint64_t pointsTotal = 0;
    bool sparseActive = false;
};

} // namespace instant3d

#endif // INSTANT3D_NERF_TRAINER_HH
