/**
 * @file
 * Differentiable volume rendering (paper Eq. 1, Steps 3-4 forward and
 * their back-propagation in Step 6).
 *
 * Points are sampled along each ray (stratified when a jitter RNG is
 * given), queried through the NerfField, and alpha-composited:
 *
 *     alpha_k = 1 - exp(-sigma_k * dt_k)
 *     T_k     = prod_{j<k} (1 - alpha_j)
 *     C(r)    = sum_k T_k * alpha_k * c_k  (+ background * T_N)
 *
 * backwardRay() propagates dL/dC to every sample's sigma and color and
 * on into the field.
 */

#ifndef INSTANT3D_NERF_RENDERER_HH
#define INSTANT3D_NERF_RENDERER_HH

#include <vector>

#include "common/rng.hh"
#include "common/vec3.hh"
#include "nerf/field.hh"
#include "nerf/occupancy_grid.hh"
#include "scene/camera.hh"

namespace instant3d {

class KernelBackend;

/** Ray-marching configuration for the learned field. */
struct RendererConfig
{
    float tNear = 0.05f;
    float tFar = 2.2f;
    int samplesPerRay = 48;      //!< N points queried per ray (Step 3).
    Vec3 background{0, 0, 0};
    float earlyStopTransmittance = 1e-4f; //!< Stop marching below this.

    /**
     * Samples whose back-propagated gradients are all below this
     * magnitude (e.g. fully occluded points behind an opaque surface)
     * are skipped during backward, as in Instant-NGP's CUDA kernels.
     * This concentrates BP grid writes near surfaces, producing the
     * shared-address behaviour the paper observes in Fig 10.
     */
    float gradientSkipThreshold = 1e-6f;
};

/** Composited output of one ray. */
struct RayResult
{
    Vec3 color;
    float depth = 0.0f;   //!< Transmittance-weighted expected distance.
    float opacity = 0.0f; //!< 1 - final transmittance.
};

/** Forward context of one rendered ray, consumed by backwardRay(). */
struct RayRecord
{
    struct Sample
    {
        FieldRecord field;
        float t = 0.0f;
        float dt = 0.0f;
        float sigma = 0.0f;
        float alpha = 0.0f;
        float transmittance = 0.0f; //!< T_k before this sample.
        Vec3 rgb;
    };
    std::vector<Sample> samples;
    float finalTransmittance = 1.0f;
};

/**
 * Chunk-level occupancy-compacted sample stream (arena-backed SoA,
 * valid until the Workspace resets). marchRays() walks a chunk of rays
 * against the occupancy grid and emits only the surviving samples as
 * one flat buffer with per-ray (offset, count) spans; every downstream
 * kernel (field query, compositing, backward) then runs once over the
 * whole stream instead of once per ray.
 */
struct SampleStream
{
    int numRays = 0;
    int totalSamples = 0;    //!< Samples surviving empty-space skipping.
    RaySpan *spans = nullptr;
    Vec3 *pts = nullptr;     //!< [totalSamples] sample positions.
    float *ts = nullptr;     //!< [totalSamples] ray parameters.
    Vec3 *dirs = nullptr;    //!< [numRays] ray directions.
    float dt = 0.0f;         //!< Uniform step length.
};

/**
 * Forward context of one composited stream, consumed by
 * backwardStream(). Per-sample arrays are stream-indexed; finalTrans
 * is per ray.
 */
struct StreamRecord
{
    FieldBatchRecord field;
    float *alpha = nullptr;
    float *trans = nullptr;      //!< T_k before each sample.
    Vec3 *rgb = nullptr;
    float *finalTrans = nullptr; //!< [numRays] post-march transmittance.
};

/**
 * Stateless renderer over a NerfField.
 */
class VolumeRenderer
{
  public:
    explicit VolumeRenderer(const RendererConfig &config) : cfg(config) {}

    const RendererConfig &config() const { return cfg; }

    /**
     * Attach an occupancy grid for empty-space skipping (nullptr
     * detaches): samples in unoccupied cells are never queried, which
     * is Instant-NGP's main sampling optimization and directly reduces
     * Step 3-1 traffic.
     */
    void setOccupancyGrid(const OccupancyGrid *grid) { occupancy = grid; }

    /**
     * Route the stream composite kernels (renderStream's per-ray
     * compositing and backwardStream's suffix recursion) through the
     * given kernel backend; nullptr means simd. The scalar
     * renderRay/backwardRay pair stays on its own loops.
     */
    void setKernelBackend(const KernelBackend *backend)
    { kernelBackend = backend; }

    /**
     * March one ray through the field.
     * @param jitter  If non-null, stratified-jitters sample positions
     *                (training); otherwise samples at bin centers (eval).
     * @param rec     If non-null, filled for backwardRay(). Early-stop
     *                is disabled when recording so gradients reach all
     *                samples.
     */
    RayResult renderRay(NerfField &field, const Ray &ray,
                        Rng *jitter = nullptr,
                        RayRecord *rec = nullptr) const;

    /**
     * Back-propagate dL/dC(r) through the compositing equation and the
     * field. update_density / update_color select branches (Sec 3.3).
     */
    void backwardRay(NerfField &field, const RayRecord &rec,
                     const Vec3 &d_color, bool update_density = true,
                     bool update_color = true) const;

    /**
     * The eval march (bin centers, occupancy skipping, early stop),
     * run by Trainer::renderImage/renderDepth one ray per call and by
     * the render service over whole chunks, with all scratch from ws.
     * Rays advance in lockstep 16-bin blocks; each block's surviving
     * samples from *all* still-alive rays form one compacted stream
     * queried with a single NerfField::queryStream call, and rays
     * whose transmittance crosses the early-stop threshold drop out of
     * later blocks. The compositing fold is per ray and in t order, so
     * results[r] is bit-identical for ANY batch composition in every
     * build -- the property the render service's cross-request
     * batching relies on. It equals renderRay on ray r where the
     * compiler contracts no mul+add into an FMA, and is within the
     * kernel backends' tolerance otherwise. The query count (and an
     * attached trace) may overshoot the composited samples by up to
     * one block per ray.
     */
    void renderRays(NerfField &field, const Ray *rays, int numRays,
                    RayResult *results, Workspace &ws) const;

    /**
     * Stage 1 of the training hot path: march a chunk of rays against
     * the occupancy grid, drawing each ray's stratified jitter from its
     * own RNG stream (rngs[r]; nullptr = bin centers), and emit the
     * surviving samples as a flat stream. Each ray draws one jitter
     * per sample bin, all before the occupancy filter -- the same
     * draws renderRay makes -- so a ray's samples do not depend on
     * which other rays share its stream.
     */
    void marchRays(const Ray *rays, int numRays, Rng *rngs,
                   SampleStream &stream, Workspace &ws) const;

    /**
     * Stages 2-3: one NerfField::queryStream over the whole stream,
     * then per-ray alpha compositing (results[r] is bit-equal to
     * rendering a stream that holds ray r alone). `rec` is required:
     * it is filled for backwardStream(), and no ray stops early, so
     * gradients reach all samples.
     */
    void renderStream(NerfField &field, const SampleStream &stream,
                      RayResult *results, StreamRecord *rec,
                      Workspace &ws) const;

    /**
     * Stage 4: per-ray suffix recursion (the arithmetic of backwardRay)
     * producing the stream's (d_sigma, d_rgb, skip) arrays, then one
     * NerfField::backwardStream in ray-ascending, sample-descending
     * order -- bit-identical gradients to backward passes over one-ray
     * streams taken in ray order. Accumulates into the required
     * `target` shard set.
     */
    void backwardStream(NerfField &field, const SampleStream &stream,
                        const StreamRecord &rec, const Vec3 *d_colors,
                        bool update_density, bool update_color,
                        FieldGradients *target, Workspace &ws) const;

  private:
    RendererConfig cfg;
    const OccupancyGrid *occupancy = nullptr;
    const KernelBackend *kernelBackend = nullptr; //!< null = simd.
};

} // namespace instant3d

#endif // INSTANT3D_NERF_RENDERER_HH
