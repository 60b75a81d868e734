/**
 * @file
 * The radiance-field model (paper Fig. 3 and Fig. 6).
 *
 * Two architectures share one interface:
 *
 *  - Coupled (Instant-NGP baseline): a single embedding grid feeds a
 *    density MLP that outputs sigma plus geometry features; the color
 *    MLP consumes those features plus an encoded view direction.
 *
 *  - Decoupled (the Instant-3D algorithm, Sec 3): separate density and
 *    color grids, each with its own MLP, enabling different grid sizes
 *    (S_D > S_C) and update frequencies (F_D > F_C) per branch.
 */

#ifndef INSTANT3D_NERF_FIELD_HH
#define INSTANT3D_NERF_FIELD_HH

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/vec3.hh"
#include "common/workspace.hh"
#include "nerf/hash_encoding.hh"
#include "nerf/mlp.hh"

namespace instant3d {

class ThreadPool;

/** Which architecture the field instantiates. */
enum class FieldMode
{
    Coupled,    //!< Instant-NGP: one grid, chained MLPs.
    Decoupled,  //!< Instant-3D: separate density and color branches.
    Vanilla,    //!< Vanilla NeRF (Sec 2.1): no grid, positional
                //!< encoding into a (scaled-down) pure-MLP model.
};

/** Identifies one trainable parameter group for the optimizer. */
enum class ParamGroupId
{
    DensityGrid,
    ColorGrid,
    DensityMlp,
    ColorMlp,
};

/** Full model configuration. */
struct FieldConfig
{
    FieldMode mode = FieldMode::Decoupled;
    HashEncodingConfig densityGrid;
    HashEncodingConfig colorGrid;
    int hiddenDim = 32;      //!< MLP hidden width.
    int geoFeatureDim = 8;   //!< Coupled mode: features passed to color.
    int vanillaHiddenLayers = 3; //!< Vanilla mode: hidden layer count
                                 //!< (the paper's model uses 10x256;
                                 //!< tests use a scaled-down version).
    int posEncFrequencies = 4;   //!< Vanilla positional-encoding bands.

    /**
     * Build the paper's default Instant-3D configuration from a base
     * grid config: S_D : S_C = 1 : 0.25 (color table 4x smaller).
     */
    static FieldConfig instant3dDefault(const HashEncodingConfig &base);

    /** Instant-NGP baseline: one grid of the base size. */
    static FieldConfig ngpBaseline(const HashEncodingConfig &base);

    /**
     * Vanilla-NeRF baseline (Sec 2.1): no embedding grid; a positional
     * encoding feeds a deeper MLP. `hidden` and `layers` default to a
     * CPU-trainable scale (the paper's 10x256 model is why vanilla
     * NeRF takes > 1 day per scene; see VanillaNerfCost).
     */
    static FieldConfig vanillaBaseline(int hidden = 48, int layers = 3);

    /** Positional-encoding output dimension for this config. */
    int posEncodingDim() const { return 3 + 6 * posEncFrequencies; }
};

/** Density + color of one queried point (Step 3 output). */
struct FieldSample
{
    float sigma = 0.0f;
    Vec3 rgb;
};

/** Forward context of one field query, consumed by backward(). */
struct FieldRecord
{
    EncodeRecord densityEnc;
    EncodeRecord colorEnc;
    MlpRecord densityMlp;
    MlpRecord colorMlp;
    std::vector<float> densityFeat; //!< Grid output, density branch.
    std::vector<float> colorFeat;   //!< Grid output, color branch.
    std::vector<float> dirEnc;      //!< Encoded view direction.
    std::vector<float> densityOut;  //!< Raw density-MLP output.
    float rawSigma = 0.0f;          //!< Pre-softplus density logit.
};

/**
 * Forward context of one queryStream() over n samples, consumed by
 * backwardStream(). All buffers are arena-backed and stay valid until
 * the owning Workspace resets.
 */
struct FieldBatchRecord
{
    EncodeBatchRecord densityEnc;
    EncodeBatchRecord colorEnc;
    MlpBatchRecord densityMlp;
    MlpBatchRecord colorMlp;
    float *rawSigma = nullptr; //!< [n] pre-softplus density logits.
    int n = 0;
};

/**
 * One ray's slice of a chunk-level compacted sample stream: samples
 * [offset, offset + count) of the flat SoA buffers belong to this ray.
 */
struct RaySpan
{
    int offset = 0;
    int count = 0;
};

/**
 * One parameter group's gradient shard: a full-size accumulator plus,
 * for a grid group, a touch bitmap over the table's entries, so the
 * reduction visits only written entries. Every scatter into the shard
 * marks its entry, however often the entry is written. Dense shards
 * (MLPs, where every sample touches every weight) have no bitmap and
 * are reduced by a full scan.
 *
 * Invariant for sparse shards: `v` is all-zero outside the marked
 * entries, and NerfField::reduceGradients() restores the all-zero
 * state of both `v` and `touched`. prepareGradients() only sizes
 * them, so a shard prepared but never reduced keeps its marks and
 * values.
 */
struct GradShard
{
    std::vector<float> v;
    /** Touch bitmap (touchBitmapWords in kernels/kernels.hh):
     *  one bit per entry, entry e covering floats [e * F, (e + 1) * F)
     *  of `v` with F the grid's featuresPerEntry, then one summary bit
     *  per entry word. Empty for dense shards. */
    std::vector<uint64_t> touched;
};

/**
 * A full set of per-group gradient shards, one per worker chunk. The
 * trainer accumulates each chunk's back-propagation here and reduces
 * the shards into the field's real gradient buffers in a fixed chunk
 * order, making training bit-reproducible for any thread count.
 */
struct FieldGradients
{
    GradShard densityGrid;
    GradShard colorGrid;
    GradShard densityMlp;
    GradShard colorMlp;
};

/**
 * The trainable radiance field, either coupled or decoupled.
 */
class NerfField
{
  public:
    NerfField(const FieldConfig &config, uint64_t seed);

    const FieldConfig &config() const { return cfg; }
    FieldMode mode() const { return cfg.mode; }

    /**
     * Query density and view-dependent color at p from direction d
     * (Step 3: grid interpolation + MLP inference).
     */
    FieldSample query(const Vec3 &p, const Vec3 &d,
                      FieldRecord *rec = nullptr);

    /**
     * Back-propagate one sample's output gradient.
     *
     * @param update_density  Propagate into the density branch.
     * @param update_color    Propagate into the color branch. In
     *        decoupled mode, skipping it skips all color-branch work
     *        (the F_C < F_D runtime saving of Sec 3.3); in coupled mode
     *        the color MLP must still run to reach the shared grid, but
     *        its own gradients are discarded.
     */
    void backward(const FieldRecord &rec, float d_sigma,
                  const Vec3 &d_rgb, bool update_density = true,
                  bool update_color = true);

    /**
     * Batched query of a compacted multi-ray sample stream (Step 3):
     * n points partitioned into `numRays` per-ray spans, ray r's
     * samples sharing direction dirs[r]. Kernel-major execution --
     * every grid encode and MLP forward runs once over the whole
     * stream, with all scratch from ws -- so per-ray fixed costs are
     * paid once per chunk instead of once per ray. A sample's result
     * is bit-identical whichever spans share its stream, and equals
     * query() where the compiler contracts no mul+add into an FMA.
     *
     * Thread-safe for concurrent calls while no trace sink is attached.
     */
    void queryStream(const Vec3 *pts, int n, const RaySpan *spans,
                     const Vec3 *dirs, int numRays, FieldSample *out,
                     FieldBatchRecord *rec, Workspace &ws);

    /**
     * Density-only batched query: sigma[s] for n points, from the
     * density branch alone (an occupancy probe needs nothing else).
     * Decoupled: density-grid encode, density MLP, softplus. Coupled:
     * the same, reading column 0 of the trunk's 1 + geoFeatureDim
     * outputs. Vanilla: positional encoding, then the density MLP.
     * The color grid, color MLP and direction encoding never run.
     * These are the kernels queryStream() runs on the density branch,
     * so sigma is bit-equal to queryStream()'s in every build. Counts
     * n queries in queryCount(), as queryStream() does.
     *
     * Thread-safe for concurrent calls while no trace sink is attached.
     */
    void queryDensity(const Vec3 *pts, int n, float *sigma,
                      Workspace &ws);

    /**
     * Backward over a compacted multi-ray stream recorded by
     * queryStream(): rays in *ascending* order, samples in *descending*
     * order within each span (the renderer's compositing order, and
     * the order the scalar path applies them in). A ray's gradients are
     * therefore the same whichever rays share its stream.
     *
     * @param skip    If non-null, samples with skip[s] != 0 are not
     *                propagated (the renderer's gradient-skip rule).
     * @param target  Gradient shard set to accumulate into (required,
     *                prepared by prepareGradients()).
     */
    void backwardStream(const FieldBatchRecord &rec, const RaySpan *spans,
                        int numRays, const float *d_sigma,
                        const Vec3 *d_rgb, const uint8_t *skip,
                        bool update_density, bool update_color,
                        FieldGradients *target, Workspace &ws);

    /**
     * Size `g` to this field's parameter groups for a new iteration.
     * Sparse (grid) shards rely on the reduce-restores-zero invariant,
     * so they are written only when their size changes.
     */
    void prepareGradients(FieldGradients &g) const;

    /**
     * Add a set of shards into the field's real gradient buffers and
     * restore each shard's cleared state. Every entry takes its
     * shards' values in ascending shard order, so the result does not
     * depend on the pool or its thread count.
     *
     * The grid groups are reduced in one pass over fixed blocks of
     * bitmap words, spread over `pool` when it has more than one
     * thread and run inline otherwise (null pool included). No task
     * touches a trace sink, so a traced iteration may pass its pool.
     * With dirty tracking enabled, each block ORs the entries its
     * shards wrote into the group's dirty bitmap. The MLP shards are
     * reduced serially in shard order. Not safe to call from a task
     * of `pool`.
     */
    void reduceGradients(std::span<FieldGradients> shards,
                         ThreadPool *pool);

    /** The one-shard, inline case of the call above. */
    void reduceGradients(FieldGradients &g)
    { reduceGradients(std::span<FieldGradients>(&g, 1), nullptr); }

    /**
     * Track the union of touched grid entries across reduceGradients()
     * calls, so the optimizer and zeroGradDirty() can visit only the
     * entries this iteration actually wrote. Off by default (no
     * overhead for non-sparse training).
     */
    void setDirtyTracking(bool enable);

    /**
     * Dirty bitmap of a grid group: bit e is set when table entry e
     * (floats [e * featuresPerEntry, (e + 1) * featuresPerEntry) of
     * the group's gradients) was written since the last
     * zeroGrad/zeroGradDirty: the union of every reduceGradients()
     * call's writes since then. One bit per entry, touchEntryWords
     * (kernels/kernels.hh) words long, the layout
     * Adam::stepSparse() reads. Only grid groups have dirty bitmaps;
     * panics for MLP groups.
     */
    const std::vector<uint64_t> &dirtyEntries(ParamGroupId id) const;

    /**
     * Touched-only gradient clear: one pass over each dirty bitmap
     * zeroes the grid entries it marks and clears it, then the small
     * MLP gradient buffers are zeroed densely. A dirty word's entries
     * are zeroed by one fill from its lowest to its highest marked
     * entry; the grids are +0 outside the marked entries (the reduce
     * invariant), so this changes no other bit. Requires dirty
     * tracking to have been enabled for the whole accumulation window;
     * zeroGrad() remains the full-scan fallback.
     */
    void zeroGradDirty();

    /** True when any of this field's grids has a trace sink attached. */
    bool traceAttached() const;

    /** Density grid (panics in Vanilla mode, which has none). */
    HashEncoding &densityGrid();
    /** Color grid (panics unless in Decoupled mode). */
    HashEncoding &colorGrid();
    Mlp &densityMlp() { return *densityMlpPtr; }
    Mlp &colorMlp() { return *colorMlpPtr; }

    /** True when the mode owns the given grid. */
    bool hasDensityGrid() const { return densityGridPtr != nullptr; }
    bool hasColorGrid() const { return colorGridPtr != nullptr; }

    /** Parameter/gradient vectors of one group (for the optimizer). */
    std::vector<float> &groupParams(ParamGroupId id);
    std::vector<float> &groupGrads(ParamGroupId id);

    /** All groups present in this mode. */
    std::vector<ParamGroupId> paramGroups() const;

    void zeroGrad();

    /** Dimension of the view-direction encoding. */
    static constexpr int dirEncodingDim = 9;

    /** Second-order direction encoding (components + quadratic terms). */
    static void encodeDirection(const Vec3 &d, float *out);

    /**
     * NeRF positional encoding: [p, sin(2^k pi p), cos(2^k pi p)] for
     * k in [0, frequencies); out must hold 3 + 6 * frequencies floats.
     */
    static void encodePosition(const Vec3 &p, int frequencies,
                               float *out);

    /** Total field queries served (workload accounting, all modes). */
    uint64_t queryCount() const
    { return queries.load(std::memory_order_relaxed); }

  private:
    /**
     * The density MLP's input rows for n points, from ws: the density
     * grid's encoding (recorded into rec when non-null), or the
     * positional encoding in Vanilla mode, which has no grid.
     */
    float *encodeTrunk(const Vec3 *pts, int n, EncodeBatchRecord *rec,
                       Workspace &ws);

    FieldConfig cfg;
    std::unique_ptr<HashEncoding> densityGridPtr;
    std::unique_ptr<HashEncoding> colorGridPtr;
    std::unique_ptr<Mlp> densityMlpPtr;
    std::unique_ptr<Mlp> colorMlpPtr;
    std::atomic<uint64_t> queries{0};
    bool trackDirty = false;
    std::vector<uint64_t> dirtyDensity; //!< See dirtyEntries().
    std::vector<uint64_t> dirtyColor;
};

/** Softplus density activation and its derivative. */
float softplus(float x);
float softplusDerivative(float x);

} // namespace instant3d

#endif // INSTANT3D_NERF_FIELD_HH
