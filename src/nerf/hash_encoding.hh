/**
 * @file
 * Multiresolution hash-grid embedding (Instant-NGP Step 3-1).
 *
 * Each level l has a virtual dense grid of resolution N_l whose vertex
 * embeddings live in a 1D hash table of T entries x F features, indexed
 * by the paper's Eq. 3 spatial hash:
 *
 *     h = (pi1*x XOR pi2*y XOR pi3*z) mod T,
 *     pi1 = 1, pi2 = 2654435761, pi3 = 805459861.
 *
 * A query point is encoded by trilinear interpolation of its 8
 * surrounding vertices at every level; the backward pass scatters the
 * output gradient back to the same 8 entries. Both directions report
 * every table access to an optional TraceSink.
 */

#ifndef INSTANT3D_NERF_HASH_ENCODING_HH
#define INSTANT3D_NERF_HASH_ENCODING_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/vec3.hh"
#include "common/workspace.hh"
#include "nerf/trace_sink.hh"

namespace instant3d {

/** Static configuration of one hash-grid encoding. */
struct HashEncodingConfig
{
    int numLevels = 8;            //!< L, multiresolution levels.
    int featuresPerEntry = 2;     //!< F, features per hash-table entry.
    uint32_t log2TableSize = 14;  //!< T = 2^log2TableSize entries/level.
    int baseResolution = 16;      //!< N_min, coarsest grid resolution.
    float growthFactor = 1.45f;   //!< b, per-level resolution growth.

    uint32_t tableSize() const { return 1u << log2TableSize; }
    int outputDim() const { return numLevels * featuresPerEntry; }

    /**
     * Scale the table size by the paper's S ratio (e.g. S_C = 0.25
     * shrinks the color table 4x, i.e. two fewer address bits).
     * Ratios are snapped to the nearest power of two >= 2^6.
     */
    HashEncodingConfig scaledBy(float size_ratio) const;
};

/**
 * Per-point record of one forward encoding, kept so backward() can
 * scatter gradients without re-deriving vertex addresses.
 */
struct EncodeRecord
{
    /** 8 table addresses per level (level-major, corner-minor). */
    std::vector<uint32_t> addresses;
    /** 8 trilinear weights per level, same layout. */
    std::vector<float> weights;
};

/**
 * Record of a batch of n encodings, arena-backed (valid until the
 * owning Workspace resets). Point-major: sample s's slice is
 * [s * numLevels * 8, (s+1) * numLevels * 8), level-major within it.
 */
struct EncodeBatchRecord
{
    uint32_t *addresses = nullptr;
    float *weights = nullptr;
    int n = 0;
};

/**
 * One multiresolution hash-grid with trainable embeddings.
 */
class HashEncoding
{
  public:
    HashEncoding(const HashEncodingConfig &config, uint64_t seed);

    const HashEncodingConfig &config() const { return cfg; }
    int outputDim() const { return cfg.outputDim(); }

    /** Grid resolution N_l of the given level. */
    int levelResolution(int level) const { return resolutions[level]; }

    /**
     * Eq. 3 spatial hash of a vertex coordinate into [0, table_size).
     * table_size must be a power of two.
     */
    static uint32_t hashCoords(uint32_t x, uint32_t y, uint32_t z,
                               uint32_t table_size);

    /**
     * Encode point p (clamped to [0,1]^3) into out[outputDim()].
     * @param rec  If non-null, filled for a later backward().
     */
    void encode(const Vec3 &p, float *out, EncodeRecord *rec = nullptr);

    /**
     * Scatter dL/dout (length outputDim()) into the gradient table for
     * the accesses recorded in rec.
     */
    void backward(const EncodeRecord &rec, const float *d_out);

    /**
     * Encode n points into out (n x outputDim(), sample-major), reusing
     * arena scratch: after the first call through a Workspace no heap
     * allocation happens. Per-point arithmetic, trace records, and
     * counter totals are identical to calling encode() n times.
     *
     * Thread safety: concurrent encodeBatch calls on one encoding are
     * safe (counters are atomic) while no trace sink is attached; a
     * sink receives records from the calling thread, so traced encodes
     * must run on one thread.
     *
     * @param rec   If non-null, filled with arena-backed buffers for a
     *              later backwardSample().
     */
    void encodeBatch(const Vec3 *pts, int n, float *out,
                     EncodeBatchRecord *rec, Workspace &ws);

    /**
     * Backward of sample s from a batch record into an external
     * gradient table `grad` (same shape as grads()). When `touched` is
     * non-null it is a touch bitmap over the numLevels * T entries
     * (touchBitmapWords in kernels/kernels.hh; entry e spans
     * floats [e * featuresPerEntry, (e + 1) * featuresPerEntry)), and
     * every entry this sample writes is marked in it, so the trainer
     * reduces a gradient shard by visiting only its written words.
     * Trace records go to the attached sink.
     */
    void backwardSample(const EncodeBatchRecord &rec, int s,
                        const float *d_out, float *grad,
                        uint64_t *touched);

    /** Trainable parameters, length numLevels * T * F. */
    std::vector<float> &params() { return table; }
    const std::vector<float> &params() const { return table; }

    /** Gradient accumulator, same shape as params(). */
    std::vector<float> &grads() { return gradTable; }

    void zeroGrad();

    /** Bytes of embedding storage (fp16 entries, as on the accelerator). */
    size_t storageBytes() const;

    /**
     * Round every stored embedding through IEEE-754 binary16, modelling
     * the accelerator's 16-bit datapath (Sec 5.1: "16-bit half-
     * precision floating-point arithmetic for all algorithm-related
     * computations"). Returns the maximum absolute rounding error.
     */
    float quantizeToHalf();

    /** Attach/detach a memory-access trace sink (nullptr detaches). */
    void setTraceSink(TraceSink *sink) { traceSink = sink; }

    /** The currently attached sink, or nullptr. */
    TraceSink *attachedTraceSink() const { return traceSink; }

    /**
     * Total reads/writes issued since construction (workload stats).
     * Occupancy-refresh probes query the density branch alone
     * (NerfField::queryDensity), so they count against the density
     * grid's reads and never the color grid's.
     */
    uint64_t readCount() const
    { return reads.load(std::memory_order_relaxed); }
    uint64_t writeCount() const
    { return writes.load(std::memory_order_relaxed); }

  private:
    /** Flat offset of (level, address, feature 0). */
    size_t
    entryOffset(int level, uint32_t address) const
    {
        return (static_cast<size_t>(level) * cfg.tableSize() + address) *
               cfg.featuresPerEntry;
    }

    /**
     * Shared forward kernel: encode p into out[outputDim()], optionally
     * recording addresses/weights into caller slices (numLevels * 8).
     */
    void encodeOne(const Vec3 &p, float *out, uint32_t *addr_slots,
                   float *weight_slots, TraceSink *sink,
                   uint32_t point_id) const;

    /**
     * Integer phase of one encode: corner addresses, trilinear
     * weights, and trace records into caller slices (numLevels * 8),
     * without touching the embedding table. The recorded batched path
     * pairs this with the hashInterpBatch kernel; both this and
     * encodeOne derive their corners from the shared levelCorners
     * kernel, so the two paths cannot drift.
     */
    void encodeCorners(const Vec3 &p, uint32_t *addr_slots,
                       float *weight_slots, TraceSink *sink,
                       uint32_t point_id) const;

    /**
     * Corner addresses and trilinear weights of one level for an
     * already-clamped point -- the single source of the Eq. 3 address
     * arithmetic, shared by encodeOne and encodeCorners.
     */
    void levelCorners(const Vec3 &q, int level, uint32_t *addr8,
                      float *w8) const;

    /** Shared backward over recorded address/weight slices: one
     *  hashScatterSample call, then the slices' write records to
     *  `sink` in (level, corner) order; `touched` as in
     *  backwardSample(). */
    void backwardOne(const uint32_t *addrs, const float *ws,
                     const float *d_out, float *grad, uint64_t *touched,
                     TraceSink *sink) const;

    HashEncodingConfig cfg;
    std::vector<int> resolutions;
    std::vector<float> table;
    std::vector<float> gradTable;
    TraceSink *traceSink = nullptr;
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint32_t> nextPointId{0};
};

} // namespace instant3d

#endif // INSTANT3D_NERF_HASH_ENCODING_HH
