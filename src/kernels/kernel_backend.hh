/**
 * @file
 * Pluggable CPU kernel backends for the batched hot path.
 *
 * Every batched hot-path kernel -- the GEMM-style MLP forward/backward
 * panels, the hash-grid interpolation gather and gradient scatter, the
 * dense Adam step, the shard reduction, and the volume-render stream
 * composite -- dispatches through one KernelBackend instance, so
 * adding a vectorized variant is a single-file backend instead of a
 * fork of every call site. Two backends ship:
 *
 *  - scalar_ref ("scalar_ref"): the pre-refactor reference loops,
 *    verbatim. Bit-identical to the historical hot path by
 *    construction; the determinism contract (README "Hot-path
 *    architecture") is stated against this backend. It runs only where
 *    something installs it by name: tests, bench rows, or a trainer
 *    whose TrainConfig::kernelBackend names it.
 *
 *  - simd ("simd"), the default: the same kernels restructured so that
 *    every floating-point accumulation chain keeps the scalar order
 *    while the loops vectorize across *independent* lanes (outputs of
 *    a panel, parameters of an Adam step) -- e.g. the forward panel
 *    transposes the weight matrix once and runs saxpy-style
 *    input-outer / output-inner loops. Compiled with autovectorization
 *    forced on (see CMakeLists), it uses whatever ISA the build
 *    targets (SSE2 baseline, AVX2+FMA under -march=x86-64-v3, NEON on
 *    aarch64). Because reduction order is preserved, results are
 *    bit-identical to scalar_ref whenever scalar and vector code round
 *    identically per operation -- true in builds without FMA
 *    contraction (no -mfma); with FMA available the compiler may
 *    contract mul+add pairs differently in the two backends, so parity
 *    is guaranteed only to a small relative tolerance (see
 *    tests/test_kernel_backends.cc, which asserts 0 ULP in non-FMA
 *    builds and the documented tolerance otherwise).
 *
 * Selection: TrainConfig::kernelBackend names the backend ("simd" or
 * "scalar_ref"); the INSTANT3D_KERNEL_BACKEND environment variable
 * overrides it. A class with no backend installed (a null pointer)
 * runs simd, so serving and standalone fields run the same kernels as
 * training. An occupancy refresh queries only the density branch of
 * the field it refreshes from (NerfField::queryDensity), through that
 * field's backend. The resolved name is recorded in
 * BENCH_train_throughput.json.
 */

#ifndef INSTANT3D_KERNELS_KERNEL_BACKEND_HH
#define INSTANT3D_KERNELS_KERNEL_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/vec3.hh"
#include "common/workspace.hh"

namespace instant3d {

struct RaySpan;
struct FieldSample;
struct RayResult;

/** Adam hyper-parameters + current-step bias corrections, flattened
 *  for the dense-step kernel. */
struct AdamKernelParams
{
    float lr = 0.0f;
    float beta1 = 0.0f;
    float beta2 = 0.0f;
    float epsilon = 0.0f;
    float l2Reg = 0.0f;
    float bc1 = 0.0f; //!< 1 - beta1^t of the step being applied.
    float bc2 = 0.0f; //!< 1 - beta2^t.
};

/**
 * One CPU kernel-backend: a vtable of the batched hot-path kernels.
 * The base-class implementations are the scalar reference loops
 * (moved verbatim from the original call sites); derived backends
 * override the kernels they accelerate and inherit the rest.
 */
class KernelBackend
{
  public:
    virtual ~KernelBackend() = default;

    /** Stable backend name, recorded in bench JSON. */
    virtual const char *name() const = 0;

    // ------------------------------------------------- MLP panels
    /**
     * GEMM-style forward panel of one layer: for each of n samples,
     * out[s][o] = b[o] + sum_i w[o][i] * in[s][i] (pre-activation).
     * w is row-major [n_out x n_in]. Scratch comes from ws. Each
     * (s, o) accumulator chain must run in ascending-i scalar order.
     */
    virtual void mlpForwardPanel(const float *in, int n, int n_in,
                                 int n_out, const float *w,
                                 const float *b, float *out,
                                 Workspace &ws) const;

    /** In-place ReLU over a panel. */
    virtual void reluPanel(float *x, size_t count) const;

    /** In-place sigmoid over a panel. */
    virtual void sigmoidPanel(float *x, size_t count) const;

    /**
     * Backward panel of one layer for one sample: for each output o
     * with delta[o] != 0, accumulate gw[o][i] += delta[o] * act[i],
     * gb[o] += delta[o], and prev_delta[i] += delta[o] * w[o][i].
     * prev_delta (length n_in) is zeroed first; its per-i accumulation
     * order over o must stay ascending-o.
     */
    virtual void mlpBackwardPanel(const float *delta, int n_out,
                                  int n_in, const float *act,
                                  const float *w, float *gw, float *gb,
                                  float *prev_delta) const;

    // ------------------------------------------- hash-grid kernels
    /**
     * Trilinear interpolation gather over a batch of n points whose
     * corner addresses/weights were precomputed (level-major, 8
     * corners per level, point-major across the batch):
     * out[s][l*fpe + f] = sum_corner w * table[(l*T + addr)*fpe + f],
     * corners ascending. out is [n x levels*fpe].
     */
    virtual void hashInterpBatch(const float *table,
                                 const uint32_t *addrs,
                                 const float *weights, int n,
                                 int levels, int fpe,
                                 uint32_t table_size, float *out) const;

    /**
     * Gradient scatter of one sample's recorded corner slice into a
     * gradient table: grad[(l*T + addr)*fpe + f] += w * d_out[l*fpe+f]
     * per corner in (level, corner) ascending order. When `touched` is
     * non-null it is a touch bitmap over the table's levels * T
     * entries (touchBitmapWords), and every corner marks entry
     * l*T + addr in it (markTouched), whatever its gradient, so a
     * repeated write costs two ORs.
     */
    virtual void hashScatterSample(const uint32_t *addrs,
                                   const float *weights,
                                   const float *d_out, int levels,
                                   int fpe, uint32_t table_size,
                                   float *grad, uint64_t *touched) const;

    // ------------------------------------------------ optimizer
    /**
     * One dense Adam step over n parameters: the per-parameter moment
     * update and bias-corrected step, in ascending order.
     */
    virtual void adamDenseStep(float *params, const float *grads,
                               float *m, float *v, size_t n,
                               const AdamKernelParams &kp) const;

    // ------------------------------------------- shard reduction
    /** dst[i] += src[i]; src[i] = 0 -- the dense gradient-shard
     *  reduction (no cross-element reduction, freely vectorizable). */
    virtual void reduceDense(float *dst, float *src, size_t n) const;

    // ------------------------------------- renderer stream composite
    /**
     * Per-ray alpha compositing over a compacted sample stream:
     * results[r] from the field samples fs of span r, over every
     * sample (no early stop). The required record arrays
     * (alpha/trans/rgb/final_trans) are filled for a later
     * compositeBackward.
     */
    virtual void compositeStream(const RaySpan *spans, int num_rays,
                                 const FieldSample *fs, const float *ts,
                                 float dt, const Vec3 &background,
                                 float t_far, RayResult *results,
                                 float *alpha, float *trans, Vec3 *rgb,
                                 float *final_trans) const;

    /**
     * Backward of the compositing equation: the per-ray suffix
     * recursion (descending samples within each span) producing each
     * sample's (d_sigma, d_rgb) and the below-threshold skip flags.
     */
    virtual void compositeBackward(const RaySpan *spans, int num_rays,
                                   const Vec3 *d_colors, float dt,
                                   const Vec3 &background,
                                   float skip_threshold,
                                   const float *alpha,
                                   const float *trans, const Vec3 *rgb,
                                   const float *final_trans,
                                   float *d_sigma, Vec3 *d_rgb,
                                   uint8_t *skip) const;
};

/**
 * A touch bitmap over n table entries is two levels in one array:
 * touchEntryWords(n) words with bit e set when entry e was written,
 * then one summary bit per entry word, set when that word may be
 * nonzero, so a reader visits only the words that were written. The
 * entry level alone is the touched-set format past the reduce: a
 * grid's dirty bitmap (NerfField::dirtyEntries), which Adam::stepSparse
 * reads.
 */
inline size_t
touchEntryWords(size_t entries)
{
    return (entries + 63) / 64;
}

/** Total words of a touch bitmap over `entries` entries. */
inline size_t
touchBitmapWords(size_t entries)
{
    const size_t words = touchEntryWords(entries);
    return words + (words + 63) / 64;
}

/**
 * Mark `entry` in a touch bitmap whose entry level is `entry_words`
 * words long. Both grid scatter paths (hashScatterSample and the
 * traced reference loop in HashEncoding) mark their entries through
 * this.
 */
inline void
markTouched(uint64_t *bits, size_t entry_words, size_t entry)
{
    bits[entry >> 6] |= uint64_t{1} << (entry & 63);
    bits[entry_words + (entry >> 12)] |= uint64_t{1} << ((entry >> 6) & 63);
}

/**
 * The process-wide simd backend: what every kernel class runs until a
 * trainer (or test) installs a specific backend.
 */
const KernelBackend &simdBackend();

/** The null-fallback rule shared by every dispatching class: a null
 *  backend pointer means simd. */
inline const KernelBackend &
resolveBackend(const KernelBackend *backend)
{
    return backend ? *backend : simdBackend();
}

/** Construct one backend directly (tests, micro-benches). */
std::unique_ptr<KernelBackend> makeScalarRefBackend();
std::unique_ptr<KernelBackend> makeSimdBackend();

/**
 * Resolve a backend by configured name, "simd" or "scalar_ref". The
 * INSTANT3D_KERNEL_BACKEND environment variable overrides `name`.
 * Fatal on any other name.
 */
std::unique_ptr<KernelBackend> createKernelBackend(std::string name);

} // namespace instant3d

#endif // INSTANT3D_KERNELS_KERNEL_BACKEND_HH
