/**
 * @file
 * The batched hot-path kernels: the GEMM-style MLP forward/backward
 * panels, the hash-grid interpolation gather and gradient scatter, the
 * dense Adam step, the dense shard reduction, and the volume-render
 * stream composite. Mlp, HashEncoding, Adam, NerfField and
 * VolumeRenderer call them directly; there is one implementation of
 * each.
 *
 * Every floating-point accumulation chain keeps the order of the
 * per-sample reference kernels (Mlp::forward/backward,
 * HashEncoding::encode/backward, VolumeRenderer::renderRay/
 * backwardRay, and a per-parameter Adam loop), while the loops
 * vectorize across *independent* lanes -- outputs of a panel,
 * parameters of an Adam step. kernels.cc is compiled with
 * autovectorization forced on (see CMakeLists) and uses whatever ISA
 * the build targets (SSE2 baseline, AVX2+FMA under -march=x86-64-v3,
 * NEON on aarch64). Because reduction order is preserved, the kernels
 * are bit-identical to the references whenever scalar and vector code
 * round identically per operation -- true in builds without FMA
 * contraction (no -mfma). With FMA available the compiler may contract
 * mul+add pairs differently here and in the references, so there the
 * contract is a 1e-5 relative tolerance (tests/test_kernels.cc asserts
 * 0 ULP in non-FMA builds and the tolerance otherwise).
 */

#ifndef INSTANT3D_KERNELS_KERNELS_HH
#define INSTANT3D_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>

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

// ----------------------------------------------------- MLP panels
/**
 * GEMM-style forward panel of one layer: for each of n samples,
 * out[s][o] = b[o] + sum_i w[o][i] * in[s][i] (pre-activation).
 * w is row-major [n_out x n_in]. Scratch comes from ws. Each (s, o)
 * accumulator chain runs in ascending-i scalar order.
 */
void mlpForwardPanel(const float *in, int n, int n_in, int n_out,
                     const float *w, const float *b, float *out,
                     Workspace &ws);

/** In-place ReLU over a panel. */
void reluPanel(float *x, size_t count);

/** In-place sigmoid over a panel. */
void sigmoidPanel(float *x, size_t count);

/**
 * Backward panel of one layer for one sample: for each output o with
 * delta[o] != 0, accumulate gw[o][i] += delta[o] * act[i],
 * gb[o] += delta[o], and prev_delta[i] += delta[o] * w[o][i].
 * prev_delta (length n_in) is zeroed first; its per-i accumulation
 * order over o stays ascending-o.
 */
void mlpBackwardPanel(const float *delta, int n_out, int n_in,
                      const float *act, const float *w, float *gw,
                      float *gb, float *prev_delta);

// ------------------------------------------------ hash-grid kernels
/**
 * Trilinear interpolation gather over a batch of n points whose corner
 * addresses/weights were precomputed (level-major, 8 corners per
 * level, point-major across the batch):
 * out[s][l*fpe + f] = sum_corner w * table[(l*T + addr)*fpe + f],
 * corners ascending. out is [n x levels*fpe].
 */
void hashInterpBatch(const float *table, const uint32_t *addrs,
                     const float *weights, int n, int levels, int fpe,
                     uint32_t table_size, float *out);

/**
 * Gradient scatter of one sample's recorded corner slice into a
 * gradient table: grad[(l*T + addr)*fpe + f] += w * d_out[l*fpe+f]
 * per corner in (level, corner) ascending order. When `touched` is
 * non-null it is a touch bitmap over the table's levels * T entries
 * (touchBitmapWords), and every corner sets entry l*T + addr's bit and
 * its word's summary bit, whatever its gradient, so a repeated write
 * costs two ORs.
 */
void hashScatterSample(const uint32_t *addrs, const float *weights,
                       const float *d_out, int levels, int fpe,
                       uint32_t table_size, float *grad,
                       uint64_t *touched);

// ------------------------------------------------------ optimizer
/**
 * One dense Adam step over n parameters: the per-parameter moment
 * update and bias-corrected step, in ascending order.
 */
void adamDenseStep(float *params, const float *grads, float *m, float *v,
                   size_t n, const AdamKernelParams &kp);

// ------------------------------------------------ shard reduction
/** dst[i] += src[i]; src[i] = 0 -- the dense gradient-shard reduction
 *  (no cross-element reduction, freely vectorizable). */
void reduceDense(float *dst, float *src, size_t n);

// ------------------------------------------- stream composite
/**
 * Per-ray alpha compositing over a compacted sample stream: results[r]
 * from the field samples fs of span r, over every sample (no early
 * stop). The record arrays (alpha/trans/rgb/final_trans) are filled
 * for a later compositeBackward.
 */
void compositeStream(const RaySpan *spans, int num_rays,
                     const FieldSample *fs, const float *ts, float dt,
                     const Vec3 &background, float t_far,
                     RayResult *results, float *alpha, float *trans,
                     Vec3 *rgb, float *final_trans);

/**
 * Backward of the compositing equation: the per-ray suffix recursion
 * (descending samples within each span) producing each sample's
 * (d_sigma, d_rgb) and the below-threshold skip flags.
 */
void compositeBackward(const RaySpan *spans, int num_rays,
                       const Vec3 *d_colors, float dt,
                       const Vec3 &background, float skip_threshold,
                       const float *alpha, const float *trans,
                       const Vec3 *rgb, const float *final_trans,
                       float *d_sigma, Vec3 *d_rgb, uint8_t *skip);

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

} // namespace instant3d

#endif // INSTANT3D_KERNELS_KERNELS_HH
