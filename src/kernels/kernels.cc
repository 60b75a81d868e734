/**
 * @file
 * The batched hot-path kernels: order-preserving vectorizable loops.
 *
 * Strategy: never vectorize *inside* a floating-point reduction --
 * restructure so the vector lanes are independent accumulator chains
 * and each chain performs exactly the scalar sequence of operations.
 *
 *  - Forward panel: transpose the weight matrix once per call, then
 *    run input-outer / output-inner saxpy loops. Each output's
 *    accumulator receives b[o], then w[o][i] * x[i] in ascending i --
 *    exactly the chain of Mlp::forward -- while the inner loop is a
 *    stride-1 multiply-add with no cross-lane dependence.
 *  - Backward panel: for each nonzero delta[o], the i-loops
 *    (gw[o][i] += d * act[i], prev_delta[i] += d * w[o][i]) are
 *    already lane-independent; per-element accumulation order over o
 *    is preserved by keeping the o-loop outer and scalar.
 *  - Dense Adam: per-parameter updates are independent chains of
 *    exact operations (mul/add/div/sqrt are all correctly rounded in
 *    both scalar and vector form), so the plain loop vectorizes
 *    bit-identically.
 *
 * This file is compiled with autovectorization forced on (see
 * CMakeLists: -O3 -fopenmp-simd); the class files that call it compile
 * at the project level and would not vectorize these loops. In
 * FMA-enabled builds the compiler may contract mul+add pairs here and
 * not in the per-sample references (or vice versa); that is the one
 * source of divergence, and why the parity contract is 0 ULP without
 * FMA and a small relative tolerance with it (tests/test_kernels.cc).
 */

#include "kernels/kernels.hh"

#include <algorithm>
#include <cmath>

#include "nerf/renderer.hh"

namespace instant3d {

namespace {

/** Mark `entry` in a touch bitmap whose entry level is `entry_words`
 *  words long. */
void
markTouched(uint64_t *bits, size_t entry_words, size_t entry)
{
    bits[entry >> 6] |= uint64_t{1} << (entry & 63);
    bits[entry_words + (entry >> 12)] |= uint64_t{1} << ((entry >> 6) & 63);
}

} // namespace

void
mlpForwardPanel(const float *in, int n, int n_in, int n_out,
                const float *w, const float *b, float *out, Workspace &ws)
{
    // Transposed weights: wt[i][o], contiguous in o so the inner saxpy
    // loop is stride-1. One transpose per panel call, amortized over
    // the n samples of the batch.
    float *wt = ws.alloc<float>(static_cast<size_t>(n_in) * n_out);
    for (int o = 0; o < n_out; o++)
        for (int i = 0; i < n_in; i++)
            wt[static_cast<size_t>(i) * n_out + o] =
                w[static_cast<size_t>(o) * n_in + i];

    for (int s = 0; s < n; s++) {
        const float *x = in + static_cast<size_t>(s) * n_in;
        float *y = out + static_cast<size_t>(s) * n_out;
        std::copy(b, b + n_out, y);
        for (int i = 0; i < n_in; i++) {
            const float xi = x[i];
            const float *wr = wt + static_cast<size_t>(i) * n_out;
#pragma omp simd
            for (int o = 0; o < n_out; o++)
                y[o] += wr[o] * xi;
        }
    }
}

void
reluPanel(float *x, size_t count)
{
#pragma omp simd
    for (size_t i = 0; i < count; i++)
        x[i] = std::max(x[i], 0.0f);
}

void
sigmoidPanel(float *x, size_t count)
{
    for (size_t i = 0; i < count; i++)
        x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void
mlpBackwardPanel(const float *delta, int n_out, int n_in,
                 const float *act, const float *w, float *gw, float *gb,
                 float *prev_delta)
{
    std::fill(prev_delta, prev_delta + n_in, 0.0f);
    for (int o = 0; o < n_out; o++) {
        const float d = delta[o];
        if (d == 0.0f)
            continue;
        float *gwrow = gw + static_cast<size_t>(o) * n_in;
        const float *wrow = w + static_cast<size_t>(o) * n_in;
#pragma omp simd
        for (int i = 0; i < n_in; i++) {
            gwrow[i] += d * act[i];
            prev_delta[i] += d * wrow[i];
        }
        gb[o] += d;
    }
}

void
hashInterpBatch(const float *table, const uint32_t *addrs,
                const float *weights, int n, int levels, int fpe,
                uint32_t table_size, float *out)
{
    // The per-feature chains (8 corner adds each) are short and
    // gather-addressed; vectorizing across the fpe features keeps each
    // chain in scalar order. With the typical fpe = 2 the win is
    // modest -- the MLP panels and Adam sweeps carry the speedup.
    const size_t slots = static_cast<size_t>(levels) * 8;
    const size_t dim = static_cast<size_t>(levels) * fpe;
    for (int s = 0; s < n; s++) {
        const uint32_t *a = addrs + static_cast<size_t>(s) * slots;
        const float *wgt = weights + static_cast<size_t>(s) * slots;
        float *o = out + static_cast<size_t>(s) * dim;
        for (int l = 0; l < levels; l++) {
            float *ol = o + static_cast<size_t>(l) * fpe;
            std::fill(ol, ol + fpe, 0.0f);
            for (int corner = 0; corner < 8; corner++) {
                const size_t slot = static_cast<size_t>(l) * 8 + corner;
                const float wc = wgt[slot];
                const float *entry =
                    table +
                    (static_cast<size_t>(l) * table_size + a[slot]) * fpe;
#pragma omp simd
                for (int f = 0; f < fpe; f++)
                    ol[f] += wc * entry[f];
            }
        }
    }
}

void
hashScatterSample(const uint32_t *addrs, const float *weights,
                  const float *d_out, int levels, int fpe,
                  uint32_t table_size, float *grad, uint64_t *touched)
{
    const size_t entry_words =
        touchEntryWords(static_cast<size_t>(levels) * table_size);
    for (int l = 0; l < levels; l++) {
        for (int corner = 0; corner < 8; corner++) {
            const size_t slot = static_cast<size_t>(l) * 8 + corner;
            const float wc = weights[slot];
            const size_t entry =
                static_cast<size_t>(l) * table_size + addrs[slot];
            const size_t off = entry * fpe;
            for (int f = 0; f < fpe; f++)
                grad[off + f] += wc * d_out[l * fpe + f];
            if (touched)
                markTouched(touched, entry_words, entry);
        }
    }
}

void
adamDenseStep(float *params, const float *grads, float *m, float *v,
              size_t n, const AdamKernelParams &kp)
{
#pragma omp simd
    for (size_t i = 0; i < n; i++) {
        float g = grads[i] + kp.l2Reg * params[i];
        m[i] = kp.beta1 * m[i] + (1.0f - kp.beta1) * g;
        v[i] = kp.beta2 * v[i] + (1.0f - kp.beta2) * g * g;
        float mhat = m[i] / kp.bc1;
        float vhat = v[i] / kp.bc2;
        params[i] -= kp.lr * mhat / (std::sqrt(vhat) + kp.epsilon);
    }
}

void
reduceDense(float *dst, float *src, size_t n)
{
#pragma omp simd
    for (size_t i = 0; i < n; i++) {
        dst[i] += src[i];
        src[i] = 0.0f;
    }
}

void
compositeStream(const RaySpan *spans, int num_rays, const FieldSample *fs,
                const float *ts, float dt, const Vec3 &background,
                float t_far, RayResult *results, float *alpha,
                float *trans, Vec3 *rgb, float *final_trans)
{
    for (int r = 0; r < num_rays; r++) {
        const RaySpan span = spans[r];
        RayResult out;
        float transmittance = 1.0f;
        for (int k = span.offset; k < span.offset + span.count; k++) {
            float a = 1.0f - std::exp(-fs[k].sigma * dt);
            float weight = transmittance * a;
            out.color += fs[k].rgb * weight;
            out.depth += ts[k] * weight;
            alpha[k] = a;
            trans[k] = transmittance;
            rgb[k] = fs[k].rgb;
            transmittance *= 1.0f - a;
        }
        out.color += background * transmittance;
        out.depth += t_far * transmittance;
        out.opacity = 1.0f - transmittance;
        final_trans[r] = transmittance;
        results[r] = out;
    }
}

void
compositeBackward(const RaySpan *spans, int num_rays,
                  const Vec3 *d_colors, float dt, const Vec3 &background,
                  float skip_threshold, const float *alpha,
                  const float *trans, const Vec3 *rgb,
                  const float *final_trans, float *d_sigma, Vec3 *d_rgb,
                  uint8_t *skip)
{
    for (int r = 0; r < num_rays; r++) {
        const RaySpan span = spans[r];
        const Vec3 &d_color = d_colors[r];
        float suffix = background.dot(d_color) * final_trans[r];
        for (int k = span.offset + span.count - 1; k >= span.offset;
             k--) {
            float weight = trans[k] * alpha[k];
            float cg = rgb[k].dot(d_color);

            d_sigma[k] =
                dt * ((1.0f - alpha[k]) * trans[k] * cg - suffix);
            d_rgb[k] = d_color * weight;
            float mag = std::fabs(d_sigma[k]) + std::fabs(d_rgb[k].x) +
                        std::fabs(d_rgb[k].y) + std::fabs(d_rgb[k].z);
            skip[k] = mag > skip_threshold ? 0 : 1;

            suffix += weight * cg;
        }
    }
}

} // namespace instant3d
