/**
 * @file
 * The "simd" kernel backend: order-preserving vectorizable loops.
 *
 * Strategy: never vectorize *inside* a floating-point reduction --
 * restructure so the vector lanes are independent accumulator chains
 * and each chain performs exactly the scalar sequence of operations.
 *
 *  - Forward panel: transpose the weight matrix once per call, then
 *    run input-outer / output-inner saxpy loops. Each output's
 *    accumulator receives b[o], then w[o][i] * x[i] in ascending i --
 *    exactly the scalar_ref chain -- while the inner loop is a stride-1
 *    multiply-add with no cross-lane dependence.
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
 * CMakeLists: -O3 -fopenmp-simd) and picks up whatever ISA the build
 * targets -- SSE2 at the x86-64 baseline, AVX2+FMA under
 * -march=x86-64-v3, NEON on aarch64. In FMA-enabled builds the
 * compiler may contract mul+add pairs here and not in the scalar
 * loops (or vice versa); that is the one source of divergence, and
 * why the parity contract is 0 ULP without FMA and a small relative
 * tolerance with it (tests/test_kernel_backends.cc).
 */

#include "kernels/kernel_backend.hh"

#include <algorithm>
#include <cmath>

namespace instant3d {

namespace {

class SimdBackend final : public KernelBackend
{
  public:
    const char *name() const override { return "simd"; }

    void
    mlpForwardPanel(const float *in, int n, int n_in, int n_out,
                    const float *w, const float *b, float *out,
                    Workspace &ws) const override
    {
        // Transposed weights: wt[i][o], contiguous in o so the inner
        // saxpy loop is stride-1. One transpose per panel call,
        // amortized over the n samples of the batch.
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
    reluPanel(float *x, size_t count) const override
    {
#pragma omp simd
        for (size_t i = 0; i < count; i++)
            x[i] = std::max(x[i], 0.0f);
    }

    void
    mlpBackwardPanel(const float *delta, int n_out, int n_in,
                     const float *act, const float *w, float *gw,
                     float *gb, float *prev_delta) const override
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
                    uint32_t table_size, float *out) const override
    {
        // The per-feature chains (8 corner adds each) are short and
        // gather-addressed; vectorizing across the fpe features keeps
        // each chain in scalar order. With the typical fpe = 2 the
        // win is modest -- this kernel is here for the seam, the MLP
        // panels and Adam sweeps carry the speedup.
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
                    const size_t slot =
                        static_cast<size_t>(l) * 8 + corner;
                    const float wc = wgt[slot];
                    const float *entry =
                        table + (static_cast<size_t>(l) * table_size +
                                 a[slot]) *
                                    fpe;
#pragma omp simd
                    for (int f = 0; f < fpe; f++)
                        ol[f] += wc * entry[f];
                }
            }
        }
    }

    void
    adamDenseStep(float *params, const float *grads, float *m, float *v,
                  size_t n, const AdamKernelParams &kp) const override
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
    reduceDense(float *dst, float *src, size_t n) const override
    {
#pragma omp simd
        for (size_t i = 0; i < n; i++) {
            dst[i] += src[i];
            src[i] = 0.0f;
        }
    }
};

} // namespace

const KernelBackend &
simdBackend()
{
    static const SimdBackend backend;
    return backend;
}

std::unique_ptr<KernelBackend>
makeSimdBackend()
{
    return std::make_unique<SimdBackend>();
}

} // namespace instant3d
