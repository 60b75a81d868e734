/**
 * @file
 * KernelBackend base implementations: the scalar reference loops,
 * moved verbatim from their original call sites (Mlp, HashEncoding,
 * Adam, NerfField, VolumeRenderer). These define the bit-exact
 * behaviour every other backend is measured against, so edits here
 * change the repo's determinism contract -- don't.
 */

#include "kernels/kernel_backend.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "nerf/renderer.hh"

namespace instant3d {

void
KernelBackend::mlpForwardPanel(const float *in, int n, int n_in,
                               int n_out, const float *w, const float *b,
                               float *out, Workspace &ws) const
{
    (void)ws;
    for (int s = 0; s < n; s++) {
        const float *x = in + static_cast<size_t>(s) * n_in;
        float *y = out + static_cast<size_t>(s) * n_out;
        for (int o = 0; o < n_out; o++) {
            float acc = b[o];
            const float *wrow = w + static_cast<size_t>(o) * n_in;
            for (int i = 0; i < n_in; i++)
                acc += wrow[i] * x[i];
            y[o] = acc;
        }
    }
}

void
KernelBackend::reluPanel(float *x, size_t count) const
{
    for (size_t i = 0; i < count; i++)
        x[i] = std::max(x[i], 0.0f);
}

void
KernelBackend::sigmoidPanel(float *x, size_t count) const
{
    for (size_t i = 0; i < count; i++)
        x[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void
KernelBackend::mlpBackwardPanel(const float *delta, int n_out, int n_in,
                                const float *act, const float *w,
                                float *gw, float *gb,
                                float *prev_delta) const
{
    std::fill(prev_delta, prev_delta + n_in, 0.0f);
    for (int o = 0; o < n_out; o++) {
        float d = delta[o];
        if (d == 0.0f)
            continue;
        float *gwrow = gw + static_cast<size_t>(o) * n_in;
        const float *wrow = w + static_cast<size_t>(o) * n_in;
        for (int i = 0; i < n_in; i++) {
            gwrow[i] += d * act[i];
            prev_delta[i] += d * wrow[i];
        }
        gb[o] += d;
    }
}

void
KernelBackend::hashInterpBatch(const float *table, const uint32_t *addrs,
                               const float *weights, int n, int levels,
                               int fpe, uint32_t table_size,
                               float *out) const
{
    const size_t slots = static_cast<size_t>(levels) * 8;
    const size_t dim = static_cast<size_t>(levels) * fpe;
    for (int s = 0; s < n; s++) {
        const uint32_t *a = addrs + static_cast<size_t>(s) * slots;
        const float *wgt = weights + static_cast<size_t>(s) * slots;
        float *o = out + static_cast<size_t>(s) * dim;
        for (int l = 0; l < levels; l++) {
            for (int f = 0; f < fpe; f++)
                o[l * fpe + f] = 0.0f;
            for (int corner = 0; corner < 8; corner++) {
                const size_t slot = static_cast<size_t>(l) * 8 + corner;
                const float wc = wgt[slot];
                const size_t off =
                    (static_cast<size_t>(l) * table_size + a[slot]) *
                    fpe;
                for (int f = 0; f < fpe; f++)
                    o[l * fpe + f] += wc * table[off + f];
            }
        }
    }
}

void
KernelBackend::hashScatterSample(const uint32_t *addrs,
                                 const float *weights, const float *d_out,
                                 int levels, int fpe, uint32_t table_size,
                                 float *grad, uint64_t *touched) const
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
KernelBackend::adamDenseStep(float *params, const float *grads, float *m,
                             float *v, size_t n,
                             const AdamKernelParams &kp) const
{
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
KernelBackend::reduceDense(float *dst, float *src, size_t n) const
{
    for (size_t i = 0; i < n; i++) {
        dst[i] += src[i];
        src[i] = 0.0f;
    }
}

void
KernelBackend::compositeStream(const RaySpan *spans, int num_rays,
                               const FieldSample *fs, const float *ts,
                               float dt, const Vec3 &background,
                               float t_far, RayResult *results,
                               float *alpha, float *trans, Vec3 *rgb,
                               float *final_trans) const
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
KernelBackend::compositeBackward(const RaySpan *spans, int num_rays,
                                 const Vec3 *d_colors, float dt,
                                 const Vec3 &background,
                                 float skip_threshold, const float *alpha,
                                 const float *trans, const Vec3 *rgb,
                                 const float *final_trans, float *d_sigma,
                                 Vec3 *d_rgb, uint8_t *skip) const
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

namespace {

/** The reference backend is the base class with a name. */
class ScalarRefBackend final : public KernelBackend
{
  public:
    const char *name() const override { return "scalar_ref"; }
};

} // namespace

std::unique_ptr<KernelBackend>
makeScalarRefBackend()
{
    return std::make_unique<ScalarRefBackend>();
}

std::unique_ptr<KernelBackend>
createKernelBackend(std::string name)
{
    if (const char *env = std::getenv("INSTANT3D_KERNEL_BACKEND");
        env && *env)
        name = env;
    if (name == "simd")
        return makeSimdBackend();
    if (name == "scalar_ref")
        return makeScalarRefBackend();
    fatal("unknown kernel backend '" + name +
          "' (expected simd or scalar_ref)");
}

} // namespace instant3d
