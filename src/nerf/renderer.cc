#include "nerf/renderer.hh"

#include <cmath>

#include "common/logging.hh"
#include "kernels/kernel_backend.hh"

namespace instant3d {

RayResult
VolumeRenderer::renderRay(NerfField &field, const Ray &ray, Rng *jitter,
                          RayRecord *rec) const
{
    const int n = cfg.samplesPerRay;
    const float dt = (cfg.tFar - cfg.tNear) / static_cast<float>(n);

    RayResult out;
    float transmittance = 1.0f;

    if (rec) {
        rec->samples.clear();
        rec->samples.reserve(n);
    }

    for (int k = 0; k < n; k++) {
        float offset = jitter ? jitter->nextFloat() : 0.5f;
        float t = cfg.tNear + (static_cast<float>(k) + offset) * dt;
        Vec3 p = ray.at(t);

        // Empty-space skipping: unoccupied cells contribute nothing.
        if (occupancy && !occupancy->occupied(p))
            continue;

        FieldRecord *frec = nullptr;
        RayRecord::Sample sample;
        if (rec)
            frec = &sample.field;
        FieldSample fs = field.query(p, ray.direction, frec);

        float alpha = 1.0f - std::exp(-fs.sigma * dt);
        float weight = transmittance * alpha;
        out.color += fs.rgb * weight;
        out.depth += t * weight;

        if (rec) {
            sample.t = t;
            sample.dt = dt;
            sample.sigma = fs.sigma;
            sample.alpha = alpha;
            sample.transmittance = transmittance;
            sample.rgb = fs.rgb;
            rec->samples.push_back(std::move(sample));
        }

        transmittance *= 1.0f - alpha;
        // Early termination only when not recording for backprop.
        if (!rec && transmittance < cfg.earlyStopTransmittance)
            break;
    }

    out.color += cfg.background * transmittance;
    out.depth += cfg.tFar * transmittance;
    out.opacity = 1.0f - transmittance;
    if (rec)
        rec->finalTransmittance = transmittance;
    return out;
}

void
VolumeRenderer::marchRays(const Ray *rays, int numRays, Rng *rngs,
                          SampleStream &stream, Workspace &ws) const
{
    const int n = cfg.samplesPerRay;
    const float dt = (cfg.tFar - cfg.tNear) / static_cast<float>(n);

    stream.numRays = numRays;
    stream.dt = dt;
    stream.spans = ws.alloc<RaySpan>(numRays);
    stream.pts = ws.alloc<Vec3>(static_cast<size_t>(numRays) * n);
    stream.ts = ws.alloc<float>(static_cast<size_t>(numRays) * n);
    stream.dirs = ws.alloc<Vec3>(numRays);

    float *offsets = ws.alloc<float>(n);
    int total = 0;
    for (int r = 0; r < numRays; r++) {
        stream.dirs[r] = rays[r].direction;
        // One jitter draw per sample bin, all drawn before the
        // occupancy filter.
        Rng *jitter = rngs ? &rngs[r] : nullptr;
        for (int k = 0; k < n; k++)
            offsets[k] = jitter ? jitter->nextFloat() : 0.5f;

        stream.spans[r].offset = total;
        for (int k = 0; k < n; k++) {
            float t =
                cfg.tNear + (static_cast<float>(k) + offsets[k]) * dt;
            Vec3 p = rays[r].at(t);
            if (occupancy && !occupancy->occupied(p))
                continue;
            stream.pts[total] = p;
            stream.ts[total] = t;
            total++;
        }
        stream.spans[r].count = total - stream.spans[r].offset;
    }
    stream.totalSamples = total;
}

void
VolumeRenderer::renderStream(NerfField &field, const SampleStream &stream,
                             RayResult *results, StreamRecord *rec,
                             Workspace &ws) const
{
    const int total = stream.totalSamples;
    FieldSample *fs = ws.alloc<FieldSample>(total);
    field.queryStream(stream.pts, total, stream.spans, stream.dirs,
                      stream.numRays, fs, &rec->field, ws);

    rec->alpha = ws.alloc<float>(total);
    rec->trans = ws.alloc<float>(total);
    rec->rgb = ws.alloc<Vec3>(total);
    rec->finalTrans = ws.alloc<float>(stream.numRays);

    resolveBackend(kernelBackend)
        .compositeStream(stream.spans, stream.numRays, fs, stream.ts,
                         stream.dt, cfg.background, cfg.tFar, results,
                         rec->alpha, rec->trans, rec->rgb,
                         rec->finalTrans);
}

void
VolumeRenderer::backwardStream(NerfField &field,
                               const SampleStream &stream,
                               const StreamRecord &rec,
                               const Vec3 *d_colors, bool update_density,
                               bool update_color, FieldGradients *target,
                               Workspace &ws) const
{
    const int total = stream.totalSamples;
    float *d_sigma = ws.alloc<float>(total);
    Vec3 *d_rgb = ws.alloc<Vec3>(total);
    uint8_t *skip = ws.alloc<uint8_t>(total);

    // The per-ray suffix recursion of backwardRay, descending over
    // each span. Samples whose gradients fall below the skip
    // threshold (occluded points, post-early-stop tails) are flagged
    // and never enter the propagation stage.
    resolveBackend(kernelBackend)
        .compositeBackward(stream.spans, stream.numRays, d_colors,
                           stream.dt, cfg.background,
                           cfg.gradientSkipThreshold, rec.alpha,
                           rec.trans, rec.rgb, rec.finalTrans, d_sigma,
                           d_rgb, skip);

    field.backwardStream(rec.field, stream.spans, stream.numRays,
                         d_sigma, d_rgb, skip, update_density,
                         update_color, target, ws);
}

void
VolumeRenderer::renderRays(NerfField &field, const Ray *rays,
                           int numRays, RayResult *results,
                           Workspace &ws) const
{
    constexpr int block = 16; // sample bins per lockstep advance
    const int n = cfg.samplesPerRay;
    const float dt = (cfg.tFar - cfg.tNear) / static_cast<float>(n);

    int *alive = ws.alloc<int>(numRays);
    float *trans = ws.alloc<float>(numRays);
    for (int r = 0; r < numRays; r++) {
        alive[r] = r;
        trans[r] = 1.0f;
        results[r] = RayResult{};
    }
    int num_alive = numRays;

    for (int k0 = 0; k0 < n && num_alive > 0; k0 += block) {
        const int k_end = k0 + block < n ? k0 + block : n;
        const int bins = k_end - k0;

        RaySpan *spans = ws.alloc<RaySpan>(num_alive);
        Vec3 *pts =
            ws.alloc<Vec3>(static_cast<size_t>(num_alive) * bins);
        float *ts =
            ws.alloc<float>(static_cast<size_t>(num_alive) * bins);
        Vec3 *dirs = ws.alloc<Vec3>(num_alive);

        int total = 0;
        for (int i = 0; i < num_alive; i++) {
            const Ray &ray = rays[alive[i]];
            dirs[i] = ray.direction;
            spans[i].offset = total;
            for (int k = k0; k < k_end; k++) {
                float t =
                    cfg.tNear + (static_cast<float>(k) + 0.5f) * dt;
                Vec3 p = ray.at(t);
                if (occupancy && !occupancy->occupied(p))
                    continue;
                pts[total] = p;
                ts[total] = t;
                total++;
            }
            spans[i].count = total - spans[i].offset;
        }

        FieldSample *fs = ws.alloc<FieldSample>(total);
        field.queryStream(pts, total, spans, dirs, num_alive, fs,
                          nullptr, ws);

        // Per-ray composite of this block, the fold of renderRay:
        // block boundaries never change the arithmetic, only how many
        // samples were queried ahead of the early stop.
        int kept = 0;
        for (int i = 0; i < num_alive; i++) {
            const int r = alive[i];
            float transmittance = trans[r];
            bool stopped = false;
            for (int s = spans[i].offset;
                 s < spans[i].offset + spans[i].count; s++) {
                float alpha = 1.0f - std::exp(-fs[s].sigma * dt);
                float weight = transmittance * alpha;
                results[r].color += fs[s].rgb * weight;
                results[r].depth += ts[s] * weight;
                transmittance *= 1.0f - alpha;
                if (transmittance < cfg.earlyStopTransmittance) {
                    stopped = true;
                    break;
                }
            }
            trans[r] = transmittance;
            if (!stopped)
                alive[kept++] = r;
        }
        num_alive = kept;
    }

    for (int r = 0; r < numRays; r++) {
        results[r].color += cfg.background * trans[r];
        results[r].depth += cfg.tFar * trans[r];
        results[r].opacity = 1.0f - trans[r];
    }
}

void
VolumeRenderer::backwardRay(NerfField &field, const RayRecord &rec,
                            const Vec3 &d_color, bool update_density,
                            bool update_color) const
{
    // Suffix accumulator: S_k = sum_{j>k} w_j (c_j . g) + bg.g * T_final.
    float suffix = cfg.background.dot(d_color) * rec.finalTransmittance;

    for (int k = static_cast<int>(rec.samples.size()) - 1; k >= 0; k--) {
        const auto &s = rec.samples[k];
        float weight = s.transmittance * s.alpha;
        float cg = s.rgb.dot(d_color);

        // d alpha_k / d sigma_k = dt * (1 - alpha_k); the (1 - alpha_k)
        // in the first term cancels the 1/(1 - alpha_k) in the suffix
        // term, so no division is needed (robust for alpha -> 1).
        float d_sigma =
            s.dt * ((1.0f - s.alpha) * s.transmittance * cg - suffix);

        Vec3 d_rgb = d_color * weight;
        float mag = std::fabs(d_sigma) +
                    std::fabs(d_rgb.x) + std::fabs(d_rgb.y) +
                    std::fabs(d_rgb.z);
        if (mag > cfg.gradientSkipThreshold) {
            field.backward(s.field, d_sigma, d_rgb, update_density,
                           update_color);
        }

        suffix += weight * cg;
    }
}

} // namespace instant3d
