#include "nerf/field.hh"

#include <cmath>

#include "common/logging.hh"
#include "kernels/kernel_backend.hh"

namespace instant3d {

float
softplus(float x)
{
    // Numerically stable softplus.
    if (x > 15.0f)
        return x;
    if (x < -15.0f)
        return std::exp(x);
    return std::log1p(std::exp(x));
}

float
softplusDerivative(float x)
{
    if (x > 15.0f)
        return 1.0f;
    if (x < -15.0f)
        return std::exp(x);
    return 1.0f / (1.0f + std::exp(-x));
}

FieldConfig
FieldConfig::instant3dDefault(const HashEncodingConfig &base)
{
    FieldConfig cfg;
    cfg.mode = FieldMode::Decoupled;
    cfg.densityGrid = base;
    cfg.colorGrid = base.scaledBy(0.25f); // S_D : S_C = 1 : 0.25
    return cfg;
}

FieldConfig
FieldConfig::ngpBaseline(const HashEncodingConfig &base)
{
    FieldConfig cfg;
    cfg.mode = FieldMode::Coupled;
    cfg.densityGrid = base;
    cfg.colorGrid = base; // unused in coupled mode
    return cfg;
}

FieldConfig
FieldConfig::vanillaBaseline(int hidden, int layers)
{
    FieldConfig cfg;
    cfg.mode = FieldMode::Vanilla;
    cfg.hiddenDim = hidden;
    cfg.vanillaHiddenLayers = layers;
    return cfg;
}

void
NerfField::encodePosition(const Vec3 &p, int frequencies, float *out)
{
    constexpr float pi = 3.14159265358979323846f;
    out[0] = p.x;
    out[1] = p.y;
    out[2] = p.z;
    int idx = 3;
    float scale = pi;
    for (int k = 0; k < frequencies; k++) {
        for (int axis = 0; axis < 3; axis++) {
            float v = scale * p[axis];
            out[idx++] = std::sin(v);
            out[idx++] = std::cos(v);
        }
        scale *= 2.0f;
    }
}

void
NerfField::encodeDirection(const Vec3 &d, float *out)
{
    Vec3 n = d.normalized();
    out[0] = n.x;
    out[1] = n.y;
    out[2] = n.z;
    out[3] = n.x * n.x;
    out[4] = n.y * n.y;
    out[5] = n.z * n.z;
    out[6] = n.x * n.y;
    out[7] = n.y * n.z;
    out[8] = n.z * n.x;
}

NerfField::NerfField(const FieldConfig &config, uint64_t seed)
    : cfg(config)
{
    if (cfg.mode == FieldMode::Vanilla) {
        // No embedding grid: positional encoding straight into a
        // deeper MLP stack (scaled-down vanilla NeRF).
        std::vector<int> dens_dims = {cfg.posEncodingDim()};
        for (int l = 0; l < cfg.vanillaHiddenLayers; l++)
            dens_dims.push_back(cfg.hiddenDim);
        dens_dims.push_back(1 + cfg.geoFeatureDim);
        densityMlpPtr = std::make_unique<Mlp>(
            dens_dims, OutputActivation::None, seed + 3);
        colorMlpPtr = std::make_unique<Mlp>(
            std::vector<int>{cfg.geoFeatureDim + dirEncodingDim,
                             cfg.hiddenDim, 3},
            OutputActivation::Sigmoid, seed + 4);
        return;
    }

    densityGridPtr =
        std::make_unique<HashEncoding>(cfg.densityGrid, seed + 1);

    if (cfg.mode == FieldMode::Decoupled) {
        colorGridPtr =
            std::make_unique<HashEncoding>(cfg.colorGrid, seed + 2);
        densityMlpPtr = std::make_unique<Mlp>(
            std::vector<int>{densityGridPtr->outputDim(), cfg.hiddenDim,
                             1},
            OutputActivation::None, seed + 3);
        colorMlpPtr = std::make_unique<Mlp>(
            std::vector<int>{colorGridPtr->outputDim() + dirEncodingDim,
                             cfg.hiddenDim, 3},
            OutputActivation::Sigmoid, seed + 4);
    } else {
        densityMlpPtr = std::make_unique<Mlp>(
            std::vector<int>{densityGridPtr->outputDim(), cfg.hiddenDim,
                             1 + cfg.geoFeatureDim},
            OutputActivation::None, seed + 3);
        colorMlpPtr = std::make_unique<Mlp>(
            std::vector<int>{cfg.geoFeatureDim + dirEncodingDim,
                             cfg.hiddenDim, 3},
            OutputActivation::Sigmoid, seed + 4);
    }
}

FieldSample
NerfField::query(const Vec3 &p, const Vec3 &d, FieldRecord *rec)
{
    queries.fetch_add(1, std::memory_order_relaxed);
    FieldSample out;

    float dir_enc[dirEncodingDim];
    encodeDirection(d, dir_enc);

    if (cfg.mode == FieldMode::Vanilla) {
        std::vector<float> pos_enc(cfg.posEncodingDim());
        encodePosition(clamp(p, 0.0f, 1.0f), cfg.posEncFrequencies,
                       pos_enc.data());
        std::vector<float> dens_out(1 + cfg.geoFeatureDim);
        densityMlpPtr->forward(pos_enc.data(), dens_out.data(),
                               rec ? &rec->densityMlp : nullptr);
        out.sigma = softplus(dens_out[0]);

        std::vector<float> col_in(dens_out.begin() + 1, dens_out.end());
        col_in.insert(col_in.end(), dir_enc, dir_enc + dirEncodingDim);
        float rgb[3];
        colorMlpPtr->forward(col_in.data(), rgb,
                             rec ? &rec->colorMlp : nullptr);
        out.rgb = {rgb[0], rgb[1], rgb[2]};
        if (rec) {
            rec->densityFeat = std::move(pos_enc);
            rec->dirEnc.assign(dir_enc, dir_enc + dirEncodingDim);
            rec->rawSigma = dens_out[0];
            rec->densityOut = std::move(dens_out);
        }
        return out;
    }

    std::vector<float> dens_feat(densityGridPtr->outputDim());
    densityGridPtr->encode(p, dens_feat.data(),
                           rec ? &rec->densityEnc : nullptr);

    if (cfg.mode == FieldMode::Decoupled) {
        float sigma_raw = 0.0f;
        densityMlpPtr->forward(dens_feat.data(), &sigma_raw,
                               rec ? &rec->densityMlp : nullptr);
        out.sigma = softplus(sigma_raw);

        std::vector<float> col_feat(colorGridPtr->outputDim());
        colorGridPtr->encode(p, col_feat.data(),
                             rec ? &rec->colorEnc : nullptr);

        std::vector<float> col_in(col_feat);
        col_in.insert(col_in.end(), dir_enc, dir_enc + dirEncodingDim);
        float rgb[3];
        colorMlpPtr->forward(col_in.data(), rgb,
                             rec ? &rec->colorMlp : nullptr);
        out.rgb = {rgb[0], rgb[1], rgb[2]};

        if (rec) {
            rec->densityFeat = std::move(dens_feat);
            rec->colorFeat = std::move(col_feat);
            rec->dirEnc.assign(dir_enc, dir_enc + dirEncodingDim);
            rec->rawSigma = sigma_raw;
        }
    } else {
        std::vector<float> dens_out(1 + cfg.geoFeatureDim);
        densityMlpPtr->forward(dens_feat.data(), dens_out.data(),
                               rec ? &rec->densityMlp : nullptr);
        out.sigma = softplus(dens_out[0]);

        std::vector<float> col_in(dens_out.begin() + 1, dens_out.end());
        col_in.insert(col_in.end(), dir_enc, dir_enc + dirEncodingDim);
        float rgb[3];
        colorMlpPtr->forward(col_in.data(), rgb,
                             rec ? &rec->colorMlp : nullptr);
        out.rgb = {rgb[0], rgb[1], rgb[2]};

        if (rec) {
            rec->densityFeat = std::move(dens_feat);
            rec->dirEnc.assign(dir_enc, dir_enc + dirEncodingDim);
            rec->rawSigma = dens_out[0];
            rec->densityOut = std::move(dens_out);
        }
    }
    return out;
}

void
NerfField::backward(const FieldRecord &rec, float d_sigma,
                    const Vec3 &d_rgb, bool update_density,
                    bool update_color)
{
    float d_rgb_arr[3] = {d_rgb.x, d_rgb.y, d_rgb.z};

    if (cfg.mode == FieldMode::Decoupled) {
        if (update_color) {
            std::vector<float> d_col_in(
                colorGridPtr->outputDim() + dirEncodingDim);
            colorMlpPtr->backward(rec.colorMlp, d_rgb_arr,
                                  d_col_in.data());
            colorGridPtr->backward(rec.colorEnc, d_col_in.data());
        }
        if (update_density) {
            float d_raw = d_sigma * softplusDerivative(rec.rawSigma);
            std::vector<float> d_feat(densityGridPtr->outputDim());
            densityMlpPtr->backward(rec.densityMlp, &d_raw,
                                    d_feat.data());
            densityGridPtr->backward(rec.densityEnc, d_feat.data());
        }
        return;
    }

    // Coupled / vanilla modes: the color MLP must run backward to
    // reach the shared trunk even when the color group is frozen.
    std::vector<float> d_col_in(cfg.geoFeatureDim + dirEncodingDim);
    colorMlpPtr->backward(rec.colorMlp, d_rgb_arr, d_col_in.data());

    std::vector<float> d_dens_out(1 + cfg.geoFeatureDim, 0.0f);
    d_dens_out[0] = d_sigma * softplusDerivative(rec.rawSigma);
    for (int i = 0; i < cfg.geoFeatureDim; i++)
        d_dens_out[1 + i] = d_col_in[i];

    if (update_density) {
        if (cfg.mode == FieldMode::Vanilla) {
            // Positional encoding has no trainable parameters.
            densityMlpPtr->backward(rec.densityMlp, d_dens_out.data(),
                                    nullptr);
        } else {
            std::vector<float> d_feat(densityGridPtr->outputDim());
            densityMlpPtr->backward(rec.densityMlp, d_dens_out.data(),
                                    d_feat.data());
            densityGridPtr->backward(rec.densityEnc, d_feat.data());
        }
    }
}

float *
NerfField::encodeTrunk(const Vec3 *pts, int n, EncodeBatchRecord *rec,
                       Workspace &ws)
{
    const int in_dim = densityMlpPtr->inputDim();
    float *in = ws.alloc<float>(static_cast<size_t>(n) * in_dim);
    if (cfg.mode == FieldMode::Vanilla) {
        for (int s = 0; s < n; s++) {
            encodePosition(clamp(pts[s], 0.0f, 1.0f),
                           cfg.posEncFrequencies,
                           in + static_cast<size_t>(s) * in_dim);
        }
    } else {
        densityGridPtr->encodeBatch(pts, n, in, rec, ws);
    }
    return in;
}

void
NerfField::queryBatch(const Vec3 *pts, int n, const Vec3 &d,
                      FieldSample *out, FieldBatchRecord *rec,
                      Workspace &ws)
{
    RaySpan span{0, n};
    queryStream(pts, n, &span, &d, 1, out, rec, ws);
}

void
NerfField::queryStream(const Vec3 *pts, int n, const RaySpan *spans,
                       const Vec3 *dirs, int numRays, FieldSample *out,
                       FieldBatchRecord *rec, Workspace &ws)
{
    if (n <= 0)
        return;
    queries.fetch_add(static_cast<uint64_t>(n),
                      std::memory_order_relaxed);

    // One direction encoding per ray, broadcast over that ray's span
    // when the color-MLP input rows are assembled. Rays whose whole
    // span was skipped (e.g. sky pixels) never need one.
    float *dir_enc =
        ws.alloc<float>(static_cast<size_t>(numRays) * dirEncodingDim);
    for (int r = 0; r < numRays; r++) {
        if (spans[r].count == 0)
            continue;
        encodeDirection(dirs[r],
                        dir_enc + static_cast<size_t>(r) * dirEncodingDim);
    }

    if (rec)
        rec->n = n;

    if (cfg.mode == FieldMode::Decoupled) {
        float *dens_feat =
            encodeTrunk(pts, n, rec ? &rec->densityEnc : nullptr, ws);
        float *raw = ws.alloc<float>(n);
        densityMlpPtr->forwardBatch(dens_feat, n, raw,
                                    rec ? &rec->densityMlp : nullptr,
                                    ws);

        const int cdim = colorGridPtr->outputDim();
        float *col_feat =
            ws.alloc<float>(static_cast<size_t>(n) * cdim);
        colorGridPtr->encodeBatch(pts, n, col_feat,
                                  rec ? &rec->colorEnc : nullptr, ws);

        const int cin = cdim + dirEncodingDim;
        float *col_in = ws.alloc<float>(static_cast<size_t>(n) * cin);
        for (int r = 0; r < numRays; r++) {
            const float *de =
                dir_enc + static_cast<size_t>(r) * dirEncodingDim;
            for (int s = spans[r].offset;
                 s < spans[r].offset + spans[r].count; s++) {
                float *row = col_in + static_cast<size_t>(s) * cin;
                std::copy(col_feat + static_cast<size_t>(s) * cdim,
                          col_feat + static_cast<size_t>(s + 1) * cdim,
                          row);
                std::copy(de, de + dirEncodingDim, row + cdim);
            }
        }
        float *rgb = ws.alloc<float>(static_cast<size_t>(n) * 3);
        colorMlpPtr->forwardBatch(col_in, n, rgb,
                                  rec ? &rec->colorMlp : nullptr, ws);

        for (int s = 0; s < n; s++) {
            out[s].sigma = softplus(raw[s]);
            out[s].rgb = {rgb[3 * s], rgb[3 * s + 1], rgb[3 * s + 2]};
        }
        if (rec)
            rec->rawSigma = raw;
        return;
    }

    // Coupled and vanilla modes share the chained-trunk layout; they
    // differ only in how the trunk input is produced.
    float *trunk_in =
        encodeTrunk(pts, n, rec ? &rec->densityEnc : nullptr, ws);

    const int odim = 1 + cfg.geoFeatureDim;
    float *dens_out = ws.alloc<float>(static_cast<size_t>(n) * odim);
    densityMlpPtr->forwardBatch(trunk_in, n, dens_out,
                                rec ? &rec->densityMlp : nullptr, ws);

    const int cin = cfg.geoFeatureDim + dirEncodingDim;
    float *col_in = ws.alloc<float>(static_cast<size_t>(n) * cin);
    for (int r = 0; r < numRays; r++) {
        const float *de =
            dir_enc + static_cast<size_t>(r) * dirEncodingDim;
        for (int s = spans[r].offset;
             s < spans[r].offset + spans[r].count; s++) {
            float *row = col_in + static_cast<size_t>(s) * cin;
            const float *geo =
                dens_out + static_cast<size_t>(s) * odim + 1;
            std::copy(geo, geo + cfg.geoFeatureDim, row);
            std::copy(de, de + dirEncodingDim, row + cfg.geoFeatureDim);
        }
    }
    float *rgb = ws.alloc<float>(static_cast<size_t>(n) * 3);
    colorMlpPtr->forwardBatch(col_in, n, rgb,
                              rec ? &rec->colorMlp : nullptr, ws);

    float *raw = ws.alloc<float>(n);
    for (int s = 0; s < n; s++) {
        raw[s] = dens_out[static_cast<size_t>(s) * odim];
        out[s].sigma = softplus(raw[s]);
        out[s].rgb = {rgb[3 * s], rgb[3 * s + 1], rgb[3 * s + 2]};
    }
    if (rec)
        rec->rawSigma = raw;
}

void
NerfField::queryDensity(const Vec3 *pts, int n, float *sigma,
                        Workspace &ws)
{
    if (n <= 0)
        return;
    queries.fetch_add(static_cast<uint64_t>(n),
                      std::memory_order_relaxed);
    float *trunk_in = encodeTrunk(pts, n, nullptr, ws);

    // Decoupled outputs sigma alone; the chained trunk of Coupled and
    // Vanilla puts it in column 0, ahead of the geometry features.
    const int odim = densityMlpPtr->outputDim();
    float *out = ws.alloc<float>(static_cast<size_t>(n) * odim);
    densityMlpPtr->forwardBatch(trunk_in, n, out, nullptr, ws);
    for (int s = 0; s < n; s++)
        sigma[s] = softplus(out[static_cast<size_t>(s) * odim]);
}

void
NerfField::backwardStream(const FieldBatchRecord &rec, const RaySpan *spans,
                          int numRays, const float *d_sigma,
                          const Vec3 *d_rgb, const uint8_t *skip,
                          bool update_density, bool update_color,
                          FieldGradients *target, Workspace &ws)
{
    // Rays ascending, samples descending within each span.
    int *order = ws.alloc<int>(rec.n);
    int count = 0;
    for (int r = 0; r < numRays; r++)
        for (int s = spans[r].offset + spans[r].count - 1;
             s >= spans[r].offset; s--)
            order[count++] = s;

    float *g_dmlp = target ? target->densityMlp.v.data()
                           : densityMlpPtr->grads().data();
    float *g_cmlp = target ? target->colorMlp.v.data()
                           : colorMlpPtr->grads().data();

    if (cfg.mode == FieldMode::Decoupled) {
        float *g_dgrid = target ? target->densityGrid.v.data()
                                : densityGridPtr->grads().data();
        float *g_cgrid = target ? target->colorGrid.v.data()
                                : colorGridPtr->grads().data();
        auto *t_dgrid = target ? &target->densityGrid.touched : nullptr;
        auto *t_cgrid = target ? &target->colorGrid.touched : nullptr;

        const int cin = colorGridPtr->outputDim() + dirEncodingDim;
        float *d_col_in = ws.alloc<float>(cin);
        float *d_feat = ws.alloc<float>(densityGridPtr->outputDim());

        for (int i = 0; i < count; i++) {
            const int s = order[i];
            if (skip && skip[s])
                continue;
            float d_rgb_arr[3] = {d_rgb[s].x, d_rgb[s].y, d_rgb[s].z};
            if (update_color) {
                colorMlpPtr->backwardSample(rec.colorMlp, s, d_rgb_arr,
                                            d_col_in, g_cmlp, ws);
                colorGridPtr->backwardSample(rec.colorEnc, s, d_col_in,
                                             g_cgrid, t_cgrid);
            }
            if (update_density) {
                float d_raw =
                    d_sigma[s] * softplusDerivative(rec.rawSigma[s]);
                densityMlpPtr->backwardSample(rec.densityMlp, s, &d_raw,
                                              d_feat, g_dmlp, ws);
                densityGridPtr->backwardSample(rec.densityEnc, s, d_feat,
                                               g_dgrid, t_dgrid);
            }
        }
        return;
    }

    // Coupled / vanilla: the color MLP always runs backward to reach
    // the shared trunk (its own gradients are simply never stepped on
    // frozen iterations).
    const int cin = cfg.geoFeatureDim + dirEncodingDim;
    const int odim = 1 + cfg.geoFeatureDim;
    float *d_col_in = ws.alloc<float>(cin);
    float *d_dens_out = ws.alloc<float>(odim);
    float *d_feat = cfg.mode == FieldMode::Vanilla
                        ? nullptr
                        : ws.alloc<float>(densityGridPtr->outputDim());
    float *g_dgrid = nullptr;
    std::vector<uint32_t> *t_dgrid = nullptr;
    if (cfg.mode != FieldMode::Vanilla) {
        g_dgrid = target ? target->densityGrid.v.data()
                         : densityGridPtr->grads().data();
        t_dgrid = target ? &target->densityGrid.touched : nullptr;
    }

    for (int i = 0; i < count; i++) {
        const int s = order[i];
        if (skip && skip[s])
            continue;
        float d_rgb_arr[3] = {d_rgb[s].x, d_rgb[s].y, d_rgb[s].z};
        colorMlpPtr->backwardSample(rec.colorMlp, s, d_rgb_arr, d_col_in,
                                    g_cmlp, ws);

        d_dens_out[0] = d_sigma[s] * softplusDerivative(rec.rawSigma[s]);
        for (int j = 0; j < cfg.geoFeatureDim; j++)
            d_dens_out[1 + j] = d_col_in[j];

        if (update_density) {
            if (cfg.mode == FieldMode::Vanilla) {
                densityMlpPtr->backwardSample(rec.densityMlp, s,
                                              d_dens_out, nullptr,
                                              g_dmlp, ws);
            } else {
                densityMlpPtr->backwardSample(rec.densityMlp, s,
                                              d_dens_out, d_feat,
                                              g_dmlp, ws);
                densityGridPtr->backwardSample(rec.densityEnc, s, d_feat,
                                               g_dgrid, t_dgrid);
            }
        }
    }
}

void
NerfField::prepareGradients(FieldGradients &g) const
{
    auto prep_sparse = [](GradShard &s, size_t size, uint32_t span) {
        s.dense = false;
        s.span = span;
        if (s.v.size() != size)
            s.v.assign(size, 0.0f);
        s.touched.clear();
    };
    auto prep_dense = [](GradShard &s, size_t size) {
        s.dense = true;
        s.span = 1;
        if (s.v.size() != size)
            s.v.assign(size, 0.0f);
        s.touched.clear();
    };

    if (densityGridPtr) {
        prep_sparse(g.densityGrid, densityGridPtr->grads().size(),
                    static_cast<uint32_t>(
                        densityGridPtr->config().featuresPerEntry));
    }
    if (colorGridPtr) {
        prep_sparse(g.colorGrid, colorGridPtr->grads().size(),
                    static_cast<uint32_t>(
                        colorGridPtr->config().featuresPerEntry));
    }
    prep_dense(g.densityMlp, densityMlpPtr->grads().size());
    prep_dense(g.colorMlp, colorMlpPtr->grads().size());
}

void
NerfField::noteDirty(DirtySet &set, const std::vector<uint32_t> &touched,
                     uint32_t span) const
{
    for (uint32_t off : touched) {
        const uint32_t entry = off / span;
        uint64_t &word = set.bits[entry >> 6];
        const uint64_t bit = 1ull << (entry & 63);
        if (!(word & bit)) {
            word |= bit;
            set.entries.push_back(off);
        }
    }
}

void
NerfField::resetDirty(DirtySet &set)
{
    // The bitmap is one bit per table entry, so the per-iteration
    // clear is a few KB of memset -- cheaper than any epoch scheme's
    // extra indirection in the hot membership test.
    std::fill(set.bits.begin(), set.bits.end(), 0ull);
    set.entries.clear();
}

void
NerfField::setDirtyTracking(bool enable)
{
    trackDirty = enable;
    if (!enable)
        return;
    auto init = [](DirtySet &set, size_t grads_size, uint32_t span) {
        set.bits.assign((grads_size / span + 63) / 64, 0ull);
        set.entries.clear();
    };
    if (densityGridPtr) {
        init(dirtyDensity, densityGridPtr->grads().size(),
             static_cast<uint32_t>(
                 densityGridPtr->config().featuresPerEntry));
    }
    if (colorGridPtr) {
        init(dirtyColor, colorGridPtr->grads().size(),
             static_cast<uint32_t>(
                 colorGridPtr->config().featuresPerEntry));
    }
}

const std::vector<uint32_t> &
NerfField::dirtyEntries(ParamGroupId id) const
{
    panicIf(!trackDirty, "dirty tracking is not enabled");
    switch (id) {
      case ParamGroupId::DensityGrid:
        panicIf(!densityGridPtr, "field mode has no density grid");
        return dirtyDensity.entries;
      case ParamGroupId::ColorGrid:
        panicIf(!colorGridPtr, "field mode has no color grid");
        return dirtyColor.entries;
      default:
        panic("only grid groups have dirty lists");
    }
}

void
NerfField::zeroGradDirty()
{
    panicIf(!trackDirty, "zeroGradDirty() needs dirty tracking");
    if (densityGridPtr) {
        densityGridPtr->zeroGradEntries(dirtyDensity.entries);
        resetDirty(dirtyDensity);
    }
    if (colorGridPtr) {
        colorGridPtr->zeroGradEntries(dirtyColor.entries);
        resetDirty(dirtyColor);
    }
    densityMlpPtr->zeroGrad();
    colorMlpPtr->zeroGrad();
}

void
NerfField::reduceGradients(FieldGradients &g)
{
    const KernelBackend &kb = resolveBackend(kernelBackend);
    auto reduce_sparse = [](GradShard &s, std::vector<float> &dst) {
        for (uint32_t off : s.touched) {
            for (uint32_t f = 0; f < s.span; f++) {
                dst[off + f] += s.v[off + f];
                s.v[off + f] = 0.0f;
            }
        }
        s.touched.clear();
    };
    auto reduce_dense = [&kb](GradShard &s, std::vector<float> &dst) {
        kb.reduceDense(dst.data(), s.v.data(), s.v.size());
    };

    if (densityGridPtr && !g.densityGrid.v.empty()) {
        if (trackDirty)
            noteDirty(dirtyDensity, g.densityGrid.touched,
                      g.densityGrid.span);
        reduce_sparse(g.densityGrid, densityGridPtr->grads());
    }
    if (colorGridPtr && !g.colorGrid.v.empty()) {
        if (trackDirty)
            noteDirty(dirtyColor, g.colorGrid.touched, g.colorGrid.span);
        reduce_sparse(g.colorGrid, colorGridPtr->grads());
    }
    if (!g.densityMlp.v.empty())
        reduce_dense(g.densityMlp, densityMlpPtr->grads());
    if (!g.colorMlp.v.empty())
        reduce_dense(g.colorMlp, colorMlpPtr->grads());
}

void
NerfField::setKernelBackend(const KernelBackend *backend)
{
    kernelBackend = backend;
    if (densityGridPtr)
        densityGridPtr->setKernelBackend(backend);
    if (colorGridPtr)
        colorGridPtr->setKernelBackend(backend);
    densityMlpPtr->setKernelBackend(backend);
    colorMlpPtr->setKernelBackend(backend);
}

bool
NerfField::traceAttached() const
{
    return (densityGridPtr &&
            densityGridPtr->attachedTraceSink() != nullptr) ||
           (colorGridPtr &&
            colorGridPtr->attachedTraceSink() != nullptr);
}

HashEncoding &
NerfField::densityGrid()
{
    panicIf(!densityGridPtr, "field mode has no density grid");
    return *densityGridPtr;
}

HashEncoding &
NerfField::colorGrid()
{
    panicIf(!colorGridPtr, "field mode has no color grid");
    return *colorGridPtr;
}

std::vector<float> &
NerfField::groupParams(ParamGroupId id)
{
    switch (id) {
      case ParamGroupId::DensityGrid:
        panicIf(!densityGridPtr, "field mode has no density grid");
        return densityGridPtr->params();
      case ParamGroupId::ColorGrid:
        panicIf(!colorGridPtr, "coupled field has no color grid");
        return colorGridPtr->params();
      case ParamGroupId::DensityMlp:
        return densityMlpPtr->params();
      case ParamGroupId::ColorMlp:
        return colorMlpPtr->params();
    }
    panic("unreachable param group");
}

std::vector<float> &
NerfField::groupGrads(ParamGroupId id)
{
    switch (id) {
      case ParamGroupId::DensityGrid:
        panicIf(!densityGridPtr, "field mode has no density grid");
        return densityGridPtr->grads();
      case ParamGroupId::ColorGrid:
        panicIf(!colorGridPtr, "coupled field has no color grid");
        return colorGridPtr->grads();
      case ParamGroupId::DensityMlp:
        return densityMlpPtr->grads();
      case ParamGroupId::ColorMlp:
        return colorMlpPtr->grads();
    }
    panic("unreachable param group");
}

std::vector<ParamGroupId>
NerfField::paramGroups() const
{
    switch (cfg.mode) {
      case FieldMode::Decoupled:
        return {ParamGroupId::DensityGrid, ParamGroupId::ColorGrid,
                ParamGroupId::DensityMlp, ParamGroupId::ColorMlp};
      case FieldMode::Coupled:
        return {ParamGroupId::DensityGrid, ParamGroupId::DensityMlp,
                ParamGroupId::ColorMlp};
      case FieldMode::Vanilla:
        return {ParamGroupId::DensityMlp, ParamGroupId::ColorMlp};
    }
    panic("unreachable field mode");
}

void
NerfField::zeroGrad()
{
    if (densityGridPtr)
        densityGridPtr->zeroGrad();
    if (colorGridPtr)
        colorGridPtr->zeroGrad();
    densityMlpPtr->zeroGrad();
    colorMlpPtr->zeroGrad();
    // A full clear also settles the dirty bookkeeping, so mixing the
    // two clear paths cannot leave stale dirty lists behind.
    if (trackDirty) {
        resetDirty(dirtyDensity);
        resetDirty(dirtyColor);
    }
}

} // namespace instant3d
