#include "nerf/field.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/kernels.hh"

namespace instant3d {

namespace {

/** Bitmap words per reduce task: 1,024 table entries. A block's
 *  summary bits lie within one summary word. */
constexpr size_t reduceBlockWords = 16;
static_assert(64 % reduceBlockWords == 0);

} // namespace

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

    float *g_dmlp = target->densityMlp.v.data();
    float *g_cmlp = target->colorMlp.v.data();

    if (cfg.mode == FieldMode::Decoupled) {
        float *g_dgrid = target->densityGrid.v.data();
        float *g_cgrid = target->colorGrid.v.data();
        uint64_t *t_dgrid = target->densityGrid.touched.data();
        uint64_t *t_cgrid = target->colorGrid.touched.data();

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
    float *g_dgrid = target->densityGrid.v.data();
    uint64_t *t_dgrid = target->densityGrid.touched.data();

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
        if (s.v.size() != size)
            s.v.assign(size, 0.0f);
        const size_t words = touchBitmapWords(size / span);
        if (s.touched.size() != words)
            s.touched.assign(words, 0ull);
    };
    auto prep_dense = [](GradShard &s, size_t size) {
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
NerfField::setDirtyTracking(bool enable)
{
    trackDirty = enable;
    if (!enable)
        return;
    auto init = [](std::vector<uint64_t> &dirty, HashEncoding *grid) {
        if (!grid)
            return;
        const size_t span =
            static_cast<size_t>(grid->config().featuresPerEntry);
        dirty.assign(touchEntryWords(grid->grads().size() / span), 0ull);
    };
    init(dirtyDensity, densityGridPtr.get());
    init(dirtyColor, colorGridPtr.get());
}

const std::vector<uint64_t> &
NerfField::dirtyEntries(ParamGroupId id) const
{
    panicIf(!trackDirty, "dirty tracking is not enabled");
    switch (id) {
      case ParamGroupId::DensityGrid:
        panicIf(!densityGridPtr, "field mode has no density grid");
        return dirtyDensity;
      case ParamGroupId::ColorGrid:
        panicIf(!colorGridPtr, "field mode has no color grid");
        return dirtyColor;
      default:
        panic("only grid groups have dirty bitmaps");
    }
}

void
NerfField::zeroGradDirty()
{
    panicIf(!trackDirty, "zeroGradDirty() needs dirty tracking");
    // One fill per dirty word, from its lowest to its highest dirty
    // entry: the clean entries between them are +0 already (the
    // reduce invariant), so rewriting them changes no bit, and one
    // fill per word costs less than one per entry.
    auto clear = [](HashEncoding *grid, std::vector<uint64_t> &dirty) {
        if (!grid)
            return;
        float *grads = grid->grads().data();
        const size_t span =
            static_cast<size_t>(grid->config().featuresPerEntry);
        for (size_t w = 0; w < dirty.size(); w++) {
            const uint64_t word = dirty[w];
            if (!word)
                continue;
            dirty[w] = 0;
            const size_t first =
                (w << 6) + static_cast<size_t>(std::countr_zero(word));
            const size_t last =
                (w << 6) + 63 - static_cast<size_t>(std::countl_zero(word));
            std::fill(grads + first * span, grads + (last + 1) * span,
                      0.0f);
        }
    };
    clear(densityGridPtr.get(), dirtyDensity);
    clear(colorGridPtr.get(), dirtyColor);
    densityMlpPtr->zeroGrad();
    colorMlpPtr->zeroGrad();
}

void
NerfField::reduceGradients(std::span<FieldGradients> shards,
                           ThreadPool *pool)
{
    // The grid groups: one task per fixed block of bitmap words of one
    // group, tasks of the density grid first.
    struct SparseGroup
    {
        GradShard FieldGradients::*shard = nullptr;
        float *dst = nullptr;
        uint64_t *dirty = nullptr; //!< null without dirty tracking.
        uint32_t span = 1;
        size_t words = 0;
        int firstTask = 0;
    };
    SparseGroup groups[2];
    int num_groups = 0;
    int num_tasks = 0;
    auto add_group = [&](HashEncoding *grid,
                         GradShard FieldGradients::*shard,
                         std::vector<uint64_t> &dirty) {
        if (!grid)
            return;
        SparseGroup &g = groups[num_groups++];
        g.shard = shard;
        g.dst = grid->grads().data();
        g.dirty = trackDirty ? dirty.data() : nullptr;
        g.span = static_cast<uint32_t>(grid->config().featuresPerEntry);
        g.words = touchEntryWords(grid->grads().size() / g.span);
        g.firstTask = num_tasks;
        num_tasks += static_cast<int>((g.words + reduceBlockWords - 1) /
                                      reduceBlockWords);
    };
    add_group(densityGridPtr.get(), &FieldGradients::densityGrid,
              dirtyDensity);
    add_group(colorGridPtr.get(), &FieldGradients::colorGrid, dirtyColor);

    // Each task reads and clears only its own entry words of every
    // shard's bitmap (the summary words are only read), adds only their
    // entries, and writes only its own words of the dirty bitmaps, so
    // tasks are independent. The shards run in ascending order, which
    // is each entry's add order.
    constexpr uint64_t block_mask = (uint64_t{1} << reduceBlockWords) - 1;
    auto run_block = [&](int task, int) {
        const SparseGroup &g =
            num_groups == 2 && task >= groups[1].firstTask ? groups[1]
                                                           : groups[0];
        const size_t w_begin =
            static_cast<size_t>(task - g.firstTask) * reduceBlockWords;
        const size_t w_end = std::min(w_begin + reduceBlockWords, g.words);
        uint64_t any[reduceBlockWords] = {};
        for (FieldGradients &fg : shards) {
            GradShard &s = fg.*g.shard;
            if (s.touched.empty())
                continue; // not prepared as a grid shard
            uint64_t *bits = s.touched.data();
            float *v = s.v.data();
            uint64_t live = (bits[g.words + (w_begin >> 6)] >>
                             (w_begin & 63)) & block_mask;
            while (live) {
                const size_t w =
                    w_begin + static_cast<size_t>(std::countr_zero(live));
                live &= live - 1;
                uint64_t word = bits[w];
                any[w - w_begin] |= word;
                bits[w] = 0;
                while (word) {
                    const int b = std::countr_zero(word);
                    word &= word - 1;
                    const size_t e = (w << 6) + static_cast<size_t>(b);
                    for (size_t i = e * g.span; i < (e + 1) * g.span; i++) {
                        g.dst[i] += v[i];
                        v[i] = 0.0f;
                    }
                }
            }
        }
        if (!g.dirty)
            return;
        for (size_t w = w_begin; w < w_end; w++)
            g.dirty[w] |= any[w - w_begin];
    };
    if (pool && pool->threadCount() > 1 && num_tasks > 1) {
        pool->parallelFor(num_tasks, run_block);
    } else {
        for (int t = 0; t < num_tasks; t++)
            run_block(t, 0);
    }
    for (int i = 0; i < num_groups; i++) {
        for (FieldGradients &fg : shards) {
            std::vector<uint64_t> &bits = (fg.*groups[i].shard).touched;
            if (!bits.empty())
                std::fill(bits.begin() + groups[i].words, bits.end(), 0ull);
        }
    }

    for (FieldGradients &fg : shards) {
        if (!fg.densityMlp.v.empty())
            reduceDense(densityMlpPtr->grads().data(),
                        fg.densityMlp.v.data(), fg.densityMlp.v.size());
        if (!fg.colorMlp.v.empty())
            reduceDense(colorMlpPtr->grads().data(),
                        fg.colorMlp.v.data(), fg.colorMlp.v.size());
    }
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
    // A full clear also clears the dirty bitmaps, so mixing the two
    // clear paths cannot leave stale dirty bits behind.
    std::fill(dirtyDensity.begin(), dirtyDensity.end(), 0ull);
    std::fill(dirtyColor.begin(), dirtyColor.end(), 0ull);
}

} // namespace instant3d
