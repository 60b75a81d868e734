/**
 * @file
 * Parity suite for the batched kernels (src/kernels) against the
 * per-sample references:
 *
 *  - the forward panel against a copy of the reference panel loop, at
 *    every batch size / width combination (including odd sizes that
 *    leave vector remainder lanes);
 *  - Mlp::forwardBatch/backwardSample against Mlp::forward/backward,
 *    HashEncoding::encodeBatch/backwardSample against encode/backward,
 *    and the dense Adam step against a per-parameter loop;
 *  - the stream composite (renderStream/backwardStream) against
 *    VolumeRenderer::renderRay/backwardRay.
 *
 * The kernels keep every accumulation chain's order, so each case is
 * asserted bit-identical in builds without FMA contraction and within
 * a small relative tolerance otherwise (-march flags that enable FMA
 * let the compiler contract mul+add pairs differently in the kernels
 * and in the references; that is the documented contract, see
 * src/kernels/kernels.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/cpu_features.hh"
#include "common/rng.hh"
#include "common/workspace.hh"
#include "kernels/kernels.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"

namespace instant3d {
namespace {

#if defined(__FMA__) || defined(__ARM_FEATURE_FMA) || \
    defined(__aarch64__)
// FMA-capable build (x86 -mfma, or aarch64 where fused multiply-add
// is baseline and contraction is on by default): the compiler may
// contract mul+add pairs in the kernels and not in the references (or
// vice versa), so parity is tolerance-bounded rather than bitwise.
constexpr bool kBitExact = false;
#else
constexpr bool kBitExact = true;
#endif

uint32_t
bits(float v)
{
    uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** The contract: bitwise without FMA, tight relative bound with it. */
void
expectKernelMatch(const float *ref, const float *got, size_t n,
                  const char *what)
{
    for (size_t i = 0; i < n; i++) {
        if (kBitExact) {
            ASSERT_EQ(bits(ref[i]), bits(got[i]))
                << what << " (non-FMA build) diverges at " << i << ": "
                << ref[i] << " vs " << got[i];
        } else {
            float tol = 1e-5f * std::max(1.0f, std::fabs(ref[i]));
            ASSERT_NEAR(ref[i], got[i], tol)
                << what << " (FMA build) outside tolerance at " << i;
        }
    }
}

// ---- MLP panels ---------------------------------------------------------

/** The reference forward-panel loops, kept here as the oracle. */
void
refForwardPanel(const float *in, int n, int n_in, int n_out,
                const float *w, const float *b, float *out)
{
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

TEST(KernelsTest, ForwardPanelParityAcrossShapes)
{
    Rng r(41);
    Workspace ws;

    // Odd widths and batch sizes exercise vector remainder lanes.
    for (int n_in : {1, 3, 16, 17, 33, 64}) {
        for (int n_out : {1, 5, 16, 31, 64}) {
            for (int n : {1, 2, 7, 33}) {
                std::vector<float> in(static_cast<size_t>(n) * n_in);
                std::vector<float> w(static_cast<size_t>(n_out) * n_in);
                std::vector<float> b(n_out);
                for (auto &v : in)
                    v = r.nextFloat(-2.0f, 2.0f);
                for (auto &v : w)
                    v = r.nextFloat(-1.0f, 1.0f);
                for (auto &v : b)
                    v = r.nextFloat(-0.5f, 0.5f);

                std::vector<float> ref(static_cast<size_t>(n) * n_out);
                refForwardPanel(in.data(), n, n_in, n_out, w.data(),
                                b.data(), ref.data());

                std::vector<float> out(ref.size());
                ws.reset();
                mlpForwardPanel(in.data(), n, n_in, n_out, w.data(),
                                b.data(), out.data(), ws);
                expectKernelMatch(ref.data(), out.data(), ref.size(),
                                  "forward panel");
            }
        }
    }
}

TEST(KernelsTest, MlpBatchMatchesPerSampleKernels)
{
    // Through the real Mlp, all hidden widths the repo uses plus odd
    // ones, with both output activations: the batched forward and the
    // per-sample backward must match Mlp::forward/backward.
    for (int hidden : {8, 16, 17, 32, 33, 64}) {
        for (auto act :
             {OutputActivation::None, OutputActivation::Sigmoid}) {
            Mlp mlp({7, hidden, hidden, 3}, act, 23);
            Rng r(57);
            const int n = 19; // odd batch: remainder lanes
            std::vector<float> in(static_cast<size_t>(n) * 7);
            std::vector<float> d_out(static_cast<size_t>(n) * 3);
            for (auto &v : in)
                v = r.nextFloat(-1.5f, 1.5f);
            for (auto &v : d_out)
                v = r.nextFloat(-1.0f, 1.0f);

            // Reference: per-sample forward + backward.
            std::vector<float> ref_out(static_cast<size_t>(n) * 3);
            std::vector<float> ref_din(static_cast<size_t>(n) * 7);
            for (int s = 0; s < n; s++)
                mlp.forward(in.data() + s * 7, ref_out.data() + s * 3);
            mlp.zeroGrad();
            for (int s = 0; s < n; s++) {
                MlpRecord rec;
                float tmp[3];
                mlp.forward(in.data() + s * 7, tmp, &rec);
                mlp.backward(rec, d_out.data() + s * 3,
                             ref_din.data() + s * 7);
            }
            const std::vector<float> ref_grad = mlp.grads();
            mlp.zeroGrad();

            Workspace ws;
            std::vector<float> out(static_cast<size_t>(n) * 3);
            std::vector<float> din(static_cast<size_t>(n) * 7);
            MlpBatchRecord rec;
            mlp.forwardBatch(in.data(), n, out.data(), &rec, ws);
            for (int s = 0; s < n; s++)
                mlp.backwardSample(rec, s, d_out.data() + s * 3,
                                   din.data() + s * 7,
                                   mlp.grads().data(), ws);

            expectKernelMatch(ref_out.data(), out.data(), out.size(),
                              "mlp forward");
            expectKernelMatch(ref_din.data(), din.data(), din.size(),
                              "mlp d_in");
            expectKernelMatch(ref_grad.data(), mlp.grads().data(),
                              ref_grad.size(), "mlp grads");
        }
    }
}

// ---- Hash-grid kernels --------------------------------------------------

TEST(KernelsTest, HashEncodeAndScatterMatchPerSampleKernels)
{
    HashEncodingConfig cfg;
    cfg.numLevels = 5;
    cfg.featuresPerEntry = 2;
    cfg.log2TableSize = 10;
    cfg.baseResolution = 8;

    for (int n : {1, 3, 17}) { // odd batches
        HashEncoding ref_enc(cfg, 99);
        Rng r(5);
        std::vector<Vec3> pts;
        for (int s = 0; s < n; s++)
            pts.push_back(
                {r.nextFloat(), r.nextFloat(), r.nextFloat()});
        std::vector<float> d_out(
            static_cast<size_t>(n) * cfg.outputDim());
        for (auto &v : d_out)
            v = r.nextFloat(-1.0f, 1.0f);

        // Reference: per-point encode + backward scatter.
        std::vector<float> ref_out(
            static_cast<size_t>(n) * cfg.outputDim());
        for (int s = 0; s < n; s++) {
            EncodeRecord rec;
            ref_enc.encode(pts[s],
                           ref_out.data() +
                               static_cast<size_t>(s) * cfg.outputDim(),
                           &rec);
            ref_enc.backward(rec,
                             d_out.data() +
                                 static_cast<size_t>(s) *
                                     cfg.outputDim());
        }

        HashEncoding enc(cfg, 99); // same seed => same table
        Workspace ws;
        std::vector<float> out(ref_out.size());
        EncodeBatchRecord rec;
        enc.encodeBatch(pts.data(), n, out.data(), &rec, ws);
        const size_t entries =
            static_cast<size_t>(cfg.numLevels) * cfg.tableSize();
        std::vector<uint64_t> touched(touchBitmapWords(entries), 0);
        for (int s = 0; s < n; s++)
            enc.backwardSample(rec, s,
                               d_out.data() +
                                   static_cast<size_t>(s) *
                                       cfg.outputDim(),
                               enc.grads().data(), touched.data());
        // The touch bitmap marks exactly the recorded corners: their
        // entry bits, and the summary bits of their words.
        const size_t words = (entries + 63) / 64;
        std::vector<uint64_t> corners(words + (words + 63) / 64, 0);
        const size_t slots = static_cast<size_t>(cfg.numLevels) * 8;
        for (int s = 0; s < n; s++) {
            for (size_t j = 0; j < slots; j++) {
                const size_t entry = (j / 8) * cfg.tableSize() +
                                     rec.addresses[s * slots + j];
                corners[entry / 64] |= uint64_t{1} << (entry % 64);
                corners[words + entry / 4096] |=
                    uint64_t{1} << (entry / 64 % 64);
            }
        }
        EXPECT_EQ(touched, corners);

        expectKernelMatch(ref_out.data(), out.data(), out.size(),
                          "encode");
        expectKernelMatch(ref_enc.grads().data(), enc.grads().data(),
                          enc.grads().size(), "scatter");
    }
}

// ---- Optimizer ----------------------------------------------------------

TEST(KernelsTest, AdamDenseStepMatchesPerParameterLoop)
{
    const size_t n = 4097; // odd: remainder lanes
    AdamConfig acfg;
    acfg.lr = 0.03f;
    acfg.l2Reg = 1e-3f; // the dense path supports weight decay

    Rng r(77);
    std::vector<float> p0(n);
    for (auto &v : p0)
        v = r.nextFloat(-1.0f, 1.0f);

    Adam adam(n, acfg);
    std::vector<float> got = p0;
    std::vector<float> ref = p0, m(n, 0.0f), v(n, 0.0f), g(n);
    float beta1_pow = 1.0f, beta2_pow = 1.0f;
    Rng gr(78);
    for (int step = 0; step < 25; step++) {
        for (auto &x : g)
            x = gr.nextFloat(-1.0f, 1.0f);
        adam.step(got, g);

        // Reference: one parameter at a time, with the bias corrections
        // maintained incrementally as Adam does.
        beta1_pow *= acfg.beta1;
        beta2_pow *= acfg.beta2;
        const float bc1 = 1.0f - beta1_pow;
        const float bc2 = 1.0f - beta2_pow;
        for (size_t i = 0; i < n; i++) {
            float gi = g[i] + acfg.l2Reg * ref[i];
            m[i] = acfg.beta1 * m[i] + (1.0f - acfg.beta1) * gi;
            v[i] = acfg.beta2 * v[i] + (1.0f - acfg.beta2) * gi * gi;
            float mhat = m[i] / bc1;
            float vhat = v[i] / bc2;
            ref[i] -= acfg.lr * mhat / (std::sqrt(vhat) + acfg.epsilon);
        }
    }
    expectKernelMatch(ref.data(), got.data(), n, "dense Adam");
}

// ---- Stream composite ---------------------------------------------------

FieldConfig
smallField()
{
    HashEncodingConfig grid;
    grid.numLevels = 4;
    grid.featuresPerEntry = 2;
    grid.log2TableSize = 12;
    grid.baseResolution = 8;
    grid.growthFactor = 1.6f;
    FieldConfig cfg = FieldConfig::instant3dDefault(grid);
    cfg.hiddenDim = 16;
    return cfg;
}

Dataset
smallDataset()
{
    auto scene = makeSyntheticScene("lego");
    DatasetConfig cfg;
    cfg.numTrainViews = 4;
    cfg.numTestViews = 1;
    cfg.imageWidth = 16;
    cfg.imageHeight = 16;
    cfg.renderOpts.numSteps = 48;
    return makeDataset(scene, cfg);
}

/** Every RayResult float of `got` against `ref`. */
void
expectRayMatch(const RayResult &ref, const RayResult &got, int ray)
{
    const float a[5] = {ref.color.x, ref.color.y, ref.color.z, ref.depth,
                        ref.opacity};
    const float b[5] = {got.color.x, got.color.y, got.color.z, got.depth,
                        got.opacity};
    SCOPED_TRACE(::testing::Message() << "ray " << ray);
    expectKernelMatch(a, b, 5, "ray result");
}

/**
 * The stream composite kernels against the per-ray reference: one
 * marchRays -> renderStream -> backwardStream over a chunk of rays,
 * its shard reduced into the field, matches renderRay(jitter, rec) ->
 * backwardRay ray by ray on a twin field, each ray's jitter drawn from
 * the same Rng::forIndex stream on both sides. Run with no occupancy
 * grid and with a trained field's converged grid, so empty-space
 * skipping leaves spans of different lengths.
 */
TEST(KernelsTest, StreamCompositeMatchesPerRayReference)
{
    const Dataset data = smallDataset();
    TrainConfig tc;
    tc.raysPerBatch = 48;
    tc.samplesPerRay = 16;
    tc.seed = 19;
    tc.numThreads = 1;
    // Converge the grid quickly (the throughput bench's settings).
    tc.useOccupancyGrid = true;
    tc.occupancyUpdatePeriod = 4;
    tc.occupancy.decay = 0.8f;
    tc.occupancy.occupancyThreshold = 0.1f;
    Trainer trainer(data, smallField(), tc);
    EXPECT_STREQ(trainer.kernelBackendName(), "simd");
    for (int i = 0; i < 150; i++)
        trainer.trainIteration();
    trainer.syncParams();
    const OccupancyGrid *grid = trainer.occupancyGrid();
    ASSERT_GT(grid->occupiedFraction(), 0.0);
    ASSERT_LT(grid->occupiedFraction(), 0.5);

    // Rays through the centre of the first view, where the scene is.
    const Camera &cam = data.trainViews[0].camera;
    const int num_rays = 9;
    std::vector<Ray> rays;
    for (int i = 0; i < num_rays; i++)
        rays.push_back(cam.pixelRay(6 + i % 3, 6 + i / 3));
    Rng dr(83);
    std::vector<Vec3> d_colors;
    for (int i = 0; i < num_rays; i++)
        d_colors.push_back({dr.nextFloat(-0.1f, 0.1f),
                            dr.nextFloat(-0.1f, 0.1f),
                            dr.nextFloat(-0.1f, 0.1f)});

    const OccupancyGrid *const grids[] = {grid, nullptr};
    for (const OccupancyGrid *occupancy : grids) {
        SCOPED_TRACE(occupancy ? "converged grid" : "no grid");
        NerfField stream_field(smallField(), 1);
        NerfField ray_field(smallField(), 1);
        for (auto id : stream_field.paramGroups()) {
            stream_field.groupParams(id) = trainer.field().groupParams(id);
            ray_field.groupParams(id) = trainer.field().groupParams(id);
        }
        VolumeRenderer renderer(trainer.renderer().config());
        renderer.setOccupancyGrid(occupancy);

        std::vector<Rng> rngs;
        for (int i = 0; i < num_rays; i++)
            rngs.push_back(Rng::forIndex(tc.seed, 7, i));

        Workspace ws;
        SampleStream stream;
        std::vector<Rng> stream_rngs = rngs;
        renderer.marchRays(rays.data(), num_rays, stream_rngs.data(),
                           stream, ws);
        StreamRecord srec;
        std::vector<RayResult> results(num_rays);
        renderer.renderStream(stream_field, stream, results.data(), &srec,
                              ws);
        FieldGradients shard;
        stream_field.prepareGradients(shard);
        renderer.backwardStream(stream_field, stream, srec,
                                d_colors.data(), true, true, &shard, ws);
        stream_field.reduceGradients(shard);

        for (int i = 0; i < num_rays; i++) {
            RayRecord rec;
            Rng rng = rngs[i];
            const RayResult ref =
                renderer.renderRay(ray_field, rays[i], &rng, &rec);
            expectRayMatch(ref, results[i], i);
            renderer.backwardRay(ray_field, rec, d_colors[i]);
        }
        if (occupancy) {
            EXPECT_GT(stream.totalSamples, 0);
            EXPECT_LT(stream.totalSamples, num_rays * tc.samplesPerRay);
        }
        for (auto id : ray_field.paramGroups()) {
            const auto &a = ray_field.groupGrads(id);
            const auto &b = stream_field.groupGrads(id);
            ASSERT_EQ(a.size(), b.size());
            EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                                    [](float x) { return x != 0.0f; }));
            expectKernelMatch(a.data(), b.data(), a.size(), "gradients");
        }
    }

    // Feature reporting is wired (content is host-specific).
    EXPECT_FALSE(cpuFeatureString().empty());
    EXPECT_FALSE(compiledSimdString().empty());
}

} // namespace
} // namespace instant3d
