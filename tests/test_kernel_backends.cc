/**
 * @file
 * Parity suite for the pluggable kernel backends (src/kernels):
 *
 *  - scalar_ref must be bit-identical to the reference loops for every
 *    kernel, at every batch size / width combination (including odd
 *    sizes that leave vector remainder lanes).
 *
 *  - simd preserves every accumulation chain's scalar order, so it is
 *    asserted bit-identical in builds without FMA contraction and
 *    within a small relative tolerance otherwise (-march flags that
 *    enable FMA let the compiler contract mul+add pairs differently
 *    in the two backends; that is the documented contract, see
 *    src/kernels/kernel_backend.hh).
 *
 * A null backend pointer means simd, so every reference case below
 * installs scalar_ref by name.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/cpu_features.hh"
#include "common/workspace.hh"
#include "kernels/kernel_backend.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"

namespace instant3d {
namespace {

#if defined(__FMA__) || defined(__ARM_FEATURE_FMA) || \
    defined(__aarch64__)
// FMA-capable build (x86 -mfma, or aarch64 where fused multiply-add
// is baseline and contraction is on by default): the compiler may
// contract mul+add pairs in the simd backend and not in the scalar
// loops (or vice versa), so simd parity is tolerance-bounded rather
// than bitwise.
constexpr bool kSimdBitExact = false;
#else
constexpr bool kSimdBitExact = true;
#endif

uint32_t
bits(float v)
{
    uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Bitwise equality for scalar_ref outputs. */
void
expectBitEqual(const float *a, const float *b, size_t n,
               const char *what)
{
    for (size_t i = 0; i < n; i++)
        ASSERT_EQ(bits(a[i]), bits(b[i]))
            << what << " diverges at " << i << ": " << a[i] << " vs "
            << b[i];
}

/** simd contract: bitwise without FMA, tight relative bound with it. */
void
expectSimdMatch(const float *ref, const float *got, size_t n,
                const char *what)
{
    for (size_t i = 0; i < n; i++) {
        if (kSimdBitExact) {
            ASSERT_EQ(bits(ref[i]), bits(got[i]))
                << what << " (simd, non-FMA build) diverges at " << i
                << ": " << ref[i] << " vs " << got[i];
        } else {
            float tol =
                1e-5f * std::max(1.0f, std::fabs(ref[i]));
            ASSERT_NEAR(ref[i], got[i], tol)
                << what << " (simd, FMA build) outside tolerance at "
                << i;
        }
    }
}

// ---- MLP panels ---------------------------------------------------------

/** The pre-refactor forward-panel loops, kept here as the oracle. */
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

TEST(KernelBackendTest, ForwardPanelParityAcrossShapes)
{
    auto scalar = makeScalarRefBackend();
    auto simd = makeSimdBackend();
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
                scalar->mlpForwardPanel(in.data(), n, n_in, n_out,
                                        w.data(), b.data(), out.data(),
                                        ws);
                expectBitEqual(ref.data(), out.data(), ref.size(),
                               "scalar_ref forward panel");

                ws.reset();
                simd->mlpForwardPanel(in.data(), n, n_in, n_out,
                                      w.data(), b.data(), out.data(),
                                      ws);
                expectSimdMatch(ref.data(), out.data(), ref.size(),
                                "forward panel");
            }
        }
    }
}

TEST(KernelBackendTest, MlpBatchMatchesScalarPerBackend)
{
    // Through the real Mlp, all hidden widths the repo uses plus odd
    // ones, with both output activations: the batched forward and the
    // per-sample backward must match the scalar reference kernels.
    auto scalar = makeScalarRefBackend();
    auto simd = makeSimdBackend();

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

            // Scalar reference: per-sample forward + backward.
            std::vector<float> ref_out(static_cast<size_t>(n) * 3);
            std::vector<float> ref_din(static_cast<size_t>(n) * 7);
            for (int s = 0; s < n; s++)
                mlp.forward(in.data() + s * 7, ref_out.data() + s * 3);
            std::vector<float> ref_grad;
            {
                mlp.zeroGrad();
                for (int s = 0; s < n; s++) {
                    MlpRecord rec;
                    float tmp[3];
                    mlp.forward(in.data() + s * 7, tmp, &rec);
                    mlp.backward(rec, d_out.data() + s * 3,
                                 ref_din.data() + s * 7);
                }
                ref_grad = mlp.grads();
                mlp.zeroGrad();
            }

            struct BackendCase
            {
                const KernelBackend *kb;
                const char *label;
                bool exact;
            };
            const BackendCase cases[] = {
                {scalar.get(), "scalar_ref", true},
                {simd.get(), "simd", kSimdBitExact},
            };
            for (const auto &c : cases) {
                mlp.setKernelBackend(c.kb);
                Workspace ws;
                std::vector<float> out(static_cast<size_t>(n) * 3);
                std::vector<float> din(static_cast<size_t>(n) * 7);
                MlpBatchRecord rec;
                mlp.forwardBatch(in.data(), n, out.data(), &rec, ws);
                mlp.zeroGrad();
                for (int s = 0; s < n; s++)
                    mlp.backwardSample(rec, s, d_out.data() + s * 3,
                                       din.data() + s * 7,
                                       mlp.grads().data(), ws);

                if (c.exact) {
                    expectBitEqual(ref_out.data(), out.data(),
                                   out.size(), c.label);
                    expectBitEqual(ref_din.data(), din.data(),
                                   din.size(), c.label);
                    expectBitEqual(ref_grad.data(), mlp.grads().data(),
                                   ref_grad.size(), c.label);
                } else {
                    expectSimdMatch(ref_out.data(), out.data(),
                                    out.size(), c.label);
                    expectSimdMatch(ref_din.data(), din.data(),
                                    din.size(), c.label);
                    expectSimdMatch(ref_grad.data(), mlp.grads().data(),
                                    ref_grad.size(), c.label);
                }
                mlp.zeroGrad();
            }
            mlp.setKernelBackend(nullptr);
        }
    }
}

// ---- Hash-grid kernels --------------------------------------------------

TEST(KernelBackendTest, HashEncodeAndScatterMatchScalarPerBackend)
{
    HashEncodingConfig cfg;
    cfg.numLevels = 5;
    cfg.featuresPerEntry = 2;
    cfg.log2TableSize = 10;
    cfg.baseResolution = 8;

    auto scalar = makeScalarRefBackend();
    auto simd = makeSimdBackend();

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

        // Scalar reference: per-point encode + backward scatter.
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
        const std::vector<float> ref_grad = ref_enc.grads();

        struct BackendCase
        {
            const KernelBackend *kb;
            const char *label;
            bool exact;
        };
        const BackendCase cases[] = {
            {scalar.get(), "scalar_ref", true},
            {simd.get(), "simd", kSimdBitExact},
        };
        for (const auto &c : cases) {
            HashEncoding enc(cfg, 99); // same seed => same table
            enc.setKernelBackend(c.kb);
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
            EXPECT_EQ(touched, corners) << c.label;

            if (c.exact) {
                expectBitEqual(ref_out.data(), out.data(), out.size(),
                               c.label);
                expectBitEqual(ref_grad.data(), enc.grads().data(),
                               ref_grad.size(), c.label);
            } else {
                expectSimdMatch(ref_out.data(), out.data(), out.size(),
                                c.label);
                expectSimdMatch(ref_grad.data(), enc.grads().data(),
                                ref_grad.size(), c.label);
            }
        }
    }
}

// ---- Optimizer sweeps ---------------------------------------------------

TEST(KernelBackendTest, AdamDenseStepParityPerBackend)
{
    const size_t n = 4097; // odd: remainder lanes
    AdamConfig acfg;
    acfg.lr = 0.03f;
    acfg.l2Reg = 1e-3f; // dense path supports weight decay

    Rng r(77);
    std::vector<float> p0(n), g(n);
    for (auto &v : p0)
        v = r.nextFloat(-1.0f, 1.0f);

    auto run = [&](const KernelBackend *kb, int steps,
                   std::vector<float> &out) {
        Adam adam(n, acfg);
        adam.setKernelBackend(kb);
        out = p0;
        Rng gr(78);
        for (int s = 0; s < steps; s++) {
            for (auto &v : g)
                v = gr.nextFloat(-1.0f, 1.0f);
            adam.step(out, g);
        }
    };

    auto scalar = makeScalarRefBackend();
    std::vector<float> ref;
    run(scalar.get(), 25, ref);

    auto simd = makeSimdBackend();
    std::vector<float> got;
    run(simd.get(), 25, got);
    expectSimdMatch(ref.data(), got.data(), n, "simd dense Adam");
}

// ---- End-to-end through the Trainer ------------------------------------

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
    auto scene = makeSyntheticScene("materials");
    DatasetConfig cfg;
    cfg.numTrainViews = 4;
    cfg.numTestViews = 1;
    cfg.imageWidth = 16;
    cfg.imageHeight = 16;
    cfg.renderOpts.numSteps = 48;
    return makeDataset(scene, cfg);
}

TEST(KernelBackendTest, TrainerSimdMatchesScalarContract)
{
    Dataset data = smallDataset();
    TrainConfig base;
    base.raysPerBatch = 48;
    base.samplesPerRay = 16;
    base.seed = 19;
    base.numThreads = 1;
    const int iters = 5;

    base.kernelBackend = "scalar_ref";
    Trainer ref(data, smallField(), base);
    std::vector<double> ref_losses;
    for (int i = 0; i < iters; i++)
        ref_losses.push_back(ref.trainIteration().loss);
    ref.syncParams();

    TrainConfig tc = base;
    tc.kernelBackend = "simd";
    Trainer t(data, smallField(), tc);
    EXPECT_STREQ(t.kernelBackendName(), "simd");
    for (int i = 0; i < iters; i++) {
        double loss = t.trainIteration().loss;
        if (kSimdBitExact) {
            ASSERT_EQ(loss, ref_losses[i])
                << "simd loss diverged at iteration " << i
                << " in a non-FMA build";
        } else {
            ASSERT_NEAR(loss, ref_losses[i],
                        1e-3 * std::max(1.0, std::fabs(ref_losses[i])))
                << "simd loss outside tolerance at iteration " << i;
        }
    }
    t.syncParams();
    if (kSimdBitExact) {
        for (auto id : ref.field().paramGroups()) {
            const auto &a = ref.field().groupParams(id);
            const auto &b = t.field().groupParams(id);
            ASSERT_EQ(a.size(), b.size());
            expectBitEqual(a.data(), b.data(), a.size(),
                           "trainer params (simd, non-FMA build)");
        }
    }
}

// ---- Selection ----------------------------------------------------------

TEST(KernelBackendTest, SelectionAndEnvOverride)
{
    // simd is the default everywhere: a default-configured trainer and
    // every class with no backend installed.
    {
        Dataset data = smallDataset();
        Trainer t(data, smallField(), TrainConfig{});
        EXPECT_STREQ(t.kernelBackendName(), "simd");
    }
    EXPECT_STREQ(resolveBackend(nullptr).name(), "simd");

    // scalar_ref runs only where it is installed by name, directly or
    // through the environment override.
    EXPECT_STREQ(createKernelBackend("scalar_ref")->name(), "scalar_ref");
    ::setenv("INSTANT3D_KERNEL_BACKEND", "scalar_ref", 1);
    EXPECT_STREQ(createKernelBackend("simd")->name(), "scalar_ref");
    ::unsetenv("INSTANT3D_KERNEL_BACKEND");

    // The retired names are unknown names.
    EXPECT_DEATH(createKernelBackend("auto"), "unknown kernel backend");
    EXPECT_DEATH(createKernelBackend("threaded_sweep"),
                 "unknown kernel backend");

    // Feature reporting is wired (content is host-specific).
    EXPECT_FALSE(cpuFeatureString().empty());
    EXPECT_FALSE(compiledSimdString().empty());
}

} // namespace
} // namespace instant3d
