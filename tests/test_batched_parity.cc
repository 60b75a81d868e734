/**
 * @file
 * Parity and determinism tests for the batched hot path: the batched
 * MLP and hash-encoding kernels must match their scalar references
 * bit-exactly, gradient-shard reduction must match direct accumulation,
 * and full training must be bit-identical at 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/workspace.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"

namespace instant3d {
namespace {

TEST(WorkspaceTest, ReusesCapacityAcrossResets)
{
    Workspace ws;
    float *a = ws.alloc<float>(1000);
    a[0] = 1.0f;
    a[999] = 2.0f;
    size_t cap = ws.capacityBytes();
    for (int i = 0; i < 100; i++) {
        ws.reset();
        float *b = ws.alloc<float>(1000);
        b[999] = 3.0f;
    }
    EXPECT_EQ(ws.capacityBytes(), cap)
        << "reset must recycle, not grow";
}

TEST(WorkspaceTest, AllocationsAreDistinctAndAligned)
{
    Workspace ws;
    float *a = ws.alloc<float>(7);
    float *b = ws.alloc<float>(7);
    EXPECT_NE(a, b);
    EXPECT_GE(b, a + 7);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        std::vector<int> hits(1000, 0);
        pool.parallelFor(1000, [&](int t, int) { hits[t]++; });
        for (int t = 0; t < 1000; t++)
            ASSERT_EQ(hits[t], 1) << "task " << t;
    }
}

TEST(BatchedParityTest, MlpForwardMatchesScalarBitExact)
{
    for (auto act : {OutputActivation::None, OutputActivation::Sigmoid}) {
        Mlp mlp({6, 16, 16, 3}, act, 7);
        Rng r(11);
        const int n = 33;
        std::vector<float> in(static_cast<size_t>(n) * 6);
        for (auto &v : in)
            v = r.nextFloat(-2.0f, 2.0f);

        std::vector<float> scalar_out(static_cast<size_t>(n) * 3);
        for (int s = 0; s < n; s++)
            mlp.forward(in.data() + s * 6, scalar_out.data() + s * 3);

        Workspace ws;
        std::vector<float> batch_out(static_cast<size_t>(n) * 3);
        MlpBatchRecord rec;
        mlp.forwardBatch(in.data(), n, batch_out.data(), &rec, ws);

        for (size_t i = 0; i < batch_out.size(); i++)
            ASSERT_EQ(batch_out[i], scalar_out[i]) << "output " << i;
    }
}

TEST(BatchedParityTest, MlpBackwardMatchesScalarBitExact)
{
    Mlp mlp({5, 12, 4}, OutputActivation::Sigmoid, 3);
    Rng r(21);
    const int n = 17;
    std::vector<float> in(static_cast<size_t>(n) * 5);
    std::vector<float> d_out(static_cast<size_t>(n) * 4);
    for (auto &v : in)
        v = r.nextFloat(-1.0f, 1.0f);
    for (auto &v : d_out)
        v = r.nextFloat(-1.0f, 1.0f);

    // Scalar reference: sequential forward+backward accumulation.
    std::vector<float> out(4);
    mlp.zeroGrad();
    std::vector<float> scalar_d_in(static_cast<size_t>(n) * 5);
    for (int s = 0; s < n; s++) {
        MlpRecord rec;
        mlp.forward(in.data() + s * 5, out.data(), &rec);
        mlp.backward(rec, d_out.data() + s * 4,
                     scalar_d_in.data() + s * 5);
    }
    std::vector<float> scalar_grads = mlp.grads();

    // Batched path into an external gradient buffer.
    Workspace ws;
    std::vector<float> batch_out(static_cast<size_t>(n) * 4);
    MlpBatchRecord rec;
    mlp.forwardBatch(in.data(), n, batch_out.data(), &rec, ws);
    std::vector<float> grads(mlp.params().size(), 0.0f);
    std::vector<float> batch_d_in(static_cast<size_t>(n) * 5);
    mlp.backwardBatch(rec, d_out.data(), batch_d_in.data(), grads.data(),
                      ws);

    for (size_t i = 0; i < grads.size(); i++)
        ASSERT_EQ(grads[i], scalar_grads[i]) << "grad " << i;
    for (size_t i = 0; i < batch_d_in.size(); i++)
        ASSERT_EQ(batch_d_in[i], scalar_d_in[i]) << "d_in " << i;
}

TEST(BatchedParityTest, HashEncodeMatchesScalarBitExact)
{
    HashEncodingConfig cfg;
    cfg.numLevels = 4;
    cfg.log2TableSize = 10;
    cfg.baseResolution = 8;
    HashEncoding scalar_enc(cfg, 5), batch_enc(cfg, 5);
    Rng r(9);
    const int n = 29;
    std::vector<Vec3> pts;
    for (int i = 0; i < n; i++)
        pts.push_back(
            {r.nextFloat(), r.nextFloat(), r.nextFloat()});

    const int dim = scalar_enc.outputDim();
    std::vector<float> scalar_out(static_cast<size_t>(n) * dim);
    std::vector<EncodeRecord> scalar_recs(n);
    for (int s = 0; s < n; s++)
        scalar_enc.encode(pts[s], scalar_out.data() + s * dim,
                          &scalar_recs[s]);

    Workspace ws;
    std::vector<float> batch_out(static_cast<size_t>(n) * dim);
    EncodeBatchRecord rec;
    batch_enc.encodeBatch(pts.data(), n, batch_out.data(), &rec, ws);

    for (size_t i = 0; i < batch_out.size(); i++)
        ASSERT_EQ(batch_out[i], scalar_out[i]) << "feature " << i;
    EXPECT_EQ(batch_enc.readCount(), scalar_enc.readCount());

    const size_t slots = static_cast<size_t>(cfg.numLevels) * 8;
    for (int s = 0; s < n; s++) {
        for (size_t j = 0; j < slots; j++) {
            ASSERT_EQ(rec.addresses[s * slots + j],
                      scalar_recs[s].addresses[j]);
            ASSERT_EQ(rec.weights[s * slots + j],
                      scalar_recs[s].weights[j]);
        }
    }

    // Backward parity: shard accumulation == member-table accumulation.
    std::vector<float> d_out(static_cast<size_t>(n) * dim);
    for (auto &v : d_out)
        v = r.nextFloat(-1.0f, 1.0f);

    scalar_enc.zeroGrad();
    for (int s = 0; s < n; s++)
        scalar_enc.backward(scalar_recs[s], d_out.data() + s * dim);

    std::vector<float> shard(batch_enc.grads().size(), 0.0f);
    std::vector<uint32_t> touched;
    for (int s = 0; s < n; s++)
        batch_enc.backwardSample(rec, s, d_out.data() + s * dim,
                                 shard.data(), &touched);

    EXPECT_EQ(touched.size(), slots * n);
    for (size_t i = 0; i < shard.size(); i++)
        ASSERT_EQ(shard[i], scalar_enc.grads()[i]) << "grad " << i;
}

Dataset
parityDataset()
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

FieldConfig
parityField()
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

/**
 * The tentpole determinism contract: training is bit-identical for any
 * thread count (same losses, same parameters, same rendered images).
 */
TEST(BatchedParityTest, TrainingBitIdenticalAcrossThreadCounts)
{
    Dataset ds = parityDataset();

    TrainConfig base;
    base.raysPerBatch = 48;
    base.samplesPerRay = 24;
    base.adam.lr = 1e-2f;
    base.colorUpdatePeriod = 2; // exercise the F_C < F_D schedule too

    std::vector<double> ref_losses;
    std::vector<float> ref_params;
    Image ref_img(1, 1);
    for (int threads : {1, 2, 8}) {
        TrainConfig tcfg = base;
        tcfg.numThreads = threads;
        Trainer trainer(ds, parityField(), tcfg);
        ASSERT_EQ(trainer.threadCount(), threads);

        std::vector<double> losses;
        for (int i = 0; i < 12; i++)
            losses.push_back(trainer.trainIteration().loss);

        std::vector<float> params;
        for (auto gid : trainer.field().paramGroups()) {
            const auto &p = trainer.field().groupParams(gid);
            params.insert(params.end(), p.begin(), p.end());
        }
        Image img = trainer.renderImage(ds.testViews[0].camera);

        if (threads == 1) {
            ref_losses = losses;
            ref_params = params;
            ref_img = img;
            continue;
        }
        for (size_t i = 0; i < losses.size(); i++)
            ASSERT_EQ(losses[i], ref_losses[i])
                << threads << " threads, iteration " << i;
        ASSERT_EQ(params.size(), ref_params.size());
        for (size_t i = 0; i < params.size(); i++)
            ASSERT_EQ(params[i], ref_params[i])
                << threads << " threads, param " << i;
        for (int row = 0; row < img.height(); row++)
            for (int col = 0; col < img.width(); col++) {
                Vec3 a = img.at(col, row), b = ref_img.at(col, row);
                ASSERT_EQ(a.x, b.x);
                ASSERT_EQ(a.y, b.y);
                ASSERT_EQ(a.z, b.z);
            }
    }
}

/** Changing gradShards changes the reduction order, not correctness. */
TEST(BatchedParityTest, TrainingStillLearnsWithOtherShardCounts)
{
    Dataset ds = parityDataset();
    TrainConfig tcfg;
    tcfg.raysPerBatch = 48;
    tcfg.samplesPerRay = 24;
    tcfg.gradShards = 3;
    tcfg.numThreads = 2;
    Trainer trainer(ds, parityField(), tcfg);
    double first = trainer.trainIteration().loss;
    double last = 0.0;
    for (int i = 0; i < 40; i++)
        last = trainer.trainIteration().loss;
    EXPECT_LT(last, first) << "loss should decrease";
}

} // namespace
} // namespace instant3d
