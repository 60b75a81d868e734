/**
 * @file
 * Parity and determinism tests for the batched hot path: the batched
 * MLP and hash-encoding kernels must match their scalar references
 * bit-exactly, gradient-shard reduction must match direct accumulation,
 * and full training must be bit-identical at 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/workspace.hh"
#include "kernels/kernel_backend.hh"
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
    for (int s = 0; s < n; s++)
        mlp.backwardSample(rec, s, d_out.data() + s * 4,
                           batch_d_in.data() + s * 5, grads.data(), ws);

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
    const size_t entries =
        static_cast<size_t>(cfg.numLevels) * cfg.tableSize();
    std::vector<uint64_t> touched(touchBitmapWords(entries), 0);
    for (int s = 0; s < n; s++)
        batch_enc.backwardSample(rec, s, d_out.data() + s * dim,
                                 shard.data(), touched.data());

    // The touch bitmap marks exactly the recorded corner entries: their
    // entry bits, and the summary bits of the words holding them.
    const size_t words = (entries + 63) / 64;
    std::vector<uint64_t> corners(words + (words + 63) / 64, 0);
    for (int s = 0; s < n; s++) {
        for (size_t j = 0; j < slots; j++) {
            const size_t entry = (j / 8) * cfg.tableSize() +
                                 rec.addresses[s * slots + j];
            corners[entry / 64] |= uint64_t{1} << (entry % 64);
            corners[words + entry / 4096] |= uint64_t{1}
                                             << (entry / 64 % 64);
        }
    }
    EXPECT_EQ(touched, corners);
    for (size_t i = 0; i < shard.size(); i++)
        ASSERT_EQ(shard[i], scalar_enc.grads()[i]) << "grad " << i;
}

/**
 * The pooled bitmap reduce adds every shard into the field in shard
 * order, whatever the pool. Eight shards are filled through
 * backwardStream on random streams in which a quarter of the samples
 * carry a zero output gradient (entries touched with a zero gradient),
 * on tables of 2^15 entries per level so that the reduce runs many
 * blocks. The reference adds each shard's whole `v` in shard order.
 * One more input reduces the shards one call each, as perfbench's
 * stage probe does: its gradients and dirty bitmap (the union of the
 * calls') equal the pooled call's bit for bit, and zeroGradDirty()
 * then empties both.
 */
TEST(GradientReduceTest, PooledBitmapReduceMatchesShardOrderReference)
{
    for (FieldMode mode : {FieldMode::Decoupled, FieldMode::Coupled}) {
        HashEncodingConfig grid;
        grid.numLevels = 4;
        grid.featuresPerEntry = 2;
        grid.log2TableSize = 15;
        grid.baseResolution = 8;
        grid.growthFactor = 1.6f;
        FieldConfig fcfg = mode == FieldMode::Decoupled
                               ? FieldConfig::instant3dDefault(grid)
                               : FieldConfig::ngpBaseline(grid);
        fcfg.hiddenDim = 16;
        NerfField field(fcfg, 3);
        const std::vector<ParamGroupId> groups = field.paramGroups();

        // Corner entries recorded per grid group, as a dirty bitmap.
        std::vector<uint64_t> corners[2];
        const int num_shards = 8;
        std::vector<FieldGradients> shards(num_shards);
        Rng r(41 + static_cast<int>(mode));
        Workspace ws;
        for (int k = 0; k < num_shards; k++) {
            field.prepareGradients(shards[k]);
            ws.reset();
            const int num_rays = 6;
            RaySpan spans[num_rays];
            Vec3 dirs[num_rays];
            int n = 0;
            for (int ray = 0; ray < num_rays; ray++) {
                spans[ray] = {n, static_cast<int>(r.nextU32(13))};
                n += spans[ray].count;
                dirs[ray] = Vec3{r.nextFloat(-1.0f, 1.0f),
                                 r.nextFloat(-1.0f, 1.0f), 1.0f}
                                .normalized();
            }
            std::vector<Vec3> pts(n);
            for (Vec3 &p : pts)
                p = {r.nextFloat(), r.nextFloat(), r.nextFloat()};
            std::vector<FieldSample> out(n);
            FieldBatchRecord rec;
            field.queryStream(pts.data(), n, spans, dirs, num_rays,
                              out.data(), &rec, ws);

            std::vector<float> d_sigma(n);
            std::vector<Vec3> d_rgb(n);
            for (int s = 0; s < n; s++) {
                const bool zero = r.nextU32(4) == 0;
                d_sigma[s] = zero ? 0.0f : r.nextFloat(-1.0f, 1.0f);
                d_rgb[s] = zero ? Vec3{}
                                : Vec3{r.nextFloat(-1.0f, 1.0f),
                                       r.nextFloat(-1.0f, 1.0f),
                                       r.nextFloat(-1.0f, 1.0f)};
            }
            field.backwardStream(rec, spans, num_rays, d_sigma.data(),
                                 d_rgb.data(), nullptr, true, true,
                                 &shards[k], ws);

            const EncodeBatchRecord *enc[2] = {&rec.densityEnc,
                                               &rec.colorEnc};
            for (int gi = 0; gi < 2; gi++) {
                if (gi == 1 && mode != FieldMode::Decoupled)
                    break;
                const HashEncodingConfig &gc =
                    gi == 0 ? field.densityGrid().config()
                            : field.colorGrid().config();
                const size_t slots = static_cast<size_t>(gc.numLevels) * 8;
                corners[gi].resize(touchEntryWords(
                    static_cast<size_t>(gc.numLevels) * gc.tableSize()));
                for (int s = 0; s < n; s++) {
                    for (size_t j = 0; j < slots; j++) {
                        const size_t entry =
                            (j / 8) * gc.tableSize() +
                            enc[gi]->addresses[s * slots + j];
                        corners[gi][entry / 64] |= uint64_t{1}
                                                   << (entry % 64);
                    }
                }
            }
        }

        // Reference: every shard's whole buffer, added in shard order.
        auto shard_of = [](FieldGradients &g, ParamGroupId id) {
            switch (id) {
              case ParamGroupId::DensityGrid: return &g.densityGrid;
              case ParamGroupId::ColorGrid: return &g.colorGrid;
              case ParamGroupId::DensityMlp: return &g.densityMlp;
              default: return &g.colorMlp;
            }
        };
        std::vector<std::vector<float>> ref;
        for (ParamGroupId id : groups) {
            std::vector<float> sum(field.groupGrads(id).size(), 0.0f);
            for (FieldGradients &g : shards) {
                const std::vector<float> &v = shard_of(g, id)->v;
                for (size_t i = 0; i < sum.size(); i++)
                    sum[i] += v[i];
            }
            ref.push_back(std::move(sum));
        }

        // threads == 0 reduces the shards one call each, with no pool.
        const ParamGroupId grid_ids[2] = {ParamGroupId::DensityGrid,
                                          ParamGroupId::ColorGrid};
        const int num_grids = mode == FieldMode::Decoupled ? 2 : 1;
        std::vector<std::vector<float>> pooled_grads;
        std::vector<uint64_t> pooled_dirty[2];
        for (int threads : {1, 2, 8, 0}) {
            NerfField reduced(fcfg, 3);
            reduced.setDirtyTracking(true);
            std::vector<FieldGradients> copy = shards;
            if (threads == 0) {
                for (FieldGradients &g : copy)
                    reduced.reduceGradients(g);
            } else {
                ThreadPool pool(threads);
                reduced.reduceGradients(copy, &pool);
            }

            for (size_t g = 0; g < groups.size(); g++) {
                const std::vector<float> &got =
                    reduced.groupGrads(groups[g]);
                ASSERT_EQ(got.size(), ref[g].size());
                ASSERT_EQ(std::memcmp(got.data(), ref[g].data(),
                                      got.size() * sizeof(float)),
                          0)
                    << threads << " threads, group " << g;
            }
            EXPECT_EQ(reduced.dirtyEntries(ParamGroupId::DensityGrid),
                      corners[0])
                << threads << " threads";
            if (mode == FieldMode::Decoupled) {
                EXPECT_EQ(reduced.dirtyEntries(ParamGroupId::ColorGrid),
                          corners[1])
                    << threads << " threads";
            }
            for (FieldGradients &g : copy) {
                for (ParamGroupId id : groups) {
                    const GradShard &s = *shard_of(g, id);
                    for (float x : s.v)
                        ASSERT_EQ(x, 0.0f) << threads << " threads";
                    for (uint64_t w : s.touched)
                        ASSERT_EQ(w, 0u) << threads << " threads";
                }
            }

            if (threads != 0) {
                pooled_grads.clear();
                for (ParamGroupId id : groups)
                    pooled_grads.push_back(reduced.groupGrads(id));
                for (int gi = 0; gi < num_grids; gi++)
                    pooled_dirty[gi] = reduced.dirtyEntries(grid_ids[gi]);
                continue;
            }
            for (size_t g = 0; g < groups.size(); g++) {
                const std::vector<float> &got =
                    reduced.groupGrads(groups[g]);
                ASSERT_EQ(std::memcmp(got.data(), pooled_grads[g].data(),
                                      got.size() * sizeof(float)),
                          0)
                    << "one call per shard, group " << g;
            }
            for (int gi = 0; gi < num_grids; gi++)
                EXPECT_EQ(reduced.dirtyEntries(grid_ids[gi]),
                          pooled_dirty[gi])
                    << "one call per shard, grid " << gi;

            reduced.zeroGradDirty();
            for (int gi = 0; gi < num_grids; gi++) {
                for (float x : reduced.groupGrads(grid_ids[gi]))
                    ASSERT_EQ(x, 0.0f) << "grid " << gi;
                for (uint64_t w : reduced.dirtyEntries(grid_ids[gi]))
                    ASSERT_EQ(w, 0u) << "grid " << gi;
            }
        }
    }
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
