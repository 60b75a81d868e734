/**
 * @file
 * Cross-module property tests and failure injection:
 *  - volume-rendering invariants (weight normalization, transmittance
 *    monotonicity, background energy conservation);
 *  - hash-table load statistics under Eq. 3;
 *  - accelerator-model monotonicities (resources never hurt);
 *  - workload-model scaling laws;
 *  - death tests for user-error paths (fatal) across modules.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/accelerator.hh"
#include "accel/sram.hh"
#include "common/rng.hh"
#include "kernels/kernel_backend.hh"
#include "nerf/adam.hh"
#include "nerf/renderer.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"

namespace instant3d {
namespace {

FieldConfig
tinyField()
{
    HashEncodingConfig grid;
    grid.numLevels = 3;
    grid.log2TableSize = 10;
    grid.baseResolution = 8;
    FieldConfig cfg = FieldConfig::instant3dDefault(grid);
    cfg.hiddenDim = 16;
    return cfg;
}

// ---- Rendering invariants ----------------------------------------------

TEST(RenderPropertyTest, WeightsFormSubPartition)
{
    // For any field and ray: sum_k w_k + T_final == 1 exactly, i.e.
    // compositing conserves radiance energy.
    NerfField field(tinyField(), 17);
    Rng rinit(5);
    for (auto &p : field.groupParams(ParamGroupId::DensityGrid))
        p = rinit.nextFloat(-0.5f, 1.0f);

    RendererConfig rcfg;
    rcfg.samplesPerRay = 24;
    VolumeRenderer renderer(rcfg);

    Rng r(6);
    for (int trial = 0; trial < 30; trial++) {
        Ray ray{{r.nextFloat(), r.nextFloat(), -0.3f},
                Vec3(r.nextFloat() - 0.5f, r.nextFloat() - 0.5f, 1.0f)
                    .normalized()};
        RayRecord rec;
        renderer.renderRay(field, ray, nullptr, &rec);
        double weight_sum = 0.0;
        for (const auto &s : rec.samples)
            weight_sum += static_cast<double>(s.transmittance) * s.alpha;
        EXPECT_NEAR(weight_sum + rec.finalTransmittance, 1.0, 1e-4)
            << "trial " << trial;
    }
}

TEST(RenderPropertyTest, TransmittanceMonotonicallyDecreases)
{
    NerfField field(tinyField(), 18);
    for (auto &p : field.groupParams(ParamGroupId::DensityGrid))
        p = 0.4f;
    RendererConfig rcfg;
    rcfg.samplesPerRay = 32;
    VolumeRenderer renderer(rcfg);
    Ray ray{{0.5f, 0.5f, -0.4f}, {0.0f, 0.0f, 1.0f}};
    RayRecord rec;
    renderer.renderRay(field, ray, nullptr, &rec);
    for (size_t k = 1; k < rec.samples.size(); k++)
        EXPECT_LE(rec.samples[k].transmittance,
                  rec.samples[k - 1].transmittance + 1e-7f);
}

TEST(RenderPropertyTest, CompositingEquationHolds)
{
    // The returned color must equal sum_k w_k c_k + bg * T_final,
    // recomputed independently from the recorded samples (Eq. 1).
    NerfField field(tinyField(), 19);
    Rng rinit(9);
    for (auto &p : field.groupParams(ParamGroupId::DensityGrid))
        p = rinit.nextFloat(-0.4f, 0.8f);

    RendererConfig rcfg;
    rcfg.background = {1.0f, 0.25f, 0.0f};
    rcfg.samplesPerRay = 24;
    VolumeRenderer renderer(rcfg);

    Rng r(10);
    for (int trial = 0; trial < 20; trial++) {
        Ray ray{{r.nextFloat(), r.nextFloat(), -0.4f},
                Vec3(r.nextFloat() - 0.5f, r.nextFloat() - 0.5f, 1.0f)
                    .normalized()};
        RayRecord rec;
        RayResult res = renderer.renderRay(field, ray, nullptr, &rec);
        Vec3 recomposed;
        for (const auto &s : rec.samples)
            recomposed += s.rgb * (s.transmittance * s.alpha);
        recomposed += rcfg.background * rec.finalTransmittance;
        EXPECT_NEAR(res.color.x, recomposed.x, 1e-4f);
        EXPECT_NEAR(res.color.y, recomposed.y, 1e-4f);
        EXPECT_NEAR(res.color.z, recomposed.z, 1e-4f);
        EXPECT_NEAR(res.opacity, 1.0f - rec.finalTransmittance, 1e-5f);
    }
}

// ---- Hash-table statistics ------------------------------------------------

TEST(HashPropertyTest, LoadIsRoughlyUniform)
{
    // Eq. 3 should spread vertices evenly over the table: fill the
    // table from a dense coordinate sweep and check bucket loads.
    const uint32_t table = 1u << 10;
    std::vector<int> load(table, 0);
    for (uint32_t x = 0; x < 32; x++)
        for (uint32_t y = 0; y < 32; y++)
            for (uint32_t z = 0; z < 32; z++)
                load[HashEncoding::hashCoords(x, y, z, table)]++;
    // 32768 insertions over 1024 buckets: mean 32.
    int mn = load[0], mx = load[0];
    for (int l : load) {
        mn = std::min(mn, l);
        mx = std::max(mx, l);
    }
    EXPECT_GT(mn, 4) << "some buckets starved";
    EXPECT_LT(mx, 160) << "some buckets pathologically hot";
}

TEST(HashPropertyTest, DistinctTablesDecorrelate)
{
    // The same vertex must map differently under different table
    // sizes (no systematic aliasing between branch tables).
    int same = 0;
    const int n = 4096;
    Rng r(77);
    for (int i = 0; i < n; i++) {
        uint32_t x = r.nextU32(1 << 16), y = r.nextU32(1 << 16),
                 z = r.nextU32(1 << 16);
        uint32_t a = HashEncoding::hashCoords(x, y, z, 1u << 12);
        uint32_t b = HashEncoding::hashCoords(x, y, z, 1u << 10);
        if (a == b)
            same++;
    }
    // a == b happens when the two address bits above 2^10 are zero:
    // expect ~n/4.
    EXPECT_NEAR(same, n / 4, n / 10);
}

// ---- Accelerator monotonicities --------------------------------------------

class AcceleratorMonotonicityTest : public ::testing::Test
{
  protected:
    TraceCalibration calib = TraceCalibration::defaults();
    TrainingWorkload w = makeInstant3dWorkload(
        "NeRF-Synthetic", instant3dShippedConfig());
};

TEST_F(AcceleratorMonotonicityTest, HigherFrequencyNeverSlower)
{
    AcceleratorConfig slow, fast;
    slow.frequencyGHz = 0.4;
    fast.frequencyGHz = 1.6;
    EXPECT_GT(Accelerator(slow, calib).trainingSeconds(w),
              Accelerator(fast, calib).trainingSeconds(w));
}

TEST_F(AcceleratorMonotonicityTest, EnablingUnitsNeverSlower)
{
    AcceleratorConfig off, on;
    off.enableFrm = off.enableBum = off.enableFusion = false;
    double t_off = Accelerator(off, calib).trainingSeconds(w);
    double t_on = Accelerator(on, calib).trainingSeconds(w);
    EXPECT_LE(t_on, t_off);

    // Each unit individually also helps or is neutral.
    for (int unit = 0; unit < 3; unit++) {
        AcceleratorConfig cfg = off;
        if (unit == 0)
            cfg.enableFrm = true;
        if (unit == 1)
            cfg.enableBum = true;
        if (unit == 2)
            cfg.enableFusion = true;
        EXPECT_LE(Accelerator(cfg, calib).trainingSeconds(w),
                  t_off * 1.0001)
            << "unit " << unit;
    }
}

TEST_F(AcceleratorMonotonicityTest, MoreWorkTakesLonger)
{
    TrainingWorkload big = w;
    big.pointsPerIter *= 2.0;
    Accelerator accel{AcceleratorConfig{}, calib};
    EXPECT_GT(accel.trainingSeconds(big), accel.trainingSeconds(w));
    TrainingWorkload more_iters = w;
    more_iters.iterations *= 2;
    EXPECT_NEAR(accel.trainingSeconds(more_iters),
                2.0 * accel.trainingSeconds(w), 1e-6);
}

TEST_F(AcceleratorMonotonicityTest, BetterCalibrationNeverSlower)
{
    TraceCalibration worse = calib;
    worse.frmUtil8 *= 0.5;
    worse.frmUtil16 *= 0.5;
    worse.frmUtil32 *= 0.5;
    worse.bumMergeRatio *= 0.5;
    EXPECT_GE(Accelerator(AcceleratorConfig{}, worse).trainingSeconds(w),
              Accelerator(AcceleratorConfig{}, calib)
                  .trainingSeconds(w));
}

// ---- Workload scaling -------------------------------------------------------

TEST(WorkloadPropertyTest, BytesScaleLinearlyWithPoints)
{
    TrainingWorkload a = makeNgpWorkload("NeRF-Synthetic");
    TrainingWorkload b = a;
    b.pointsPerIter *= 3.0;
    EXPECT_DOUBLE_EQ(b.gridReadBytesPerIter(),
                     3.0 * a.gridReadBytesPerIter());
    EXPECT_DOUBLE_EQ(b.mlpFlopsPerIterFF(), 3.0 * a.mlpFlopsPerIterFF());
}

TEST(WorkloadPropertyTest, UpdateRateOnlyAffectsWrites)
{
    Instant3dConfig half = instant3dShippedConfig();
    Instant3dConfig full = half;
    full.colorUpdateRate = 1.0f;
    TrainingWorkload wh = makeInstant3dWorkload("NeRF-Synthetic", half);
    TrainingWorkload wf = makeInstant3dWorkload("NeRF-Synthetic", full);
    EXPECT_DOUBLE_EQ(wh.gridReadBytesPerIter(),
                     wf.gridReadBytesPerIter());
    EXPECT_LT(wh.gridWriteBytesPerIter(), wf.gridWriteBytesPerIter());
}

// ---- Failure injection (fatal user errors) ---------------------------------

using DeathTest = ::testing::Test;

TEST(DeathTest, UnknownSceneNameIsFatal)
{
    EXPECT_EXIT(makeSyntheticScene("not-a-scene"),
                ::testing::ExitedWithCode(1), "unknown synthetic scene");
}

TEST(DeathTest, UnknownDatasetIsFatal)
{
    EXPECT_EXIT(makeNgpWorkload("not-a-dataset"),
                ::testing::ExitedWithCode(1), "unknown dataset");
}

TEST(DeathTest, BadUpdateRateIsFatal)
{
    EXPECT_EXIT(Instant3dConfig::periodFromRate(0.0f),
                ::testing::ExitedWithCode(1), "update rate");
    EXPECT_EXIT(Instant3dConfig::periodFromRate(1.5f),
                ::testing::ExitedWithCode(1), "update rate");
}

TEST(DeathTest, BadGridRatioIsFatal)
{
    HashEncodingConfig cfg;
    EXPECT_EXIT(cfg.scaledBy(-1.0f), ::testing::ExitedWithCode(1),
                "ratio must be positive");
}

TEST(DeathTest, NonPowerOfTwoBanksIsFatal)
{
    EXPECT_EXIT(SramArray(7, 4, 1 << 20),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(DeathTest, OccupancyRefreshPeriodBelowOneIsFatal)
{
    DatasetConfig dcfg;
    dcfg.numTrainViews = 1;
    dcfg.numTestViews = 1;
    dcfg.imageWidth = 8;
    dcfg.imageHeight = 8;
    Dataset ds = makeDataset(makeSyntheticScene("lego"), dcfg);
    TrainConfig tcfg;
    tcfg.useOccupancyGrid = true;
    tcfg.occupancyUpdatePeriod = 0;
    EXPECT_EXIT(Trainer(ds, FieldConfig{}, tcfg),
                ::testing::ExitedWithCode(1), "occupancyUpdatePeriod");
}

TEST(DeathTest, SamplesPerRayBelowOneIsFatal)
{
    DatasetConfig dcfg;
    dcfg.numTrainViews = 1;
    dcfg.numTestViews = 1;
    dcfg.imageWidth = 8;
    dcfg.imageHeight = 8;
    Dataset ds = makeDataset(makeSyntheticScene("lego"), dcfg);
    for (int samples : {0, -1}) {
        TrainConfig tcfg;
        tcfg.samplesPerRay = samples;
        EXPECT_EXIT(Trainer(ds, FieldConfig{}, tcfg),
                    ::testing::ExitedWithCode(1), "samplesPerRay");
    }
}

TEST(DeathTest, OccupancyProbeCountBelowOneIsFatal)
{
    for (int probes : {0, -1}) {
        OccupancyGridConfig cfg;
        cfg.samplesPerCellUpdate = probes;
        EXPECT_EXIT(OccupancyGrid{cfg}, ::testing::ExitedWithCode(1),
                    "samplesPerCellUpdate");
    }
}

/** A sparse Adam over 130 entries of 2 floats: the last of its three
 *  bitmap words holds 2 entries. */
struct SparseAdam130
{
    static constexpr size_t entries = 130;
    std::vector<float> params = std::vector<float>(entries * 2, 0.5f);
    std::vector<float> grads = std::vector<float>(entries * 2, 0.0f);
    Adam adam{entries * 2, AdamConfig{}};
    SparseAdam130() { adam.enableSparse(2); }
};

TEST(DeathTest, SparseStepRejectsShortBitmap)
{
    SparseAdam130 s;
    std::vector<uint64_t> touched(touchEntryWords(s.entries) - 1, 0);
    EXPECT_DEATH(s.adam.stepSparse(s.params, s.grads, touched),
                 "touched bitmap size");
}

TEST(DeathTest, SparseStepRejectsBitPastLastEntry)
{
    SparseAdam130 s;
    std::vector<uint64_t> touched(touchEntryWords(s.entries), 0);
    touched.back() = uint64_t{1} << (s.entries % 64 - 1); // the last entry
    EXPECT_EQ(s.adam.stepSparse(s.params, s.grads, touched), 1u);
    touched.back() = uint64_t{1} << (s.entries % 64);
    EXPECT_DEATH(s.adam.stepSparse(s.params, s.grads, touched),
                 "past the last entry");
}

} // namespace
} // namespace instant3d
