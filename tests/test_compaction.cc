/**
 * @file
 * Tests for the occupancy-compacted sample stream:
 *
 *  - OccupancyGrid::update() is deterministic (fixed seed -> identical
 *    grid) and its batched row queries match scalar field probes.
 *  - queryStream over a multi-ray stream matches one-ray streams
 *    bit-exactly.
 *  - A traced iteration (one ray per stream, so the trace keeps program
 *    order) trains bit-identically to the untraced chunk-wide stream,
 *    with a fully-occupied grid and with real skipping, at 1 and 4
 *    threads, and its trace is the same access sequence at both
 *    thread counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"
#include "trace/mem_trace.hh"

namespace instant3d {
namespace {

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

// ---- OccupancyGrid::update ---------------------------------------------

TEST(OccupancyUpdateTest, FixedSeedGivesIdenticalGrid)
{
    OccupancyGridConfig ocfg;
    ocfg.resolution = 8;
    ocfg.samplesPerCellUpdate = 2;

    OccupancyGrid a(ocfg), b(ocfg);
    NerfField field_a(smallField(), 11), field_b(smallField(), 11);
    Rng rng_a(77), rng_b(77);
    for (int i = 0; i < 3; i++) {
        a.update(field_a, rng_a);
        b.update(field_b, rng_b);
    }
    ASSERT_EQ(a.numCells(), b.numCells());
    for (size_t i = 0; i < a.numCells(); i++)
        ASSERT_EQ(a.cellDensity(i), b.cellDensity(i)) << "cell " << i;
}

TEST(OccupancyUpdateTest, BatchedRowsMatchScalarProbes)
{
    OccupancyGridConfig ocfg;
    ocfg.resolution = 6;
    ocfg.samplesPerCellUpdate = 2;

    OccupancyGrid grid(ocfg);
    NerfField field(smallField(), 13);
    Rng rng(5);
    grid.update(field, rng);

    // Scalar reference: replay the exact same probe derivation (one
    // round key from the rng, per-cell jitter streams keyed by
    // (round, cell index)) through field.query() and the EMA-max
    // update rule.
    NerfField ref_field(smallField(), 13);
    std::vector<float> ref(static_cast<size_t>(ocfg.resolution) *
                               ocfg.resolution * ocfg.resolution,
                           ocfg.occupancyThreshold * 2.0f);
    Rng ref_rng(5);
    const uint64_t round_key =
        (static_cast<uint64_t>(ref_rng.nextU32()) << 32) |
        ref_rng.nextU32();
    const float cell = 1.0f / static_cast<float>(ocfg.resolution);
    size_t idx = 0;
    for (int z = 0; z < ocfg.resolution; z++)
        for (int y = 0; y < ocfg.resolution; y++)
            for (int x = 0; x < ocfg.resolution; x++, idx++) {
                Rng cell_rng = Rng::forIndex(
                    round_key, 0, static_cast<uint64_t>(idx));
                float fresh = 0.0f;
                for (int s = 0; s < ocfg.samplesPerCellUpdate; s++) {
                    Vec3 p((x + cell_rng.nextFloat()) * cell,
                           (y + cell_rng.nextFloat()) * cell,
                           (z + cell_rng.nextFloat()) * cell);
                    fresh = std::max(
                        fresh,
                        ref_field.query(p, {0.0f, 0.0f, 1.0f}).sigma);
                }
                ref[idx] = std::max(ref[idx] * ocfg.decay, fresh);
            }

    for (size_t i = 0; i < grid.numCells(); i++)
        ASSERT_EQ(grid.cellDensity(i), ref[i]) << "cell " << i;
}

// ---- queryStream -------------------------------------------------------

TEST(SampleStreamTest, QueryStreamMatchesOneRayStreams)
{
    NerfField stream_field(smallField(), 21);
    NerfField ray_field(smallField(), 21);
    Rng r(31);

    const int num_rays = 5;
    std::vector<RaySpan> spans(num_rays);
    std::vector<Vec3> dirs(num_rays);
    std::vector<Vec3> pts;
    for (int ray = 0; ray < num_rays; ray++) {
        spans[ray].offset = static_cast<int>(pts.size());
        spans[ray].count = ray * 3; // include an empty span
        dirs[ray] = Vec3(r.nextFloat(-1, 1), r.nextFloat(-1, 1),
                         r.nextFloat(0.1f, 1))
                        .normalized();
        for (int k = 0; k < spans[ray].count; k++)
            pts.push_back({r.nextFloat(), r.nextFloat(), r.nextFloat()});
    }
    const int n = static_cast<int>(pts.size());

    Workspace ws_stream;
    std::vector<FieldSample> stream_out(n);
    stream_field.queryStream(pts.data(), n, spans.data(), dirs.data(),
                             num_rays, stream_out.data(), nullptr,
                             ws_stream);

    Workspace ws_ray;
    std::vector<FieldSample> ray_out(n);
    for (int ray = 0; ray < num_rays; ray++) {
        ws_ray.reset();
        const RaySpan span{0, spans[ray].count};
        ray_field.queryStream(pts.data() + spans[ray].offset,
                              spans[ray].count, &span, &dirs[ray], 1,
                              ray_out.data() + spans[ray].offset, nullptr,
                              ws_ray);
    }

    for (int s = 0; s < n; s++) {
        ASSERT_EQ(stream_out[s].sigma, ray_out[s].sigma) << "sample " << s;
        ASSERT_EQ(stream_out[s].rgb.x, ray_out[s].rgb.x) << "sample " << s;
        ASSERT_EQ(stream_out[s].rgb.y, ray_out[s].rgb.y) << "sample " << s;
        ASSERT_EQ(stream_out[s].rgb.z, ray_out[s].rgb.z) << "sample " << s;
    }
    EXPECT_EQ(stream_field.queryCount(), ray_field.queryCount());
}

// ---- Training parity ---------------------------------------------------

std::vector<float>
allParams(Trainer &t)
{
    std::vector<float> params;
    for (auto gid : t.field().paramGroups()) {
        const auto &p = t.field().groupParams(gid);
        params.insert(params.end(), p.begin(), p.end());
    }
    return params;
}

/** Every access of `a` equals the same-index access of `b` in all five
 *  GridAccess fields. */
void
expectSameTrace(const std::vector<GridAccess> &a,
                const std::vector<GridAccess> &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); i++) {
        ASSERT_EQ(a[i].address, b[i].address) << what << ", access " << i;
        ASSERT_EQ(a[i].level, b[i].level) << what << ", access " << i;
        ASSERT_EQ(a[i].corner, b[i].corner) << what << ", access " << i;
        ASSERT_EQ(a[i].isWrite, b[i].isWrite) << what << ", access " << i;
        ASSERT_EQ(a[i].pointId, b[i].pointId) << what << ", access " << i;
    }
}

/** Read point ids never decrease along a trace's arrival order. */
void
expectMonotonicReadIds(const std::vector<GridAccess> &trace,
                       const std::string &what)
{
    uint32_t last = 0;
    for (size_t i = 0; i < trace.size(); i++) {
        if (trace[i].isWrite)
            continue;
        ASSERT_GE(trace[i].pointId, last) << what << ", access " << i;
        last = trace[i].pointId;
    }
}

/**
 * A trace sink only changes how a chunk is streamed (one ray at a
 * time, so each ray's reads precede its writes), never the numbers:
 * a traced trainer matches an untraced one bit for bit, both with a
 * grid that never clears (stays fully occupied) and with real
 * empty-space skipping engaged, at any thread count. The trace itself
 * is program order: each grid's sink receives the same access
 * sequence at 1 and 4 threads, with read point ids that never
 * decrease.
 */
TEST(CompactionParityTest, TracedMatchesUntracedStream)
{
    Dataset ds = smallDataset();

    struct Scenario
    {
        const char *name;
        int updatePeriod; //!< Huge = grid never refreshes (stays full).
        float decay;
    };
    for (const Scenario &sc :
         {Scenario{"fully-occupied", 1 << 20, 0.95f},
          Scenario{"skipping", 2, 0.5f}}) {
        // Each grid's arrival-order trace from the 1-thread run.
        std::vector<GridAccess> ref_density, ref_color;
        for (int threads : {1, 4}) {
            TrainConfig tcfg;
            tcfg.raysPerBatch = 48;
            tcfg.samplesPerRay = 24;
            tcfg.useOccupancyGrid = true;
            tcfg.occupancyUpdatePeriod = sc.updatePeriod;
            tcfg.occupancy.resolution = 8;
            tcfg.occupancy.decay = sc.decay;
            tcfg.numThreads = threads;

            Trainer plain_t(ds, smallField(), tcfg);
            Trainer traced_t(ds, smallField(), tcfg);
            MemTraceCollector density_trace, color_trace;
            traced_t.field().densityGrid().setTraceSink(&density_trace);
            traced_t.field().colorGrid().setTraceSink(&color_trace);
            for (int i = 0; i < 10; i++) {
                TrainStats a = plain_t.trainIteration();
                TrainStats b = traced_t.trainIteration();
                ASSERT_EQ(a.loss, b.loss) << sc.name << ", " << threads
                                          << " threads, iteration " << i;
                ASSERT_EQ(a.pointsQueried, b.pointsQueried)
                    << sc.name << ", " << threads << " threads, iteration "
                    << i;
            }
            std::vector<float> pa = allParams(plain_t);
            std::vector<float> pb = allParams(traced_t);
            ASSERT_EQ(pa.size(), pb.size());
            for (size_t i = 0; i < pa.size(); i++)
                ASSERT_EQ(pa[i], pb[i]) << sc.name << ", " << threads
                                        << " threads, param " << i;

            for (const MemTraceCollector *trace :
                 {&density_trace, &color_trace}) {
                EXPECT_FALSE(trace->reads().empty()) << sc.name;
                EXPECT_FALSE(trace->writes().empty()) << sc.name;
            }
            traced_t.field().densityGrid().setTraceSink(nullptr);
            traced_t.field().colorGrid().setTraceSink(nullptr);

            const std::string where =
                std::string(sc.name) + ", " + std::to_string(threads) +
                " threads";
            expectMonotonicReadIds(density_trace.accesses(),
                                   where + ", density grid");
            expectMonotonicReadIds(color_trace.accesses(),
                                   where + ", color grid");
            if (threads == 1) {
                ref_density = density_trace.accesses();
                ref_color = color_trace.accesses();
            } else {
                expectSameTrace(density_trace.accesses(), ref_density,
                                where + ", density grid");
                expectSameTrace(color_trace.accesses(), ref_color,
                                where + ", color grid");
            }

            if (sc.updatePeriod == 1 << 20) {
                EXPECT_DOUBLE_EQ(
                    traced_t.occupancyGrid()->occupiedFraction(), 1.0);
            } else {
                // The skipping scenario must actually skip.
                EXPECT_LT(traced_t.occupancyGrid()->occupiedFraction(),
                          1.0);
            }
        }
    }
}

} // namespace
} // namespace instant3d
