/**
 * @file
 * Checkpoint round-trip coverage: bitwise save/load parity (field and
 * occupancy grid), rejection of corrupt/truncated/mismatched files
 * with the destination left untouched, and the mid-training
 * Trainer::saveCheckpoint settling contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/fault_injection.hh"
#include "nerf/serialize.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"

namespace instant3d {
namespace {

Dataset
tinyDataset(const std::string &scene_name = "materials")
{
    auto scene = makeSyntheticScene(scene_name);
    DatasetConfig cfg;
    cfg.numTrainViews = 6;
    cfg.numTestViews = 2;
    cfg.imageWidth = 20;
    cfg.imageHeight = 20;
    cfg.renderOpts.numSteps = 64;
    return makeDataset(scene, cfg);
}

FieldConfig
tinyField()
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

TrainConfig
tinyTrain()
{
    TrainConfig cfg;
    cfg.raysPerBatch = 96;
    cfg.samplesPerRay = 32;
    cfg.adam.lr = 1e-2f;
    return cfg;
}

/** All parameter vectors of a field, in group order. */
std::vector<std::vector<float>>
snapshotParams(NerfField &field)
{
    std::vector<std::vector<float>> out;
    for (auto gid : field.paramGroups())
        out.push_back(field.groupParams(gid));
    return out;
}

void
expectParamsEqual(NerfField &field,
                  const std::vector<std::vector<float>> &expect)
{
    auto groups = field.paramGroups();
    ASSERT_EQ(groups.size(), expect.size());
    for (size_t g = 0; g < groups.size(); g++) {
        const auto &params = field.groupParams(groups[g]);
        ASSERT_EQ(params.size(), expect[g].size());
        for (size_t i = 0; i < params.size(); i++)
            ASSERT_EQ(params[i], expect[g][i])
                << "group " << g << " param " << i;
    }
}

/** Copy the first `bytes` bytes of `src` into `dst`. */
void
truncateFile(const std::string &src, const std::string &dst,
             size_t bytes)
{
    std::ifstream in(src, std::ios::binary);
    std::vector<char> data((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    ASSERT_LE(bytes, data.size());
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(bytes));
}

size_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<size_t>(in.tellg());
}

TEST(SerializeTest, SaveLoadBitwiseRoundTrip)
{
    Dataset ds = tinyDataset();
    Trainer trainer(ds, tinyField(), tinyTrain());
    for (int i = 0; i < 10; i++)
        trainer.trainIteration();
    trainer.syncParams();

    const std::string path = "test_serialize_roundtrip.bin";
    ASSERT_EQ(saveField(trainer.field(), path), CheckpointError::None);

    // A fresh field with a different seed starts from different
    // weights; after loadField it must match the saved ones bitwise.
    NerfField loaded(tinyField(), /*seed=*/777);
    ASSERT_EQ(loadField(loaded, path), CheckpointError::None);
    expectParamsEqual(loaded, snapshotParams(trainer.field()));

    EXPECT_EQ(fieldStorageBytes(loaded),
              fieldStorageBytes(trainer.field()));
    std::remove(path.c_str());
}

TEST(SerializeTest, OccupancyCheckpointRoundTrip)
{
    Dataset ds = tinyDataset();
    TrainConfig tcfg = tinyTrain();
    tcfg.useOccupancyGrid = true;
    tcfg.occupancyUpdatePeriod = 8;
    Trainer trainer(ds, tinyField(), tcfg);
    for (int i = 0; i < 20; i++)
        trainer.trainIteration();

    const std::string path = "test_serialize_occ.bin";
    ASSERT_EQ(trainer.saveCheckpoint(path), CheckpointError::None);

    CheckpointInfo info = peekCheckpoint(path);
    EXPECT_TRUE(info.valid);
    EXPECT_EQ(info.version, 3u);
    EXPECT_TRUE(info.decoupled);
    EXPECT_TRUE(info.hasOccupancy);
    EXPECT_EQ(info.occResolution,
              trainer.occupancyGrid()->resolution());

    NerfField loaded(tinyField(), 777);
    OccupancyGrid grid(trainer.occupancyGrid()->config());
    ASSERT_EQ(loadCheckpoint(loaded, &grid, path), CheckpointError::None);
    expectParamsEqual(loaded, snapshotParams(trainer.field()));
    const OccupancyGrid *src = trainer.occupancyGrid();
    ASSERT_EQ(grid.numCells(), src->numCells());
    for (size_t c = 0; c < grid.numCells(); c++)
        ASSERT_EQ(grid.cellDensity(c), src->cellDensity(c))
            << "cell " << c;
    std::remove(path.c_str());
}

TEST(SerializeTest, BadMagicRejectedFieldUntouched)
{
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_badmagic.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);

    // Corrupt the magic word.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(0);
        f.put('X');
    }

    NerfField dest(tinyField(), 2);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadField(dest, path), CheckpointError::Magic);
    expectParamsEqual(dest, before);
    EXPECT_FALSE(peekCheckpoint(path).valid);
    std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedRejectedFieldUntouched)
{
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_full.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);
    const size_t total = fileSize(path);
    ASSERT_GT(total, 64u);

    NerfField dest(tinyField(), 2);
    auto before = snapshotParams(dest);

    // Cut in the header, after the header, mid-group, and one byte
    // short of complete; every prefix must be rejected cleanly.
    const std::string cut = "test_serialize_truncated.bin";
    for (size_t bytes : {size_t{3}, size_t{24}, total / 2, total - 1}) {
        truncateFile(path, cut, bytes);
        EXPECT_EQ(loadField(dest, cut), CheckpointError::Truncated)
            << "bytes=" << bytes;
        expectParamsEqual(dest, before);
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected)
{
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_shape.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);

    // Same mode, different table size -> group-size mismatch.
    FieldConfig other = tinyField();
    other.densityGrid.log2TableSize = 10;
    other.colorGrid.log2TableSize = 8;
    NerfField dest(other, 2);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadField(dest, path), CheckpointError::Shape);
    expectParamsEqual(dest, before);

    // Mode mismatch (coupled vs decoupled).
    HashEncodingConfig grid;
    grid.numLevels = 4;
    grid.featuresPerEntry = 2;
    grid.log2TableSize = 12;
    grid.baseResolution = 8;
    grid.growthFactor = 1.6f;
    FieldConfig coupled = FieldConfig::ngpBaseline(grid);
    coupled.hiddenDim = 16;
    NerfField dest2(coupled, 3);
    auto before2 = snapshotParams(dest2);
    EXPECT_EQ(loadField(dest2, path), CheckpointError::Shape);
    expectParamsEqual(dest2, before2);
    std::remove(path.c_str());
}

TEST(SerializeTest, OccupancyExpectationMismatchRejected)
{
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_noocc.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);

    // Caller expects a grid but the file has none.
    NerfField dest(tinyField(), 2);
    OccupancyGridConfig ocfg;
    OccupancyGrid grid(ocfg);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadCheckpoint(dest, &grid, path), CheckpointError::Shape);
    expectParamsEqual(dest, before);

    // Resolution mismatch between file and destination grid.
    OccupancyGrid grid16{[] {
        OccupancyGridConfig c;
        c.resolution = 16;
        return c;
    }()};
    const std::string occ_path = "test_serialize_occ32.bin";
    OccupancyGrid grid32{[] {
        OccupancyGridConfig c;
        c.resolution = 32;
        return c;
    }()};
    ASSERT_EQ(saveCheckpoint(source, &grid32, occ_path), CheckpointError::None);
    EXPECT_EQ(loadCheckpoint(dest, &grid16, occ_path), CheckpointError::Shape);
    expectParamsEqual(dest, before);

    // A file *with* a grid loads fine when the caller ignores it.
    ASSERT_EQ(loadCheckpoint(dest, nullptr, occ_path), CheckpointError::None);
    expectParamsEqual(dest, snapshotParams(source));
    std::remove(path.c_str());
    std::remove(occ_path.c_str());
}

/**
 * The sparse-optimizer checkpoint hazard: a mid-training checkpoint
 * must observe settled (dense-Adam-equivalent) parameters, and taking
 * one must not perturb the training trajectory.
 */
TEST(SerializeTest, MidTrainingCheckpointSettledAndNonPerturbing)
{
    Dataset ds = tinyDataset();
    TrainConfig tcfg = tinyTrain();
    tcfg.useOccupancyGrid = true;
    tcfg.occupancyUpdatePeriod = 8;

    Trainer checkpointed(ds, tinyField(), tcfg);
    Trainer reference(ds, tinyField(), tcfg);
    ASSERT_TRUE(checkpointed.sparseOptimizerActive());

    for (int i = 0; i < 15; i++) {
        checkpointed.trainIteration();
        reference.trainIteration();
    }

    const std::string path = "test_serialize_midtrain.bin";
    ASSERT_EQ(checkpointed.saveCheckpoint(path), CheckpointError::None);

    // The checkpoint equals the settled live state...
    NerfField loaded(tinyField(), 777);
    OccupancyGrid grid(checkpointed.occupancyGrid()->config());
    ASSERT_EQ(loadCheckpoint(loaded, &grid, path), CheckpointError::None);
    checkpointed.syncParams();
    expectParamsEqual(loaded, snapshotParams(checkpointed.field()));

    // ...the restored model (field + occupancy grid) renders the same
    // pixels as the live trainer at the checkpointed step...
    const Camera &cam = ds.testViews[0].camera;
    Image live = checkpointed.renderImage(cam);
    VolumeRenderer renderer(checkpointed.renderer().config());
    renderer.setOccupancyGrid(&grid);
    Workspace ws;
    for (int row = 0; row < cam.imageHeight(); row++) {
        for (int col = 0; col < cam.imageWidth(); col++) {
            const Ray ray = cam.pixelRay(col, row);
            RayResult res;
            ws.reset();
            renderer.renderRays(loaded, &ray, 1, &res, ws);
            const Vec3 &expect = live.at(col, row);
            ASSERT_EQ(res.color.x, expect.x);
            ASSERT_EQ(res.color.y, expect.y);
            ASSERT_EQ(res.color.z, expect.z);
        }
    }

    // ...and taking it did not change subsequent training one bit.
    for (int i = 0; i < 10; i++) {
        TrainStats a = checkpointed.trainIteration();
        TrainStats b = reference.trainIteration();
        ASSERT_EQ(a.loss, b.loss) << "iteration " << i;
    }
    std::remove(path.c_str());
}

// ---- Format v3: CRC, v2 rejection, crash safety -------------------------

/** Disarm + zero all fault points on entry and exit of a test. */
struct FaultGuard
{
    FaultGuard()
    {
        fault::disarmAll();
        fault::resetCounts();
    }
    ~FaultGuard()
    {
        fault::disarmAll();
        fault::resetCounts();
    }
};

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
}

/** Hand-write a version-2 (pre-CRC) checkpoint of `field`. */
void
writeV2Field(NerfField &field, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    auto groups = field.paramGroups();
    uint32_t header[6] = {
        0x49334446u, 2u,
        static_cast<uint32_t>(field.mode() == FieldMode::Decoupled),
        static_cast<uint32_t>(groups.size()), 0u, 0u};
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, f), 1u);
    for (auto gid : groups) {
        const auto &p = field.groupParams(gid);
        uint64_t n = p.size();
        ASSERT_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
        ASSERT_EQ(std::fwrite(p.data(), sizeof(float), p.size(), f),
                  p.size());
    }
    std::fclose(f);
}

/** A v2 payload carries no CRC, so v2 files are refused outright. */
TEST(SerializeTest, Version2CheckpointIsRejected)
{
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_v2.bin";
    writeV2Field(source, path);

    EXPECT_FALSE(peekCheckpoint(path).valid);

    NerfField dest(tinyField(), 777);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadField(dest, path), CheckpointError::Version);
    expectParamsEqual(dest, before);
    std::remove(path.c_str());
}

TEST(SerializeTest, CorruptPayloadRejectedByCrc)
{
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_bitrot.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);

    // Flip one payload byte: every structural check still passes (the
    // shapes are intact), only the CRC can catch it.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(40);
        char b = static_cast<char>(f.get());
        f.seekp(40);
        f.put(static_cast<char>(b ^ 0x01));
    }

    NerfField dest(tinyField(), 2);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadField(dest, path), CheckpointError::Crc);
    expectParamsEqual(dest, before);
    std::remove(path.c_str());
}

TEST(SerializeTest, InjectedCrcFlipRejectedOnLoad)
{
    FaultGuard guard;
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_crcflip.bin";

    fault::Spec flip;
    flip.mode = fault::Mode::Always;
    fault::arm(fault::Point::CheckpointCrcFlip, flip);
    ASSERT_EQ(saveField(source, path), CheckpointError::None);
    EXPECT_EQ(fault::fireCount(fault::Point::CheckpointCrcFlip), 1u);
    fault::disarmAll();

    NerfField dest(tinyField(), 2);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadField(dest, path), CheckpointError::Crc);
    expectParamsEqual(dest, before);
    std::remove(path.c_str());
}

/**
 * The acceptance-criteria crash test: kill the save at *every* write
 * and at the fsync; the target path must hold the previous checkpoint
 * bit-for-bit afterwards, with no temp file left behind.
 */
TEST(SerializeTest, KilledSaveNeverCorruptsTarget)
{
    FaultGuard guard;
    NerfField previous(tinyField(), 1);
    NerfField next(tinyField(), 2);
    const std::string path = "test_serialize_crashsafe.bin";
    const std::string tmp = path + ".tmp";

    ASSERT_EQ(saveField(previous, path), CheckpointError::None);
    const std::vector<char> golden = readAll(path);
    ASSERT_FALSE(golden.empty());

    // Count the save's write calls by arming the point in
    // counting-only mode (hits recorded, nothing fires).
    fault::Spec count_only;
    count_only.mode = fault::Mode::Never;
    fault::arm(fault::Point::CheckpointShortWrite, count_only);
    ASSERT_EQ(saveField(previous, path), CheckpointError::None);
    const uint64_t writes =
        fault::hitCount(fault::Point::CheckpointShortWrite);
    ASSERT_GE(writes, 4u); // header + >=1 group (2 writes) + CRC
    ASSERT_EQ(readAll(path), golden);

    // Tear write k, for every k.
    for (uint64_t k = 1; k <= writes; k++) {
        fault::resetCounts();
        fault::Spec tear;
        tear.mode = fault::Mode::OneShot;
        tear.n = k;
        fault::arm(fault::Point::CheckpointShortWrite, tear);
        EXPECT_EQ(saveField(next, path), CheckpointError::Io)
            << "write " << k;
        EXPECT_EQ(readAll(path), golden) << "write " << k;
        EXPECT_TRUE(readAll(tmp).empty())
            << "temp file left after torn write " << k;
    }

    // Fail the pre-publish fsync.
    fault::disarmAll();
    fault::resetCounts();
    fault::Spec sync_fail;
    sync_fail.mode = fault::Mode::Always;
    fault::arm(fault::Point::CheckpointFsyncFail, sync_fail);
    EXPECT_EQ(saveField(next, path), CheckpointError::Io);
    EXPECT_EQ(readAll(path), golden);
    EXPECT_TRUE(readAll(tmp).empty());
    fault::disarmAll();

    // With faults gone the same save goes through and is loadable.
    ASSERT_EQ(saveField(next, path), CheckpointError::None);
    NerfField loaded(tinyField(), 777);
    ASSERT_EQ(loadField(loaded, path), CheckpointError::None);
    expectParamsEqual(loaded, snapshotParams(next));
    std::remove(path.c_str());
}

TEST(SerializeTest, InjectedShortReadReportsIo)
{
    FaultGuard guard;
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_shortread.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);

    fault::Spec fail_first;
    fail_first.mode = fault::Mode::OneShot;
    fail_first.n = 1;
    fault::arm(fault::Point::CheckpointShortRead, fail_first);

    NerfField dest(tinyField(), 2);
    auto before = snapshotParams(dest);
    EXPECT_EQ(loadField(dest, path), CheckpointError::Io);
    expectParamsEqual(dest, before);
    fault::disarmAll();

    // Transient: the identical retry succeeds.
    ASSERT_EQ(loadField(dest, path), CheckpointError::None);
    expectParamsEqual(dest, snapshotParams(source));
    std::remove(path.c_str());
}

// ---- Streaming loader ----------------------------------------------------

/**
 * The streaming path must be a pure I/O-pattern change: restored
 * params and densities are bit-identical to the one-read-per-section
 * staged loader for any chunk size, aligned or not.
 */
TEST(SerializeTest, StreamedLoadBitIdenticalForAnyChunkSize)
{
    NerfField source(tinyField(), 1);
    OccupancyGridConfig ocfg;
    OccupancyGrid grid(ocfg);
    for (size_t c = 0; c < grid.numCells(); c++)
        grid.setCellDensity(c, 0.25f + 0.001f * static_cast<float>(c % 97));
    const std::string path = "test_serialize_stream.bin";
    ASSERT_EQ(saveCheckpoint(source, &grid, path),
              CheckpointError::None);

    // Reference: the legacy staged I/O pattern (whole section per read).
    NerfField staged_dest(tinyField(), 2);
    OccupancyGrid staged_grid(ocfg);
    CheckpointStreamConfig whole;
    whole.chunkBytes = 0;
    ASSERT_EQ(loadCheckpoint(staged_dest, &staged_grid, path, whole),
              CheckpointError::None);
    auto expect = snapshotParams(staged_dest);
    expectParamsEqual(staged_dest, snapshotParams(source));

    for (size_t chunk : {size_t(7), size_t(4096), size_t(1) << 20}) {
        NerfField dest(tinyField(), 3);
        OccupancyGrid dgrid(ocfg);
        CheckpointStreamConfig scfg;
        scfg.chunkBytes = chunk;
        ASSERT_EQ(loadCheckpoint(dest, &dgrid, path, scfg),
                  CheckpointError::None)
            << "chunk " << chunk;
        expectParamsEqual(dest, expect);
        for (size_t c = 0; c < grid.numCells(); c++)
            ASSERT_EQ(dgrid.cellDensity(c), staged_grid.cellDensity(c))
                << "chunk " << chunk << " cell " << c;
    }
    std::remove(path.c_str());
}

/**
 * The acceptance-criteria read-side sweep (mirror of
 * KilledSaveNeverCorruptsTarget): enumerate every chunk read with the
 * never-count mode, then kill the load at each one. Every failure
 * must report Io and leave the destination field and grid untouched.
 * The metadata reads (header, group counts, CRC word) get the same
 * sweep through the legacy checkpoint.short_read point.
 */
TEST(SerializeTest, KilledStreamLoadNeverTouchesDestination)
{
    FaultGuard guard;
    NerfField source(tinyField(), 1);
    OccupancyGridConfig ocfg;
    OccupancyGrid grid(ocfg);
    for (size_t c = 0; c < grid.numCells(); c++)
        grid.setCellDensity(c, 0.5f);
    const std::string path = "test_serialize_streamkill.bin";
    ASSERT_EQ(saveCheckpoint(source, &grid, path),
              CheckpointError::None);

    CheckpointStreamConfig scfg;
    scfg.chunkBytes = 16384;

    // Enumerate both read families in counting-only mode.
    fault::Spec count_only;
    count_only.mode = fault::Mode::Never;
    fault::arm(fault::Point::CheckpointStreamShortRead, count_only);
    fault::arm(fault::Point::CheckpointShortRead, count_only);
    {
        NerfField probe(tinyField(), 4);
        OccupancyGrid pgrid(ocfg);
        ASSERT_EQ(loadCheckpoint(probe, &pgrid, path, scfg),
                  CheckpointError::None);
    }
    const uint64_t chunk_reads =
        fault::hitCount(fault::Point::CheckpointStreamShortRead);
    const uint64_t meta_reads =
        fault::hitCount(fault::Point::CheckpointShortRead);
    ASSERT_GE(chunk_reads, 2u);
    ASSERT_GE(meta_reads, 3u); // header + >=1 group count + CRC word
    fault::disarmAll();

    NerfField dest(tinyField(), 5);
    OccupancyGrid dgrid(ocfg);
    for (size_t c = 0; c < dgrid.numCells(); c++)
        dgrid.setCellDensity(c, 7.0f);
    const auto before = snapshotParams(dest);

    auto sweep = [&](fault::Point point, uint64_t sites) {
        for (uint64_t k = 1; k <= sites; k++) {
            fault::resetCounts();
            fault::Spec kill;
            kill.mode = fault::Mode::OneShot;
            kill.n = k;
            fault::arm(point, kill);
            EXPECT_EQ(loadCheckpoint(dest, &dgrid, path, scfg),
                      CheckpointError::Io)
                << fault::pointName(point) << " site " << k;
            expectParamsEqual(dest, before);
            for (size_t c = 0; c < dgrid.numCells(); c++)
                ASSERT_EQ(dgrid.cellDensity(c), 7.0f)
                    << fault::pointName(point) << " site " << k;
            fault::disarm(point);
        }
    };
    sweep(fault::Point::CheckpointStreamShortRead, chunk_reads);
    sweep(fault::Point::CheckpointShortRead, meta_reads);

    // With faults gone the same destination loads clean.
    ASSERT_EQ(loadCheckpoint(dest, &dgrid, path, scfg),
              CheckpointError::None);
    expectParamsEqual(dest, snapshotParams(source));
    std::remove(path.c_str());
}

/** stream_stall delays each payload chunk but never changes bits. */
TEST(SerializeTest, StreamStallDelaysChunksWithoutCorruption)
{
    FaultGuard guard;
    NerfField source(tinyField(), 1);
    const std::string path = "test_serialize_streamstall.bin";
    ASSERT_EQ(saveField(source, path), CheckpointError::None);

    fault::Spec stall;
    stall.mode = fault::Mode::Always;
    stall.delayMs = 1;
    fault::arm(fault::Point::CheckpointStreamStall, stall);

    NerfField dest(tinyField(), 2);
    CheckpointStreamConfig scfg;
    scfg.chunkBytes = size_t(1) << 16;
    ASSERT_EQ(loadCheckpoint(dest, nullptr, path, scfg),
              CheckpointError::None);
    EXPECT_GE(fault::fireCount(fault::Point::CheckpointStreamStall),
              1u);
    expectParamsEqual(dest, snapshotParams(source));
    std::remove(path.c_str());
}

} // namespace
} // namespace instant3d
