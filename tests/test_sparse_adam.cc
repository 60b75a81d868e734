/**
 * @file
 * Tests for the sparse touched-entry optimizer and the amortized
 * occupancy refresh (PR 3):
 *
 *  - Lazy sparse Adam replays deferred zero-gradient updates
 *    bit-exactly: on a hand-built touch pattern the sparse trajectory
 *    (with catch-up) equals the dense trajectory float-for-float,
 *    including mid-stream catch-ups and never-touched entries. The
 *    sweep gives the same bits inline and over a pool.
 *
 *  - Trainer-level parity: sparse-optimizer training with a skipping
 *    occupancy grid is bit-identical to dense-optimizer training --
 *    losses every iteration and all parameters at the end -- at 1, 2,
 *    and 8 threads, including a frozen-color schedule (entries read by
 *    the forward pass while not being touched).
 *
 *  - The partial occupancy refresh is deterministic for a fixed seed
 *    and converges to the same occupied set as the full res^3 sweep.
 *
 *  - Both refresh modes probe the density branch alone over a thread
 *    pool, bit-identically to scalar field queries in every FieldMode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/kernel_backend.hh"
#include "nerf/adam.hh"
#include "nerf/trainer.hh"
#include "scene/scene.hh"

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

// ---- Lazy catch-up vs dense, hand-built touch pattern ------------------

/**
 * The touched bitmap Adam::stepSparse reads, over `entries` entries of
 * `span` floats, with the entries at the given base offsets set.
 */
std::vector<uint64_t>
touchedBits(const std::vector<uint32_t> &offsets, uint32_t span,
            size_t entries)
{
    std::vector<uint64_t> bits(touchEntryWords(entries), 0);
    for (uint32_t off : offsets)
        bits[off / span / 64] |= uint64_t{1} << (off / span % 64);
    return bits;
}

/**
 * 6 entries x span 2, 12 steps, a mix of schedules: entry 0 touched
 * every step, entry 1 once at the start (long replay), entry 2 never,
 * entry 3 sporadically, entry 4 at the last step only, entry 5 twice
 * in a row then never again. Dense Adam sees the same gradients as a
 * full vector with zeros elsewhere.
 */
TEST(SparseAdamTest, LazyCatchUpMatchesDenseOnHandBuiltPattern)
{
    constexpr uint32_t span = 2;
    constexpr size_t entries = 6;
    constexpr size_t n = entries * span;
    constexpr int steps = 12;

    AdamConfig acfg;
    acfg.lr = 0.05f;
    Adam dense(n, acfg);
    Adam lazy(n, acfg);
    lazy.enableSparse(span);
    Adam eager(n, acfg); // catches up every step
    eager.enableSparse(span);

    std::vector<float> p_dense(n), p_lazy(n), p_eager(n);
    Rng init(3);
    for (size_t i = 0; i < n; i++)
        p_dense[i] = p_lazy[i] = p_eager[i] = init.nextFloat(-1.f, 1.f);

    auto touched_at = [](int step) {
        std::vector<uint32_t> t = {0 * span}; // entry 0: every step
        if (step == 0)
            t.push_back(1 * span);
        if (step % 3 == 1)
            t.push_back(3 * span);
        if (step == steps - 1)
            t.push_back(4 * span);
        if (step == 0 || step == 1)
            t.push_back(5 * span);
        return t;
    };

    Rng grads_rng(17);
    for (int step = 0; step < steps; step++) {
        std::vector<float> grads(n, 0.0f);
        for (uint32_t off : touched_at(step))
            for (uint32_t f = 0; f < span; f++)
                grads[off + f] = grads_rng.nextFloat(-1.0f, 1.0f);

        dense.step(p_dense, grads);
        const std::vector<uint64_t> bits =
            touchedBits(touched_at(step), span, entries);
        EXPECT_EQ(lazy.stepSparse(p_lazy, grads, bits),
                  touched_at(step).size());
        eager.stepSparse(p_eager, grads, bits);
        eager.catchUp(p_eager); // settling every step must be harmless
    }

    // Before the final catch-up, deferred entries may legitimately lag.
    lazy.catchUp(p_lazy);
    eager.catchUp(p_eager);

    for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(p_dense[i], p_lazy[i]) << "lazy param " << i;
        ASSERT_EQ(p_dense[i], p_eager[i]) << "eager param " << i;
    }

    // Entry 2 was never touched: it must not have moved at all.
    for (uint32_t f = 0; f < span; f++) {
        float orig = 0.0f;
        Rng replay(3);
        for (size_t i = 0; i <= 2 * span + f; i++)
            orig = replay.nextFloat(-1.f, 1.f);
        ASSERT_EQ(p_lazy[2 * span + f], orig);
    }
}

/**
 * The sweep-retirement contract over a long decay: entries touched
 * once keep receiving zero-gradient decay updates until their update
 * magnitude provably rounds to a no-op, retire from the sweep, and are
 * caught back up bit-exactly when re-touched hundreds of steps later.
 * Dense Adam runs the same schedule as the ground truth; params are
 * compared bitwise every 25 steps (not just at the end), which is
 * exactly what the training forward pass observes.
 */
TEST(SparseAdamTest, RetirementAndLongGapReplayMatchDense)
{
    constexpr uint32_t span = 2;
    constexpr size_t entries = 8;
    constexpr size_t n = entries * span;
    constexpr int steps = 400;

    AdamConfig acfg;
    acfg.lr = 0.05f;
    Adam dense(n, acfg);
    Adam sparse(n, acfg);
    sparse.enableSparse(span);

    std::vector<float> p_dense(n), p_sparse(n);
    Rng init(5);
    for (size_t i = 0; i < n; i++)
        p_dense[i] = p_sparse[i] = init.nextFloat(-1.f, 1.f);

    // Entry 0 touched at the start only; entries 1-3 touched at the
    // start and re-touched late (after their momentum has retired);
    // entry 4 touched every 50 steps; the rest never.
    auto touched_at = [](int step) {
        std::vector<uint32_t> t;
        if (step == 0)
            for (uint32_t e = 0; e < 4; e++)
                t.push_back(e * span);
        if (step == 350 || step == 370 || step == 390)
            for (uint32_t e = 1; e < 4; e++)
                t.push_back(e * span);
        if (step % 50 == 0)
            t.push_back(4 * span);
        return t;
    };

    Rng grads_rng(23);
    size_t max_active = 0, min_active = entries;
    for (int step = 0; step < steps; step++) {
        std::vector<float> grads(n, 0.0f);
        for (uint32_t off : touched_at(step))
            for (uint32_t f = 0; f < span; f++)
                grads[off + f] = grads_rng.nextFloat(-1.0f, 1.0f);

        dense.step(p_dense, grads);
        sparse.stepSparse(p_sparse, grads,
                          touchedBits(touched_at(step), span, entries));
        max_active = std::max(max_active, sparse.activeEntries());
        min_active = std::min(min_active, sparse.activeEntries());

        if (step % 25 == 0 || step == steps - 1) {
            for (size_t i = 0; i < n; i++)
                ASSERT_EQ(p_dense[i], p_sparse[i])
                    << "step " << step << " param " << i;
        }
    }
    // The decayed-out entries must actually have left the sweep at
    // some point (otherwise this test exercises nothing).
    EXPECT_GE(max_active, 5u);
    EXPECT_LE(min_active, 2u) << "retirement never engaged";
}

/**
 * The pooled sweep is the inline sweep: RetirementAndLongGapReplay-
 * MatchDense's schedule, repeated over 1,024 groups of 8 entries so the
 * sweep runs many blocks, stepped inline and over pools of 2 and 8
 * threads. Params are compared bitwise and the active-set sizes
 * exactly after every step.
 */
TEST(SparseAdamTest, PooledSweepMatchesInline)
{
    constexpr uint32_t span = 2;
    constexpr size_t entries = 8 * 1024;
    constexpr size_t n = entries * span;
    constexpr int steps = 400;

    AdamConfig acfg;
    acfg.lr = 0.05f;
    ThreadPool pool2(2), pool8(8);
    ThreadPool *pools[] = {nullptr, &pool2, &pool8};
    std::vector<std::unique_ptr<Adam>> adams;
    for (int k = 0; k < 3; k++) {
        adams.push_back(std::make_unique<Adam>(n, acfg));
        adams.back()->enableSparse(span);
    }

    std::vector<float> init_params(n);
    Rng init(5);
    for (float &p : init_params)
        p = init.nextFloat(-1.f, 1.f);
    std::vector<std::vector<float>> params(3, init_params);

    // Entry e plays role e % 8 of the retirement test's schedule.
    auto touched_at = [](int step) {
        std::vector<uint32_t> t;
        for (uint32_t e = 0; e < entries; e++) {
            const uint32_t role = e % 8;
            if ((step == 0 && role < 4) ||
                ((step == 350 || step == 370 || step == 390) &&
                 role >= 1 && role < 4) ||
                (step % 50 == 0 && role == 4))
                t.push_back(e * span);
        }
        return t;
    };

    Rng grads_rng(23);
    size_t max_active = 0, min_active = entries;
    for (int step = 0; step < steps; step++) {
        const std::vector<uint32_t> touched = touched_at(step);
        std::vector<float> grads(n, 0.0f);
        for (uint32_t off : touched)
            for (uint32_t f = 0; f < span; f++)
                grads[off + f] = grads_rng.nextFloat(-1.0f, 1.0f);

        const std::vector<uint64_t> bits =
            touchedBits(touched, span, entries);
        for (int k = 0; k < 3; k++)
            adams[k]->stepSparse(params[k], grads, bits, pools[k]);
        for (int k = 1; k < 3; k++) {
            ASSERT_EQ(std::memcmp(params[k].data(), params[0].data(),
                                  n * sizeof(float)),
                      0)
                << "step " << step << ", pool " << k;
            ASSERT_EQ(adams[k]->activeEntries(), adams[0]->activeEntries())
                << "step " << step << ", pool " << k;
        }
        max_active = std::max(max_active, adams[0]->activeEntries());
        min_active = std::min(min_active, adams[0]->activeEntries());
    }
    // Retirement must have engaged, so the blocks' retirement counts
    // were summed while they changed.
    EXPECT_GE(max_active, entries / 2);
    EXPECT_LE(min_active, entries / 4) << "retirement never engaged";
}

TEST(SparseAdamTest, SparseModeRejectsWeightDecay)
{
    AdamConfig acfg;
    acfg.l2Reg = 1e-4f;
    Adam adam(4, acfg);
    EXPECT_DEATH(adam.enableSparse(2), "l2Reg");
}

// ---- Trainer-level sparse-vs-dense parity ------------------------------

std::vector<float>
allParams(Trainer &t)
{
    t.syncParams();
    std::vector<float> params;
    for (auto gid : t.field().paramGroups()) {
        const auto &p = t.field().groupParams(gid);
        params.insert(params.end(), p.begin(), p.end());
    }
    return params;
}

/**
 * The tentpole numerics contract: with a skipping occupancy grid (so
 * the touched set really is sparse) and a frozen-color schedule (so
 * the forward pass reads color entries on iterations that do not touch
 * them), sparse-optimizer training is bit-identical to dense-optimizer
 * training -- per-iteration losses and all parameters -- at 1, 2, and
 * 8 threads.
 */
TEST(SparseAdamParityTest, SparseMatchesDenseWithSkippingGrid)
{
    Dataset ds = smallDataset();

    TrainConfig base;
    base.raysPerBatch = 48;
    base.samplesPerRay = 24;
    base.useOccupancyGrid = true;
    base.occupancyUpdatePeriod = 2;
    base.occupancy.resolution = 8;
    base.occupancy.decay = 0.5f;
    base.colorUpdatePeriod = 2;

    const int iters = 20;

    TrainConfig dense = base;
    dense.sparseOptimizer = false;
    dense.numThreads = 1;
    Trainer dense_t(ds, smallField(), dense);
    ASSERT_FALSE(dense_t.sparseOptimizerActive());
    std::vector<double> ref_losses;
    for (int i = 0; i < iters; i++)
        ref_losses.push_back(dense_t.trainIteration().loss);
    std::vector<float> ref_params = allParams(dense_t);

    for (int threads : {1, 2, 8}) {
        TrainConfig sparse = base;
        sparse.numThreads = threads;
        Trainer sparse_t(ds, smallField(), sparse);
        ASSERT_TRUE(sparse_t.sparseOptimizerActive());

        uint64_t stepped = 0;
        for (int i = 0; i < iters; i++) {
            TrainStats st = sparse_t.trainIteration();
            ASSERT_EQ(st.loss, ref_losses[i])
                << "threads " << threads << " iteration " << i;
            stepped += st.sparseEntriesStepped;
        }
        EXPECT_GT(stepped, 0u) << "sparse path must actually engage";

        std::vector<float> params = allParams(sparse_t);
        ASSERT_EQ(params.size(), ref_params.size());
        for (size_t i = 0; i < params.size(); i++)
            ASSERT_EQ(params[i], ref_params[i])
                << "threads " << threads << " param " << i;

        // The skipping scenario must actually skip.
        EXPECT_LT(sparse_t.occupancyGrid()->occupiedFraction(), 1.0);
    }
}

/** Rendering mid-training must not perturb the sparse trajectory. */
TEST(SparseAdamParityTest, MidTrainingEvalDoesNotChangeResults)
{
    Dataset ds = smallDataset();
    TrainConfig cfg;
    cfg.raysPerBatch = 32;
    cfg.samplesPerRay = 16;
    cfg.useOccupancyGrid = true;
    cfg.occupancyUpdatePeriod = 4;
    cfg.occupancy.resolution = 8;
    cfg.occupancy.decay = 0.5f;

    Trainer plain(ds, smallField(), cfg);
    Trainer evaled(ds, smallField(), cfg);
    for (int i = 0; i < 12; i++) {
        TrainStats a = plain.trainIteration();
        TrainStats b = evaled.trainIteration();
        ASSERT_EQ(a.loss, b.loss) << "iteration " << i;
        if (i == 5)
            evaled.renderImage(ds.testViews[0].camera); // forces a settle
    }
    std::vector<float> pa = allParams(plain);
    std::vector<float> pb = allParams(evaled);
    for (size_t i = 0; i < pa.size(); i++)
        ASSERT_EQ(pa[i], pb[i]) << "param " << i;
}

// ---- Partial occupancy refresh -----------------------------------------

TEST(PartialRefreshTest, FixedSeedGivesIdenticalGrid)
{
    OccupancyGridConfig ocfg;
    ocfg.resolution = 8;
    ocfg.samplesPerCellUpdate = 2;
    ocfg.partialUpdate = true;
    ocfg.candidateFraction = 0.125f;

    OccupancyGrid a(ocfg), b(ocfg);
    NerfField field_a(smallField(), 11), field_b(smallField(), 11);
    Rng rng_a(77), rng_b(77);
    for (int i = 0; i < 4; i++) {
        a.refresh(field_a, rng_a);
        b.refresh(field_b, rng_b);
    }
    ASSERT_EQ(a.numCells(), b.numCells());
    for (size_t i = 0; i < a.numCells(); i++)
        ASSERT_EQ(a.cellDensity(i), b.cellDensity(i)) << "cell " << i;
}

/**
 * On a trained toy field, the partial refresh converges to the full
 * sweep's occupied set. Per-cell probe streams keyed by (round key,
 * cell index) make the claim structural: with every cell a candidate
 * (candidateFraction = 1) the partial path is BIT-IDENTICAL to the
 * full sweep, and with a 1/4 rotation it never marks a cell the full
 * sweep would not (probing a subset can only lower the running-max
 * density estimate) while cleared cells re-enter within 1/fraction
 * rounds -- so the only divergence is a small bounded lag on cells
 * whose per-round probe maximum flickers across the threshold.
 */
TEST(PartialRefreshTest, ConvergesToFullSweepOccupiedSet)
{
    Dataset ds = smallDataset();
    TrainConfig tcfg;
    tcfg.raysPerBatch = 64;
    tcfg.samplesPerRay = 24;
    Trainer trainer(ds, smallField(), tcfg);
    for (int i = 0; i < 100; i++)
        trainer.trainIteration();
    trainer.syncParams();
    NerfField &field = trainer.field();

    OccupancyGridConfig base;
    base.resolution = 8;
    base.samplesPerCellUpdate = 4;
    base.decay = 0.5f;
    base.occupancyThreshold = 0.1f;

    // One fresh Rng per round, same seeds for every grid: each round
    // draws the same round key, so any cell probed by two sweeps in
    // the same round sees bit-identical probe positions.
    auto run = [&](bool partial, float fraction) {
        OccupancyGridConfig cfg = base;
        cfg.partialUpdate = partial;
        cfg.candidateFraction = fraction;
        auto grid = std::make_unique<OccupancyGrid>(cfg);
        for (int i = 0; i < 10; i++) {
            Rng round_rng(91, static_cast<uint64_t>(i));
            grid->refresh(field, round_rng);
        }
        return grid;
    };
    auto full = run(false, 0.0f);
    auto exact = run(true, 1.0f);  // every cell, every round
    auto part = run(true, 0.25f); // rotating 1/4 candidate slice

    // The toy scene must exercise both classes of cell.
    EXPECT_GT(full->occupiedFraction(), 0.0);
    EXPECT_LT(full->occupiedFraction(), 1.0);

    // Probing everything every round is the full sweep, bit for bit.
    for (size_t i = 0; i < full->numCells(); i++)
        ASSERT_EQ(exact->cellDensity(i), full->cellDensity(i))
            << "cell " << i;

    // The amortized rotation: no false occupancy ever (subset of the
    // full sweep's set), and the bounded re-probe lag leaves only a
    // small flicker band unconfirmed.
    const float thr = base.occupancyThreshold;
    size_t lagging = 0;
    for (size_t i = 0; i < full->numCells(); i++) {
        const bool full_occ = full->cellDensity(i) >= thr;
        const bool part_occ = part->cellDensity(i) >= thr;
        ASSERT_LE(part->cellDensity(i), full->cellDensity(i))
            << "cell " << i
            << ": partial probing must never raise the estimate";
        if (part_occ) {
            ASSERT_TRUE(full_occ) << "cell " << i << " falsely occupied";
        }
        if (full_occ != part_occ)
            lagging++;
    }
    EXPECT_LT(static_cast<double>(lagging),
              0.05 * static_cast<double>(full->numCells()))
        << "partial refresh lags the full sweep on too many cells";
}

/**
 * The candidate period D = round(1 / candidateFraction) stays in range
 * for every fraction the config accepts: a fraction far below 2^-32
 * means "re-probe cleared cells almost never", so once every cell has
 * cleared one refresh probes no more cells than at 1e-9 -- never the
 * whole grid.
 */
TEST(PartialRefreshTest, TinyCandidateFractionProbesNoMoreCells)
{
    auto cells_probed = [](float fraction) {
        OccupancyGridConfig ocfg;
        ocfg.resolution = 16;
        ocfg.candidateFraction = fraction;
        OccupancyGrid grid(ocfg);
        for (size_t i = 0; i < grid.numCells(); i++)
            grid.setCellDensity(i, 0.0f);
        NerfField field(smallField(), 3);
        Rng rng(9);
        grid.refresh(field, rng);
        return field.queryCount();
    };
    const uint64_t small = cells_probed(1e-9f);
    const uint64_t tiny = cells_probed(1e-20f);
    EXPECT_LT(small, 16u * 16u * 16u);
    EXPECT_LE(tiny, small);
}

/** smallField()'s grid and MLP sizes in the given mode. */
FieldConfig
smallField(FieldMode mode)
{
    FieldConfig cfg = smallField();
    if (mode == FieldMode::Coupled) {
        cfg = FieldConfig::ngpBaseline(cfg.densityGrid);
        cfg.hiddenDim = 16;
    } else if (mode == FieldMode::Vanilla) {
        cfg = FieldConfig::vanillaBaseline(16, 2);
    }
    return cfg;
}

/** Perturb every parameter, so that density varies across the unit
 *  cube (a fresh field's is nearly flat). */
void
perturb(NerfField &field)
{
    Rng r(23);
    for (auto id : field.paramGroups())
        for (float &p : field.groupParams(id))
            p += r.nextFloat(-0.5f, 0.5f);
}

/**
 * `rounds` full sweeps replayed through the scalar field.query(), as
 * OccupancyUpdateTest.BatchedRowsMatchScalarProbes builds one: each
 * round's key from `rng`, each cell's probes from its (round key,
 * cell) stream, then the EMA-max rule.
 */
std::vector<float>
scalarSweeps(NerfField &field, const OccupancyGridConfig &ocfg, Rng rng,
             int rounds)
{
    const int res = ocfg.resolution;
    std::vector<float> ref(static_cast<size_t>(res) * res * res,
                           ocfg.occupancyThreshold * 2.0f);
    const float cell = 1.0f / static_cast<float>(res);
    for (int round = 0; round < rounds; round++) {
        const uint64_t round_key =
            (static_cast<uint64_t>(rng.nextU32()) << 32) | rng.nextU32();
        size_t idx = 0;
        for (int z = 0; z < res; z++)
            for (int y = 0; y < res; y++)
                for (int x = 0; x < res; x++, idx++) {
                    Rng cell_rng = Rng::forIndex(
                        round_key, 0, static_cast<uint64_t>(idx));
                    float fresh = 0.0f;
                    for (int s = 0; s < ocfg.samplesPerCellUpdate; s++) {
                        Vec3 p((x + cell_rng.nextFloat()) * cell,
                               (y + cell_rng.nextFloat()) * cell,
                               (z + cell_rng.nextFloat()) * cell);
                        fresh = std::max(
                            fresh,
                            field.query(p, {0.0f, 0.0f, 1.0f}).sigma);
                    }
                    ref[idx] = std::max(ref[idx] * ocfg.decay, fresh);
                }
    }
    return ref;
}

/**
 * Refresh probes query the density branch alone, in blocks spread over
 * a thread pool, and change nothing in any FieldMode: queryDensity's
 * sigma equals queryStream's and query()'s bit for bit; full sweeps over
 * pools of 1, 2 and 8 threads equal the scalar replay; partial rounds
 * over those pools equal the inline rounds; and Coupled and Vanilla
 * trainers with occupancy on train bit-identically at 1, 2 and 8
 * threads (SparseAdamParityTest covers Decoupled).
 */
TEST(PartialRefreshTest, DensityOnlyPooledRefreshIsExactInEveryMode)
{
    const std::vector<std::pair<FieldMode, const char *>> modes = {
        {FieldMode::Decoupled, "decoupled"},
        {FieldMode::Coupled, "coupled"},
        {FieldMode::Vanilla, "vanilla"}};
    ThreadPool pool1(1), pool2(2), pool8(8);
    const std::vector<ThreadPool *> pools = {&pool1, &pool2, &pool8};

    OccupancyGridConfig base;
    base.resolution = 8;
    base.samplesPerCellUpdate = 2;
    base.decay = 0.5f;
    const int rounds = 4;

    for (const auto &[mode, name] : modes) {
        SCOPED_TRACE(name);
        NerfField field(smallField(mode), 17);
        perturb(field);

        Rng pr(5);
        const int n = 97;
        std::vector<Vec3> pts(n);
        for (Vec3 &p : pts)
            p = Vec3(pr.nextFloat(), pr.nextFloat(), pr.nextFloat());
        Workspace ws;
        std::vector<float> sigma(n);
        std::vector<FieldSample> fs(n);
        const uint64_t before = field.queryCount();
        field.queryDensity(pts.data(), n, sigma.data(), ws);
        EXPECT_EQ(field.queryCount() - before, static_cast<uint64_t>(n));
        ws.reset();
        const RaySpan span{0, n};
        const Vec3 dir{0.0f, 0.0f, 1.0f};
        field.queryStream(pts.data(), n, &span, &dir, 1, fs.data(),
                          nullptr, ws);
        for (int s = 0; s < n; s++) {
            ASSERT_EQ(sigma[s], fs[s].sigma) << "point " << s;
            ASSERT_EQ(sigma[s], field.query(pts[s], dir).sigma)
                << "point " << s;
        }

        // Threshold at the median probe density, so cells fall on both
        // sides of it and the partial probe lists are proper subsets.
        OccupancyGridConfig ocfg = base;
        std::nth_element(sigma.begin(), sigma.begin() + n / 2, sigma.end());
        ocfg.occupancyThreshold = sigma[n / 2];

        const std::vector<float> ref =
            scalarSweeps(field, ocfg, Rng(41), rounds);
        for (ThreadPool *pool : pools) {
            OccupancyGrid grid(ocfg);
            Rng rng(41);
            for (int r = 0; r < rounds; r++)
                grid.update(field, rng, pool);
            for (size_t i = 0; i < grid.numCells(); i++)
                ASSERT_EQ(grid.cellDensity(i), ref[i])
                    << pool->threadCount() << " threads, cell " << i;
        }

        OccupancyGridConfig pcfg = ocfg;
        pcfg.partialUpdate = true;
        pcfg.candidateFraction = 0.25f;
        OccupancyGrid inline_grid(pcfg);
        Rng inline_rng(43);
        for (int r = 0; r < rounds; r++)
            inline_grid.refresh(field, inline_rng);
        EXPECT_GT(inline_grid.occupiedFraction(), 0.0);
        EXPECT_LT(inline_grid.occupiedFraction(), 1.0);
        for (ThreadPool *pool : pools) {
            OccupancyGrid grid(pcfg);
            Rng rng(43);
            for (int r = 0; r < rounds; r++)
                grid.refresh(field, rng, pool);
            for (size_t i = 0; i < grid.numCells(); i++)
                ASSERT_EQ(grid.cellDensity(i), inline_grid.cellDensity(i))
                    << pool->threadCount() << " threads, cell " << i;
        }
    }

    Dataset ds = smallDataset();
    for (const auto &[mode, name] : modes) {
        if (mode == FieldMode::Decoupled)
            continue;
        SCOPED_TRACE(name);
        const FieldConfig fcfg = smallField(mode);
        TrainConfig base;
        base.raysPerBatch = 32;
        base.samplesPerRay = 16;
        base.useOccupancyGrid = true;
        base.occupancyUpdatePeriod = 2;
        base.occupancy.resolution = 8;
        base.occupancy.decay = 0.5f;
        const int iters = 12;

        std::vector<double> ref_losses;
        std::vector<float> ref_params;
        for (int threads : {1, 2, 8}) {
            TrainConfig tcfg = base;
            tcfg.numThreads = threads;
            Trainer t(ds, fcfg, tcfg);
            for (int i = 0; i < iters; i++) {
                const double loss = t.trainIteration().loss;
                if (threads == 1)
                    ref_losses.push_back(loss);
                else
                    ASSERT_EQ(loss, ref_losses[i])
                        << threads << " threads, iteration " << i;
            }
            std::vector<float> params = allParams(t);
            if (threads == 1) {
                ref_params = params;
                EXPECT_LT(t.occupancyGrid()->occupiedFraction(), 1.0);
                continue;
            }
            ASSERT_EQ(params.size(), ref_params.size());
            for (size_t i = 0; i < params.size(); i++)
                ASSERT_EQ(params[i], ref_params[i])
                    << threads << " threads, param " << i;
        }
    }
}

} // namespace
} // namespace instant3d
