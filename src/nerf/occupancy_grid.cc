#include "nerf/occupancy_grid.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nerf/field.hh"

namespace instant3d {

namespace {

/** Probe points per block of a refresh's field queries. */
constexpr int probeBlockPoints = 128;

/**
 * One refresh round's jitter key: the probes of cell `idx` in this
 * round come from Rng::forIndex(round_key, 0, idx), so a cell's probe
 * positions depend only on (round key, cell) -- not on how many other
 * cells are probed or in which order. The full sweep and the partial
 * refresh therefore agree bit-exactly on every commonly-probed cell,
 * which is what lets the partial path converge to the full sweep's
 * occupied set instead of a statistically different one.
 */
uint64_t
drawRoundKey(Rng &rng)
{
    return (static_cast<uint64_t>(rng.nextU32()) << 32) | rng.nextU32();
}

/** Fill `pts` with cell idx's jittered probe positions for a round. */
void
cellProbes(uint64_t round_key, uint32_t idx, int res, int probes,
           float cell, Vec3 *pts)
{
    const int x = static_cast<int>(idx) % res;
    const int y = (static_cast<int>(idx) / res) % res;
    const int z = static_cast<int>(idx) / (res * res);
    Rng cr = Rng::forIndex(round_key, 0, idx);
    for (int s = 0; s < probes; s++) {
        pts[s] = Vec3((x + cr.nextFloat()) * cell,
                      (y + cr.nextFloat()) * cell,
                      (z + cr.nextFloat()) * cell);
    }
}

} // namespace

OccupancyGrid::OccupancyGrid(const OccupancyGridConfig &config)
    : cfg(config)
{
    fatalIf(cfg.resolution < 1, "occupancy grid needs resolution >= 1");
    fatalIf(cfg.decay <= 0.0f || cfg.decay >= 1.0f,
            "occupancy decay must be in (0, 1)");
    fatalIf(cfg.candidateFraction < 0.0f || cfg.candidateFraction > 1.0f,
            "candidate fraction must be in [0, 1]");
    fatalIf(cfg.samplesPerCellUpdate < 1,
            "occupancy grid needs samplesPerCellUpdate >= 1");
    size_t n = static_cast<size_t>(cfg.resolution) * cfg.resolution *
               cfg.resolution;
    // Start optimistic: everything might contain matter.
    density.assign(n, cfg.occupancyThreshold * 2.0f);
}

size_t
OccupancyGrid::cellIndex(const Vec3 &p) const
{
    Vec3 q = clamp(p, 0.0f, 1.0f);
    auto axis = [this](float v) {
        int c = static_cast<int>(v * cfg.resolution);
        return std::min(c, cfg.resolution - 1);
    };
    return (static_cast<size_t>(axis(q.z)) * cfg.resolution +
            axis(q.y)) * cfg.resolution + axis(q.x);
}

bool
OccupancyGrid::occupied(const Vec3 &p) const
{
    return density[cellIndex(p)] >= cfg.occupancyThreshold;
}

double
OccupancyGrid::occupiedFraction() const
{
    size_t n = 0;
    for (float d : density)
        if (d >= cfg.occupancyThreshold)
            n++;
    return static_cast<double>(n) / static_cast<double>(density.size());
}

void
OccupancyGrid::refresh(NerfField &field, Rng &rng, ThreadPool *pool)
{
    if (cfg.partialUpdate)
        updatePartial(field, rng, pool);
    else
        update(field, rng, pool);
}

void
OccupancyGrid::update(NerfField &field, Rng &rng, ThreadPool *pool)
{
    const uint64_t round_key = drawRoundKey(rng);
    probeList.resize(density.size());
    std::iota(probeList.begin(), probeList.end(), 0u);
    probeCells(field, round_key, pool);
}

void
OccupancyGrid::updatePartial(NerfField &field, Rng &rng, ThreadPool *pool)
{
    const uint32_t n_cells = static_cast<uint32_t>(density.size());
    const uint64_t round_key = drawRoundKey(rng);

    // Probe set, in ascending cell order: every occupied cell, plus
    // the rotating stratified candidate slice of the unoccupied ones
    // (cell i is a candidate when i mod D cycles onto this round's
    // phase, D = round(1 / candidateFraction)) -- so no cleared cell
    // goes more than D rounds without a fresh probe, deterministically.
    // D is rounded in float, then clamped to the uint32 range before
    // the cast: for a fraction below 2^-32 it exceeds that range, where
    // the cast is undefined.
    uint32_t divisor = 0;
    if (cfg.candidateFraction > 0.0f) {
        const double period =
            static_cast<double>(1.0f / cfg.candidateFraction + 0.5f);
        divisor = std::max(1u, static_cast<uint32_t>(std::min(
                                   period, double(UINT32_MAX))));
    }
    const uint32_t phase = divisor ? updateRound % divisor : 0u;
    updateRound++;
    probeList.clear();
    for (uint32_t i = 0; i < n_cells; i++) {
        if (density[i] >= cfg.occupancyThreshold ||
            (divisor && i % divisor == phase)) {
            probeList.push_back(i);
        }
    }
    probeCells(field, round_key, pool);
}

void
OccupancyGrid::probeCells(NerfField &field, uint64_t round_key,
                          ThreadPool *pool)
{
    // EMA decay for every cell -- no field queries, just one cheap
    // pass -- then fresh probes raise the probed cells back up, so each
    // ends at max(d * decay, fresh).
    for (float &d : density)
        d *= cfg.decay;

    const float cell = 1.0f / static_cast<float>(cfg.resolution);
    const int probes = cfg.samplesPerCellUpdate;
    const int res = cfg.resolution;
    const size_t block =
        static_cast<size_t>(std::max(1, probeBlockPoints / probes));
    const int num_blocks =
        static_cast<int>((probeList.size() + block - 1) / block);

    // Per-cell probe streams make the blocking (and the probe list's
    // composition) invisible to the sampled positions, and each block
    // writes only its own cells, so blocks may run in any order on any
    // thread.
    auto run_block = [&](int b, int rank) {
        Workspace &ws = workspaces[static_cast<size_t>(rank)];
        const size_t begin = static_cast<size_t>(b) * block;
        const int nb =
            static_cast<int>(std::min(block, probeList.size() - begin));
        const int np = nb * probes;
        ws.reset();
        Vec3 *pts = ws.alloc<Vec3>(static_cast<size_t>(np));
        float *sigma = ws.alloc<float>(static_cast<size_t>(np));
        for (int i = 0; i < nb; i++) {
            cellProbes(round_key, probeList[begin + i], res, probes,
                       cell, pts + static_cast<size_t>(i) * probes);
        }
        field.queryDensity(pts, np, sigma, ws);

        for (int i = 0; i < nb; i++) {
            float fresh = 0.0f;
            for (int s = 0; s < probes; s++)
                fresh = std::max(fresh, sigma[i * probes + s]);
            float &d = density[probeList[begin + i]];
            d = std::max(d, fresh);
        }
    };

    // A traced refresh runs its blocks in order on this thread, as a
    // traced training iteration runs its chunks, so every attached
    // sink receives program-order accesses.
    const bool pooled = pool && !field.traceAttached();
    const size_t ranks =
        pooled ? static_cast<size_t>(pool->threadCount()) : 1;
    if (workspaces.size() < ranks)
        workspaces.resize(ranks);
    if (pooled) {
        pool->parallelFor(num_blocks, run_block);
    } else {
        for (int b = 0; b < num_blocks; b++)
            run_block(b, 0);
    }
}

} // namespace instant3d
