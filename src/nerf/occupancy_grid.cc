#include "nerf/occupancy_grid.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nerf/field.hh"

namespace instant3d {

namespace {

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
OccupancyGrid::refresh(NerfField &field, Rng &rng)
{
    if (cfg.partialUpdate)
        updatePartial(field, rng);
    else
        update(field, rng);
}

void
OccupancyGrid::updatePartial(NerfField &field, Rng &rng)
{
    const float cell = 1.0f / static_cast<float>(cfg.resolution);
    const int probes = cfg.samplesPerCellUpdate;
    const int res = cfg.resolution;
    const uint32_t n_cells = static_cast<uint32_t>(density.size());
    const uint64_t round_key = drawRoundKey(rng);

    // Probe set, in ascending cell order: every occupied cell, plus
    // the rotating stratified candidate slice of the unoccupied ones
    // (cell i is a candidate when i mod D cycles onto this round's
    // phase, D = round(1 / candidateFraction)) -- so no cleared cell
    // goes more than D rounds without a fresh probe, deterministically.
    const uint32_t divisor =
        cfg.candidateFraction > 0.0f
            ? std::max(1u, static_cast<uint32_t>(
                               1.0f / cfg.candidateFraction + 0.5f))
            : 0u;
    const uint32_t phase = divisor ? updateRound % divisor : 0u;
    updateRound++;
    probeList.clear();
    for (uint32_t i = 0; i < n_cells; i++) {
        if (density[i] >= cfg.occupancyThreshold ||
            (divisor && i % divisor == phase)) {
            probeList.push_back(i);
        }
    }

    // EMA decay for every cell -- no field queries, just one cheap
    // pass -- then fresh probes raise the re-sampled cells back up.
    for (float &d : density)
        d *= cfg.decay;

    // Query the probe list in fixed-size blocks through the batched
    // kernels. Per-cell probe streams make the blocking (and the probe
    // list's composition) invisible to the sampled positions.
    const int block = std::max(1, res * probes);
    for (size_t begin = 0; begin < probeList.size();
         begin += static_cast<size_t>(block)) {
        const int nb = static_cast<int>(
            std::min(static_cast<size_t>(block),
                     probeList.size() - begin));
        ws.reset();
        Vec3 *pts = ws.alloc<Vec3>(static_cast<size_t>(nb) * probes);
        FieldSample *fs =
            ws.alloc<FieldSample>(static_cast<size_t>(nb) * probes);
        for (int i = 0; i < nb; i++) {
            cellProbes(round_key, probeList[begin + i], res, probes,
                       cell, pts + static_cast<size_t>(i) * probes);
        }
        field.queryBatch(pts, nb * probes, {0.0f, 0.0f, 1.0f}, fs,
                         nullptr, ws);

        for (int i = 0; i < nb; i++) {
            float fresh = 0.0f;
            for (int s = 0; s < probes; s++)
                fresh = std::max(fresh, fs[i * probes + s].sigma);
            float &d = density[probeList[begin + i]];
            d = std::max(d, fresh);
        }
    }
}

void
OccupancyGrid::update(NerfField &field, Rng &rng)
{
    const float cell = 1.0f / static_cast<float>(cfg.resolution);
    const int probes = cfg.samplesPerCellUpdate;
    const int res = cfg.resolution;
    const int row = res * probes; // probe count per x-row
    const uint64_t round_key = drawRoundKey(rng);

    size_t idx = 0;
    for (int z = 0; z < res; z++) {
        for (int y = 0; y < res; y++) {
            ws.reset();
            Vec3 *pts = ws.alloc<Vec3>(row);
            FieldSample *fs = ws.alloc<FieldSample>(row);

            // Each cell's probes come from its own (round key, cell)
            // stream; the whole x-row is queried as one batch
            // (queryBatch is bit-identical to query()).
            const uint32_t row_base = static_cast<uint32_t>(idx);
            for (int x = 0; x < res; x++) {
                cellProbes(round_key, row_base + x, res, probes, cell,
                           pts + static_cast<size_t>(x) * probes);
            }
            field.queryBatch(pts, row, {0.0f, 0.0f, 1.0f}, fs, nullptr,
                             ws);

            for (int x = 0; x < res; x++, idx++) {
                float fresh = 0.0f;
                for (int s = 0; s < probes; s++)
                    fresh = std::max(fresh, fs[x * probes + s].sigma);
                density[idx] =
                    std::max(density[idx] * cfg.decay, fresh);
            }
        }
    }
}

} // namespace instant3d
