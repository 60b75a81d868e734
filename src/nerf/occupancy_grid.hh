/**
 * @file
 * Occupancy grid for empty-space skipping.
 *
 * Instant-NGP maintains a coarse binary occupancy grid over the scene
 * and skips ray samples in cells whose density has stayed negligible;
 * this is part of the substrate the paper builds on (its host SoC
 * performs ray marching against it in Steps 1-2). The grid is updated
 * periodically from the trained field with an exponential-decay
 * estimate, exactly like Instant-NGP's `density_grid` update.
 */

#ifndef INSTANT3D_NERF_OCCUPANCY_GRID_HH
#define INSTANT3D_NERF_OCCUPANCY_GRID_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/vec3.hh"
#include "common/workspace.hh"

namespace instant3d {

class NerfField;
class ThreadPool;

/** Configuration of the occupancy grid. */
struct OccupancyGridConfig
{
    int resolution = 32;         //!< Cells per axis over [0,1]^3.
    float decay = 0.95f;         //!< Per-update density EMA decay.
    float occupancyThreshold = 0.5f; //!< Density above this = occupied.
    int samplesPerCellUpdate = 1;    //!< Random probes per cell/update
                                     //!< (>= 1).

    /**
     * Amortized refresh (Instant-NGP-style): refresh() re-probes only
     * the currently occupied cells plus a rotating stratified slice of
     * the unoccupied ones, instead of the full res^3 sweep, and decays
     * every other cell's estimate. Steady-state refresh cost becomes
     * proportional to occupied fraction + candidateFraction, not 1.0.
     */
    bool partialUpdate = true;

    /**
     * Share of unoccupied cells re-probed per partial refresh: cell i
     * is a candidate when i mod D rotates onto the round's phase,
     * D = round(1 / candidateFraction) capped at 2^32 - 1, so every
     * cleared cell is re-examined at least once every D refreshes (0
     * disables candidate probes entirely).
     */
    float candidateFraction = 0.125f;
};

/**
 * A coarse density cache with a binary occupancy view.
 */
class OccupancyGrid
{
  public:
    explicit OccupancyGrid(const OccupancyGridConfig &config);

    const OccupancyGridConfig &config() const { return cfg; }
    int resolution() const { return cfg.resolution; }

    /** Cell index containing p (clamped to the unit cube). */
    size_t cellIndex(const Vec3 &p) const;

    /** True if the cell containing p may contain matter. */
    bool occupied(const Vec3 &p) const;

    /** Fraction of cells currently marked occupied. */
    double occupiedFraction() const;

    /**
     * Full-sweep refresh from the field: every cell's density estimate
     * decays and is maxed with fresh point samples, max(d * decay,
     * fresh) (Instant-NGP's update rule). It is the every-cell probe
     * list of the block loop updatePartial() runs. Each round draws
     * one key from `rng` and each cell's probe jitter comes from its
     * own (round key, cell index) stream -- bit-reproducible for a
     * fixed seed, and bit-identical per cell to a partial refresh of
     * the same round probing it.
     *
     * Probes query the density branch only (NerfField::queryDensity)
     * in fixed-size blocks spread over `pool`, one workspace per pool
     * rank; a null pool runs the blocks inline. Each block writes only
     * its own cells, so the grid is bit-identical for any pool size.
     * With a trace sink attached to the field the blocks run in order
     * on the calling thread, so the sink sees program order.
     */
    void update(NerfField &field, Rng &rng, ThreadPool *pool = nullptr);

    /**
     * Partial refresh: decay every cell's estimate, then re-probe only
     * the currently occupied cells plus this round's rotating slice of
     * the unoccupied ones, maxing the probed cells with fresh samples.
     * Round key, decay and probing are update()'s, over a shorter probe
     * list, so a fixed seed reproduces the grid bit-exactly at any pool
     * size and commonly-probed cells match the full sweep's probes
     * bit-for-bit. Occupied cells never go stale (always re-probed) and
     * cleared cells re-enter within 1/candidateFraction rounds, so the
     * occupied set converges to the full sweep's.
     */
    void updatePartial(NerfField &field, Rng &rng,
                       ThreadPool *pool = nullptr);

    /**
     * The trainer's refresh entry point, run over the trainer's pool:
     * updatePartial() when cfg.partialUpdate is set, else the
     * full-sweep update().
     */
    void refresh(NerfField &field, Rng &rng, ThreadPool *pool = nullptr);

    /** Direct density estimate of a cell (testing/inspection). */
    float cellDensity(size_t index) const { return density.at(index); }

    /** Force a cell's density estimate (testing/fault injection). */
    void
    setCellDensity(size_t index, float value)
    {
        density.at(index) = value;
    }

    size_t numCells() const { return density.size(); }

  private:
    /**
     * Decay every cell, then max each cell of probeList with its fresh
     * probes' peak density -- the one probe loop of both refresh modes.
     */
    void probeCells(NerfField &field, uint64_t round_key,
                    ThreadPool *pool);

    OccupancyGridConfig cfg;
    std::vector<float> density;
    std::vector<Workspace> workspaces; //!< Probe scratch, one per rank.
    std::vector<uint32_t> probeList; //!< This round's cells, ascending.
    uint32_t updateRound = 0; //!< Candidate-rotation phase counter.
};

} // namespace instant3d

#endif // INSTANT3D_NERF_OCCUPANCY_GRID_HH
