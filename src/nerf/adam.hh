/**
 * @file
 * Adam optimizer with first/second-moment state, operating in place on a
 * parameter vector and its gradient accumulator. One Adam instance per
 * parameter group lets the Instant-3D trainer step the density and color
 * branches at different frequencies (Sec 3.3).
 *
 * Two stepping modes share one state:
 *
 *  - Dense: step() visits every parameter (the MLP groups, where every
 *    sample touches every weight).
 *
 *  - Sparse lazy (grid groups): stepSparse() sweeps only the *active*
 *    entries -- touched at least once and still carrying first-moment
 *    momentum -- in one ascending pass: the gradient update for this
 *    step's touched entries, the zero-gradient decay update (m *= b1,
 *    v *= b2 plus the bias-corrected parameter drift a dense step
 *    would have applied) for the rest. An entry retires from the
 *    sweep once its m reaches exactly +0: from then on the dense
 *    parameter update is a bit-exact no-op, and the second moment's
 *    remaining decay is tracked by a per-entry lastStep stamp and
 *    replayed -- the same multiplies in the same order -- when the
 *    entry is next touched. The parameter trajectory is therefore
 *    bit-identical to dense Adam at every step, while never-touched
 *    and fully-decayed entries cost nothing.
 *
 * Sparse mode requires l2Reg == 0: decoupled weight decay feeds params
 * back into the gradient, so untouched entries would not see zero
 * gradients.
 *
 * Bias corrections 1 - b^t are maintained incrementally (one multiply
 * per step instead of std::pow from scratch) in both modes; sparse mode
 * records them per step so lazy replays use the exact dense values.
 */

#ifndef INSTANT3D_NERF_ADAM_HH
#define INSTANT3D_NERF_ADAM_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace instant3d {

class ThreadPool;

/** Adam hyper-parameters. */
struct AdamConfig
{
    float lr = 1e-2f;
    float beta1 = 0.9f;
    float beta2 = 0.99f;
    float epsilon = 1e-10f;
    float l2Reg = 0.0f; //!< Optional decoupled weight decay.
};

/**
 * Adam state for one parameter group.
 */
class Adam
{
  public:
    Adam(size_t num_params, const AdamConfig &config);

    /**
     * Apply one dense Adam step using the given gradients. params and
     * grads must have the size passed at construction. Gradients are
     * consumed as-is (the caller zeroes them afterward). Panics in
     * sparse mode (the two stepping modes must not be mixed).
     */
    void step(std::vector<float> &params, const std::vector<float> &grads);

    /**
     * Switch this optimizer to sparse lazy stepping. Parameters are
     * grouped into entries of `entry_span` consecutive floats (a hash-
     * table entry's features) sharing one staleness stamp. Must be
     * called before the first step; requires l2Reg == 0.
     */
    void enableSparse(uint32_t entry_span);

    bool sparseEnabled() const { return sparse; }

    /**
     * Apply one sparse Adam step: advances the step count, then sweeps
     * the active set plus the entries set in `touched` once -- the
     * gradient update for the touched entries (any zero-gradient steps
     * an entry missed while retired are replayed first), the
     * zero-gradient decay update for the rest -- and returns the
     * number of touched entries.
     *
     * `touched` is a bitmap with one bit per entry, touchEntryWords
     * (kernels/kernels.hh) words long: bit e covers floats
     * [e * span, (e + 1) * span). NerfField::dirtyEntries() has this
     * layout. Panics on any other length or on a bit set past the
     * last entry.
     *
     * The sweep runs in fixed blocks of entries, spread over `pool`
     * when it has more than one thread and inline otherwise. Entries
     * are independent, so the result is the same either way.
     * Parameters are exactly on the dense trajectory when this
     * returns; entries outside the active set owe only bit-exact
     * no-ops. grads must be zero outside the touched entries for the
     * dense-equivalence contract to hold. Not safe to call from a task
     * of `pool`.
     */
    size_t stepSparse(std::vector<float> &params,
                      const std::vector<float> &grads,
                      std::span<const uint64_t> touched,
                      ThreadPool *pool = nullptr);

    /**
     * Settle any updates owed to params so they equal the dense-Adam
     * trajectory at the current step count. stepSparse() settles
     * eagerly, so this writes nothing today -- it exists as the
     * explicit settling point of the API for callers that read
     * parameters directly, rather than a promise about the sweep being
     * eager. Safe at any point: settling never changes later results.
     */
    void catchUp(std::vector<float> &params);

    /**
     * Entries currently carrying nonzero first-moment momentum -- the
     * per-step sweep set of the sparse path, besides the step's
     * touched entries.
     */
    size_t activeEntries() const { return activeCount; }

    uint64_t stepCount() const { return t; }
    const AdamConfig &config() const { return cfg; }

  private:
    /** Advance t and the incremental 1 - b^t bias corrections. */
    void advanceStep();

    /**
     * Replay the zero-gradient steps (from, to] of one parameter:
     * moment decay plus the bias-corrected drift update, exactly as a
     * dense step with g == 0 would have applied them. Parameter writes
     * stop once m reaches exactly +0 (the update is +0 from then on);
     * the loop exits once v does too (fully a no-op afterwards).
     */
    void lazyReplay(float &p, float &m_i, float &v_i, uint64_t from,
                    uint64_t to) const;

    /**
     * One Adam update of one parameter (g == 0 for the pure-decay
     * case); returns true when the entry may retire from the sweep
     * because every future zero-gradient update provably rounds to a
     * bit-exact no-op (|update| under the retireGate ulp bound).
     */
    bool applyStep(float &p, float &m_i, float &v_i, float g) const;

    AdamConfig cfg;
    std::vector<float> m;
    std::vector<float> v;
    uint64_t t = 0;

    float beta1Pow = 1.0f; //!< b1^t, maintained incrementally.
    float beta2Pow = 1.0f; //!< b2^t.
    float bc1 = 0.0f;      //!< 1 - b1^t of the current step.
    float bc2 = 0.0f;      //!< 1 - b2^t.
    float retireGate = 0.0f; //!< sqrt(bc2) / 8: sweep-exit ulp bound.

    bool sparse = false;
    uint32_t span = 1;              //!< Floats per entry (sparse mode).
    std::vector<uint64_t> lastStep; //!< Per-entry last settled step.
    std::vector<float> bc1Hist;     //!< 1 - b1^s for s = 1..t (sparse).
    std::vector<float> bc2Hist;     //!< 1 - b2^s, same indexing.

    /**
     * Bitmap of entries whose parameters still drift. stepSparse()
     * sweeps set bits in ascending entry order -- sequential memory
     * access -- and clears a bit once the entry's updates provably
     * round to no-ops (the retireGate bound): from then on the dense
     * update is a bit-exact no-op on the parameter, and the moments'
     * remaining decay is replayed lazily on the entry's next touch.
     */
    std::vector<uint64_t> activeBits;
    size_t activeCount = 0;
};

} // namespace instant3d

#endif // INSTANT3D_NERF_ADAM_HH
