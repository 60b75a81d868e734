#include "nerf/adam.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "kernels/kernels.hh"

namespace instant3d {

namespace {

/** activeBits words per sparse-sweep block: 1,024 table entries. */
constexpr size_t sweepBlockWords = 16;

} // namespace

Adam::Adam(size_t num_params, const AdamConfig &config)
    : cfg(config)
{
    m.assign(num_params, 0.0f);
    v.assign(num_params, 0.0f);
}

void
Adam::advanceStep()
{
    t++;
    beta1Pow *= cfg.beta1;
    beta2Pow *= cfg.beta2;
    bc1 = 1.0f - beta1Pow;
    bc2 = 1.0f - beta2Pow;
    if (sparse) {
        bc1Hist.push_back(bc1);
        bc2Hist.push_back(bc2);
        // Retirement gate for this step: with zero gradients the
        // update magnitude decays by (b1 / sqrt(b2))^k while the bias
        // corrections can inflate it by at most 1 / sqrt(bc2) in
        // total, so once |update| < ulp(param) * sqrt(bc2) / 8 every
        // future update rounds to a bit-exact no-op (strictly inside
        // the ulp/2 round-to-nearest boundary with a 4x margin) and
        // the entry can safely leave the sweep. ulp(p) >= |p| * 2^-24
        // for every normal p folds the whole test into one multiply.
        retireGate = std::sqrt(bc2) * 0.125f * 0x1p-24f;
    }
}

void
Adam::step(std::vector<float> &params, const std::vector<float> &grads)
{
    panicIf(params.size() != m.size() || grads.size() != m.size(),
            "Adam::step() size mismatch");
    panicIf(sparse, "Adam::step() called on a sparse optimizer");
    advanceStep();

    AdamKernelParams kp;
    kp.lr = cfg.lr;
    kp.beta1 = cfg.beta1;
    kp.beta2 = cfg.beta2;
    kp.epsilon = cfg.epsilon;
    kp.l2Reg = cfg.l2Reg;
    kp.bc1 = bc1;
    kp.bc2 = bc2;
    adamDenseStep(params.data(), grads.data(), m.data(), v.data(),
                  params.size(), kp);
}

void
Adam::enableSparse(uint32_t entry_span)
{
    panicIf(t != 0, "enableSparse() must precede the first step");
    panicIf(entry_span == 0 || m.size() % entry_span != 0,
            "entry span must divide the parameter count");
    panicIf(cfg.l2Reg != 0.0f,
            "sparse Adam requires l2Reg == 0 (weight decay makes "
            "untouched gradients nonzero)");
    sparse = true;
    span = entry_span;
    lastStep.assign(m.size() / span, 0);
    activeBits.assign(touchEntryWords(lastStep.size()), 0);
}

void
Adam::lazyReplay(float &p, float &m_i, float &v_i, uint64_t from,
                 uint64_t to) const
{
    // Each step mirrors the dense g == 0 arithmetic exactly,
    // including the trailing +0 additions (they normalize a -0 moment
    // to +0 just like the dense fused update does).
    for (uint64_t s = from + 1; s <= to; s++) {
        if (m_i == 0.0f && !std::signbit(m_i)) {
            // m is exactly +0: the parameter update is +0 forever (a
            // bit-exact identity), so only v's decay remains -- and
            // once v hits exact +0 too, nothing remains at all.
            if (v_i == 0.0f && !std::signbit(v_i))
                return;
            for (; s <= to; s++) {
                v_i = cfg.beta2 * v_i + 0.0f;
                if (v_i == 0.0f)
                    return;
            }
            return;
        }
        m_i = cfg.beta1 * m_i + 0.0f;
        v_i = cfg.beta2 * v_i + 0.0f;
        float mhat = m_i / bc1Hist[s - 1];
        float vhat = v_i / bc2Hist[s - 1];
        p -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.epsilon);
    }
}

/**
 * One zero-gradient or gradient step of one parameter, returning true
 * when the entry's future zero-gradient updates provably round to
 * no-ops (see retireGate). Shared by the touched and steady-state
 * sweep paths.
 */
inline bool
Adam::applyStep(float &p, float &m_i, float &v_i, float g) const
{
    m_i = cfg.beta1 * m_i + (1.0f - cfg.beta1) * g;
    v_i = cfg.beta2 * v_i + (1.0f - cfg.beta2) * g * g;
    float mhat = m_i / bc1;
    float vhat = v_i / bc2;
    float upd = cfg.lr * mhat / (std::sqrt(vhat) + cfg.epsilon);
    p -= upd;
    // The |p| * gate form never retires a p == 0 parameter, so the
    // exact terminal state (m at +0, update exactly +0 forever) is
    // accepted separately.
    return std::fabs(upd) < std::fabs(p) * retireGate ||
           (upd == 0.0f && m_i == 0.0f && !std::signbit(m_i));
}

size_t
Adam::stepSparse(std::vector<float> &params,
                 const std::vector<float> &grads,
                 std::span<const uint64_t> touched, ThreadPool *pool)
{
    panicIf(params.size() != m.size() || grads.size() != m.size(),
            "Adam::stepSparse() size mismatch");
    panicIf(!sparse, "stepSparse() needs enableSparse()");
    panicIf(touched.size() != activeBits.size(),
            "touched bitmap size does not match the parameter group");
    const size_t tail_bits = lastStep.size() & 63;
    panicIf(tail_bits != 0 && (touched.back() >> tail_bits) != 0,
            "touched bit set past the last entry");
    advanceStep();

    // One ascending sweep over the active set, in fixed blocks of
    // bitmap words. Each word first takes this step's touched bits, so
    // touched is a subset of active and one sweep covers both kinds of
    // work: the gradient step for touched entries (replaying any owed
    // zero-gradient steps first), the zero-gradient decay step for the
    // rest. Every m/v/param/grad access is in ascending address order,
    // so a block streams through memory the same way the dense loop
    // does -- just over the active fraction of the table instead of
    // all of it. Entries are independent and a block writes only its
    // own words and entries, so blocks may run on any thread in any
    // order. Parameters are exactly on the dense trajectory when this
    // returns.
    std::atomic<size_t> stepped{0}, joined{0}, retired{0};
    auto sweep_block = [&](int block, int) {
        const size_t w_begin = static_cast<size_t>(block) * sweepBlockWords;
        const size_t w_end =
            std::min(w_begin + sweepBlockWords, activeBits.size());
        size_t block_stepped = 0, block_joined = 0, block_retired = 0;
        for (size_t w = w_begin; w < w_end; w++) {
            const uint64_t tword = touched[w];
            uint64_t word = activeBits[w] | tword;
            if (!word)
                continue;
            block_stepped += static_cast<size_t>(std::popcount(tword));
            block_joined +=
                static_cast<size_t>(std::popcount(tword & ~activeBits[w]));
            uint64_t keep = word;
            do {
                const int b = std::countr_zero(word);
                word &= word - 1;
                const size_t entry = (w << 6) + static_cast<size_t>(b);
                const uint64_t last = lastStep[entry];
                bool retire;
                if ((tword >> b) & 1) {
                    retire = true;
                    for (uint32_t f = 0; f < span; f++) {
                        const size_t i = entry * span + f;
                        lazyReplay(params[i], m[i], v[i], last, t - 1);
                        retire &=
                            applyStep(params[i], m[i], v[i], grads[i]);
                    }
                } else if (last == t - 1) {
                    // Fast path (the steady-state case): one
                    // zero-gradient step with the current bias
                    // corrections -- identical values to
                    // bc1Hist[t - 1], no history gather.
                    retire = true;
                    for (uint32_t f = 0; f < span; f++) {
                        const size_t i = entry * span + f;
                        retire &= applyStep(params[i], m[i], v[i], 0.0f);
                    }
                } else {
                    // Unreachable by construction: an entry enters the
                    // active set only via a touch (first branch) and
                    // every sweep stamps all active entries to t, so an
                    // untouched active entry is always settled through
                    // t - 1. Deferred multi-step replays happen only on
                    // the re-touch of a *retired* entry, in branch one.
                    panic("active entry fell behind the sweep");
                }
                lastStep[entry] = t;
                if (retire) {
                    keep &= ~(1ull << b);
                    block_retired++;
                }
            } while (word);
            activeBits[w] = keep;
        }
        stepped.fetch_add(block_stepped, std::memory_order_relaxed);
        joined.fetch_add(block_joined, std::memory_order_relaxed);
        retired.fetch_add(block_retired, std::memory_order_relaxed);
    };
    const int blocks = static_cast<int>(
        (activeBits.size() + sweepBlockWords - 1) / sweepBlockWords);
    if (pool && pool->threadCount() > 1 && blocks > 1) {
        pool->parallelFor(blocks, sweep_block);
    } else {
        for (int b = 0; b < blocks; b++)
            sweep_block(b, 0);
    }
    // Joined first: activeCount is unsigned, and a step's retirements
    // may include entries that joined in the same step.
    activeCount += joined.load(std::memory_order_relaxed);
    activeCount -= retired.load(std::memory_order_relaxed);
    return stepped.load(std::memory_order_relaxed);
}

void
Adam::catchUp(std::vector<float> &params)
{
    if (!sparse || t == 0)
        return;
    panicIf(params.size() != m.size(), "Adam::catchUp() size mismatch");

    // stepSparse() settles the whole active set as it goes, and
    // retired entries owe only bit-exact no-ops on the parameter (the
    // second moment's remaining decay is replayed on the next touch),
    // so there is nothing left to write here. Kept as the explicit
    // settling point of the API: callers that read parameters directly
    // call this rather than relying on the sweep being eager.
}

} // namespace instant3d
