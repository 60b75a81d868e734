#include "nerf/hash_encoding.hh"

#include <algorithm>
#include <cmath>

#include "common/half.hh"
#include "common/logging.hh"
#include "kernels/kernel_backend.hh"

namespace instant3d {

namespace {

constexpr uint32_t pi1 = 1u;
constexpr uint32_t pi2 = 2654435761u;
constexpr uint32_t pi3 = 805459861u;

} // namespace

HashEncodingConfig
HashEncodingConfig::scaledBy(float size_ratio) const
{
    fatalIf(size_ratio <= 0.0f, "grid size ratio must be positive");
    HashEncodingConfig out = *this;
    double target = static_cast<double>(tableSize()) * size_ratio;
    uint32_t bits = 6;
    while ((1ull << (bits + 1)) <= target && bits < 30)
        bits++;
    // Snap to the nearest power of two.
    double lo = static_cast<double>(1ull << bits);
    double hi = static_cast<double>(1ull << (bits + 1));
    out.log2TableSize = (target - lo < hi - target) ? bits : bits + 1;
    return out;
}

HashEncoding::HashEncoding(const HashEncodingConfig &config, uint64_t seed)
    : cfg(config)
{
    fatalIf(cfg.numLevels < 1, "hash encoding needs >= 1 level");
    fatalIf(cfg.featuresPerEntry < 1, "hash encoding needs >= 1 feature");
    fatalIf(cfg.log2TableSize < 4 || cfg.log2TableSize > 30,
            "hash table size out of supported range");

    resolutions.resize(cfg.numLevels);
    for (int l = 0; l < cfg.numLevels; l++) {
        resolutions[l] = std::max(
            2, static_cast<int>(std::floor(
                   cfg.baseResolution *
                   std::pow(cfg.growthFactor, static_cast<float>(l)))));
    }

    size_t n = static_cast<size_t>(cfg.numLevels) * cfg.tableSize() *
               cfg.featuresPerEntry;
    table.resize(n);
    gradTable.assign(n, 0.0f);

    // Instant-NGP initializes embeddings uniformly in [-1e-4, 1e-4].
    Rng rng(seed, 0x9e3779b97f4a7c15ULL);
    for (auto &v : table)
        v = rng.nextFloat(-1e-4f, 1e-4f);
}

uint32_t
HashEncoding::hashCoords(uint32_t x, uint32_t y, uint32_t z,
                         uint32_t table_size)
{
    uint32_t h = (x * pi1) ^ (y * pi2) ^ (z * pi3);
    return h & (table_size - 1u);
}

void
HashEncoding::levelCorners(const Vec3 &q, int level, uint32_t *addr8,
                           float *w8) const
{
    float res = static_cast<float>(resolutions[level]);
    float fx = q.x * res;
    float fy = q.y * res;
    float fz = q.z * res;
    uint32_t x0 = static_cast<uint32_t>(fx);
    uint32_t y0 = static_cast<uint32_t>(fy);
    uint32_t z0 = static_cast<uint32_t>(fz);
    float wx = fx - static_cast<float>(x0);
    float wy = fy - static_cast<float>(y0);
    float wz = fz - static_cast<float>(z0);

    for (int corner = 0; corner < 8; corner++) {
        uint32_t cx = x0 + static_cast<uint32_t>(corner & 1);
        uint32_t cy = y0 + static_cast<uint32_t>((corner >> 1) & 1);
        uint32_t cz = z0 + static_cast<uint32_t>((corner >> 2) & 1);
        addr8[corner] = hashCoords(cx, cy, cz, cfg.tableSize());
        w8[corner] = ((corner & 1) ? wx : 1.0f - wx) *
                     (((corner >> 1) & 1) ? wy : 1.0f - wy) *
                     (((corner >> 2) & 1) ? wz : 1.0f - wz);
    }
}

void
HashEncoding::encodeOne(const Vec3 &p, float *out, uint32_t *addr_slots,
                        float *weight_slots, TraceSink *sink,
                        uint32_t point_id) const
{
    Vec3 q = clamp(p, 0.0f, 1.0f);
    const int fpe = cfg.featuresPerEntry;
    uint32_t a8[8];
    float w8[8];

    for (int l = 0; l < cfg.numLevels; l++) {
        levelCorners(q, l, a8, w8);

        for (int f = 0; f < fpe; f++)
            out[l * fpe + f] = 0.0f;

        for (int corner = 0; corner < 8; corner++) {
            uint32_t addr = a8[corner];
            float w = w8[corner];

            size_t off = entryOffset(l, addr);
            for (int f = 0; f < fpe; f++)
                out[l * fpe + f] += w * table[off + f];

            if (sink) {
                sink->record({addr, static_cast<uint16_t>(l),
                              static_cast<uint8_t>(corner), false,
                              point_id});
            }
            if (addr_slots) {
                addr_slots[static_cast<size_t>(l) * 8 + corner] = addr;
                weight_slots[static_cast<size_t>(l) * 8 + corner] = w;
            }
        }
    }
}

void
HashEncoding::encodeCorners(const Vec3 &p, uint32_t *addr_slots,
                            float *weight_slots, TraceSink *sink,
                            uint32_t point_id) const
{
    Vec3 q = clamp(p, 0.0f, 1.0f);

    for (int l = 0; l < cfg.numLevels; l++) {
        uint32_t *a8 = addr_slots + static_cast<size_t>(l) * 8;
        levelCorners(q, l, a8, weight_slots + static_cast<size_t>(l) * 8);
        if (sink) {
            for (int corner = 0; corner < 8; corner++) {
                sink->record({a8[corner], static_cast<uint16_t>(l),
                              static_cast<uint8_t>(corner), false,
                              point_id});
            }
        }
    }
}

void
HashEncoding::encode(const Vec3 &p, float *out, EncodeRecord *rec)
{
    const uint32_t point_id =
        nextPointId.fetch_add(1, std::memory_order_relaxed);
    reads.fetch_add(static_cast<uint64_t>(cfg.numLevels) * 8,
                    std::memory_order_relaxed);

    uint32_t *addr_slots = nullptr;
    float *weight_slots = nullptr;
    if (rec) {
        rec->addresses.assign(static_cast<size_t>(cfg.numLevels) * 8, 0);
        rec->weights.assign(static_cast<size_t>(cfg.numLevels) * 8, 0.0f);
        addr_slots = rec->addresses.data();
        weight_slots = rec->weights.data();
    }
    encodeOne(p, out, addr_slots, weight_slots, traceSink, point_id);
}

void
HashEncoding::encodeBatch(const Vec3 *pts, int n, float *out,
                          EncodeBatchRecord *rec, Workspace &ws)
{
    const size_t slots = static_cast<size_t>(cfg.numLevels) * 8;

    const uint32_t base =
        nextPointId.fetch_add(static_cast<uint32_t>(n),
                              std::memory_order_relaxed);
    reads.fetch_add(static_cast<uint64_t>(n) * slots,
                    std::memory_order_relaxed);

    // No record requested (eval blocks, occupancy probes): keep the
    // fused corners+interp loop -- nothing to materialize, and the
    // training hot path (which always records for backward) is where
    // the backend seam pays.
    if (!rec) {
        const int dim = outputDim();
        for (int s = 0; s < n; s++) {
            encodeOne(pts[s], out + static_cast<size_t>(s) * dim,
                      nullptr, nullptr, traceSink,
                      base + static_cast<uint32_t>(s));
        }
        return;
    }

    // Recorded path. Phase 1 (integer): corner addresses + weights +
    // trace records into the batch record. Phase 2 (float): one
    // interpolation gather over the whole batch through the kernel
    // backend. The split leaves per-point arithmetic and trace order
    // exactly as encodeOne produces them.
    rec->n = n;
    rec->addresses = ws.alloc<uint32_t>(static_cast<size_t>(n) * slots);
    rec->weights = ws.alloc<float>(static_cast<size_t>(n) * slots);
    uint32_t *addr_slots = rec->addresses;
    float *weight_slots = rec->weights;

    for (int s = 0; s < n; s++) {
        encodeCorners(pts[s], addr_slots + static_cast<size_t>(s) * slots,
                      weight_slots + static_cast<size_t>(s) * slots,
                      traceSink, base + static_cast<uint32_t>(s));
    }
    resolveBackend(kernelBackend)
        .hashInterpBatch(table.data(), addr_slots, weight_slots, n,
                         cfg.numLevels, cfg.featuresPerEntry,
                         cfg.tableSize(), out);
}

void
HashEncoding::backwardOne(const uint32_t *addrs, const float *ws,
                          const float *d_out, float *grad,
                          uint64_t *touched, TraceSink *sink) const
{
    const int fpe = cfg.featuresPerEntry;

    // The hot path -- untraced scatter -- dispatches through the kernel
    // backend; the traced variant keeps the reference loop below
    // because record order is part of its contract.
    if (!sink) {
        resolveBackend(kernelBackend)
            .hashScatterSample(addrs, ws, d_out, cfg.numLevels, fpe,
                               cfg.tableSize(), grad, touched);
        return;
    }

    const size_t entry_words = touchEntryWords(
        static_cast<size_t>(cfg.numLevels) * cfg.tableSize());
    for (int l = 0; l < cfg.numLevels; l++) {
        for (int corner = 0; corner < 8; corner++) {
            size_t slot = static_cast<size_t>(l) * 8 + corner;
            uint32_t addr = addrs[slot];
            float w = ws[slot];
            size_t off = entryOffset(l, addr);
            for (int f = 0; f < fpe; f++)
                grad[off + f] += w * d_out[l * fpe + f];
            if (touched)
                markTouched(touched, entry_words,
                            static_cast<size_t>(l) * cfg.tableSize() +
                                addr);
            sink->record({addr, static_cast<uint16_t>(l),
                          static_cast<uint8_t>(corner), true, 0});
        }
    }
}

void
HashEncoding::backward(const EncodeRecord &rec, const float *d_out)
{
    panicIf(rec.addresses.size() !=
                static_cast<size_t>(cfg.numLevels) * 8,
            "EncodeRecord does not match this encoding");
    writes.fetch_add(static_cast<uint64_t>(cfg.numLevels) * 8,
                     std::memory_order_relaxed);
    backwardOne(rec.addresses.data(), rec.weights.data(), d_out,
                gradTable.data(), nullptr, traceSink);
}

void
HashEncoding::backwardSample(const EncodeBatchRecord &rec, int s,
                             const float *d_out, float *grad,
                             uint64_t *touched)
{
    panicIf(s < 0 || s >= rec.n, "sample index outside batch record");
    const size_t slots = static_cast<size_t>(cfg.numLevels) * 8;
    writes.fetch_add(slots, std::memory_order_relaxed);
    backwardOne(rec.addresses + static_cast<size_t>(s) * slots,
                rec.weights + static_cast<size_t>(s) * slots, d_out,
                grad, touched, traceSink);
}

void
HashEncoding::zeroGrad()
{
    std::fill(gradTable.begin(), gradTable.end(), 0.0f);
}

float
HashEncoding::quantizeToHalf()
{
    float max_err = 0.0f;
    for (auto &v : table) {
        float q = halfBitsToFloat(floatToHalfBits(v));
        max_err = std::max(max_err, std::fabs(q - v));
        v = q;
    }
    return max_err;
}

size_t
HashEncoding::storageBytes() const
{
    // fp16 entries on the accelerator: 2 bytes per feature.
    return static_cast<size_t>(cfg.numLevels) * cfg.tableSize() *
           cfg.featuresPerEntry * 2;
}

} // namespace instant3d
