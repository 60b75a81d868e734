/**
 * @file
 * Google-benchmark microbenchmarks of the core kernels: hash-grid
 * encoding forward/backward, MLP forward/backward, the full field
 * query, volume rendering, FRM scheduling throughput, and BUM merge
 * throughput.
 */

#include <benchmark/benchmark.h>

#include "accel/bum.hh"
#include "accel/frm.hh"
#include "common/rng.hh"
#include "kernels/kernel_backend.hh"
#include "nerf/adam.hh"
#include "nerf/renderer.hh"

namespace instant3d {
namespace {

/** Backend selector for the per-backend micro-benches: benchmark
 *  args are indices into this table. */
std::unique_ptr<KernelBackend>
benchBackend(int64_t idx)
{
    return idx == 0 ? makeScalarRefBackend() : makeSimdBackend();
}

HashEncodingConfig
benchGrid()
{
    HashEncodingConfig cfg;
    cfg.numLevels = 8;
    cfg.log2TableSize = 16;
    cfg.baseResolution = 16;
    return cfg;
}

void
BM_HashEncodeForward(benchmark::State &state)
{
    HashEncoding enc(benchGrid(), 1);
    std::vector<float> out(enc.outputDim());
    Rng r(2);
    for (auto _ : state) {
        Vec3 p(r.nextFloat(), r.nextFloat(), r.nextFloat());
        enc.encode(p, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashEncodeForward);

void
BM_HashEncodeBackward(benchmark::State &state)
{
    HashEncoding enc(benchGrid(), 1);
    std::vector<float> out(enc.outputDim());
    std::vector<float> grad(enc.outputDim(), 1.0f);
    EncodeRecord rec;
    enc.encode({0.4f, 0.5f, 0.6f}, out.data(), &rec);
    for (auto _ : state)
        enc.backward(rec, grad.data());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashEncodeBackward);

void
BM_MlpForward(benchmark::State &state)
{
    Mlp mlp({32, 64, 64, 16}, OutputActivation::None, 3);
    std::vector<float> in(32, 0.1f), out(16);
    for (auto _ : state) {
        mlp.forward(in.data(), out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * mlp.macsPerForward());
}
BENCHMARK(BM_MlpForward);

void
BM_MlpBackward(benchmark::State &state)
{
    Mlp mlp({32, 64, 64, 16}, OutputActivation::None, 3);
    std::vector<float> in(32, 0.1f), out(16), d_out(16, 1.0f), d_in(32);
    MlpRecord rec;
    mlp.forward(in.data(), out.data(), &rec);
    for (auto _ : state) {
        mlp.backward(rec, d_out.data(), d_in.data());
        benchmark::DoNotOptimize(d_in.data());
    }
    state.SetItemsProcessed(state.iterations() * mlp.macsPerForward());
}
BENCHMARK(BM_MlpBackward);

/**
 * The GEMM-style MLP forward panel through one kernel backend
 * (arg 0 = scalar_ref, 1 = simd): one training chunk's worth of
 * samples through a hidden-width-32 layer.
 */
void
BM_MlpForwardPanel(benchmark::State &state)
{
    auto kb = benchBackend(state.range(0));
    state.SetLabel(kb->name());
    const int n = 1024, n_in = 32, n_out = 32;
    Rng r(4);
    std::vector<float> in(static_cast<size_t>(n) * n_in);
    std::vector<float> w(static_cast<size_t>(n_out) * n_in);
    std::vector<float> b(n_out);
    std::vector<float> out(static_cast<size_t>(n) * n_out);
    for (auto &v : in)
        v = r.nextFloat(-1.0f, 1.0f);
    for (auto &v : w)
        v = r.nextFloat(-1.0f, 1.0f);
    for (auto &v : b)
        v = r.nextFloat(-1.0f, 1.0f);

    Workspace ws;
    for (auto _ : state) {
        ws.reset();
        kb->mlpForwardPanel(in.data(), n, n_in, n_out, w.data(),
                            b.data(), out.data(), ws);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n) * n_in * n_out);
}
BENCHMARK(BM_MlpForwardPanel)->Arg(0)->Arg(1);

/**
 * A chunk-sized encodeBatch through one kernel backend (arg 0 =
 * scalar_ref, 1 = simd): the interpolation gather is the backend
 * seam; the integer corner phase is shared.
 */
void
BM_EncodeBatch(benchmark::State &state)
{
    HashEncoding enc(benchGrid(), 1);
    auto kb = benchBackend(state.range(0));
    state.SetLabel(kb->name());
    enc.setKernelBackend(kb.get());

    const int n = 16 * 48; // one chunk: rays x samples
    Rng r(6);
    std::vector<Vec3> pts;
    for (int i = 0; i < n; i++)
        pts.push_back({r.nextFloat(), r.nextFloat(), r.nextFloat()});
    std::vector<float> out(static_cast<size_t>(n) * enc.outputDim());

    Workspace ws;
    for (auto _ : state) {
        ws.reset();
        // Recorded, like the training hot path: the no-record path
        // keeps the fused scalar loop and never dispatches.
        EncodeBatchRecord rec;
        enc.encodeBatch(pts.data(), n, out.data(), &rec, ws);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EncodeBatch)->Arg(0)->Arg(1);

void
BM_FieldQuery(benchmark::State &state)
{
    FieldConfig cfg = FieldConfig::instant3dDefault(benchGrid());
    NerfField field(cfg, 7);
    Rng r(8);
    for (auto _ : state) {
        Vec3 p(r.nextFloat(), r.nextFloat(), r.nextFloat());
        FieldSample s = field.query(p, {0, 0, 1});
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FieldQuery);

void
BM_RenderRay(benchmark::State &state)
{
    FieldConfig cfg = FieldConfig::instant3dDefault(benchGrid());
    NerfField field(cfg, 9);
    RendererConfig rcfg;
    rcfg.samplesPerRay = static_cast<int>(state.range(0));
    VolumeRenderer renderer(rcfg);
    Ray ray{{0.5f, 0.5f, -0.5f}, {0.0f, 0.0f, 1.0f}};
    for (auto _ : state) {
        RayResult res = renderer.renderRay(field, ray);
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RenderRay)->Arg(16)->Arg(48)->Arg(128);

/**
 * The stream-compaction kernel in isolation: march a 16-ray chunk
 * against an occupancy grid whose occupied fraction is the benchmark
 * argument (percent), emitting the compacted SoA stream.
 */
void
BM_MarchRays(benchmark::State &state)
{
    RendererConfig rcfg;
    rcfg.samplesPerRay = 48;
    VolumeRenderer renderer(rcfg);

    OccupancyGridConfig ocfg;
    OccupancyGrid grid(ocfg);
    Rng r(13);
    const float occ = static_cast<float>(state.range(0)) / 100.0f;
    for (size_t i = 0; i < grid.numCells(); i++)
        grid.setCellDensity(i, r.nextFloat() < occ
                                   ? ocfg.occupancyThreshold * 2.0f
                                   : 0.0f);
    renderer.setOccupancyGrid(&grid);

    const int num_rays = 16;
    std::vector<Ray> rays;
    for (int i = 0; i < num_rays; i++) {
        Vec3 o(r.nextFloat(), r.nextFloat(), -0.2f);
        rays.push_back({o, Vec3(0.0f, 0.0f, 1.0f)});
    }
    std::vector<Rng> rngs(num_rays, Rng(7));

    Workspace ws;
    for (auto _ : state) {
        ws.reset();
        SampleStream stream;
        renderer.marchRays(rays.data(), num_rays, rngs.data(), stream,
                           ws);
        benchmark::DoNotOptimize(stream.totalSamples);
    }
    state.SetItemsProcessed(state.iterations() * num_rays *
                            rcfg.samplesPerRay);
}
BENCHMARK(BM_MarchRays)->Arg(100)->Arg(25)->Arg(5);

/**
 * The full compacted forward stage (march + one queryStream + per-ray
 * compositing) for a 16-ray chunk -- the end-to-end forward cost the
 * trainer pays per chunk.
 */
void
BM_RenderStream(benchmark::State &state)
{
    FieldConfig cfg = FieldConfig::instant3dDefault(benchGrid());
    NerfField field(cfg, 9);
    RendererConfig rcfg;
    rcfg.samplesPerRay = 48;
    VolumeRenderer renderer(rcfg);

    OccupancyGridConfig ocfg;
    OccupancyGrid grid(ocfg);
    Rng r(14);
    const float occ = static_cast<float>(state.range(0)) / 100.0f;
    for (size_t i = 0; i < grid.numCells(); i++)
        grid.setCellDensity(i, r.nextFloat() < occ
                                   ? ocfg.occupancyThreshold * 2.0f
                                   : 0.0f);
    renderer.setOccupancyGrid(&grid);

    const int num_rays = 16;
    std::vector<Ray> rays;
    for (int i = 0; i < num_rays; i++) {
        Vec3 o(r.nextFloat(), r.nextFloat(), -0.2f);
        rays.push_back({o, Vec3(0.0f, 0.0f, 1.0f)});
    }

    Workspace ws;
    std::vector<RayResult> results(num_rays);
    uint64_t samples = 0;
    for (auto _ : state) {
        ws.reset();
        SampleStream stream;
        renderer.marchRays(rays.data(), num_rays, nullptr, stream, ws);
        StreamRecord rec;
        renderer.renderStream(field, stream, results.data(), &rec, ws);
        samples += static_cast<uint64_t>(stream.totalSamples);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(samples));
}
BENCHMARK(BM_RenderStream)->Arg(100)->Arg(25)->Arg(5);

/**
 * The sparse lazy Adam step on a grid-sized group: `range` touched
 * entries per step out of 2^16 (span 2), steady state (the same
 * entries every step, so the active set equals the touched set).
 * Compare against BM_DenseAdamStep for the full-table-scan cost the
 * sparse path replaces.
 */
void
BM_SparseAdamStep(benchmark::State &state)
{
    constexpr uint32_t span = 2;
    constexpr size_t entries = 1 << 16;
    constexpr size_t n = entries * span;
    AdamConfig acfg;
    Adam adam(n, acfg);
    adam.enableSparse(span);

    Rng r(21);
    const uint32_t k = static_cast<uint32_t>(state.range(0));
    std::vector<uint32_t> touched;
    std::vector<uint8_t> seen(entries, 0);
    while (touched.size() < k) {
        uint32_t e = r.nextU32(entries);
        if (!seen[e]) {
            seen[e] = 1;
            touched.push_back(e * span);
        }
    }
    std::vector<float> params(n, 0.1f);
    std::vector<float> grads(n, 0.0f);
    std::vector<uint64_t> bits(touchEntryWords(entries), 0);
    for (uint32_t off : touched) {
        for (uint32_t f = 0; f < span; f++)
            grads[off + f] = r.nextFloat(-1.0f, 1.0f);
        bits[off / span / 64] |= uint64_t{1} << (off / span % 64);
    }

    for (auto _ : state) {
        adam.stepSparse(params, grads, bits);
        adam.catchUp(params);
        benchmark::DoNotOptimize(params.data());
    }
    state.SetItemsProcessed(state.iterations() * k * span);
}
BENCHMARK(BM_SparseAdamStep)->Arg(64)->Arg(1024)->Arg(16384);

/** Dense Adam over the same 2^17-param group: the replaced scan. */
void
BM_DenseAdamStep(benchmark::State &state)
{
    constexpr size_t n = (1 << 16) * 2;
    AdamConfig acfg;
    Adam adam(n, acfg);
    std::vector<float> params(n, 0.1f);
    std::vector<float> grads(n, 0.0f);
    for (auto _ : state) {
        adam.step(params, grads);
        benchmark::DoNotOptimize(params.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DenseAdamStep);

void
BM_FrmSchedule(benchmark::State &state)
{
    Rng r(10);
    std::vector<uint32_t> addrs;
    for (int i = 0; i < 4096; i++)
        addrs.push_back(r.nextU32(1 << 14));
    for (auto _ : state) {
        SramArray sram(static_cast<int>(state.range(0)), 4, 1 << 20,
                       1 << 14);
        FrmUnit frm(sram, 16);
        FrmStats s = frm.process(addrs);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations() * addrs.size());
}
BENCHMARK(BM_FrmSchedule)->Arg(8)->Arg(16)->Arg(32);

void
BM_BumMerge(benchmark::State &state)
{
    Rng r(11);
    std::vector<uint32_t> addrs;
    for (int i = 0; i < 4096; i++)
        addrs.push_back(r.nextU32(static_cast<uint32_t>(state.range(0))));
    for (auto _ : state) {
        BumUnit bum({.numEntries = 16, .timeoutCycles = 64});
        for (uint32_t a : addrs)
            bum.pushUpdate(a, 1.0f);
        bum.flushAll();
        benchmark::DoNotOptimize(bum.stats());
    }
    state.SetItemsProcessed(state.iterations() * addrs.size());
}
BENCHMARK(BM_BumMerge)->Arg(64)->Arg(1024)->Arg(65536);

} // namespace
} // namespace instant3d

BENCHMARK_MAIN();
