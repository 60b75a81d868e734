/**
 * @file
 * CPU SIMD feature detection for the batched kernels (src/kernels).
 *
 * Two views are reported and both land in BENCH_train_throughput.json:
 * what the *machine* supports at runtime (detectCpuFeatures) and what
 * the *build* was compiled to use (compiledSimdString) -- the
 * kernels' portable loops only ever emit the compiled ISA, so the
 * pair shows at a glance whether a bench host left vector width on
 * the table (e.g. an AVX2 machine running a baseline SSE2 build).
 */

#ifndef INSTANT3D_COMMON_CPU_FEATURES_HH
#define INSTANT3D_COMMON_CPU_FEATURES_HH

#include <string>

namespace instant3d {

/** Runtime-detected SIMD capabilities of the executing CPU. */
struct CpuFeatures
{
    bool sse2 = false;
    bool avx = false;
    bool avx2 = false;
    bool fma = false;
    bool avx512f = false;
    bool neon = false;
};

/** Query the executing CPU (cached; cheap to call repeatedly). */
CpuFeatures detectCpuFeatures();

/** Space-separated runtime feature list, e.g. "sse2 avx avx2 fma";
 *  "none" when nothing is detected. */
std::string cpuFeatureString();

/** The SIMD ISA this binary was compiled against, from predefined
 *  macros, e.g. "avx2+fma" or "sse2"; "scalar" for plain builds. */
std::string compiledSimdString();

} // namespace instant3d

#endif // INSTANT3D_COMMON_CPU_FEATURES_HH
