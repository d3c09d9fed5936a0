// The compute roof for mi.roofline_frac: a one-thread loop of independent
// vector FMA chains, compiled for the same ISA as the library.
#include <chrono>

#include "layers.h"

namespace perfbench {

double fma_peak_gflops() {
  using Vec = float __attribute__((vector_size(64)));
  constexpr int kChains = 12;  // enough independent chains to hide latency
  constexpr int kLanes = sizeof(Vec) / sizeof(float);
  volatile float seed = 1.0f;
  const float m = seed * 0.999999f;
  const float c = seed * 1e-7f;
  Vec acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = Vec{} + seed * static_cast<float>(i);
  const Vec vm = Vec{} + m, vc = Vec{} + c;

  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    constexpr long kIterations = 4'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (long it = 0; it < kIterations; ++it)
      for (int i = 0; i < kChains; ++i) acc[i] = acc[i] * vm + vc;
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const double flops = 2.0 * kLanes * kChains * static_cast<double>(kIterations);
    if (seconds > 0.0 && flops / seconds > best) best = flops / seconds;
  }
  float sink = 0.0f;
  for (int i = 0; i < kChains; ++i)
    for (int l = 0; l < kLanes; ++l) sink += acc[i][l];
  seed = sink;
  return best / 1e9;
}

}  // namespace perfbench
