#include "layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/dpi.h"
#include "core/mi_engine.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"

namespace perfbench {

tinge::ExpressionMatrix first_genes(const tinge::ExpressionMatrix& matrix,
                                    std::size_t genes) {
  std::vector<std::size_t> keep(std::min(genes, matrix.n_genes()));
  std::iota(keep.begin(), keep.end(), std::size_t{0});
  return matrix.select_genes(keep);
}

namespace {

/// Ranks of the first `genes` genes as their own matrix.
tinge::RankedMatrix ranked_slice(const tinge::RankedMatrix& ranked,
                                 std::size_t genes) {
  genes = std::min(genes, ranked.n_genes());
  tinge::ExpressionMatrix values(genes, ranked.n_samples());
  for (std::size_t g = 0; g < genes; ++g) {
    const auto ranks = ranked.ranks(g);
    for (std::size_t s = 0; s < ranks.size(); ++s)
      values.at(g, s) = static_cast<float>(ranks[s]);
  }
  return tinge::RankedMatrix(values);
}

/// Median seconds of one all-pairs sweep on `threads` contexts of `pool`,
/// over at least `passes` passes and `min_seconds` in total. The engine's
/// lazy set-up (rank staging) must already have run.
double sweep_seconds(const tinge::MiEngine& engine, tinge::par::ThreadPool& pool,
                     tinge::TingeConfig config, int threads, int passes,
                     double min_seconds) {
  config.threads = threads;
  std::vector<double> seconds;
  double total = 0.0;
  while (static_cast<int>(seconds.size()) < passes || total < min_seconds) {
    const double start = now_seconds();
    engine.compute_network(std::numeric_limits<double>::infinity(), config,
                           pool);
    seconds.push_back(now_seconds() - start);
    total += seconds.back();
  }
  return median(seconds);
}

}  // namespace

void probe_mi(const tinge::RankedMatrix& ranked,
              const tinge::TingeConfig& config, Result& result) {
  const std::size_t m = ranked.n_samples();
  const tinge::BsplineMi estimator(config.bins, config.spline_order, m);
  // One tile: the first tile_size genes (a diagonal tile, i < j).
  const tinge::RankedMatrix tile = ranked_slice(ranked, config.tile_size);
  const double n = static_cast<double>(tile.n_genes());
  const double pairs = n * (n - 1.0) / 2.0;
  const double cells = pairs * static_cast<double>(m);
  tinge::par::ThreadPool pool(1);
  const tinge::MiEngine engine(estimator, tile);
  sweep_seconds(engine, pool, config, 1, 1, 0.0);  // warm-up
  const double tile_s = sweep_seconds(engine, pool, config, 1, 5, 0.5);

  // B-spline joint histogram: k x k weight products accumulated per
  // sample -> 2k^2 flops per cell. Operand bytes per cell, computed from
  // the table layout: one uint32 rank plus its k float weights and int32
  // first bin. These are cache-resident loads, not DRAM traffic.
  const double k = config.spline_order;
  const double flops_per_cell = 2.0 * k * k;
  const double bytes_per_cell = 4.0 + 4.0 * k + 4.0;
  const double cells_per_s = cells / tile_s;
  const double gflops = cells_per_s * flops_per_cell / 1e9;
  const double peak = fma_peak_gflops();

  // Naive baseline: the same pairs through per-pair BsplineMi::mi.
  tinge::JointHistogram scratch = estimator.make_scratch();
  std::vector<double> naive;
  double sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double start = now_seconds();
    for (std::size_t a = 0; a < tile.n_genes(); ++a)
      for (std::size_t b = a + 1; b < tile.n_genes(); ++b)
        sink += estimator.mi(tile.ranks(a), tile.ranks(b), scratch);
    naive.push_back(now_seconds() - start);
  }
  result.detail()["mi_probe"] = obs::Json::object();
  result.detail()["mi_probe"]["tile_genes"] = tile.n_genes();
  result.detail()["mi_probe"]["fma_peak_gflops"] = peak;
  result.detail()["mi_probe"]["naive_checksum"] = sink;

  result.metric("mi.kernel_cells_per_s", "1/s", cells_per_s);
  result.metric("mi.kernel_gflops", "GFLOP/s", gflops);
  result.metric("mi.roofline_frac", "share", gflops / peak);
  result.metric("mi.flops_per_byte", "flop/B", flops_per_cell / bytes_per_cell);
  result.metric("mi.naive_pairs_per_s", "1/s", pairs / median(naive));
}

void probe_thread_scaling(const tinge::RankedMatrix& slice,
                          const tinge::TingeConfig& config, Result& result) {
  const tinge::BsplineMi estimator(config.bins, config.spline_order,
                                   slice.n_samples());
  const int threads = std::max(1, config.threads);
  tinge::par::ThreadPool pool(threads);
  const tinge::MiEngine engine(estimator, slice);
  // The first all-thread pass also stages the ranks.
  const double all = sweep_seconds(engine, pool, config, threads, 3, 0.0);
  const double one = sweep_seconds(engine, pool, config, 1, 2, 0.0);
  // rate(all) / (threads * rate(one)) = one / (threads * all)
  result.metric("engine.thread_eff", "share", one / (threads * all));
  result.detail()["scaling_probe"] = obs::Json::object();
  result.detail()["scaling_probe"]["genes"] = slice.n_genes();
  result.detail()["scaling_probe"]["one_thread_s"] = one;
  result.detail()["scaling_probe"]["all_threads_s"] = all;
}

void probe_dpi(const tinge::GeneNetwork& network,
               const tinge::TingeConfig& config, Result& result) {
  std::vector<double> seconds;
  tinge::DpiStats stats;
  // Up to three passes, fewer when one takes over a second.
  double total = 0.0;
  while (seconds.size() < 3 && total < 2.0) {
    stats = {};
    const double start = now_seconds();
    tinge::apply_dpi(network, config.dpi_tolerance, &stats);
    seconds.push_back(now_seconds() - start);
    total += seconds.back();
  }
  result.metric("dpi.s", "s", median(seconds));
  result.metric("dpi.removed_share", "share",
                network.n_edges() > 0
                    ? static_cast<double>(stats.edges_removed) /
                          static_cast<double>(network.n_edges())
                    : 0.0);
}

void report_cluster(const ClusterLayer& layer, Result& result) {
  result.metric("cluster.bytes_per_pair", "B", layer.bytes_per_pair);
  result.metric("cluster.messages", "count", layer.messages);
  result.metric("cluster.busy_share", "share", layer.busy_share);
  result.metric("cluster.imbalance", "ratio", layer.imbalance);
}

}  // namespace perfbench
