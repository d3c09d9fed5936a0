// Layer probes for the traced run: each times public calls into one layer
// on (a slice of) the workload's own data, from outside the library.
#pragma once

#include <cstddef>

#include "core/config.h"
#include "data/expression_matrix.h"
#include "graph/network.h"
#include "measure.h"
#include "preprocess/rank_transform.h"

namespace perfbench {

/// The first `genes` rows of `matrix`.
tinge::ExpressionMatrix first_genes(const tinge::ExpressionMatrix& matrix,
                                    std::size_t genes);

/// mi.*: a one-thread, one-tile MiEngine pass (cells/s, GFLOP/s against
/// an FMA-peak loop timed in the same run, computed flops per byte) and
/// per-pair BsplineMi::mi calls, the naive baseline.
void probe_mi(const tinge::RankedMatrix& ranked,
              const tinge::TingeConfig& config, Result& result);

/// engine.thread_eff: the same slice swept with all threads and with one.
void probe_thread_scaling(const tinge::RankedMatrix& slice,
                          const tinge::TingeConfig& config, Result& result);

/// dpi.*: apply_dpi on a built network.
void probe_dpi(const tinge::GeneNetwork& network,
               const tinge::TingeConfig& config, Result& result);

/// cluster.*: sharded builds of `input` over four in-process ranks. Returns
/// the median build seconds.
struct ClusterLayer {
  double seconds = 0.0;
  double bytes_per_pair = 0.0;
  double messages = 0.0;
  double busy_share = 0.0;
  double imbalance = 0.0;
};
void report_cluster(const ClusterLayer& layer, Result& result);

/// One-thread FMA throughput of this core in GFLOP/s (peak.cpp).
double fma_peak_gflops();

}  // namespace perfbench
