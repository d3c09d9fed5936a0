// The three workloads (README.md says why each exists).
#pragma once

#include "core/config.h"
#include "core/mi_engine.h"
#include "data/expression_matrix.h"
#include "layers.h"
#include "measure.h"
#include "plan.h"

namespace perfbench {

/// The workload's TingeConfig. Only the durable fields are set: threads,
/// cluster_ranks, apply_dpi, permutations, alpha, seed and estimator;
/// kernel, tile size, balance and every other knob keep their defaults.
tinge::TingeConfig workload_config(Workload workload, const Plan& plan,
                                   int threads);

/// e1-slice and sharded-dpi: untraced runs report the end-to-end metrics,
/// traced runs the per-layer ones.
void run_batch(const RunOptions& options, const Plan& plan, Result& result);

/// serve-zipf.
void run_serve(const RunOptions& options, const Plan& plan, Result& result);

/// cluster.*: `rounds` sharded builds of `input` over four in-process
/// ranks (the sharded-dpi build path).
ClusterLayer cluster_layer(const tinge::ExpressionMatrix& input,
                           const tinge::TingeConfig& config, int rounds);

/// What a serve session leaves for the other layer metrics.
struct ServeSession {
  tinge::EngineStats build_stats;  ///< the daemon's startup sweep
  double network_build_s = 0.0;    ///< ServeState construction
  tinge::GeneNetwork network;
  double pool_busy_share = 0.0;    ///< sweep pool, while serving
  double trace_overhead_share = 0.0;
  double span_coverage = 0.0;  ///< client spans / scheduled-to-reply time
};

/// query.*, serve.* and loadgen.*: a serve session on `input` at the
/// serve-zipf base rate, with client-side spans on alternate kind cycles,
/// replaying the plan's query stream; then ping, connect and per-connection
/// address-space probes. Served answers go through the oracle (`inject` as
/// RunOptions::inject).
ServeSession serve_layer_probe(const tinge::ExpressionMatrix& input,
                               const tinge::TingeConfig& config,
                               const Plan& plan, double seconds,
                               const std::string& inject, Result& result);

}  // namespace perfbench
