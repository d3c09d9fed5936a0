// e1-slice and sharded-dpi.
//
// Untraced run: set up (load the generated file, construct the builder),
// then build back to back for the run's seconds (at least three builds);
// every build must match the first bit for bit and the oracle.
//
// Traced run: alternates untraced NetworkBuilder builds with a replay of the
// same pipeline from public stage calls, once with each call wrapped in an
// obs::Trace span and once without, and probes the layers the workload does
// not cross.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "cluster/sharded_pipeline.h"
#include "cluster/transport.h"
#include "core/dpi.h"
#include "core/mi_engine.h"
#include "core/network_builder.h"
#include "core/null_distribution.h"
#include "data/binary_io.h"
#include "graph/graph_io.h"
#include "mi/bspline_mi.h"
#include "obs/trace.h"
#include "oracle.h"
#include "parallel/thread_pool.h"
#include "preprocess/filter.h"
#include "util/str.h"
#include "workloads.h"

namespace perfbench {

using tinge::strprintf;
namespace cl = tinge::cluster;

tinge::TingeConfig workload_config(Workload workload, const Plan& plan,
                                   int threads) {
  tinge::TingeConfig config;
  config.threads = threads;
  config.estimator = tinge::EstimatorKind::Bspline;
  config.permutations = 2000;
  config.alpha = 1e-3;
  config.seed = plan.config_seed;
  config.apply_dpi = workload == Workload::ShardedDpi;
  config.cluster_ranks = workload == Workload::ShardedDpi ? 4 : 0;
  return config;
}

namespace {

/// Wall-clock ceiling for one batch build counted by slo_share: ten times
/// what either batch workload takes on a 4-core host.
constexpr double kBatchLimitSeconds = 60.0;

/// Setups timed per untraced run; one costs 5-20 ms, and setup_s is
/// their median.
constexpr std::size_t kSetups = 41;

cl::ShardedBuildResult sharded_once(cl::Cluster& cluster,
                                    const tinge::ExpressionMatrix& input,
                                    const tinge::TingeConfig& config) {
  cl::ShardedBuildResult out;
  cluster.run([&](cl::Comm& comm) {
    cl::ShardedBuildResult mine = cl::sharded_build(comm, input, config);
    if (comm.rank() == 0) out = std::move(mine);
  });
  return out;
}

ClusterLayer layer_of(const cl::ShardedBuildResult& build) {
  const cl::ClusterStats& stats = build.cluster;
  ClusterLayer layer;
  layer.seconds = build.seconds;
  layer.bytes_per_pair =
      build.pairs_total > 0 ? static_cast<double>(stats.bytes_transferred) /
                                  static_cast<double>(build.pairs_total)
                            : 0.0;
  layer.messages = static_cast<double>(stats.messages);
  double busy = 0.0;
  for (const double b : stats.busy_seconds_per_rank) busy += b;
  if (!stats.busy_seconds_per_rank.empty() && build.seconds > 0.0)
    layer.busy_share = busy / static_cast<double>(stats.busy_seconds_per_rank.size()) /
                       build.seconds;
  layer.imbalance = stats.imbalance();
  return layer;
}

ClusterLayer median_layer(const std::vector<ClusterLayer>& layers) {
  const auto med = [&](double ClusterLayer::*field) {
    std::vector<double> values;
    for (const ClusterLayer& layer : layers) values.push_back(layer.*field);
    return median(values);
  };
  ClusterLayer out;
  out.seconds = med(&ClusterLayer::seconds);
  out.bytes_per_pair = med(&ClusterLayer::bytes_per_pair);
  out.messages = med(&ClusterLayer::messages);
  out.busy_share = med(&ClusterLayer::busy_share);
  out.imbalance = med(&ClusterLayer::imbalance);
  return out;
}

tinge::TingeConfig single_process(tinge::TingeConfig config) {
  config.cluster_ranks = 0;
  return config;
}

/// One build of the workload as a user runs it, with what it resolved.
struct Build {
  tinge::GeneNetwork network;
  double seconds = 0.0;
  double threshold = 0.0;
  obs::Json resolved = obs::Json::object();
};

}  // namespace

ClusterLayer cluster_layer(const tinge::ExpressionMatrix& input,
                           const tinge::TingeConfig& config, int rounds) {
  tinge::TingeConfig sharded = config;
  sharded.cluster_ranks = 4;
  const auto cluster = cl::make_cluster(cl::TransportKind::InProcess, 4);
  std::vector<ClusterLayer> layers;
  for (int round = 0; round < rounds; ++round)
    layers.push_back(layer_of(sharded_once(*cluster, input, sharded)));
  return median_layer(layers);
}

namespace {

void run_untraced(const RunOptions& options, const Plan& plan,
                  const tinge::TingeConfig& config, Result& result) {
  const bool sharded = options.workload == Workload::ShardedDpi;

  // Setup: load the generated file and construct the builder. Timed once
  // here and kSetups - 1 more times after peak_rss_mb is read, since
  // reloading the matrix grows the heap and would inflate it. Each reload
  // starts from a trimmed heap, so it faults its pages in as a fresh
  // process does.
  std::vector<double> setups;
  tinge::ExpressionMatrix input;
  std::unique_ptr<tinge::NetworkBuilder> builder;
  std::unique_ptr<cl::Cluster> cluster;
  const auto setup = [&] {
    input = {};
    builder.reset();
    cluster.reset();
    malloc_trim(0);
    const double start = now_seconds();
    input = tinge::read_expression_binary_file(options.expression_path);
    if (sharded)
      cluster = cl::make_cluster(cl::TransportKind::InProcess,
                                 config.cluster_ranks);
    else
      builder = std::make_unique<tinge::NetworkBuilder>(config);
    setups.push_back(now_seconds() - start);
  };
  setup();

  const auto build = [&]() {
    Build out;
    const double start = now_seconds();
    if (sharded) {
      cl::ShardedBuildResult r = sharded_once(*cluster, input, config);
      out.seconds = now_seconds() - start;
      out.network = std::move(r.network);
      out.threshold = r.threshold;
      out.resolved["ranks"] = r.cluster.ranks;
      out.resolved["bytes_transferred"] = r.cluster.bytes_transferred;
      out.resolved["messages"] = r.cluster.messages;
      out.resolved["pairs"] = r.pairs_total;
      out.resolved["dpi_edges_removed"] = r.dpi_stats.edges_removed;
    } else {
      tinge::BuildResult r = builder->build(input);
      out.seconds = now_seconds() - start;
      out.network = std::move(r.network);
      out.threshold = r.threshold;
      out.resolved["kernel"] = r.engine.kernel;
      out.resolved["panel_width"] = r.engine.panel_width;
      out.resolved["tile_size"] = builder->config().tile_size;
      out.resolved["threads"] = r.pool_busy_seconds.size();
      out.resolved["pairs"] = r.engine.pairs_computed;
      out.resolved["sweep_pairs_per_s"] =
          r.engine.seconds > 0.0
              ? static_cast<double>(r.engine.pairs_computed) / r.engine.seconds
              : 0.0;
    }
    out.resolved["seconds"] = out.seconds;
    out.resolved["edges"] = out.network.n_edges();
    return out;
  };

  const double deadline = now_seconds() + options.seconds;
  Build first;
  std::vector<double> seconds;
  std::vector<bool> identical;
  obs::Json builds = obs::Json::array();
  while (seconds.size() < 3 || now_seconds() < deadline) {
    Build b = build();
    std::string line;
    for (const auto& [key, value] : b.resolved.members())
      line += " " + key + "=" +
              (value.is_string() ? value.as_string()
                                 : tinge::strprintf("%.6g", value.as_double()));
    std::fprintf(stderr, "  build %zu:%s\n", seconds.size() + 1, line.c_str());
    seconds.push_back(b.seconds);
    builds.push_back(b.resolved);
    if (seconds.size() == 1) {
      identical.push_back(true);
      first = std::move(b);
      // Self-test: the first build, which every other check reads, is
      // wrong; the later ones then differ from it as well.
      if (options.inject == "corrupt-network")
        first.network = corrupted(first.network);
    } else {
      identical.push_back(same_edges(b.network, first.network));
    }
  }
  const double peak_rss = proc_status_mib("VmHWM");
  while (setups.size() < kSetups) setup();

  // Oracle. A check on the first network speaks for every build identical
  // to it.
  std::size_t differing = 0;
  for (const bool same : identical) differing += same ? 0 : 1;
  result.check("builds_bit_identical", differing == 0,
               strprintf("%zu of %zu builds differ from the first", differing,
                         identical.size()));
  bool first_ok = true;
  if (sharded) {
    const tinge::BuildResult local =
        tinge::NetworkBuilder(single_process(config)).build(input);
    const bool same =
        edge_list_bytes(local.network) == edge_list_bytes(first.network);
    result.check("sharded_equals_one_process", same,
                 strprintf("%zu vs %zu edges", first.network.n_edges(),
                           local.network.n_edges()));
    first_ok = first_ok && same;
    // The ranks report no kernel, but Auto resolves once per process (during
    // the first sharded build), so the reference build shows what they ran.
    obs::Json resolved = obs::Json::object();
    resolved["kernel"] = local.engine.kernel;
    resolved["panel_width"] = local.engine.panel_width;
    resolved["tile_size"] = config.tile_size;
    resolved["ranks"] = config.cluster_ranks;
    std::fprintf(stderr, "  resolved in this process: kernel=%s panel=%d\n",
                 local.engine.kernel, local.engine.panel_width);
    result.detail()["resolved"] = std::move(resolved);
  }
  Reference reference(input, config);
  const PairVerdict pairs =
      check_pairs(first.network, first.threshold, plan.check_pairs,
                  plan.edge_picks, !config.apply_dpi, reference);
  result.check("pairs_match_per_pair_mi", pairs.wrong == 0,
               strprintf("%zu checked, %zu wrong%s%s", pairs.checked,
                         pairs.wrong, pairs.first_problem.empty() ? "" : ": ",
                         pairs.first_problem.c_str()));
  first_ok = first_ok && pairs.wrong == 0;

  std::size_t failed = 0, within = 0;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    const bool ok = first_ok && identical[i];
    failed += ok ? 0 : 1;
    if (ok && seconds[i] <= kBatchLimitSeconds) ++within;
  }
  result.operations(seconds.size(), failed);

  // A run holds a handful of builds: too few for any tail percentile (one
  // needs ten samples beyond it), so query_p99_ms repeats the median.
  const double build_s = median(seconds);
  const double slo_share =
      static_cast<double>(within) / static_cast<double>(seconds.size());
  result.metric("setup_s", "s", median(setups));
  result.metric("build_s", "s", build_s);
  result.metric("peak_rss_mb", "MiB", peak_rss);
  result.metric("query_p50_ms", "ms", build_s * 1e3);
  result.metric("query_p99_ms", "ms", build_s * 1e3);
  result.metric("slo_share", "share", slo_share);
  result.metric("max_qps_at_slo", "1/s", slo_share / build_s);
  result.detail()["builds"] = std::move(builds);
  result.detail()["setup_seconds"] = obs::Json::array();
  for (const double s : setups) result.detail()["setup_seconds"].push_back(s);
}

/// A span of `trace` when tracing, nothing otherwise.
class OptionalSpan {
 public:
  OptionalSpan(obs::Trace* trace, const char* name) {
    if (trace != nullptr) span_.emplace(*trace, name);
  }

 private:
  std::optional<obs::TraceSpan> span_;
};

/// The pipeline replayed from public stage calls, one span per call when
/// traced.
struct Replay {
  tinge::GeneNetwork network;  ///< final (after DPI when configured)
  tinge::GeneNetwork swept;    ///< before DPI
  tinge::EngineStats engine;
  obs::Trace trace;
  double build_seconds = 0.0;  ///< matrix in memory -> final network
  double pool_busy_share = 0.0;
};

void replay(const std::string& path, const std::string& out_path,
            const tinge::TingeConfig& config, bool traced, Replay& r) {
  obs::Trace* trace = traced ? &r.trace : nullptr;
  tinge::ExpressionMatrix working;
  {
    const OptionalSpan span(trace, "read");
    working = tinge::read_expression_binary_file(path);
  }
  const double start = now_seconds();
  tinge::par::ThreadPool pool(config.threads);
  tinge::RankedMatrix ranked;
  {
    const OptionalSpan span(trace, "preprocess");
    {
      const OptionalSpan impute(trace, "impute");
      tinge::impute_missing_with_median(working);
    }
    {
      const OptionalSpan filter(trace, "filter");
      working = tinge::filter_genes(working, config.filter).matrix;
    }
    const OptionalSpan rank(trace, "rank");
    ranked = tinge::RankedMatrix(working);
  }
  std::unique_ptr<tinge::BsplineMi> estimator;
  {
    const OptionalSpan span(trace, "weight_table");
    estimator = std::make_unique<tinge::BsplineMi>(
        config.bins, config.spline_order, ranked.n_samples());
  }
  std::unique_ptr<tinge::EmpiricalDistribution> null;
  {
    const OptionalSpan span(trace, "null");
    null = std::make_unique<tinge::EmpiricalDistribution>(
        tinge::build_null_distribution(*estimator, config.permutations,
                                       config.seed, pool, config.threads));
  }
  double threshold = 0.0;
  {
    const OptionalSpan span(trace, "threshold");
    threshold = tinge::threshold_for_alpha(*null, config.alpha);
  }
  {
    const OptionalSpan span(trace, "mi_sweep");
    const tinge::MiEngine engine(*estimator, ranked);
    r.swept = engine.compute_network(threshold, config, pool, &r.engine);
  }
  if (config.apply_dpi) {
    const OptionalSpan span(trace, "dpi");
    r.network = tinge::apply_dpi(r.swept, config.dpi_tolerance);
  } else {
    r.network = r.swept;
  }
  r.build_seconds = now_seconds() - start;
  double busy = 0.0;
  for (const double b : pool.busy_seconds_all()) busy += b;
  r.pool_busy_share = busy / (config.threads * pool.lifetime_seconds());
  {
    const OptionalSpan span(trace, "write");
    tinge::write_edge_list_file(r.network, out_path);
  }
  r.trace.finish();
}

/// Sum of the top-level build stages (everything but read and write).
double stage_sum(const obs::Trace& trace) {
  double sum = 0.0;
  for (const auto& child : trace.root().children)
    if (child->name != "read" && child->name != "write") sum += child->seconds;
  return sum;
}

void run_traced(const RunOptions& options, const Plan& plan,
                const tinge::TingeConfig& config, Result& result) {
  const bool sharded = options.workload == Workload::ShardedDpi;
  const tinge::ExpressionMatrix input =
      tinge::read_expression_binary_file(options.expression_path);
  const tinge::NetworkBuilder builder(single_process(config));
  const auto cluster =
      cl::make_cluster(cl::TransportKind::InProcess, config.cluster_ranks > 0
                                                         ? config.cluster_ranks
                                                         : 4);
  const std::string out_path = options.work_dir + "/replay_edges.tsv";

  std::vector<double> untraced, traced, replayed_plain, sums, sweep_share,
      busy, read_s, rank_s, engine_rate, tile_ratio, fill;
  std::vector<ClusterLayer> layers;
  std::size_t mismatches = 0, rounds = 0;
  tinge::GeneNetwork swept;
  const double deadline = now_seconds() + options.seconds;
  // At least two rounds; another only while it fits before the deadline.
  double round_seconds = 0.0;
  while (rounds < 2 || now_seconds() + round_seconds < deadline) {
    const double round_start = now_seconds();
    ++rounds;
    tinge::GeneNetwork sharded_network;
    if (sharded) {
      cl::ShardedBuildResult b = sharded_once(*cluster, input, config);
      layers.push_back(layer_of(b));
      sharded_network = std::move(b.network);
    }
    const double start = now_seconds();
    const tinge::BuildResult built = builder.build(input);
    untraced.push_back(now_seconds() - start);

    // The same replay with and without spans, in alternating order, so
    // their difference is what the spans cost.
    Replay r, plain;
    if (rounds % 2 == 1) {
      replay(options.expression_path, out_path, config, true, r);
      replay(options.expression_path, out_path, config, false, plain);
    } else {
      replay(options.expression_path, out_path, config, false, plain);
      replay(options.expression_path, out_path, config, true, r);
    }
    traced.push_back(r.build_seconds);
    replayed_plain.push_back(plain.build_seconds);
    sums.push_back(stage_sum(r.trace));
    const double sweep = obs::span_seconds(r.trace.root(), "mi_sweep");
    sweep_share.push_back(sweep / r.build_seconds);
    busy.push_back(r.pool_busy_share);
    read_s.push_back(obs::span_seconds(r.trace.root(), "read"));
    rank_s.push_back(obs::span_seconds(r.trace.root(), "rank"));
    engine_rate.push_back(static_cast<double>(r.engine.pairs_computed) /
                          r.engine.seconds);
    if (r.engine.tile_seconds_p50 > 0.0)
      tile_ratio.push_back(r.engine.tile_seconds_p95 / r.engine.tile_seconds_p50);
    fill.push_back(r.engine.panel_fill_ratio());

    tinge::GeneNetwork replayed = std::move(r.network);
    if (options.inject == "corrupt-network") replayed = corrupted(replayed);
    bool same = same_edges(replayed, built.network) &&
                same_edges(plain.network, built.network);
    if (sharded)
      same = same && edge_list_bytes(sharded_network) ==
                         edge_list_bytes(built.network);
    mismatches += same ? 0 : 1;
    if (rounds == 1) {
      std::fprintf(stderr, "%s", obs::format_trace(r.trace.root()).c_str());
      obs::Json resolved = obs::Json::object();
      resolved["kernel"] = r.engine.kernel;
      resolved["panel_width"] = r.engine.panel_width;
      resolved["tile_size"] = config.tile_size;
      resolved["threads"] = r.engine.tiles_per_thread.size();
      result.detail()["resolved"] = std::move(resolved);
      swept = std::move(r.swept);
    }
    round_seconds = now_seconds() - round_start;
  }
  result.check("replay_equals_build", mismatches == 0,
               strprintf("%zu of %zu rounds differ", mismatches, rounds));
  result.operations(rounds, mismatches);

  const double build_s = median(untraced);
  const double stage_share = median(sums) / build_s;
  result.detail()["untraced_build_s"] = build_s;
  result.detail()["replay_build_s"] = median(replayed_plain);
  result.detail()["traced_replay_build_s"] = median(traced);
  // Stated tolerance: the stage spans must cover build_s within 10 %.
  if (std::abs(1.0 - stage_share) > 0.10)
    result.detail()["finding"] = strprintf(
        "stage spans sum to %.1f%% of the untraced build_s; the gap is time "
        "no stage call accounts for",
        100.0 * stage_share);

  const tinge::ExpressionMatrix slice =
      first_genes(input, probe_genes(input.n_genes(), input.n_samples()));
  const tinge::RankedMatrix slice_ranks = ranked_input(slice, config);
  probe_mi(slice_ranks, config, result);
  result.metric("engine.pairs_per_s", "1/s", median(engine_rate));
  probe_thread_scaling(slice_ranks, config, result);
  result.metric("engine.tile_p95_over_p50", "ratio", median(tile_ratio));
  result.metric("engine.panel_fill", "share", median(fill));
  result.metric("engine.sweep_share", "share", median(sweep_share));
  result.metric("pool.busy_share", "share", median(busy));
  result.metric("preprocess.rank_s", "s", median(rank_s));
  result.metric("data.load_mb_per_s", "MiB/s",
                file_mib(options.expression_path) / median(read_s));
  probe_dpi(swept, config, result);
  report_cluster(sharded ? median_layer(layers) : cluster_layer(slice, config, 3),
                 result);
  // The daemon serves the thresholded network without DPI.
  tinge::TingeConfig serve_config = single_process(config);
  serve_config.apply_dpi = false;
  serve_layer_probe(slice, serve_config, plan, std::min(3.0, options.seconds),
                    "", result);
  result.metric("trace.overhead_share", "share",
                median(traced) / median(replayed_plain) - 1.0);
  result.metric("trace.stage_sum_share", "share", stage_share);
}

}  // namespace

void run_batch(const RunOptions& options, const Plan& plan, Result& result) {
  const tinge::TingeConfig config =
      workload_config(options.workload, plan, options.threads);
  if (options.trace)
    run_traced(options, plan, config, result);
  else
    run_untraced(options, plan, config, result);
}

}  // namespace perfbench
