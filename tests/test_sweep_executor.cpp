// The unified sweep executor (core/sweep.h): every scheduler x sink
// configuration the engine can assemble — flat, teamed, NUMA node queues,
// checkpointed with resume (under either scheduler) and dense — must
// produce byte-identical results on the same input, for every kernel
// variant; and the panel plan feeding it must be static.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/mi_engine.h"
#include "core/sweep.h"
#include "stats/rng.h"
#include "util/contracts.h"
#include "util/timer.h"

namespace tinge {
namespace {

RankedMatrix random_ranked(std::size_t genes, std::size_t samples,
                           std::uint64_t seed) {
  ExpressionMatrix matrix(genes, samples);
  Xoshiro256 rng(seed);
  for (std::size_t s = 0; s < samples; ++s) {
    const double regulator = rng.normal();
    for (std::size_t g = 0; g < genes; ++g) {
      matrix.at(g, s) = static_cast<float>(
          g < genes / 4 ? regulator + 0.5 * rng.normal() : rng.normal());
    }
  }
  return RankedMatrix(matrix);
}

class SweepExecutorTest : public ::testing::TestWithParam<MiKernel> {
 protected:
  static constexpr std::size_t kGenes = 30;
  static constexpr std::size_t kSamples = 80;
  static constexpr double kThreshold = 0.2;

  SweepExecutorTest() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(123);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix.at(g, s) = static_cast<float>(
            g < 8 ? driver + 0.5 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix);
    dir_ = std::filesystem::temp_directory_path() /
           ("tingex_sweep_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~SweepExecutorTest() override { std::filesystem::remove_all(dir_); }

  TingeConfig config(int team_size = 1) const {
    TingeConfig c;
    c.tile_size = 8;
    c.threads = 2;
    c.team_size = team_size;
    c.kernel = GetParam();
    c.progress_tile_interval = 1;  // failure injection needs per-tile calls
    return c;
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void expect_identical(const GeneNetwork& a, const GeneNetwork& b) {
    ASSERT_EQ(a.n_edges(), b.n_edges());
    for (std::size_t i = 0; i < a.n_edges(); ++i)
      EXPECT_EQ(a.edges()[i], b.edges()[i]);
  }

  BsplineMi estimator_;
  RankedMatrix ranked_;
  std::filesystem::path dir_;
};

TEST_P(SweepExecutorTest, EverySchedulerAndSinkConfigurationAgrees) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(2);

  const GeneNetwork plain =
      engine.compute_network(kThreshold, config(), pool);
  ASSERT_GT(plain.n_edges(), 0u);

  // Teamed scheduler, via the config knob and via the named entry point.
  expect_identical(plain,
                   engine.compute_network(kThreshold, config(2), pool));
  expect_identical(
      plain, engine.compute_network_teamed(kThreshold, config(), pool, 2));

  // Journal sink, fresh run, under both schedulers.
  expect_identical(plain, engine.compute_network_checkpointed(
                              kThreshold, config(), pool, path("flat.ckpt")));
  expect_identical(plain,
                   engine.compute_network_checkpointed(
                       kThreshold, config(2), pool, path("teamed.ckpt")));
}

TEST_P(SweepExecutorTest, DenseMatrixReproducesThresholdedEdgeSet) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(2);

  const GeneNetwork plain =
      engine.compute_network(kThreshold, config(), pool);
  const std::vector<float> dense = engine.compute_dense(config(), pool);

  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < kGenes; ++i) {
    for (std::uint32_t j = i + 1; j < kGenes; ++j) {
      const float mi = dense[i * kGenes + j];
      EXPECT_EQ(mi, dense[j * kGenes + i]);
      if (mi >= static_cast<float>(kThreshold)) edges.push_back({i, j, mi});
    }
  }
  ASSERT_EQ(edges.size(), plain.n_edges());
  for (std::size_t e = 0; e < edges.size(); ++e)
    EXPECT_EQ(edges[e], plain.edges()[e]);
}

TEST_P(SweepExecutorTest, ResumeAgreesUnderEitherScheduler) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(2);
  const GeneNetwork expected =
      engine.compute_network(kThreshold, config(), pool);

  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected") {}
  };
  const auto crash_after_three = [](std::size_t done, std::size_t) {
    if (done >= 3) throw InjectedCrash();
  };

  // Crash under the flat scheduler, resume under the teamed one.
  EXPECT_THROW(engine.compute_network_checkpointed(kThreshold, config(), pool,
                                                   path("cross.ckpt"), nullptr,
                                                   crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("cross.ckpt")));
  EngineStats teamed_stats;
  expect_identical(expected, engine.compute_network_checkpointed(
                                 kThreshold, config(2), pool,
                                 path("cross.ckpt"), &teamed_stats));
  EXPECT_GT(teamed_stats.tiles_resumed, 0u);
  EXPECT_EQ(teamed_stats.pairs_computed, kGenes * (kGenes - 1) / 2);

  // Crash under the teamed scheduler, resume under the flat one — the
  // journal is scheduler-agnostic in both directions.
  EXPECT_THROW(engine.compute_network_checkpointed(kThreshold, config(2), pool,
                                                   path("back.ckpt"), nullptr,
                                                   crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("back.ckpt")));
  EngineStats flat_stats;
  expect_identical(expected,
                   engine.compute_network_checkpointed(kThreshold, config(),
                                                       pool, path("back.ckpt"),
                                                       &flat_stats));
  EXPECT_GT(flat_stats.tiles_resumed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, SweepExecutorTest,
                         ::testing::Values(MiKernel::Scalar,
                                           MiKernel::Unrolled, MiKernel::Auto),
                         [](const auto& param_info) {
                           return std::string(kernel_name(param_info.param));
                         });

// ---- static panel planning --------------------------------------------------

TEST(PanelPlanning, DefaultPlanIsSimdAndIdenticalOnEveryCall) {
  const TingeConfig config;
  for (const std::size_t m : {std::size_t{256}, std::size_t{3137}}) {
    for (const int order : {3, 6}) {
      const BsplineMi estimator(10, order, m);
      const PanelPlan first = plan_panels(estimator, config);
      EXPECT_EQ(first.kernel, MiKernel::Simd) << "m=" << m << " k=" << order;
      EXPECT_STREQ(first.name, "simd");
      EXPECT_EQ(first.width, auto_panel_width(estimator.table()));
      for (int call = 0; call < 5; ++call) {
        const PanelPlan again = plan_panels(estimator, config);
        EXPECT_EQ(again.kernel, first.kernel);
        EXPECT_EQ(again.width, first.width);
        EXPECT_STREQ(again.name, first.name);
        EXPECT_STREQ(again.stat_name, first.stat_name);
      }
    }
  }
}

TEST(PanelPlanning, PlanningRunsNoMicrobenchmark) {
  // A planner that timed candidate kernels would spend dozens of panel
  // sweeps on every table shape it had not seen before. Planning a batch
  // of fresh shapes must instead cost less than a single panel sweep: the
  // fastest plan call is compared against the fastest of ten sweeps on
  // the same host, which keeps the check independent of machine speed.
  constexpr std::size_t kM = 3137;
  std::vector<std::unique_ptr<BsplineMi>> shapes;
  for (int bins = 10; bins < 26; ++bins)
    shapes.push_back(std::make_unique<BsplineMi>(bins, 3, kM));
  double fastest_plan = 1e9;
  for (const auto& estimator : shapes) {
    const Stopwatch watch;
    const PanelPlan plan = plan_panels(*estimator, TingeConfig{});
    fastest_plan = std::min(fastest_plan, watch.seconds());
    EXPECT_EQ(plan.kernel, MiKernel::Simd);
  }

  const BsplineMi& estimator = *shapes.front();
  Xoshiro256 rng(99);
  std::vector<std::vector<std::uint32_t>> rows;
  for (int g = 0; g <= kMaxPanelWidth; ++g)
    rows.push_back(random_permutation(kM, rng));
  const std::uint32_t* ry[kMaxPanelWidth];
  for (std::size_t p = 0; p < static_cast<std::size_t>(kMaxPanelWidth); ++p)
    ry[p] = rows[p + 1].data();
  JointHistogram scratch = estimator.make_scratch();
  double mi[kMaxPanelWidth];
  double fastest_sweep = 1e9;
  for (int round = 0; round < 10; ++round) {
    const Stopwatch watch;
    estimator.mi_panel(rows[0], ry, kMaxPanelWidth, scratch, MiKernel::Simd,
                       mi);
    fastest_sweep = std::min(fastest_sweep, watch.seconds());
  }
  EXPECT_LT(fastest_plan, fastest_sweep);
}

TEST(PanelPlanning, DefaultEnginePassReportsSimd) {
  const RankedMatrix ranked = random_ranked(20, 64, 41);
  const BsplineMi estimator(10, 3, 64);
  const MiEngine engine(estimator, ranked);
  par::ThreadPool pool(2);
  EngineStats stats;
  engine.compute_network(0.2, TingeConfig{}, pool, &stats);
  EXPECT_STREQ(stats.kernel, "simd");
}

// ---- NUMA tile plan and node-queue scheduler -------------------------------

TEST(NumaPlan, GenePartitionIsContiguousAndBalanced) {
  // 2-node split of 10 genes: first half node 0, second half node 1.
  for (std::size_t g = 0; g < 5; ++g)
    EXPECT_EQ(numa_node_of_gene(g, 10, 2), 0) << g;
  for (std::size_t g = 5; g < 10; ++g)
    EXPECT_EQ(numa_node_of_gene(g, 10, 2), 1) << g;
  // Degenerate shapes fall back to node 0.
  EXPECT_EQ(numa_node_of_gene(3, 10, 1), 0);
  EXPECT_EQ(numa_node_of_gene(0, 0, 4), 0);
  // The last gene always lands on the last node (clamped, never out of
  // range even with rounding).
  EXPECT_EQ(numa_node_of_gene(9, 10, 3), 2);
}

TEST(NumaPlan, TilesFollowTheirFirstRowGene) {
  const SweepPlan plan = SweepPlan::triangular(0, 32, 8);
  const NumaTilePlan numa = make_numa_tile_plan(plan, 32, 2, 4);
  ASSERT_EQ(numa.nodes, 2);
  ASSERT_EQ(numa.tile_node.size(), plan.count());
  for (std::size_t t = 0; t < plan.count(); ++t)
    EXPECT_EQ(numa.tile_node[t],
              numa_node_of_gene(plan.tile(t).row_begin, 32, 2))
        << "tile " << t;
  ASSERT_EQ(numa.thread_node.size(), 4u);
  EXPECT_EQ(numa.thread_node[0], 0);
  EXPECT_EQ(numa.thread_node[1], 0);
  EXPECT_EQ(numa.thread_node[2], 1);
  EXPECT_EQ(numa.thread_node[3], 1);
  // No layout supplied: contexts can only use the tid-block fallback.
  EXPECT_TRUE(numa.cpu_node.empty());
}

TEST(NumaPlan, AdoptsCpuTableOnlyWhenLayoutMatchesPlanNodes) {
  const SweepPlan plan = SweepPlan::triangular(0, 32, 8);
  par::NumaLayout layout;
  layout.nodes = 2;
  layout.cpu_node = {0, 0, 1, 1};
  // Matching node count: the cpu->node table rides along so sweep contexts
  // can resolve their home from the CPU they actually run on.
  const NumaTilePlan matched = make_numa_tile_plan(plan, 32, 2, 4, &layout);
  EXPECT_EQ(matched.cpu_node, layout.cpu_node);
  // Synthetic plan nodes != detected nodes: the table describes a different
  // node space and must be dropped in favor of the tid-block fallback.
  const NumaTilePlan synthetic = make_numa_tile_plan(plan, 32, 4, 4, &layout);
  EXPECT_TRUE(synthetic.cpu_node.empty());
}

TEST(NumaScheduler, NodeQueueSweepIsBitIdenticalAndWorkConserving) {
  // Drive run_sweep directly with a synthetic 2-node plan (the test host
  // may have one node): the node-queue scheduler must claim every tile
  // exactly once and produce the same edges as the shared-queue path.
  constexpr std::size_t kGenes = 40;
  constexpr std::size_t kSamples = 64;
  const RankedMatrix ranked = random_ranked(kGenes, kSamples, 23);
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const SweepPlan plan = SweepPlan::triangular(0, kGenes, 8);
  const PanelPlan panels = plan_panels(estimator, TingeConfig{});
  const auto row = [&ranked](std::size_t g) {
    return ranked.ranks(g).data();
  };
  par::ThreadPool pool(4);

  SweepOptions flat;
  flat.threads = 4;
  EdgeSink flat_sink(0.2, 4);
  const auto flat_counters =
      run_sweep(plan, statistic, row, panels, &pool, flat, flat_sink);
  const std::vector<Edge> flat_edges = [&] {
    std::vector<Edge> edges = flat_sink.take_all();
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    return edges;
  }();
  ASSERT_GT(flat_edges.size(), 0u);

  const NumaTilePlan numa = make_numa_tile_plan(plan, kGenes, 2, 4);
  SweepOptions with_numa = flat;
  with_numa.numa = &numa;
  EdgeSink numa_sink(0.2, 4);
  const auto numa_counters =
      run_sweep(plan, statistic, row, panels, &pool, with_numa, numa_sink);
  std::vector<Edge> numa_edges = numa_sink.take_all();
  std::sort(numa_edges.begin(), numa_edges.end(),
            [](const Edge& a, const Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });

  ASSERT_EQ(numa_edges.size(), flat_edges.size());
  for (std::size_t i = 0; i < flat_edges.size(); ++i)
    EXPECT_EQ(numa_edges[i], flat_edges[i]);

  // Work conservation: every tile claimed exactly once, and the local/
  // stolen split accounts for all of them.
  std::uint64_t tiles = 0, local = 0, stolen = 0, pairs = 0;
  for (const SweepCounters& c : numa_counters) {
    tiles += c.tiles;
    local += c.tiles_local;
    stolen += c.tiles_stolen;
    pairs += c.pairs;
  }
  EXPECT_EQ(tiles, plan.count());
  EXPECT_EQ(local + stolen, tiles);
  EXPECT_EQ(pairs, plan.total_pairs());
  // The flat path must not report NUMA claims.
  for (const SweepCounters& c : flat_counters) {
    EXPECT_EQ(c.tiles_local, 0u);
    EXPECT_EQ(c.tiles_stolen, 0u);
  }
}

TEST(NumaScheduler, EngineNumaKnobDoesNotChangeTheNetwork) {
  // On any host (1 node or many) forcing the knob on/off must not change
  // the result — only the tile claim order may differ.
  const RankedMatrix ranked = random_ranked(26, 80, 17);
  const BsplineMi estimator(10, 3, 80);
  const MiEngine engine(estimator, ranked);
  par::ThreadPool pool(4);

  TingeConfig off;
  off.threads = 4;
  off.tile_size = 8;
  off.numa = KnobMode::Off;
  TingeConfig on = off;
  on.numa = KnobMode::On;

  const GeneNetwork base = engine.compute_network(0.2, off, pool);
  const GeneNetwork with_numa = engine.compute_network(0.2, on, pool);
  ASSERT_EQ(with_numa.n_edges(), base.n_edges());
  for (std::size_t i = 0; i < base.n_edges(); ++i)
    EXPECT_EQ(with_numa.edges()[i], base.edges()[i]);
}

// ---- teamed-mode contract ---------------------------------------------------

TEST(SweepTeamValidation, RejectsTeamSizeNotDividingPoolWidth) {
  ExpressionMatrix matrix(12, 48);
  Xoshiro256 rng(7);
  for (std::size_t g = 0; g < 12; ++g)
    for (std::size_t s = 0; s < 48; ++s)
      matrix.at(g, s) = static_cast<float>(rng.normal());
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(10, 3, 48);
  const MiEngine engine(estimator, ranked);
  par::ThreadPool pool(4);
  TingeConfig config;
  config.threads = 4;

  try {
    engine.compute_network_teamed(0.2, config, pool, 3);
    FAIL() << "team_size 3 over 4 threads must be rejected";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("team_size 3"), std::string::npos) << message;
    EXPECT_NE(message.find("divide"), std::string::npos) << message;
  }
  // Same rejection through the config knob.
  config.team_size = 3;
  EXPECT_THROW(engine.compute_network(0.2, config, pool), ContractViolation);
}

TEST(SweepTeamValidation, TeamSizeEqualToPoolWidthIsOneTeam) {
  ExpressionMatrix matrix(20, 64);
  Xoshiro256 rng(11);
  for (std::size_t s = 0; s < 64; ++s) {
    const double driver = rng.normal();
    for (std::size_t g = 0; g < 20; ++g)
      matrix.at(g, s) = static_cast<float>(
          g < 6 ? driver + 0.5 * rng.normal() : rng.normal());
  }
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(10, 3, 64);
  const MiEngine engine(estimator, ranked);
  par::ThreadPool pool(4);
  TingeConfig config;
  config.threads = 4;
  config.tile_size = 8;

  const GeneNetwork plain = engine.compute_network(0.2, config, pool);
  EngineStats stats;
  const GeneNetwork one_team =
      engine.compute_network_teamed(0.2, config, pool, 4, &stats);
  ASSERT_EQ(plain.n_edges(), one_team.n_edges());
  for (std::size_t i = 0; i < plain.n_edges(); ++i)
    EXPECT_EQ(plain.edges()[i], one_team.edges()[i]);
  EXPECT_EQ(stats.pairs_computed, 20u * 19u / 2u);
}

// ---- cancellation -----------------------------------------------------------

class SweepCancellationTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 24;
  static constexpr std::size_t kSamples = 64;

  SweepCancellationTest() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(5);
    for (std::size_t g = 0; g < kGenes; ++g)
      for (std::size_t s = 0; s < kSamples; ++s)
        matrix.at(g, s) = static_cast<float>(rng.normal());
    ranked_ = RankedMatrix(matrix);
  }

  auto row_source() const {
    return [this](std::size_t g) { return ranked_.ranks(g).data(); };
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
};

TEST_F(SweepCancellationTest, FlatSchedulerAbortsBeforeClaimingTiles) {
  // A pre-tripped flag must abort before any tile is computed.
  const SweepPlan plan = SweepPlan::triangular(0, kGenes, 8);
  const PanelPlan panels = plan_panels(estimator_, TingeConfig{});
  const std::atomic<bool> cancel{true};
  SweepOptions options;
  options.cancel = &cancel;
  EdgeSink sink(0.0, /*contexts=*/1);
  const auto row = row_source();
  EXPECT_THROW(
      run_sweep(plan, statistic_, row, panels, nullptr, options, sink),
      SweepAborted);
}

TEST_F(SweepCancellationTest, FlatSchedulerStopsMidPassAndKeepsJournal) {
  // Trip the flag from the progress callback after 3 tiles: the pass must
  // abort with SweepAborted, and the tiles journaled before the trip stay
  // valid for a resume.
  const SweepPlan plan = SweepPlan::triangular(0, kGenes, 8);
  const PanelPlan panels = plan_panels(estimator_, TingeConfig{});
  ASSERT_GT(plan.count(), 3u);
  std::atomic<bool> cancel{false};
  SweepOptions options;
  options.cancel = &cancel;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tingex_cancel_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  const RunSignature signature{kGenes, kSamples, 8, 10, 3, 0.0};
  {
    CheckpointWriter writer(path, signature);
    JournalSink::Progress progress;
    progress.total = plan.count();
    progress.callback = [&cancel](std::size_t done, std::size_t) {
      if (done >= 3) cancel.store(true);
    };
    JournalSink sink(writer, 0.0, /*contexts=*/1, std::move(progress));
    const auto row = row_source();
    EXPECT_THROW(
        run_sweep(plan, statistic_, row, panels, nullptr, options, sink),
        SweepAborted);
  }
  const CheckpointState state = load_checkpoint(path);
  EXPECT_GE(state.completed_tiles().size(), 3u);
  EXPECT_LT(state.completed_tiles().size(), plan.count());
  std::filesystem::remove(path);
}

TEST_F(SweepCancellationTest, TeamedSchedulerDrainsAllMembersOnAbort) {
  // Pre-tripped flag under the teamed scheduler: the leader poisons the
  // claim counter, every member drains off its barriers (no strand — the
  // test completing at all is the point) and SweepAborted is rethrown.
  const SweepPlan plan = SweepPlan::triangular(0, kGenes, 8);
  const PanelPlan panels = plan_panels(estimator_, TingeConfig{});
  const std::atomic<bool> cancel{true};
  par::ThreadPool pool(4);
  SweepOptions options;
  options.threads = 4;
  options.team_size = 2;
  options.cancel = &cancel;
  EdgeSink sink(0.0, /*contexts=*/4);
  const auto row = row_source();
  EXPECT_THROW(
      run_sweep(plan, statistic_, row, panels, &pool, options, sink),
      SweepAborted);
}

}  // namespace
}  // namespace tinge
