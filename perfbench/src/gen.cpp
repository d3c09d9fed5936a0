// perfbench_gen: writes one workload's generated inputs from a seed.
//
//   perfbench_gen --workload=e1-slice --seed=1
//       --expression-out=e1.tngx --plan-out=e1.plan
//
// The expression matrix is a synthetic GRN compendium (scale-free
// regulators, tanh responses, 0.1% missing spots) in TNGX binary format;
// the plan carries the config seed, the oracle's sampled pairs and the
// serve query stream (plan.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <random>

#include "data/binary_io.h"
#include "plan.h"
#include "synth/expression.h"
#include "util/args.h"

namespace perfbench {
namespace {

/// Portable draws: std::mt19937_64's output sequence is fixed by the
/// standard, unlike the std distributions.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : engine_(seed) {}
  double unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  std::uint32_t below(std::size_t n) {
    return static_cast<std::uint32_t>(unit() * static_cast<double>(n));
  }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) popularity over a seeded permutation of the genes, so the hot
/// genes are scattered over the tile grid instead of packed into block 0.
class ZipfGenes {
 public:
  ZipfGenes(std::size_t n, double s, Draws& draws) : order_(n) {
    double total = 0.0;
    cdf_.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (std::size_t g = 0; g < n; ++g) order_[g] = static_cast<std::uint32_t>(g);
    for (std::size_t g = n; g > 1; --g)
      std::swap(order_[g - 1], order_[draws.below(g)]);
  }
  std::uint32_t draw(Draws& draws) const {
    const double u = draws.unit() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return order_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> order_;
};

// serve-zipf traffic mix. An MI query asks a few Zipf-hot pairs, which the
// tile cache soon holds, and a dozen uniform ones, which sweep missing
// tiles and, over a traced run, touch more tiles than the cache holds, so
// it evicts. Spreading the cold pairs over every MI query keeps the sweep
// work per query even. Graph queries (neighborhood, top-k) never reach the
// pair batcher.
constexpr std::size_t kQueries = 20000;
constexpr double kZipfExponent = 1.5;
constexpr std::size_t kHotPairs = 2;
constexpr std::size_t kColdPairs = 12;
// Kinds repeat in a fixed cycle of 20 — 13 MI (one of them on a fresh
// connection), 6 neighborhood, 1 top-k — so every phase of every run has
// the same mix and the median query is of the same kind; the seed draws
// the genes.
constexpr char kCycle[] = "TMMNMMNMMNOMNMMNMMNM";
static_assert(sizeof(kCycle) - 1 == kKindCycle);
constexpr std::uint32_t kNeighborhoodK = 20;
constexpr std::uint32_t kTopK = 50;

// Oracle samples.
constexpr std::size_t kCheckPairs = 1500;
constexpr std::size_t kEdgePicks = 500;

void draw_pair(std::size_t n, Draws& draws, std::vector<std::uint32_t>& out,
               const ZipfGenes* zipf) {
  std::uint32_t a = 0, b = 0;
  do {
    a = zipf != nullptr ? zipf->draw(draws) : draws.below(n);
    b = zipf != nullptr ? zipf->draw(draws) : draws.below(n);
  } while (a == b);
  out.push_back(a);
  out.push_back(b);
}

int run(int argc, char** argv) {
  tinge::ArgParser args;
  args.add("workload", "e1-slice | sharded-dpi | serve-zipf");
  args.add("seed", "workload seed", "1");
  args.add("expression-out", "TNGX expression matrix to write");
  args.add("plan-out", "plan file to write");
  args.parse(argc, argv);

  const Workload workload = parse_workload(args.get("workload"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const Shape shape = default_shape(workload);

  Draws draws(seed * 0x9E3779B97F4A7C15ull +
              static_cast<std::uint64_t>(workload));

  // The regulatory network is a fixed property of the workload (the
  // library's default synthetic GRN, as tinge_cli --synthetic draws it); the
  // seed draws the arrays measured over it. Network density and DPI cost
  // depend on the GRN's hubs, so this keeps one build's work steady from
  // seed to seed.
  tinge::GrnParams grn;
  grn.n_genes = shape.genes;
  tinge::ExpressionParams expression;
  expression.n_samples = shape.samples;
  expression.missing_fraction = 0.001;
  expression.seed = draws.below(1u << 30) + 1;
  tinge::SyntheticDataset dataset =
      tinge::make_synthetic_dataset(grn, expression);
  tinge::write_expression_binary_file(dataset.expression,
                                      args.get("expression-out"));

  Plan plan;
  plan.workload = workload;
  plan.config_seed = draws.below(1u << 30) + 1;
  for (std::size_t i = 0; i < kCheckPairs; ++i)
    draw_pair(shape.genes, draws, plan.check_pairs, nullptr);
  for (std::size_t i = 0; i < kEdgePicks; ++i)
    plan.edge_picks.push_back(draws.unit());
  {
    // serve-zipf's traffic; the batch workloads draw the same mix over
    // their probe slice for the traced run's serve probe.
    const std::size_t genes = workload == Workload::ServeZipf
                                  ? shape.genes
                                  : probe_genes(shape.genes, shape.samples);
    const ZipfGenes zipf(genes, kZipfExponent, draws);
    plan.queries.resize(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      Query& query = plan.queries[i];
      const char kind = kCycle[i % (sizeof(kCycle) - 1)];
      query.one_shot = kind == 'O';
      if (kind == 'T') {
        query.kind = QueryKind::TopK;
        query.k = kTopK;
      } else if (kind == 'N') {
        query.kind = QueryKind::Neighborhood;
        query.gene = zipf.draw(draws);
        query.k = kNeighborhoodK;
      } else {
        query.kind = QueryKind::MiPairs;
        for (std::size_t p = 0; p < kHotPairs; ++p)
          draw_pair(genes, draws, query.pairs, &zipf);
        for (std::size_t p = 0; p < kColdPairs; ++p)
          draw_pair(genes, draws, query.pairs, nullptr);
      }
    }
  }
  write_plan(plan, args.get("plan-out"));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_gen: %s\n", error.what());
    return 2;
  }
}
