#include "oracle.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "graph/graph_io.h"
#include "preprocess/filter.h"
#include "util/str.h"

namespace perfbench {

tinge::RankedMatrix ranked_input(const tinge::ExpressionMatrix& input,
                                 const tinge::TingeConfig& config) {
  tinge::ExpressionMatrix working = input.clone();
  tinge::impute_missing_with_median(working);
  tinge::FilterResult filtered = tinge::filter_genes(working, config.filter);
  return tinge::RankedMatrix(filtered.matrix);
}

Reference::Reference(const tinge::ExpressionMatrix& input,
                     const tinge::TingeConfig& config)
    : ranked_(ranked_input(input, config)),
      estimator_(config.bins, config.spline_order, ranked_.n_samples()),
      scratch_(estimator_.make_scratch()) {}

double Reference::mi(std::uint32_t a, std::uint32_t b) {
  return estimator_.mi(ranked_.ranks(a), ranked_.ranks(b), scratch_);
}

bool same_edges(const tinge::GeneNetwork& a, const tinge::GeneNetwork& b) {
  const auto x = a.edges();
  const auto y = b.edges();
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(tinge::Edge)) == 0);
}

std::string edge_list_bytes(const tinge::GeneNetwork& network) {
  std::ostringstream out;
  tinge::write_edge_list(network, out);
  return out.str();
}

tinge::GeneNetwork corrupted(const tinge::GeneNetwork& network) {
  tinge::GeneNetwork copy(network.node_names());
  const auto edges = network.edges();
  for (const tinge::Edge& edge : edges)
    copy.add_edge(edge.u, edge.v,
                  edge.weight + static_cast<float>(10.0 * kMiTolerance));
  if (edges.empty() && network.n_nodes() >= 2) copy.add_edge(0, 1, 1.0f);
  copy.finalize();
  return copy;
}

PairVerdict check_pairs(const tinge::GeneNetwork& network, double threshold,
                        const std::vector<std::uint32_t>& pairs,
                        const std::vector<double>& edge_picks,
                        bool exact_membership, Reference& reference) {
  PairVerdict verdict;
  const auto problem = [&](const std::string& what) {
    ++verdict.wrong;
    if (verdict.first_problem.empty()) verdict.first_problem = what;
  };
  const auto edges = network.edges();
  for (const double pick : edge_picks) {
    if (edges.empty()) break;
    const tinge::Edge& edge =
        edges[std::min(edges.size() - 1,
                       static_cast<std::size_t>(pick * edges.size()))];
    const double ref = reference.mi(edge.u, edge.v);
    ++verdict.checked;
    if (std::fabs(ref - edge.weight) > kMiTolerance ||
        edge.weight < threshold - kMiTolerance)
      problem(tinge::strprintf("edge (%u,%u) weight %.7g, per-pair MI %.7g, "
                               "threshold %.7g",
                               edge.u, edge.v, edge.weight, ref, threshold));
  }
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
    const std::uint32_t a = pairs[i], b = pairs[i + 1];
    if (a >= reference.genes() || b >= reference.genes()) continue;
    const double ref = reference.mi(a, b);
    const float weight = network.edge_weight(a, b);
    ++verdict.checked;
    if (weight >= 0.0f) {
      if (std::fabs(ref - weight) > kMiTolerance)
        problem(tinge::strprintf("pair (%u,%u) weight %.7g, per-pair MI %.7g",
                                 a, b, weight, ref));
    } else if (exact_membership && ref > threshold + kMiTolerance) {
      problem(tinge::strprintf("pair (%u,%u) MI %.7g above threshold %.7g "
                               "but not an edge",
                               a, b, ref, threshold));
    }
  }
  return verdict;
}

}  // namespace perfbench
