// The output oracle behind `correct` and the failed-operation counts.
//
// The reference is independent of the sweep: every checked pair is
// recomputed with per-pair BsplineMi::mi on the input preprocessed through
// the public stage calls, and exact comparisons are made against whole
// networks built by other entry points of the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/expression_matrix.h"
#include "graph/network.h"
#include "mi/bspline_mi.h"
#include "preprocess/rank_transform.h"

namespace perfbench {

/// Largest |engine - per-pair| MI difference accepted, in nats. The panel
/// kernels and the per-pair path sum the same histogram in different
/// orders; observed differences are ~1e-6.
inline constexpr double kMiTolerance = 1e-4;

/// `input` imputed, filtered and ranked exactly as the pipeline does.
tinge::RankedMatrix ranked_input(const tinge::ExpressionMatrix& input,
                                 const tinge::TingeConfig& config);

class Reference {
 public:
  /// Per-pair MI over ranked_input(input, config).
  Reference(const tinge::ExpressionMatrix& input,
            const tinge::TingeConfig& config);

  std::size_t genes() const { return ranked_.n_genes(); }
  double mi(std::uint32_t a, std::uint32_t b);

 private:
  tinge::RankedMatrix ranked_;
  tinge::BsplineMi estimator_;
  tinge::JointHistogram scratch_;
};

/// Edge arrays equal bit for bit.
bool same_edges(const tinge::GeneNetwork& a, const tinge::GeneNetwork& b);

/// The network as write_edge_list prints it.
std::string edge_list_bytes(const tinge::GeneNetwork& network);

/// A copy of `network` with every edge weight raised by ten times
/// kMiTolerance (or one edge added to an empty network): the damage the
/// oracle self-test injects, wrong enough for every check that reads it.
tinge::GeneNetwork corrupted(const tinge::GeneNetwork& network);

struct PairVerdict {
  std::size_t checked = 0;
  std::size_t wrong = 0;
  std::string first_problem;
};

/// Recomputes the plan's sampled pairs and picked edges. Every picked edge
/// must carry its pair's MI within kMiTolerance and lie at or above the
/// threshold. With `exact_membership` (no DPI), a sampled pair clearly
/// above the threshold must be an edge and one clearly below must not.
PairVerdict check_pairs(const tinge::GeneNetwork& network, double threshold,
                        const std::vector<std::uint32_t>& pairs,
                        const std::vector<double>& edge_picks,
                        bool exact_membership, Reference& reference);

}  // namespace perfbench
