// The shared rank -> B-spline-weight table.
//
// After the StableOrder rank transform every gene's profile is a permutation
// of the ranks 0..m-1, so the B-spline weights of "the sample with rank r"
// are the same for every gene. This table stores, for each rank r:
//   * first_bin[r]  — index of the first histogram bin the sample touches,
//   * weights[r][0..order) — the basis weights (padded with zeros to a
//     SIMD-friendly stride so kernels can issue full-width loads).
//
// This is the paper's first key restructuring: it removes all per-pair
// B-spline evaluation from the O(n^2) stage and turns the kernel into pure
// table-driven fused multiply-adds. It also makes the marginal entropy a
// single dataset-wide constant, exposed here.
#pragma once

#include <cstdint>
#include <span>

#include "mi/bspline.h"
#include "util/aligned.h"

namespace tinge {

class WeightTable {
 public:
  /// Builds the table for m samples (ranks 0..m-1 mapped to the open unit
  /// interval via (r + 0.5)/m, see rank_transform.h).
  WeightTable(std::size_t m, const BsplineBasis& basis);

  /// Reconstructs a table from its serialized pieces (the cluster pipeline
  /// builds the table once on rank 0 and broadcasts it; receiving ranks use
  /// this instead of recomputing). `weights` must be m * weight_stride
  /// floats and `first_bin` m entries, laid out exactly as weights_data()
  /// / first_bin_data() expose them.
  WeightTable(std::size_t m, int bins, int order, std::size_t weight_stride,
              std::span<const float> weights,
              std::span<const std::int32_t> first_bin,
              double marginal_entropy);

  std::size_t n_samples() const { return m_; }
  int bins() const { return bins_; }
  int order() const { return order_; }

  /// Floats per weight row (>= order, zero padded, multiple of 4).
  std::size_t weight_stride() const { return weight_stride_; }

  const float* weights_data() const { return weights_.data(); }
  const std::int32_t* first_bin_data() const { return first_bin_.data(); }

  std::span<const float> weights(std::size_t rank) const {
    TINGE_EXPECTS(rank < m_);
    return {weights_.data() + rank * weight_stride_, weight_stride_};
  }
  std::int32_t first_bin(std::size_t rank) const {
    TINGE_EXPECTS(rank < m_);
    return first_bin_[rank];
  }

  /// H(X) of the shared marginal distribution (nats). Identical for all
  /// genes by construction; MI(x, y) = 2 * marginal_entropy() - H(x, y).
  double marginal_entropy() const { return marginal_entropy_; }

 private:
  std::size_t m_;
  int bins_;
  int order_;
  std::size_t weight_stride_;
  AlignedBuffer<float> weights_;           // m x weight_stride
  AlignedBuffer<std::int32_t> first_bin_;  // m
  double marginal_entropy_ = 0.0;
};

}  // namespace tinge
