#include "mi/bspline_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/math.h"
#include "simd/simd.h"
#include "util/contracts.h"

namespace tinge {

namespace {

// --------------------------------------------------------------------------
// Accumulation variants. Each clears exactly the histogram region it uses.
// --------------------------------------------------------------------------

void accumulate_scalar(const WeightTable& table, const std::uint32_t* rx,
                       const std::uint32_t* ry, std::size_t m, float* hist,
                       std::size_t hist_stride) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t rxj = rx[j];
    const std::uint32_t ryj = ry[j];
    const float* wx = weights + rxj * ws;
    const float* wy = weights + ryj * ws;
    float* base = hist + static_cast<std::size_t>(first_bin[rxj]) * hist_stride +
                  static_cast<std::size_t>(first_bin[ryj]);
    for (int a = 0; a < k; ++a) {
      const float wxa = wx[a];
      float* row = base + static_cast<std::size_t>(a) * hist_stride;
      for (int c = 0; c < k; ++c) row[c] += wxa * wy[c];
    }
  }
}

template <int K>
void accumulate_unrolled(const WeightTable& table, const std::uint32_t* rx,
                         const std::uint32_t* ry, std::size_t m, float* hist,
                         std::size_t hist_stride) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t rxj = rx[j];
    const std::uint32_t ryj = ry[j];
    const float* wx = weights + rxj * ws;
    const float* wy = weights + ryj * ws;
    float* base = hist + static_cast<std::size_t>(first_bin[rxj]) * hist_stride +
                  static_cast<std::size_t>(first_bin[ryj]);
#pragma GCC unroll 8
    for (int a = 0; a < K; ++a) {
      const float wxa = wx[a];
      float* row = base + static_cast<std::size_t>(a) * hist_stride;
#pragma GCC unroll 8
      for (int c = 0; c < K; ++c) row[c] += wxa * wy[c];
    }
  }
}

// One broadcast*vector FMA per histogram row touched; V covers the padded
// weight row (4 floats for order <= 4, 8 for order <= 8).
template <typename V>
void accumulate_simd_impl(const WeightTable& table, const std::uint32_t* rx,
                          const std::uint32_t* ry, std::size_t m, float* hist,
                          std::size_t hist_stride, std::size_t replica_offset_mask,
                          std::size_t replica_cells) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t rxj = rx[j];
    const std::uint32_t ryj = ry[j];
    const float* wx = weights + rxj * ws;
    const V wyv = V::loadu(weights + ryj * ws);
    float* base = hist + (j & replica_offset_mask) * replica_cells +
                  static_cast<std::size_t>(first_bin[rxj]) * hist_stride +
                  static_cast<std::size_t>(first_bin[ryj]);
    for (int a = 0; a < k; ++a) {
      float* row = base + static_cast<std::size_t>(a) * hist_stride;
      const V updated = V::fmadd(V::broadcast(wx[a]), wyv, V::loadu(row));
      updated.storeu(row);
    }
  }
}

template <typename V>
void accumulate_simd(const WeightTable& table, const std::uint32_t* rx,
                     const std::uint32_t* ry, std::size_t m, float* hist,
                     std::size_t hist_stride) {
  accumulate_simd_impl<V>(table, rx, ry, m, hist, hist_stride,
                          /*replica_offset_mask=*/0, /*replica_cells=*/0);
}

void merge_replicas(float* hist, std::size_t replica_cells);

template <typename V>
void accumulate_replicated(const WeightTable& table, const std::uint32_t* rx,
                           const std::uint32_t* ry, std::size_t m, float* hist,
                           std::size_t hist_stride) {
  const std::size_t replica_cells =
      static_cast<std::size_t>(table.bins()) * hist_stride;
  accumulate_simd_impl<V>(table, rx, ry, m, hist, hist_stride,
                          /*replica_offset_mask=*/kHistogramReplicas - 1,
                          replica_cells);
  // replica_cells is a multiple of the histogram row stride, which is a
  // multiple of 16 floats — safe for full-width aligned steps.
  merge_replicas(hist, replica_cells);
}

#if defined(__AVX512F__)
// Four samples per iteration, one 512-bit gather/FMA/scatter triple per row
// offset. Sample g of a group owns replica g; the 16 scattered addresses of
// an iteration are therefore pairwise distinct by construction. Requires
// order <= 4 (weight rows padded to 4 floats).
void accumulate_gather512(const WeightTable& table, const std::uint32_t* rx,
                          const std::uint32_t* ry, std::size_t m, float* hist,
                          std::size_t hist_stride) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  TINGE_EXPECTS(k <= 4);
  TINGE_EXPECTS(ws == 4);
  const auto replica_cells =
      static_cast<std::int32_t>(static_cast<std::size_t>(table.bins()) *
                                hist_stride);
  const auto stride_i32 = static_cast<std::int32_t>(hist_stride);

  // lane -> group id (0,0,0,0,1,1,1,1,...) for broadcasting per-sample
  // scalars into their lane group.
  const __m512i group_of_lane = _mm512_set_epi32(3, 3, 3, 3, 2, 2, 2, 2,
                                                 1, 1, 1, 1, 0, 0, 0, 0);
  // lane -> column offset within the weight row (0,1,2,3 repeating).
  const __m512i column_of_lane = _mm512_set_epi32(3, 2, 1, 0, 3, 2, 1, 0,
                                                  3, 2, 1, 0, 3, 2, 1, 0);
  const __m512i replica_base = _mm512_mullo_epi32(
      group_of_lane, _mm512_set1_epi32(replica_cells));

  const std::size_t groups = m / 4;
  for (std::size_t gi = 0; gi < groups; ++gi) {
    const std::size_t j = gi * 4;
    // Per-group scalars packed into the low 4 lanes, then spread by group.
    alignas(16) std::int32_t base4[4];
    alignas(64) float wy_rows[16];
    const float* wx_rows[4];
    for (int g = 0; g < 4; ++g) {
      const std::uint32_t rxg = rx[j + static_cast<std::size_t>(g)];
      const std::uint32_t ryg = ry[j + static_cast<std::size_t>(g)];
      base4[g] = first_bin[rxg] * stride_i32 + first_bin[ryg];
      const float* wy = weights + ryg * ws;
      for (int c = 0; c < 4; ++c) wy_rows[g * 4 + c] = wy[c];
      wx_rows[g] = weights + rxg * ws;
    }
    const __m512i base = _mm512_add_epi32(
        _mm512_add_epi32(
            _mm512_permutexvar_epi32(
                group_of_lane,
                _mm512_castsi128_si512(_mm_load_si128(
                    reinterpret_cast<const __m128i*>(base4)))),
            column_of_lane),
        replica_base);
    const __m512 wy_vec = _mm512_load_ps(wy_rows);

    for (int a = 0; a < k; ++a) {
      // wx[a] of each sample broadcast into its lane group.
      alignas(16) float wx4[4] = {wx_rows[0][a], wx_rows[1][a],
                                  wx_rows[2][a], wx_rows[3][a]};
      const __m512 wx_vec = _mm512_permutexvar_ps(
          group_of_lane, _mm512_castps128_ps512(_mm_load_ps(wx4)));
      const __m512i indices =
          _mm512_add_epi32(base, _mm512_set1_epi32(a * stride_i32));
      const __m512 patch = _mm512_i32gather_ps(indices, hist, 4);
      const __m512 updated = _mm512_fmadd_ps(wx_vec, wy_vec, patch);
      _mm512_i32scatter_ps(hist, indices, updated, 4);
    }
  }

  // Tail samples take the 128-bit replicated path (replica j & 3).
  const std::size_t tail_begin = groups * 4;
  for (std::size_t j = tail_begin; j < m; ++j) {
    const std::uint32_t rxj = rx[j];
    const std::uint32_t ryj = ry[j];
    const float* wx = weights + rxj * ws;
    const simd::F32x4 wyv = simd::F32x4::loadu(weights + ryj * ws);
    float* base_ptr = hist +
                      (j & 3) * static_cast<std::size_t>(replica_cells) +
                      static_cast<std::size_t>(first_bin[rxj]) * hist_stride +
                      static_cast<std::size_t>(first_bin[ryj]);
    for (int a = 0; a < k; ++a) {
      float* row = base_ptr + static_cast<std::size_t>(a) * hist_stride;
      simd::F32x4::fmadd(simd::F32x4::broadcast(wx[a]), wyv,
                         simd::F32x4::loadu(row))
          .storeu(row);
    }
  }
}
#endif  // __AVX512F__

// Reduce the replicas into replica 0 and zero the rest (shared by the
// Replicated and Gather512 kernels).
void merge_replicas(float* hist, std::size_t replica_cells) {
  using W = simd::NativeF32;
  constexpr std::size_t lanes = static_cast<std::size_t>(W::width);
  const W zero = W::zero();
  for (std::size_t i = 0; i < replica_cells; i += lanes) {
    W acc = W::load(hist + i);
    for (int r = 1; r < kHistogramReplicas; ++r) {
      float* replica = hist + static_cast<std::size_t>(r) * replica_cells + i;
      acc = acc + W::load(replica);
      zero.store(replica);
    }
    acc.store(hist + i);
  }
}

double entropy_from_region(const float* cells, std::size_t count, std::size_t m) {
  const double neg_sum = simd::entropy_sum(cells, count);
  return neg_sum / static_cast<double>(m) + std::log(static_cast<double>(m));
}

// --------------------------------------------------------------------------
// Panel accumulation: one row gene against `width` column genes, one sweep
// over the m samples. Region p of `hist` (region_cells floats apart) is the
// joint histogram of pair (x, y_p). For a fixed region every variant issues
// the per-pair kernel's float operations in the same order, so the panel is
// bit-identical to the per-pair path; only the rx-side table lookups and the
// histogram clears are shared across the panel.
//
// All panel variants are templated on the rank element type RankT (uint32
// classic, uint16 staged) — the index arithmetic is identical, only the
// bytes streamed per sample halve.
// --------------------------------------------------------------------------

template <typename RankT>
void panel_accumulate_scalar(const WeightTable& table, const RankT* rx,
                             const RankT* const* ry, std::size_t width,
                             std::size_t m, float* hist,
                             std::size_t hist_stride,
                             std::size_t region_cells) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rxj = rx[j];
    const float* wx = weights + rxj * ws;
    const std::size_t x_base =
        static_cast<std::size_t>(first_bin[rxj]) * hist_stride;
    for (std::size_t p = 0; p < width; ++p) {
      const std::size_t ryj = ry[p][j];
      const float* wy = weights + ryj * ws;
      float* base = hist + p * region_cells + x_base +
                    static_cast<std::size_t>(first_bin[ryj]);
      for (int a = 0; a < k; ++a) {
        const float wxa = wx[a];
        float* row = base + static_cast<std::size_t>(a) * hist_stride;
        for (int c = 0; c < k; ++c) row[c] += wxa * wy[c];
      }
    }
  }
}

template <int K, typename RankT>
void panel_accumulate_unrolled(const WeightTable& table, const RankT* rx,
                               const RankT* const* ry, std::size_t width,
                               std::size_t m, float* hist,
                               std::size_t hist_stride,
                               std::size_t region_cells) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rxj = rx[j];
    const float* wx = weights + rxj * ws;
    const std::size_t x_base =
        static_cast<std::size_t>(first_bin[rxj]) * hist_stride;
    for (std::size_t p = 0; p < width; ++p) {
      const std::size_t ryj = ry[p][j];
      const float* wy = weights + ryj * ws;
      float* base = hist + p * region_cells + x_base +
                    static_cast<std::size_t>(first_bin[ryj]);
#pragma GCC unroll 8
      for (int a = 0; a < K; ++a) {
        const float wxa = wx[a];
        float* row = base + static_cast<std::size_t>(a) * hist_stride;
#pragma GCC unroll 8
        for (int c = 0; c < K; ++c) row[c] += wxa * wy[c];
      }
    }
  }
}

template <typename V, typename RankT>
void panel_accumulate_simd(const WeightTable& table, const RankT* rx,
                           const RankT* const* ry, std::size_t width,
                           std::size_t m, float* hist, std::size_t hist_stride,
                           std::size_t region_cells) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rxj = rx[j];
    const float* wx = weights + rxj * ws;
    const std::size_t x_base =
        static_cast<std::size_t>(first_bin[rxj]) * hist_stride;
    // The row gene's broadcasts are hoisted once per sample and reused by
    // every panel member — the core of the row-reuse win.
    V wxv[BsplineBasis::kMaxOrder];
    for (int a = 0; a < k; ++a) wxv[a] = V::broadcast(wx[a]);
    for (std::size_t p = 0; p < width; ++p) {
      const std::size_t ryj = ry[p][j];
      const V wyv = V::loadu(weights + ryj * ws);
      float* base = hist + p * region_cells + x_base +
                    static_cast<std::size_t>(first_bin[ryj]);
      for (int a = 0; a < k; ++a) {
        float* row = base + static_cast<std::size_t>(a) * hist_stride;
        V::fmadd(wxv[a], wyv, V::loadu(row)).storeu(row);
      }
    }
  }
}

#if defined(__AVX512F__)
// Four panel members per iteration, one 512-bit gather/FMA/scatter triple
// per row offset (4 members x 4 padded weights = 16 lanes). Members write
// disjoint histogram regions, so the 16 scattered addresses are pairwise
// distinct by construction — no replicas needed, unlike the per-pair
// gather kernel. wx[a] is shared by the whole panel and broadcast to all
// lanes. Requires order <= 4 (weight rows padded to 4 floats).
template <typename RankT>
void panel_accumulate_gather512(const WeightTable& table, const RankT* rx,
                                const RankT* const* ry, std::size_t width,
                                std::size_t m, float* hist,
                                std::size_t hist_stride,
                                std::size_t region_cells) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  TINGE_EXPECTS(k <= 4);
  TINGE_EXPECTS(ws == 4);
  const auto stride_i32 = static_cast<std::int32_t>(hist_stride);
  const auto region_i32 = static_cast<std::int32_t>(region_cells);

  // lane -> panel-member slot (0,0,0,0,1,1,1,1,...) and lane -> weight
  // column (0,1,2,3 repeating).
  const __m512i group_of_lane = _mm512_set_epi32(3, 3, 3, 3, 2, 2, 2, 2,
                                                 1, 1, 1, 1, 0, 0, 0, 0);
  const __m512i column_of_lane = _mm512_set_epi32(3, 2, 1, 0, 3, 2, 1, 0,
                                                  3, 2, 1, 0, 3, 2, 1, 0);
  const std::size_t groups = width / 4;

  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t rxj = rx[j];
    const float* wx = weights + rxj * ws;
    const std::int32_t x_base = first_bin[rxj] * stride_i32;

    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t p0 = g * 4;
      alignas(16) std::int32_t base4[4];
      alignas(64) float wy_rows[16];
      for (int t = 0; t < 4; ++t) {
        const std::size_t ryj = ry[p0 + static_cast<std::size_t>(t)][j];
        base4[t] = static_cast<std::int32_t>(p0 + static_cast<std::size_t>(t)) *
                       region_i32 +
                   x_base + first_bin[ryj];
        const float* wy = weights + ryj * ws;
        for (int c = 0; c < 4; ++c) wy_rows[t * 4 + c] = wy[c];
      }
      const __m512i base = _mm512_add_epi32(
          _mm512_permutexvar_epi32(
              group_of_lane, _mm512_castsi128_si512(_mm_load_si128(
                                 reinterpret_cast<const __m128i*>(base4)))),
          column_of_lane);
      const __m512 wy_vec = _mm512_load_ps(wy_rows);

      for (int a = 0; a < k; ++a) {
        const __m512 wx_vec = _mm512_set1_ps(wx[a]);
        const __m512i indices =
            _mm512_add_epi32(base, _mm512_set1_epi32(a * stride_i32));
        const __m512 patch = _mm512_i32gather_ps(indices, hist, 4);
        const __m512 updated = _mm512_fmadd_ps(wx_vec, wy_vec, patch);
        _mm512_i32scatter_ps(hist, indices, updated, 4);
      }
    }

    // Tail members (width not a multiple of 4): 128-bit FMA path, which
    // produces the same float sequence per region as the gathered lanes.
    for (std::size_t p = groups * 4; p < width; ++p) {
      const std::size_t ryj = ry[p][j];
      const simd::F32x4 wyv = simd::F32x4::loadu(weights + ryj * ws);
      float* base_ptr = hist + p * region_cells +
                        static_cast<std::size_t>(x_base) +
                        static_cast<std::size_t>(first_bin[ryj]);
      for (int a = 0; a < k; ++a) {
        float* row = base_ptr + static_cast<std::size_t>(a) * hist_stride;
        simd::F32x4::fmadd(simd::F32x4::broadcast(wx[a]), wyv,
                           simd::F32x4::loadu(row))
            .storeu(row);
      }
    }
  }
}
#endif  // __AVX512F__

}  // namespace

const char* kernel_name(MiKernel kernel) {
  switch (kernel) {
    case MiKernel::Scalar: return "scalar";
    case MiKernel::Unrolled: return "unrolled";
    case MiKernel::Simd: return "simd";
    case MiKernel::Replicated: return "replicated";
    case MiKernel::Gather512: return "gather512";
    case MiKernel::Auto: return "auto";
  }
  return "?";
}

bool gather512_available() {
#if defined(__AVX512F__)
  return true;
#else
  return false;
#endif
}

MiKernel resolve_kernel(MiKernel kernel, int order) {
  if (kernel == MiKernel::Gather512 && (!gather512_available() || order > 4))
    return MiKernel::Replicated;
  if (kernel != MiKernel::Auto) return kernel;
  return order <= 4 ? MiKernel::Replicated : MiKernel::Simd;
}

MiKernel resolve_panel_kernel(MiKernel kernel, int order) {
  switch (kernel) {
    case MiKernel::Scalar: return MiKernel::Scalar;
    case MiKernel::Unrolled:
      return order <= BsplineBasis::kMaxOrder ? MiKernel::Unrolled
                                              : MiKernel::Scalar;
    case MiKernel::Gather512:
      return gather512_available() && order <= 4 ? MiKernel::Gather512
                                                 : MiKernel::Simd;
    case MiKernel::Simd:
    case MiKernel::Replicated:  // panel interleaving replaces replication
    case MiKernel::Auto:
      return MiKernel::Simd;
  }
  return MiKernel::Simd;
}

int auto_panel_width(const WeightTable& table) {
  // All B joint histograms must stay cache-resident across the whole
  // m-sample sweep: the sweep round-robins the B regions every sample, so
  // an evicted region costs a miss per histogram row touched. Half of a
  // conservative per-core L2 leaves room for the weight table and the B+1
  // rank profiles streaming alongside.
  constexpr std::size_t kPanelCacheBudget = 256 * 1024;  // bytes
  const std::size_t region_bytes = static_cast<std::size_t>(table.bins()) *
                                   JointHistogram::stride_for(table.bins()) *
                                   sizeof(float);
  const std::size_t fit =
      std::max<std::size_t>(1, kPanelCacheBudget / region_bytes);
  return static_cast<int>(
      std::min<std::size_t>(fit, static_cast<std::size_t>(kMaxPanelWidth)));
}

JointHistogram make_kernel_scratch(const WeightTable& table) {
  // Replicated needs kHistogramReplicas stacked copies, the panel kernels
  // up to kMaxPanelWidth regions; every kernel clears exactly the regions
  // it uses, so per-pair and panel calls can share one scratch.
  constexpr int kScratchRegions = kHistogramReplicas > kMaxPanelWidth
                                      ? kHistogramReplicas
                                      : kMaxPanelWidth;
  return JointHistogram(table.bins(), /*max_vector_width=*/16,
                        /*replicas=*/kScratchRegions);
}

double joint_entropy(const WeightTable& table, const std::uint32_t* rx,
                     const std::uint32_t* ry, std::size_t m,
                     JointHistogram& scratch, MiKernel kernel) {
  TINGE_EXPECTS(m == table.n_samples());
  TINGE_EXPECTS(scratch.bins() >= table.bins());
  TINGE_EXPECTS(scratch.replicas() >= kHistogramReplicas);
  const int k = table.order();
  const std::size_t hs = scratch.stride();
  float* hist = scratch.data();
  const std::size_t region_cells = static_cast<std::size_t>(table.bins()) * hs;

  const MiKernel resolved = resolve_kernel(kernel, k);
  const bool uses_replicas = resolved == MiKernel::Replicated ||
                             resolved == MiKernel::Gather512;
  const std::size_t clear_cells =
      uses_replicas
          ? region_cells * static_cast<std::size_t>(kHistogramReplicas)
          : region_cells;
  std::memset(hist, 0, clear_cells * sizeof(float));

  switch (resolved) {
    case MiKernel::Scalar:
      accumulate_scalar(table, rx, ry, m, hist, hs);
      break;
    case MiKernel::Unrolled:
      switch (k) {
        case 1: accumulate_unrolled<1>(table, rx, ry, m, hist, hs); break;
        case 2: accumulate_unrolled<2>(table, rx, ry, m, hist, hs); break;
        case 3: accumulate_unrolled<3>(table, rx, ry, m, hist, hs); break;
        case 4: accumulate_unrolled<4>(table, rx, ry, m, hist, hs); break;
        case 5: accumulate_unrolled<5>(table, rx, ry, m, hist, hs); break;
        case 6: accumulate_unrolled<6>(table, rx, ry, m, hist, hs); break;
        case 7: accumulate_unrolled<7>(table, rx, ry, m, hist, hs); break;
        case 8: accumulate_unrolled<8>(table, rx, ry, m, hist, hs); break;
        default: accumulate_scalar(table, rx, ry, m, hist, hs); break;
      }
      break;
    case MiKernel::Simd:
      if (k <= 4) {
        accumulate_simd<simd::F32x4>(table, rx, ry, m, hist, hs);
      } else {
        accumulate_simd<simd::F32x8>(table, rx, ry, m, hist, hs);
      }
      break;
    case MiKernel::Replicated:
      if (k <= 4) {
        accumulate_replicated<simd::F32x4>(table, rx, ry, m, hist, hs);
      } else {
        accumulate_replicated<simd::F32x8>(table, rx, ry, m, hist, hs);
      }
      break;
    case MiKernel::Gather512:
#if defined(__AVX512F__)
      accumulate_gather512(table, rx, ry, m, hist, hs);
      merge_replicas(hist, region_cells);
#else
      TINGE_ASSERT(false);  // resolve_kernel falls back before dispatch
#endif
      break;
    case MiKernel::Auto:
      TINGE_ASSERT(false);  // resolved above
      break;
  }

  return entropy_from_region(hist, region_cells, m);
}

namespace {

template <typename RankT>
void joint_entropy_panel_impl(const WeightTable& table, const RankT* rx,
                              const RankT* const* ry, std::size_t width,
                              std::size_t m, JointHistogram& scratch,
                              MiKernel kernel, double* h_out) {
  TINGE_EXPECTS(width >= 1);
  TINGE_EXPECTS(width <= static_cast<std::size_t>(kMaxPanelWidth));
  TINGE_EXPECTS(m == table.n_samples());
  TINGE_EXPECTS(scratch.bins() >= table.bins());
  TINGE_EXPECTS(scratch.replicas() >= static_cast<int>(width));
  const int k = table.order();
  const std::size_t hs = scratch.stride();
  float* hist = scratch.data();
  const std::size_t region_cells = static_cast<std::size_t>(table.bins()) * hs;

  // One clear for the whole panel (regions are stacked contiguously).
  std::memset(hist, 0, width * region_cells * sizeof(float));

  switch (resolve_panel_kernel(kernel, k)) {
    case MiKernel::Scalar:
      panel_accumulate_scalar(table, rx, ry, width, m, hist, hs, region_cells);
      break;
    case MiKernel::Unrolled:
      switch (k) {
        case 1: panel_accumulate_unrolled<1>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 2: panel_accumulate_unrolled<2>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 3: panel_accumulate_unrolled<3>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 4: panel_accumulate_unrolled<4>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 5: panel_accumulate_unrolled<5>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 6: panel_accumulate_unrolled<6>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 7: panel_accumulate_unrolled<7>(table, rx, ry, width, m, hist, hs, region_cells); break;
        case 8: panel_accumulate_unrolled<8>(table, rx, ry, width, m, hist, hs, region_cells); break;
        default:
          panel_accumulate_scalar(table, rx, ry, width, m, hist, hs,
                                  region_cells);
          break;
      }
      break;
    case MiKernel::Gather512:
#if defined(__AVX512F__)
      panel_accumulate_gather512(table, rx, ry, width, m, hist, hs,
                                 region_cells);
      break;
#else
      TINGE_ASSERT(false);  // resolve_panel_kernel falls back before dispatch
      break;
#endif
    case MiKernel::Simd:
      if (k <= 4) {
        panel_accumulate_simd<simd::F32x4>(table, rx, ry, width, m, hist, hs,
                                           region_cells);
      } else {
        panel_accumulate_simd<simd::F32x8>(table, rx, ry, width, m, hist, hs,
                                           region_cells);
      }
      break;
    case MiKernel::Replicated:
    case MiKernel::Auto:
      TINGE_ASSERT(false);  // resolve_panel_kernel never returns these
      break;
  }

  // Batched entropy/merge pass: one sweep per region, h_out[p] = H(X, Y_p).
  for (std::size_t p = 0; p < width; ++p)
    h_out[p] = entropy_from_region(hist + p * region_cells, region_cells, m);
}

}  // namespace

void joint_entropy_panel(const WeightTable& table, const std::uint32_t* rx,
                         const std::uint32_t* const* ry, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out) {
  joint_entropy_panel_impl(table, rx, ry, width, m, scratch, kernel, h_out);
}

void joint_entropy_panel(const WeightTable& table, const std::uint16_t* rx,
                         const std::uint16_t* const* ry, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out) {
  joint_entropy_panel_impl(table, rx, ry, width, m, scratch, kernel, h_out);
}

}  // namespace tinge
