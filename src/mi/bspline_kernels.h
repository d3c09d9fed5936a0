// The hot pair kernels: joint entropy of two rank profiles through the
// shared weight table. Everything the paper's Xeon Phi optimization section
// is about happens here.
//
// For each of the m samples the kernel adds an order x order patch of
// weight products into the b x b joint histogram:
//
//     P[ix + a][iy + c] += wx[a] * wy[c]      a, c in [0, order)
//
// Kernel variants (benchmarked against each other in bench_mi_kernels):
//   Scalar     — the textbook triple loop; the paper's baseline and the
//                reference every vectorized result is checked against.
//   Unrolled   — order known at compile time, inner loops fully unrolled.
//                Explicit opt-in only.
//   Simd       — wy is loaded once as a padded vector; each row update is a
//                single broadcast*vector FMA (the paper's VPU formulation).
//   Replicated — Simd plus K-way histogram replication: consecutive samples
//                write to different replicas, breaking the store-to-load
//                dependency chain when neighbouring samples hit the same
//                bins (frequent: ranks are uniform, so adjacent histogram
//                rows are hot). Replicas are reduced before the entropy
//                pass. This mirrors the paper's private-copy trick for
//                vectorizing scatter updates with conflicts.
//   Gather512  — the full-width Phi-style formulation (order <= 4,
//                AVX-512F builds only; resolves to Replicated elsewhere):
//                four samples are packed into one 512-bit register (4
//                samples x 4 padded weights = 16 lanes) and their histogram
//                patches are updated with gather -> FMA -> scatter, one
//                instruction triple per row offset. Each sample in the
//                group writes its own histogram replica, so the scattered
//                indices never collide — the same conflict-free-by-
//                construction trick the paper uses to vectorize scatter
//                updates on the Phi's VPU. Explicit opt-in only: on the
//                AVX-512 hosts measured so far it runs at about half the
//                speed of the FMA panel (DESIGN §6a).
//
// Panel (row-reuse) formulation — joint_entropy_panel:
//   The tiled O(n^2) pass pairs every row gene i with every column gene j of
//   its tile row, yet the per-pair kernels above re-read gene i's rank row,
//   re-derive first_bin[rx[j]] * stride and the wx weight-row pointer, and
//   re-clear/re-reduce scratch once *per pair*. The panel kernel instead
//   fixes one row gene and sweeps the m samples once against B column genes
//   (B <= kMaxPanelWidth), accumulating into B joint-histogram regions:
//   the rx-side work (rank load, weight-row broadcasts, row-base offset) is
//   done once per sample instead of once per pair, and the round-robin
//   across B independent regions breaks the store-to-load dependency chain
//   that the per-pair Replicated kernel needs replica merging for — so the
//   panel path skips the replica merge entirely. One batched entropy pass
//   over the B regions finishes the panel. Variants mirror the per-pair
//   ladder (scalar / unrolled / FMA-SIMD / AVX-512 gather-scatter); for a
//   given region each variant performs the per-pair kernel's float
//   operations in the same order, so panel results are bit-identical to the
//   matching per-pair kernel.
//
// uint16 rank staging: ranks are exact integers < m, so when m <= 65536 the
// panel entry point also accepts uint16 rank rows (StagedRankMatrix in
// preprocess/rank_transform.h), halving the streamed rank bytes of the
// O(n^2) sweep. The indices select the same table rows, so results are
// bit-identical to the uint32 path.
//
// Kernel choice is static: Auto never measures anything. Panels run Simd;
// per-pair calls run Replicated for order <= 4 and Simd above. All variants
// return H(X,Y) in nats and produce identical results up to float summation
// order.
#pragma once

#include <cstdint>

#include "mi/joint_histogram.h"
#include "mi/weight_table.h"

namespace tinge {

enum class MiKernel { Scalar, Unrolled, Simd, Replicated, Gather512, Auto };

/// True when this build can run the real 512-bit gather/scatter kernel.
bool gather512_available();

const char* kernel_name(MiKernel kernel);

/// Replica count used by MiKernel::Replicated.
inline constexpr int kHistogramReplicas = 4;

/// Maximum panel width B accepted by joint_entropy_panel. Scratch from
/// make_kernel_scratch always carries this many histogram regions.
inline constexpr int kMaxPanelWidth = 8;

/// Scratch sized for any kernel variant: Replicated needs kHistogramReplicas
/// regions, the panel kernels up to kMaxPanelWidth.
JointHistogram make_kernel_scratch(const WeightTable& table);

/// Joint entropy H(X,Y) in nats of two rank profiles of length m.
/// `scratch` must come from make_kernel_scratch for the same table.
/// Auto resolves to Replicated for order <= 4, else Simd.
double joint_entropy(const WeightTable& table, const std::uint32_t* ranks_x,
                     const std::uint32_t* ranks_y, std::size_t m,
                     JointHistogram& scratch, MiKernel kernel);

/// Batched joint entropy of one row gene against a panel of `width` column
/// genes (1 <= width <= kMaxPanelWidth): h_out[p] = H(X, Y_p) where
/// ranks_y[p] is the p-th column gene's rank profile. The m samples are
/// swept once; the row gene's table lookups are shared across the panel.
/// For every p the result is bit-identical to per-pair joint_entropy with
/// the matching kernel (Scalar/Unrolled exactly; Simd/Replicated/Gather512/
/// Auto all map to the FMA-SIMD accumulation order of MiKernel::Simd, with
/// Gather512 running the 512-bit gather/scatter formulation when available).
void joint_entropy_panel(const WeightTable& table, const std::uint32_t* ranks_x,
                         const std::uint32_t* const* ranks_y, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out);

/// Staged-rank panel entry point (requires every rank < m and m <= 65536,
/// see StagedRankMatrix); bit-identical to the uint32 overload for the
/// same kernel.
void joint_entropy_panel(const WeightTable& table, const std::uint16_t* ranks_x,
                         const std::uint16_t* const* ranks_y, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out);

/// The per-pair kernel actually run for `kernel` at this order: Auto is
/// Replicated for order <= 4 and Simd above; Gather512 falls back to
/// Replicated when the ISA or order rules it out.
MiKernel resolve_kernel(MiKernel kernel, int order);

/// The panel variant joint_entropy_panel runs for `kernel`: Replicated and
/// Auto map to Simd (panel interleaving already breaks the store-to-load
/// chain replication exists for), Gather512 falls back to Simd when the ISA
/// or order rules it out.
MiKernel resolve_panel_kernel(MiKernel kernel, int order);

/// Panel width the Auto policy picks for `table`: the largest
/// B <= kMaxPanelWidth whose B joint-histogram regions fit the panel cache
/// budget (histograms must stay resident across the whole m-sample sweep).
int auto_panel_width(const WeightTable& table);

}  // namespace tinge
