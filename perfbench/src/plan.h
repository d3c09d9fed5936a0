// Workload definitions and the generated-input ("plan") file.
//
// perfbench_gen turns (workload, seed) into two files: the expression matrix
// in the library's TNGX binary format, and a plan holding everything else
// the run needs that was drawn from the seed — the TingeConfig seed, the
// pairs the output oracle samples, and (serve-zipf) the query stream. The
// measured program, perfbench_run, reads only these files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { E1Slice, ShardedDpi, ServeZipf };

Workload parse_workload(const std::string& name);
const char* workload_name(Workload workload);

/// The fixed shape of a workload's input. Chosen once; a later change that
/// claims a gain must not alter it (see README.md for why each exists).
struct Shape {
  std::size_t genes = 0;
  std::size_t samples = 0;
};

Shape default_shape(Workload workload);

/// Genes of the slice the layer probes use: about 4e8 cells (pairs x
/// samples), so a one-thread sweep of it takes a couple of seconds at any
/// sample count. serve-zipf's query stream spans all its genes; the batch
/// workloads' stream spans this slice (their traced run's serve probe).
std::size_t probe_genes(std::size_t genes, std::size_t samples);

enum class QueryKind : std::uint8_t { MiPairs = 0, Neighborhood = 1, TopK = 2 };

/// Query kinds repeat in a fixed cycle of this length over the stream, so
/// any run of whole cycles has the same mix.
inline constexpr std::size_t kKindCycle = 20;

/// One serve query. MiPairs uses `pairs`; Neighborhood uses `gene` and
/// `k`; TopK uses `k`. `one_shot` queries go on a fresh connection.
struct Query {
  QueryKind kind = QueryKind::MiPairs;
  bool one_shot = false;
  std::uint32_t gene = 0;
  std::uint32_t k = 0;
  std::vector<std::uint32_t> pairs;  ///< interleaved a0 b0 a1 b1 ...
};

struct Plan {
  Workload workload = Workload::E1Slice;
  std::uint64_t config_seed = 0;  ///< TingeConfig::seed (permutation null)
  /// Uniform random gene pairs the oracle recomputes per pair.
  std::vector<std::uint32_t> check_pairs;  ///< interleaved
  /// Fractions in [0, 1) picking network edges the oracle recomputes.
  std::vector<double> edge_picks;
  /// The serve query stream, consumed in order and reused from the start
  /// if a run outlasts it (over all genes for serve-zipf, over the probe
  /// slice otherwise).
  std::vector<Query> queries;
};

void write_plan(const Plan& plan, const std::string& path);
Plan read_plan(const std::string& path);

}  // namespace perfbench
