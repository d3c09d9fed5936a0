#include "plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Workload parse_workload(const std::string& name) {
  if (name == "e1-slice") return Workload::E1Slice;
  if (name == "sharded-dpi") return Workload::ShardedDpi;
  if (name == "serve-zipf") return Workload::ServeZipf;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::E1Slice: return "e1-slice";
    case Workload::ShardedDpi: return "sharded-dpi";
    case Workload::ServeZipf: return "serve-zipf";
  }
  return "?";
}

Shape default_shape(Workload workload) {
  switch (workload) {
    // The paper's array count; genes sized so one build is a few seconds.
    case Workload::E1Slice: return {1536, 3137};
    // Short profiles, more genes: per-pair cost ~8x lower, DPI and the
    // rank-0 merge carry weight. Sized for about seven builds per run.
    case Workload::ShardedDpi: return {2560, 400};
    // 75 x 75 blocks of 64 genes = 2,850 tiles of 32 KiB: ~1.4x the
    // default 64 MiB tile cache, so Zipf traffic hits, misses and evicts.
    case Workload::ServeZipf: return {4800, 400};
  }
  return {};
}

std::size_t probe_genes(std::size_t genes, std::size_t samples) {
  const double target = std::sqrt(2.0 * 4e8 / static_cast<double>(samples));
  const auto rounded = static_cast<std::size_t>(std::lround(target / 64.0)) * 64;
  return std::clamp<std::size_t>(rounded, 128, genes);
}

namespace {

constexpr char kMagic[4] = {'P', 'B', 'P', 'L'};
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  explicit Writer(const std::string& path) : out_(path, std::ios::binary) {
    if (!out_) throw std::runtime_error("cannot write " + path);
  }
  template <typename T>
  void put(const T& value) {
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  template <typename T>
  void put_vector(const std::vector<T>& values) {
    put<std::uint64_t>(values.size());
    out_.write(reinterpret_cast<const char*>(values.data()),
               static_cast<std::streamsize>(values.size() * sizeof(T)));
  }
  void finish(const std::string& path) {
    out_.flush();
    if (!out_) throw std::runtime_error("write failed: " + path);
  }

 private:
  std::ofstream out_;
};

class Reader {
 public:
  explicit Reader(const std::string& path) : in_(path, std::ios::binary) {
    if (!in_) throw std::runtime_error("cannot read " + path);
  }
  template <typename T>
  T get() {
    T value{};
    in_.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in_) throw std::runtime_error("truncated plan file");
    return value;
  }
  template <typename T>
  std::vector<T> get_vector() {
    const auto count = get<std::uint64_t>();
    if (count > (std::uint64_t(1) << 32))
      throw std::runtime_error("corrupt plan file");
    std::vector<T> values(count);
    in_.read(reinterpret_cast<char*>(values.data()),
             static_cast<std::streamsize>(count * sizeof(T)));
    if (!in_) throw std::runtime_error("truncated plan file");
    return values;
  }

 private:
  std::ifstream in_;
};

}  // namespace

void write_plan(const Plan& plan, const std::string& path) {
  Writer out(path);
  for (const char c : kMagic) out.put(c);
  out.put(kVersion);
  out.put(static_cast<std::uint32_t>(plan.workload));
  out.put(plan.config_seed);
  out.put_vector(plan.check_pairs);
  out.put_vector(plan.edge_picks);
  out.put<std::uint64_t>(plan.queries.size());
  for (const Query& query : plan.queries) {
    out.put(static_cast<std::uint8_t>(query.kind));
    out.put(static_cast<std::uint8_t>(query.one_shot ? 1 : 0));
    out.put(query.gene);
    out.put(query.k);
    out.put_vector(query.pairs);
  }
  out.finish(path);
}

Plan read_plan(const std::string& path) {
  Reader in(path);
  char magic[4];
  for (char& c : magic) c = in.get<char>();
  if (std::memcmp(magic, kMagic, sizeof(magic)) != 0 ||
      in.get<std::uint32_t>() != kVersion)
    throw std::runtime_error(path + " is not a perfbench plan");
  Plan plan;
  const auto workload = in.get<std::uint32_t>();
  if (workload > static_cast<std::uint32_t>(Workload::ServeZipf))
    throw std::runtime_error("corrupt plan file");
  plan.workload = static_cast<Workload>(workload);
  plan.config_seed = in.get<std::uint64_t>();
  plan.check_pairs = in.get_vector<std::uint32_t>();
  plan.edge_picks = in.get_vector<double>();
  const auto queries = in.get<std::uint64_t>();
  if (queries > (std::uint64_t(1) << 24))
    throw std::runtime_error("corrupt plan file");
  plan.queries.resize(queries);
  for (Query& query : plan.queries) {
    const auto kind = in.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(QueryKind::TopK))
      throw std::runtime_error("corrupt plan file");
    query.kind = static_cast<QueryKind>(kind);
    query.one_shot = in.get<std::uint8_t>() != 0;
    query.gene = in.get<std::uint32_t>();
    query.k = in.get<std::uint32_t>();
    query.pairs = in.get_vector<std::uint32_t>();
  }
  return plan;
}

}  // namespace perfbench
