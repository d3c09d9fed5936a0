// Shared measurement plumbing of perfbench_run: clocks, order statistics,
// process memory, and the run's result record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "plan.h"

namespace perfbench {

namespace obs = tinge::obs;

/// Seconds on the monotonic clock since an arbitrary epoch.
double now_seconds();

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// A field of /proc/self/status in MiB ("VmHWM", "VmSize"); 0 if absent.
double proc_status_mib(const char* field);

/// Size of a file in MiB; 0 if it cannot be read.
double file_mib(const std::string& path);

/// What the command line asked perfbench_run to do.
struct RunOptions {
  Workload workload = Workload::E1Slice;
  std::string expression_path;
  std::string plan_path;
  double seconds = 10.0;
  bool trace = false;
  /// Oracle self-test: "corrupt-network" or "wrong-served-value" damages
  /// one output before it is checked, which must make the run fail.
  std::string inject;
  int threads = 1;       ///< hardware threads of the host
  std::string work_dir;  ///< scratch files (the replay's edge list)
};

/// Everything a run reports. Metrics keep insertion order.
class Result {
 public:
  void metric(const std::string& name, const std::string& unit, double value);
  /// Records an oracle verdict; any false one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  obs::Json& detail() { return detail_; }

  /// {"correct", "attempted", "failed", "metrics", "checks", "detail"}
  obs::Json to_json() const;
  /// Human-readable metric and check table.
  std::string report() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics_;
  obs::Json checks_ = obs::Json::array();
  obs::Json detail_ = obs::Json::object();
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
