#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double proc_status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':')
      return std::strtod(line.c_str() + length + 1, nullptr) / 1024.0;
  }
  return 0.0;
}

double file_mib(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  return file ? static_cast<double>(file.tellg()) / (1024.0 * 1024.0) : 0.0;
}

void Result::metric(const std::string& name, const std::string& unit,
                    double value) {
  metrics_.push_back({name, unit, value});
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  obs::Json entry = obs::Json::object();
  entry["name"] = name;
  entry["ok"] = ok;
  if (!detail.empty()) entry["detail"] = detail;
  checks_.push_back(std::move(entry));
  if (!ok) correct_ = false;
}

obs::Json Result::to_json() const {
  obs::Json out = obs::Json::object();
  out["correct"] = correct_;
  out["attempted"] = attempted_;
  out["failed"] = failed_;
  obs::Json metrics = obs::Json::object();
  for (const Metric& m : metrics_) {
    obs::Json entry = obs::Json::object();
    entry["value"] = std::isfinite(m.value) ? m.value : 0.0;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  out["metrics"] = std::move(metrics);
  out["checks"] = checks_;
  out["detail"] = detail_;
  return out;
}

std::string Result::report() const {
  std::ostringstream out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-34s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << line;
  }
  for (const obs::Json& c : checks_.elements()) {
    const obs::Json* detail = c.find("detail");
    out << "  check " << (c.at("ok").as_bool() ? "ok   " : "FAIL ")
        << c.at("name").as_string()
        << (detail != nullptr ? " (" + detail->as_string() + ")" : "") << "\n";
  }
  std::snprintf(line, sizeof(line), "  operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  out << line;
  return out.str();
}

}  // namespace perfbench
