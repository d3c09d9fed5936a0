// perfbench_run: runs one workload on its generated inputs and writes the
// result (metrics, oracle checks, resolved choices) as JSON.
//
//   perfbench_run --workload=e1-slice --expression=e1.tngx --plan=e1.plan
//       --seconds=20 --trace=0 --result-out=result.json --work-dir=.
//
// Exit status: 0 when every oracle check passed, 1 when one failed, 2 on a
// usage or input error. run.py is the usual caller.
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>

#include "measure.h"
#include "plan.h"
#include "util/args.h"
#include "workloads.h"

namespace perfbench {
namespace {

int run(int argc, char** argv) {
  tinge::ArgParser args;
  args.add("workload", "e1-slice | sharded-dpi | serve-zipf");
  args.add("expression", "generated TNGX expression matrix");
  args.add("plan", "generated plan file");
  args.add("seconds", "how long the run measures", "10");
  args.add("trace", "0 = end-to-end metrics, 1 = per-layer metrics", "0");
  args.add("result-out", "result JSON to write");
  args.add("work-dir", "directory for scratch files", ".");
  args.add("inject", "oracle self-test: corrupt-network | wrong-served-value", "");
  args.parse(argc, argv);

  RunOptions options;
  options.workload = parse_workload(args.get("workload"));
  options.expression_path = args.get("expression");
  options.plan_path = args.get("plan");
  options.seconds = args.get_double("seconds");
  options.trace = args.get_int("trace") != 0;
  options.inject = args.get("inject");
  options.work_dir = args.get("work-dir");
  options.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (!options.inject.empty() && options.inject != "corrupt-network" &&
      options.inject != "wrong-served-value")
    throw std::invalid_argument("unknown --inject value " + options.inject);

  const Plan plan = read_plan(options.plan_path);
  if (plan.workload != options.workload)
    throw std::invalid_argument("plan was generated for another workload");

  Result result;
  if (options.workload == Workload::ServeZipf)
    run_serve(options, plan, result);
  else
    run_batch(options, plan, result);

  std::fprintf(stderr, "%s %s:\n%s", workload_name(options.workload),
               options.trace ? "per-layer" : "end-to-end",
               result.report().c_str());
  std::ofstream out(args.get("result-out"));
  out << result.to_json().dump() << "\n";
  if (!out) throw std::runtime_error("cannot write the result file");
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_run: %s\n", error.what());
    return 2;
  }
}
