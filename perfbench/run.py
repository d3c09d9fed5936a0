#!/usr/bin/env python3
"""The repository benchmark: builds the program, generates a workload's
inputs from a seed, runs it, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload e1-slice --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-spec       # rewrites BENCHMARK.json

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
README.md). Everything else — the build log, the per-build and per-rate
lines, the oracle checks — goes to standard error, and the full record
(resolved kernel, rates, host fingerprint, seed) to
<build dir>/results/<workload>-<seed>-trace<0|1>.json.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every workload run.py runs. sharded-dpi stays runnable (and in --workload
# all) but is not in BENCHMARK.json: on a shared 4-core host its build_s
# spreads past the 0.25 bound from one set of ten runs to the next
# (README.md, "Steadiness").
WORKLOADS = [
    {"name": "e1-slice",
     "why": "the paper's shape: 3,137 arrays, B-spline b=10 k=3, no DPI, one "
            "process on all threads; the MI sweep is most of a build"},
    {"name": "sharded-dpi",
     "why": "short profiles (m=400) over 4 in-process ranks with DPI: sweep, "
            "DPI, rank-0 merge and ring traffic all carry weight"},
    {"name": "serve-zipf",
     "why": "open-loop Zipf queries on a resident daemon whose tiles outgrow "
            "the 64 MiB cache: query planner, cache, batcher and framing"},
]

# bound: how far the median may worsen, as a share of the parent's median,
# before a change counts as a regression. Times get the 0.25 ceiling: on a
# shared 4-core host the same single-thread loop already spreads 12 %
# (interquartile range over median) from second to second (README.md).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.25},
    {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "query_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "slo_share", "unit": "share", "better": "higher", "bound": 0.1},
    {"name": "max_qps_at_slo", "unit": "1/s", "better": "higher", "bound": 0.25},
]

PER_LAYER = [
    ("mi.kernel_cells_per_s", "1/s", "higher"),
    ("mi.kernel_gflops", "GFLOP/s", "higher"),
    ("mi.roofline_frac", "share", "higher"),
    ("mi.flops_per_byte", "flop/B", "higher"),
    ("mi.naive_pairs_per_s", "1/s", "higher"),
    ("engine.pairs_per_s", "1/s", "higher"),
    ("engine.thread_eff", "share", "higher"),
    ("engine.tile_p95_over_p50", "ratio", "lower"),
    ("engine.panel_fill", "share", "higher"),
    ("engine.sweep_share", "share", "lower"),
    ("pool.busy_share", "share", "higher"),
    ("preprocess.rank_s", "s", "lower"),
    ("data.load_mb_per_s", "MiB/s", "higher"),
    ("dpi.s", "s", "lower"),
    ("dpi.removed_share", "share", "higher"),
    ("cluster.bytes_per_pair", "B", "lower"),
    ("cluster.messages", "count", "lower"),
    ("cluster.busy_share", "share", "higher"),
    ("cluster.imbalance", "ratio", "lower"),
    ("query.cache_hit_ratio", "share", "higher"),
    ("query.tiles_swept", "count", "lower"),
    ("query.evictions", "count", "lower"),
    ("serve.registry_p50_ms", "ms", "lower"),
    ("serve.registry_p99_ms", "ms", "lower"),
    ("serve.client_over_registry_p50", "ratio", "lower"),
    ("serve.ping_rtt_ms", "ms", "lower"),
    ("serve.pairs_per_flush", "count", "higher"),
    ("serve.connect_ms", "ms", "lower"),
    ("serve.vmsize_mb_per_kconn", "MiB", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.stage_sum_share", "share", "higher"),
]

ASSESSED = ("e1-slice", "serve-zipf")

# At serve-zipf's base rate of 24/s a run sends 960 base-rate queries, about
# ten beyond their p99. Longer runs would not fit the 70-run assessment.
RUN_SECONDS = 40
RUN_TIMEOUT = 170  # a run must end within 180 s, build excluded


def spec():
    """BENCHMARK.json, as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [w for w in WORKLOADS if w["name"] in ASSESSED],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def spec_text():
    return json.dumps(spec(), indent=2) + "\n"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(directory):
    """Configures (once) and builds the two benchmark programs."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no tingex sources under {ROOT}; nothing to build")
    binary = directory / "perfbench"
    binary.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (binary / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(binary),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(binary), "--target", "perfbench_run",
                  "perfbench_gen", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            raise RuntimeError("build failed: " + " ".join(step))
    return binary


def host_fingerprint():
    """ISA, hardware threads, L2 size and NUMA nodes of this host."""
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    isa = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw") if f in flags]
    l2 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                l2 = (index / "size").read_text().strip()
        except OSError:
            pass
    nodes = len(list(Path("/sys/devices/system/node").glob("node[0-9]*"))) or 1
    return {"isa": isa, "nproc": os.cpu_count(), "l2": l2, "numa_nodes": nodes}


def run_workload(binary, workload, seed, seconds, trace, inject=None):
    """Generates the inputs, runs one workload, returns its result dict."""
    directory = binary.parent
    data = directory / "data"
    work = directory / "work"
    results = directory / "results"
    for d in (data, work, results):
        d.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{seed}"
    expression = data / f"{stem}.tngx"
    plan = data / f"{stem}.plan"
    gen = [str(binary / "perfbench_gen"), f"--workload={workload}", f"--seed={seed}",
           f"--expression-out={expression}", f"--plan-out={plan}"]
    subprocess.run(gen, check=True, timeout=120)

    out = results / f"{stem}-trace{trace}.json"
    if out.exists():
        out.unlink()
    command = [str(binary / "perfbench_run"), f"--workload={workload}",
               f"--expression={expression}", f"--plan={plan}", f"--seconds={seconds}",
               f"--trace={trace}", f"--result-out={out}", f"--work-dir={work}"]
    if inject:
        command.append(f"--inject={inject}")
    started = time.monotonic()
    done = subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT)
    if done.returncode not in (0, 1) or not out.is_file():
        raise RuntimeError(f"{workload} exited with status {done.returncode}")
    result = json.loads(out.read_text())
    result["detail"]["provenance"] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_fingerprint(), "wall_s": time.monotonic() - started,
    }
    out.write_text(json.dumps(result, indent=2) + "\n")
    expression.unlink()  # regenerated from the seed on the next run
    plan.unlink()

    wanted = [(m["name"], m["unit"]) for m in END_TO_END] if trace == 0 else \
        [(n, u) for n, u, _ in PER_LAYER]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(wanted):
        raise RuntimeError(f"{workload} reported {sorted(got)}, the spec lists {sorted(wanted)}")
    if result["correct"] != (done.returncode == 0):
        raise RuntimeError(f"{workload}: exit status disagrees with its checks")
    return result


def summary(result):
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = per-layer (default: "
                             "0, or both with --workload all)")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    parser.add_argument("--inject", choices=("corrupt-network", "wrong-served-value"),
                        help="oracle self-test: damage one output before it is checked")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec_text())
        return 0

    try:
        binary = build(build_dir())
        if args.workload != "all":
            trace = args.trace if args.trace is not None else 0
            result = run_workload(binary, args.workload, args.seed, args.seconds, trace,
                                  args.inject)
            print(json.dumps(summary(result)), flush=True)
            return 0 if result["correct"] else 1

        traces = [args.trace] if args.trace is not None else [0, 1]
        table, ok = {}, True
        for workload in (w["name"] for w in WORKLOADS):
            for trace in traces:
                result = run_workload(binary, workload, args.seed, args.seconds, trace,
                                      args.inject)
                table.setdefault(workload, {}).update(summary(result)["metrics"])
                table[workload]["failed_share"] = {
                    "value": result["failed"] / max(1, result["attempted"]), "unit": "share"}
                ok = ok and result["correct"]
        names = [m["name"] for m in END_TO_END] + ["failed_share"] + [n for n, _, _ in PER_LAYER]
        print(f"{'metric':34}" + "".join(f"{w:>16}" for w in table))
        for name in names:
            row = [table[w].get(name) for w in table]
            if all(cell is None for cell in row):
                continue
            unit = next(cell["unit"] for cell in row if cell)
            print(f"{name + ' [' + unit + ']':34}" +
                  "".join(f"{cell['value']:>16.6g}" if cell else f"{'-':>16}" for cell in row))
        print(json.dumps({"correct": ok, "workloads": table}), flush=True)
        return 0 if ok else 1
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
