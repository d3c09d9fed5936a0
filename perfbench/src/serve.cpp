// serve-zipf: open-loop query traffic against a resident daemon.
//
// The daemon (ServeState + ServeServer, default ServeOptions) runs in this
// process on loopback. Queries leave on a fixed schedule — query i is due at
// t0 + i / rate — from up to four sender threads, each holding one
// persistent ServeClient; a query flagged one-shot instead opens a fresh
// connection, as tinge_client does. Latency runs from the due time to the
// full reply, so a stalled sender delays every query queued behind it.
//
// Untraced run: set up, run the base rate for the run's seconds, then climb
// (or descend) the rate ladder, one short phase per rung, until a rung
// misses the limit; then set up twice more. Traced run: one setup, the base rate
// with client-side spans on half of the queries, then connection probes.
// Every served answer is checked against a batch NetworkBuilder build.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "cluster/serve_client.h"
#include "cluster/serve_server.h"
#include "core/network_builder.h"
#include "data/binary_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "util/str.h"
#include "workloads.h"

namespace perfbench {

using tinge::strprintf;
namespace cl = tinge::cluster;

namespace {

/// The base rate, in queries per second. Below what four blocking senders
/// sustain at this commit (each reply waits out two delayed ACKs, ~88 ms),
/// so the base phase measures latency, not a growing queue.
constexpr double kBaseRate = 24.0;
/// The rate ladder for max_qps_at_slo; contains the base rate.
constexpr std::array<double, 10> kLadder = {6,   12,  24,  48,   96,
                                            192, 384, 768, 1536, 3072};
/// p99 limit. Each reply at this commit waits ~88 ms on Nagle's algorithm
/// (a 20 ms limit would read 0 on every run); 250 ms leaves room for
/// compute-on-miss tiles and still fails any rate that builds a queue.
constexpr double kLimitMs = 250.0;
/// A reply later than this after its due time is a failed query.
constexpr double kTimeoutSeconds = 2.0;
/// A phase that overruns its schedule by this much stops the daemon.
constexpr double kPhaseGraceSeconds = 15.0;
constexpr int kMaxSenders = 4;
/// Daemon setups per untraced run; setup_s and build_s are their medians.
/// Each costs a full network build (~6 s at 4,800 x 400 on 4 cores).
constexpr std::size_t kSetups = 3;

struct Outcome {
  std::size_t query = 0;  ///< index into plan.queries
  double due = 0.0, sent = 0.0, done = 0.0;
  bool error = false;
  bool wrong = false;   ///< set by the oracle
  bool traced = false;  ///< recorded client-side spans
  std::string message;
  std::vector<double> values;
  std::vector<cl::ServeEdge> edges;

  bool failed() const {
    return error || wrong || done - due > kTimeoutSeconds;
  }
  double latency_ms() const {
    return failed() ? kTimeoutSeconds * 1e3 : (done - due) * 1e3;
  }
};

struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  bool aborted = false;
  std::vector<Outcome> outcomes;
};

/// Fixed-schedule query generator over persistent per-sender clients.
class Loadgen {
 public:
  Loadgen(int port, const Plan& plan, int senders)
      : port_(port), plan_(plan), clients_(static_cast<std::size_t>(senders)) {
    for (auto& client : clients_) client.emplace("127.0.0.1", port_);
  }

  /// Runs `rate` queries per second for `seconds`. With `traces`, every
  /// other whole kind cycle of the stream is traced: its sender records one
  /// "query" span per query (children: wait, connect, roundtrip) into its
  /// own trace, and traced and untraced queries share the phase with the
  /// same mix. `stop_daemon` runs if the phase overruns its schedule by
  /// kPhaseGraceSeconds.
  Phase run(double rate, double seconds, std::vector<obs::Trace>* traces,
            const std::function<void()>& stop_daemon) {
    Phase phase;
    phase.rate = rate;
    phase.seconds = seconds;
    const auto count = static_cast<std::size_t>(rate * seconds);
    phase.outcomes.resize(count);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex mutex;
    std::condition_variable finished;
    int running = static_cast<int>(clients_.size());
    const double t0 = now_seconds() + 0.05;
    const std::size_t first_query = cursor_;

    std::vector<std::thread> senders;
    for (std::size_t s = 0; s < clients_.size(); ++s) {
      senders.emplace_back([&, s] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= count || abort.load()) break;
          Outcome& o = phase.outcomes[i];
          o.query = (first_query + i) % plan_.queries.size();
          o.due = t0 + static_cast<double>(i) / rate;
          o.traced = traces != nullptr && (o.query / kKindCycle) % 2 == 1;
          obs::Trace* trace = o.traced ? &(*traces)[s] : nullptr;
          std::optional<obs::TraceSpan> query_span;
          if (trace != nullptr) query_span.emplace(*trace, "query");
          {
            std::optional<obs::TraceSpan> wait;
            if (trace != nullptr) wait.emplace(*trace, "wait");
            sleep_until(o.due);
          }
          o.sent = now_seconds();
          execute(s, plan_.queries[o.query], o, trace);
          o.done = now_seconds();
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (--running == 0) finished.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double>(seconds + kPhaseGraceSeconds);
      if (!finished.wait_until(lock, deadline, [&] { return running == 0; })) {
        phase.aborted = true;
        abort.store(true);
        lock.unlock();
        stop_daemon();
      }
    }
    for (std::thread& t : senders) t.join();
    cursor_ = (first_query + count) % plan_.queries.size();
    return phase;
  }

  /// Median round trip of `count` pings on a persistent connection (ms).
  double ping_ms(int count) {
    std::vector<double> ms;
    for (int i = 0; i < count; ++i) {
      const double start = now_seconds();
      clients_[0]->ping();
      ms.push_back((now_seconds() - start) * 1e3);
    }
    return median(ms);
  }

 private:
  static void sleep_until(double due) {
    const double wait = due - now_seconds();
    if (wait > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }

  void execute(std::size_t sender, const Query& query, Outcome& o,
               obs::Trace* trace) {
    try {
      std::optional<cl::ServeClient> fresh;
      if (query.one_shot) {
        std::optional<obs::TraceSpan> span;
        if (trace != nullptr) span.emplace(*trace, "connect");
        fresh.emplace("127.0.0.1", port_);
      } else if (!clients_[sender]) {
        clients_[sender].emplace("127.0.0.1", port_);
      }
      cl::ServeClient& client = fresh ? *fresh : *clients_[sender];
      std::optional<obs::TraceSpan> span;
      if (trace != nullptr) span.emplace(*trace, "roundtrip");
      switch (query.kind) {
        case QueryKind::MiPairs: {
          std::vector<tinge::GenePair> pairs;
          for (std::size_t p = 0; p + 1 < query.pairs.size(); p += 2)
            pairs.push_back({query.pairs[p], query.pairs[p + 1]});
          o.values = client.mi_pairs(pairs);
          break;
        }
        case QueryKind::Neighborhood:
          o.edges = client.neighborhood(query.gene, query.k);
          break;
        case QueryKind::TopK:
          o.edges = client.top_edges(query.k);
          break;
      }
    } catch (const std::exception& error) {
      o.error = true;
      o.message = error.what();
      if (!query.one_shot) clients_[sender].reset();  // reconnect next time
    }
  }

  int port_;
  const Plan& plan_;
  std::vector<std::optional<cl::ServeClient>> clients_;
  std::size_t cursor_ = 0;
};

/// A running daemon and what its setup cost. The server is declared after
/// the state it serves, so it stops first.
struct Daemon {
  std::unique_ptr<cl::ServeState> state;
  std::unique_ptr<cl::ServeServer> server;
  double state_seconds = 0.0;  ///< ServeState: the daemon's network build
  double setup_seconds = 0.0;  ///< ... until the first query is answered

  void stop() {
    server.reset();
    state.reset();
  }
};

Daemon start_daemon(const tinge::ExpressionMatrix& input,
                    const tinge::TingeConfig& config) {
  tinge::ExpressionMatrix copy = input.clone();
  Daemon daemon;
  const cl::ServeOptions options;
  const double start = now_seconds();
  daemon.state =
      std::make_unique<cl::ServeState>(std::move(copy), config, options);
  daemon.state_seconds = now_seconds() - start;
  daemon.server = std::make_unique<cl::ServeServer>(*daemon.state, options);
  cl::ServeClient("127.0.0.1", daemon.server->port()).ping();
  daemon.setup_seconds = now_seconds() - start;
  return daemon;
}

struct RungStats {
  std::size_t sent = 0, succeeded = 0, failed = 0;
  double p50_ms = 0.0, p99_ms = 0.0, late_p99_ms = 0.0;
  bool backlog_growing = false;
  bool pass = false;
};

RungStats rung_stats(const Phase& phase) {
  RungStats r;
  std::vector<double> latency, late;
  for (const Outcome& o : phase.outcomes) {
    if (o.sent == 0.0) continue;  // never sent (aborted phase)
    ++r.sent;
    if (!o.failed()) ++r.succeeded;
    latency.push_back(o.latency_ms());
    late.push_back((o.sent - o.due) * 1e3);
  }
  // Queries an aborted phase never sent count as failed.
  r.failed = phase.outcomes.size() - r.succeeded;
  r.p50_ms = median(latency);
  r.p99_ms = quantile(latency, 0.99);
  r.late_p99_ms = quantile(late, 0.99);
  // A growing backlog shows as lateness rising across the phase: compare
  // the median lateness of the last quarter with that of the first.
  const std::size_t quarter = late.size() / 4;
  if (quarter > 0) {
    const std::vector<double> head(late.begin(), late.begin() + quarter);
    const std::vector<double> tail(late.end() - quarter, late.end());
    r.backlog_growing = median(tail) - median(head) > 50.0;
  }
  r.pass = !phase.aborted && r.failed == 0 && r.p99_ms <= kLimitMs &&
           !r.backlog_growing;
  return r;
}

obs::Json rung_json(const Phase& phase, const RungStats& r) {
  obs::Json j = obs::Json::object();
  j["rate"] = phase.rate;
  j["seconds"] = phase.seconds;
  j["sent"] = r.sent;
  j["succeeded"] = r.succeeded;
  j["failed"] = r.failed;
  j["p50_ms"] = r.p50_ms;
  j["p99_ms"] = r.p99_ms;
  j["late_p99_ms"] = r.late_p99_ms;
  j["backlog_growing"] = r.backlog_growing;
  j["pass"] = r.pass;
  return j;
}

/// Edge order of the daemon's graph answers: weight descending, then ids.
bool heavier(const cl::ServeEdge& x, const cl::ServeEdge& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.u != y.u) return x.u < y.u;
  return x.v < y.v;
}

bool same_answer(const std::vector<cl::ServeEdge>& x,
                 const std::vector<cl::ServeEdge>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x[i].u != y[i].u || x[i].v != y[i].v || x[i].weight != y[i].weight)
      return false;
  return true;
}

/// Checks every answered query against a batch build of the same input and
/// config; marks the wrong ones. Up to 2,000 distinct served pairs are also
/// recomputed with per-pair BsplineMi::mi.
void check_served(std::vector<Phase*> phases, const Plan& plan,
                  const tinge::ExpressionMatrix& input,
                  const tinge::TingeConfig& config, const std::string& inject,
                  Result& result) {
  const tinge::BuildResult batch = tinge::NetworkBuilder(config).build(input);
  const tinge::GeneNetwork& network = batch.network;
  const tinge::Adjacency adjacency(network);
  std::vector<cl::ServeEdge> ranked;
  for (const tinge::Edge& e : network.edges()) ranked.push_back({e.u, e.v, e.weight});
  std::sort(ranked.begin(), ranked.end(), heavier);
  Reference reference(input, config);

  if (inject == "wrong-served-value") {
    const auto damage_first_value = [&] {
      for (Phase* phase : phases)
        for (Outcome& o : phase->outcomes)
          if (!o.values.empty() && !o.error) {
            o.values[0] += 1e-3;
            return;
          }
    };
    damage_first_value();
  }

  std::size_t mi_wrong = 0, graph_wrong = 0, ref_wrong = 0, ref_checked = 0;
  std::string first_problem;
  std::set<std::pair<std::uint32_t, std::uint32_t>> recomputed;
  for (Phase* phase : phases) {
    for (Outcome& o : phase->outcomes) {
      if (o.error || o.sent == 0.0) continue;
      const Query& q = plan.queries[o.query];
      if (q.kind == QueryKind::MiPairs) {
        if (o.values.size() * 2 != q.pairs.size()) o.wrong = true;
        for (std::size_t p = 0; !o.wrong && p < o.values.size(); ++p) {
          const std::uint32_t a = q.pairs[2 * p], b = q.pairs[2 * p + 1];
          const double v = o.values[p];
          const float w = network.edge_weight(a, b);
          const bool ok = w >= 0.0f ? static_cast<float>(v) == w
                                    : v < batch.threshold;
          if (!ok) {
            o.wrong = true;
            if (first_problem.empty())
              first_problem = strprintf("served MI(%u,%u) = %.9g, batch %s %.9g",
                                        a, b, v, w >= 0.0f ? "edge" : "threshold",
                                        w >= 0.0f ? w : batch.threshold);
          }
          const auto key = std::minmax(a, b);
          if (recomputed.size() < 2000 && recomputed.insert(key).second) {
            ++ref_checked;
            if (std::fabs(reference.mi(a, b) - v) > kMiTolerance) {
              ++ref_wrong;
              o.wrong = true;
            }
          }
        }
        mi_wrong += o.wrong ? 1 : 0;
      } else {
        std::vector<cl::ServeEdge> expected;
        if (q.kind == QueryKind::Neighborhood) {
          if (q.gene < network.n_nodes())
            for (const auto& n : adjacency.neighbors(q.gene))
              expected.push_back({q.gene, n.node, n.weight});
          std::sort(expected.begin(), expected.end(), heavier);
        } else {
          expected = ranked;
        }
        if (q.k > 0 && expected.size() > q.k) expected.resize(q.k);
        o.wrong = !same_answer(o.edges, expected);
        graph_wrong += o.wrong ? 1 : 0;
      }
    }
  }
  result.check("served_mi_equals_batch_network", mi_wrong == 0,
               strprintf("%zu wrong MI queries%s%s", mi_wrong,
                         first_problem.empty() ? "" : ": ",
                         first_problem.c_str()));
  result.check("served_pairs_match_per_pair_mi", ref_wrong == 0,
               strprintf("%zu of %zu distinct pairs off", ref_wrong, ref_checked));
  result.check("served_graph_answers_match_network", graph_wrong == 0,
               strprintf("%zu wrong neighborhood/top-k answers", graph_wrong));
  for (const Phase* phase : phases)
    for (const Outcome& o : phase->outcomes)
      if (o.error && result.detail().find("first_query_error") == nullptr)
        result.detail()["first_query_error"] = o.message;
}

double pool_busy(tinge::par::ThreadPool& pool) {
  double busy = 0.0;
  for (const double b : pool.busy_seconds_all()) busy += b;
  return busy;
}

int senders_for(int threads) { return std::clamp(threads, 1, kMaxSenders); }

void run_untraced(const RunOptions& options, const Plan& plan,
                  const tinge::TingeConfig& config, Result& result) {
  const tinge::ExpressionMatrix input =
      tinge::read_expression_binary_file(options.expression_path);

  // The daemon that serves the traffic is the first setup; the others
  // follow the traffic, so the setups sample the host across the run.
  std::vector<double> setups, builds;
  Daemon daemon;
  const auto setup = [&] {
    daemon.stop();  // the previous daemon stops before the next starts
    daemon = start_daemon(input, config);
    setups.push_back(daemon.setup_seconds);
    builds.push_back(daemon.state_seconds);
    std::fprintf(stderr, "  setup %zu: %.3f s (network build %.3f s, kernel %s)\n",
                 setups.size(), daemon.setup_seconds, daemon.state_seconds,
                 daemon.state->build_stats().kernel);
  };
  setup();
  result.detail()["resolved"] = obs::Json::object();
  result.detail()["resolved"]["kernel"] = daemon.state->build_stats().kernel;
  result.detail()["resolved"]["panel_width"] =
      daemon.state->build_stats().panel_width;
  result.detail()["resolved"]["tile_size"] = config.tile_size;
  result.detail()["resolved"]["threads"] = daemon.state->pool().max_threads();

  const int senders = senders_for(options.threads);
  Loadgen loadgen(daemon.server->port(), plan, senders);
  const auto stop = [&] { daemon.server->stop(); };
  const double rung_seconds = std::max(1.0, options.seconds / 16.0);

  std::vector<Phase> phases;
  phases.push_back(loadgen.run(kBaseRate, options.seconds, nullptr, stop));
  const bool base_pass = rung_stats(phases.back()).pass;
  const auto base_it = std::find(kLadder.begin(), kLadder.end(), kBaseRate);
  if (base_pass) {
    for (auto it = base_it + 1; it != kLadder.end(); ++it) {
      phases.push_back(loadgen.run(*it, rung_seconds, nullptr, stop));
      if (!rung_stats(phases.back()).pass) break;
    }
  } else {
    for (auto it = base_it; it != kLadder.begin();) {
      --it;
      phases.push_back(loadgen.run(*it, rung_seconds, nullptr, stop));
      if (rung_stats(phases.back()).pass) break;
    }
  }
  const double peak_rss = proc_status_mib("VmHWM");
  const double vm_size = proc_status_mib("VmSize");
  daemon.server->stop();

  std::vector<Phase*> all;
  for (Phase& p : phases) all.push_back(&p);
  check_served(all, plan, input, config, options.inject, result);
  while (setups.size() < kSetups) setup();

  // Verdicts after the oracle: a wrong answer fails its rung too.
  std::size_t attempted = 0, failed = 0;
  std::vector<bool> pass;
  obs::Json rates = obs::Json::array();
  for (const Phase& p : phases) {
    const RungStats r = rung_stats(p);
    attempted += p.outcomes.size();
    failed += r.failed;
    pass.push_back(r.pass);
    rates.push_back(rung_json(p, r));
    std::fprintf(stderr,
                 "  rate %6.0f/s: %zu sent, %zu ok, %zu failed, p50 %.1f ms, "
                 "p99 %.1f ms, late p99 %.1f ms%s -> %s\n",
                 p.rate, r.sent, r.succeeded, r.failed, r.p50_ms, r.p99_ms,
                 r.late_p99_ms, r.backlog_growing ? ", backlog growing" : "",
                 r.pass ? "meets limit" : "misses limit");
  }
  // max_qps_at_slo: from a passing base, the last rung of the unbroken
  // climb; from a failing base, the first passing rung on the way down.
  double max_rate = 0.0;
  if (pass[0]) {
    max_rate = phases[0].rate;
    for (std::size_t i = 1; i < phases.size() && pass[i]; ++i)
      max_rate = phases[i].rate;
  } else {
    for (std::size_t i = 1; i < phases.size(); ++i)
      if (pass[i]) {
        max_rate = phases[i].rate;
        break;
      }
  }
  result.operations(attempted, failed);

  const Phase& base = phases.front();
  std::vector<double> latency;
  std::size_t within = 0;
  for (const Outcome& o : base.outcomes) {
    latency.push_back(o.latency_ms());
    if (!o.failed() && o.latency_ms() <= kLimitMs) ++within;
  }
  result.metric("setup_s", "s", median(setups));
  result.metric("build_s", "s", median(builds));
  result.metric("peak_rss_mb", "MiB", peak_rss);
  result.metric("query_p50_ms", "ms", median(latency));
  result.metric("query_p99_ms", "ms", quantile(latency, 0.99));
  result.metric("slo_share", "share",
                latency.empty() ? 0.0
                                : static_cast<double>(within) /
                                      static_cast<double>(latency.size()));
  result.metric("max_qps_at_slo", "1/s", max_rate);
  // Base-rate latency by query kind, to tell network stalls from sweeps.
  std::map<std::string, std::vector<double>> by_kind;
  for (const Outcome& o : base.outcomes) {
    const Query& q = plan.queries[o.query];
    const char* kind = q.one_shot ? "one_shot"
                       : q.kind == QueryKind::MiPairs ? "mi_pairs"
                       : q.kind == QueryKind::Neighborhood ? "neighborhood"
                                                           : "top_k";
    by_kind[kind].push_back(o.latency_ms());
  }
  obs::Json kinds = obs::Json::object();
  for (const auto& [kind, ms] : by_kind) {
    kinds[kind] = obs::Json::object();
    kinds[kind]["queries"] = ms.size();
    kinds[kind]["p50_ms"] = median(ms);
    kinds[kind]["p90_ms"] = quantile(ms, 0.9);
  }
  result.detail()["base_by_kind"] = std::move(kinds);
  result.detail()["rates"] = std::move(rates);
  result.detail()["limit_ms"] = kLimitMs;
  result.detail()["base_queries"] = base.outcomes.size();
  result.detail()["vmsize_mib_at_end"] = vm_size;
  result.detail()["setup_seconds"] = obs::Json::array();
  for (const double s : setups) result.detail()["setup_seconds"].push_back(s);
}

}  // namespace

ServeSession serve_layer_probe(const tinge::ExpressionMatrix& input,
                               const tinge::TingeConfig& config,
                               const Plan& plan, double seconds,
                               const std::string& inject, Result& result) {
  auto& registry = obs::MetricsRegistry::global();
  Daemon daemon = start_daemon(input, config);
  tinge::par::ThreadPool& pool = daemon.state->pool();
  tinge::TileCache& cache = daemon.state->cache();
  const int senders = senders_for(config.threads);
  Loadgen loadgen(daemon.server->port(), plan, senders);
  const auto stop = [&] { daemon.server->stop(); };

  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  const std::uint64_t evictions0 = cache.evictions();
  const std::uint64_t flushes0 = registry.counter("serve.batcher.flushes").value();
  const double busy0 = pool_busy(pool);
  const double start = now_seconds();

  // The base rate, half of the queries traced: the latency difference
  // between the halves is what the client-side spans cost.
  std::vector<obs::Trace> traces(static_cast<std::size_t>(senders));
  Phase phase = loadgen.run(kBaseRate, seconds, &traces, stop);

  const double wall = now_seconds() - start;
  const double busy = pool_busy(pool) - busy0;
  const std::uint64_t hits = cache.hits() - hits0;
  const std::uint64_t misses = cache.misses() - misses0;
  const std::uint64_t flushes =
      registry.counter("serve.batcher.flushes").value() - flushes0;
  const obs::HistogramSummary server =
      registry.histogram("serve.query.seconds").summary();

  std::vector<double> client_rt, late, span_share;
  std::size_t pairs = 0;
  for (const Outcome& o : phase.outcomes) {
    if (o.sent == 0.0) continue;
    client_rt.push_back((o.done - o.sent) * 1e3);
    late.push_back((o.sent - o.due) * 1e3);
    pairs += o.values.size();
  }
  for (const obs::Trace& trace : traces)
    for (const auto& query : trace.root().children) {
      double covered = 0.0;
      for (const auto& child : query->children) covered += child->seconds;
      if (query->seconds > 0.0) span_share.push_back(covered / query->seconds);
    }
  const auto p50 = [&](bool traced) {
    std::vector<double> ms;
    for (const Outcome& o : phase.outcomes)
      if (o.traced == traced) ms.push_back(o.latency_ms());
    return median(ms);
  };

  const double ping = loadgen.ping_ms(10);
  // Fresh connections: connect time, and what each costs the process's
  // address space once closed.
  constexpr int kConnections = 200;
  std::vector<double> connect_ms;
  const double vm_before = proc_status_mib("VmSize");
  for (int i = 0; i < kConnections; ++i) {
    const double t = now_seconds();
    cl::ServeClient client("127.0.0.1", daemon.server->port());
    connect_ms.push_back((now_seconds() - t) * 1e3);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double vm_after = proc_status_mib("VmSize");
  const std::uint64_t tiles_swept =
      daemon.state->query_engine(config.estimator).tiles_swept();
  const std::uint64_t evictions = cache.evictions() - evictions0;
  daemon.server->stop();

  check_served({&phase}, plan, input, config, inject, result);
  result.operations(phase.outcomes.size(), rung_stats(phase).failed);

  result.metric("query.cache_hit_ratio", "share",
                hits + misses > 0 ? static_cast<double>(hits) /
                                        static_cast<double>(hits + misses)
                                  : 0.0);
  result.metric("query.tiles_swept", "count", static_cast<double>(tiles_swept));
  result.metric("query.evictions", "count", static_cast<double>(evictions));
  result.metric("serve.registry_p50_ms", "ms", server.p50 * 1e3);
  result.metric("serve.registry_p99_ms", "ms", server.p99 * 1e3);
  result.metric("serve.client_over_registry_p50", "ratio",
                server.p50 > 0.0 ? median(client_rt) / (server.p50 * 1e3) : 0.0);
  result.metric("serve.ping_rtt_ms", "ms", ping);
  result.metric("serve.pairs_per_flush", "count",
                flushes > 0 ? static_cast<double>(pairs) /
                                  static_cast<double>(flushes)
                            : 0.0);
  result.metric("serve.connect_ms", "ms", median(connect_ms));
  result.metric("serve.vmsize_mb_per_kconn", "MiB",
                (vm_after - vm_before) * 1000.0 / kConnections);
  result.metric("loadgen.late_p99_ms", "ms", quantile(late, 0.99));

  ServeSession session;
  session.build_stats = daemon.state->build_stats();
  session.network_build_s = daemon.state_seconds;
  session.network = daemon.state->network();
  session.pool_busy_share = busy / (pool.max_threads() * wall);
  session.trace_overhead_share = p50(true) / p50(false) - 1.0;
  session.span_coverage = median(span_share);

  obs::Json d = obs::Json::object();
  d["genes"] = input.n_genes();
  d["queries"] = phase.outcomes.size();
  d["client_p50_untraced_ms"] = p50(false);
  d["client_p50_traced_ms"] = p50(true);
  d["kernel"] = session.build_stats.kernel;
  d["panel_width"] = session.build_stats.panel_width;
  d["tile_size"] = config.tile_size;
  result.detail()["serve_session"] = std::move(d);
  return session;
}

void run_serve(const RunOptions& options, const Plan& plan, Result& result) {
  const tinge::TingeConfig config =
      workload_config(options.workload, plan, options.threads);
  if (!options.trace) {
    run_untraced(options, plan, config, result);
    return;
  }
  // Traced: the session itself, then the layers it does not cross.
  const double read_start = now_seconds();
  const tinge::ExpressionMatrix input =
      tinge::read_expression_binary_file(options.expression_path);
  const double read_s = now_seconds() - read_start;
  const ServeSession session =
      serve_layer_probe(input, config, plan, options.seconds, options.inject,
                        result);

  const tinge::ExpressionMatrix slice =
      first_genes(input, probe_genes(input.n_genes(), input.n_samples()));
  const tinge::RankedMatrix slice_ranks = ranked_input(slice, config);
  probe_mi(slice_ranks, config, result);

  // The daemon's startup sweep is this workload's engine pass.
  const tinge::EngineStats& stats = session.build_stats;
  result.metric("engine.pairs_per_s", "1/s",
                static_cast<double>(stats.pairs_computed) / stats.seconds);
  probe_thread_scaling(slice_ranks, config, result);
  result.metric("engine.tile_p95_over_p50", "ratio",
                stats.tile_seconds_p50 > 0.0
                    ? stats.tile_seconds_p95 / stats.tile_seconds_p50
                    : 0.0);
  result.metric("engine.panel_fill", "share", stats.panel_fill_ratio());
  result.metric("engine.sweep_share", "share",
                stats.seconds / session.network_build_s);
  result.metric("pool.busy_share", "share", session.pool_busy_share);

  const double rank_start = now_seconds();
  const tinge::RankedMatrix ranked = ranked_input(input, config);
  result.metric("preprocess.rank_s", "s", now_seconds() - rank_start);
  result.metric("data.load_mb_per_s", "MiB/s",
                file_mib(options.expression_path) / read_s);
  probe_dpi(session.network, config, result);
  report_cluster(cluster_layer(slice, config, 3), result);
  result.metric("trace.overhead_share", "share", session.trace_overhead_share);
  result.metric("trace.stage_sum_share", "share", session.span_coverage);
}

}  // namespace perfbench
