// Shared scaffolding for the end-to-end benchmark driver: run arguments,
// the result record, timing and quantile helpers, /proc sampling, and the
// seeded input generators. Every workload links the repository's libraries
// unchanged and reaches them only through their public headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rules.h"
#include "pipeline/pipeline.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/thread_pool.h"

namespace pb {

/// Every pool in the benchmark has this many workers, so results compare
/// across machines with different core counts.
inline constexpr std::size_t kThreads = 4;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: deliberately corrupt the named oracle's reference, so the
  /// smoke test can prove each oracle is able to fail.
  std::string corrupt;
  /// daemon_mix only: measure the warm daemon's closed-loop capacity
  /// instead of running the open-loop mix.
  bool capacity = false;
};

/// One run's outcome: the contract's last stdout line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Count one operation as attempted.
  void attempt() { ++attempted_; }
  /// Record one failed or mis-answered operation (already attempted).
  void fail(const std::string& why);
  /// Check an oracle: one attempted operation, failed unless `ok`.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t logged_ = 0;
};

/// Fields of /proc/self/status, in MB where sizes, and the thread stacks
/// mapped in /proc/self/maps.
struct ProcStatus {
  double vm_hwm_mb = 0;
  double vm_size_mb = 0;
  /// Anonymous mappings of exactly the default thread-stack size: live
  /// threads plus exited threads nobody joined yet (and the few stacks the
  /// C library caches for reuse). The `Threads:` line counts live threads
  /// only, so it cannot see a thread that exited unjoined.
  double thread_stacks = 0;
};
ProcStatus proc_status();
/// Return freed heap to the system and restart the VmHWM peak, so the next
/// peak reading covers only what runs after this call.
void reset_peak_rss();

/// A scratch directory under the working directory, removed on scope exit.
class Workspace {
 public:
  explicit Workspace(const std::string& tag);
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// The i-th input seed derived from the run seed; i = 0 is the seed itself
/// (the managed enterprise at seed 1 has 260 routers).
std::uint64_t sub_seed(std::uint64_t seed, std::size_t i);

/// One generated network as the program sees it: a config directory and
/// the texts/names `audit_network DIR` would load from it.
struct NetInput {
  std::string dir;
  std::vector<std::string> texts;
  std::vector<std::string> names;
  std::size_t bytes = 0;
};

/// Load a config directory's texts the way `audit_network DIR` does.
NetInput load_net(const std::filesystem::path& dir);

/// Generate a managed enterprise from default ManagedEnterpriseParams and
/// `seed`, write it to `dir`, and load it back as text.
NetInput write_managed(std::uint64_t seed, const std::filesystem::path& dir);

/// The one-shot cold audit: load DIR, fresh parse cache, cached build,
/// instance graph, audit report — what `audit_network DIR` does in-process.
std::string audit_dir(const std::string& dir, rd::util::ThreadPool& pool);

/// Samples of a closed loop: per-operation latency and the driver's own
/// gap between one operation's end and the next one's start.
struct LoopSamples {
  std::vector<double> latency_ms;
  std::vector<double> gap_ms;
  std::vector<std::size_t> index;  // which input each operation used
};

/// Run `op(i)` back to back, i = 0, 1, ..., until `seconds` have passed
/// and at least `min_ops` ran. A further operation is not started when its
/// expected end lies past a quarter beyond the deadline. `prepare` runs
/// untimed before each operation.
template <class Op, class Prepare = void (*)()>
LoopSamples closed_loop(double seconds, std::size_t min_ops, std::size_t inputs,
                        Op&& op, Prepare prepare = [] {}) {
  LoopSamples out;
  const auto start = Clock::now();
  auto last_end = start;
  double total_ms = 0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_since(start);
    if (i >= min_ops) {
      const double expected = total_ms / static_cast<double>(i);
      if (elapsed >= seconds * 1000 ||
          elapsed + expected > seconds * 1250) {
        break;
      }
    }
    prepare();
    const auto t0 = Clock::now();
    out.gap_ms.push_back(ms_between(last_end, t0));
    op(i % inputs);
    last_end = Clock::now();
    const double took = ms_between(t0, last_end);
    total_ms += took;
    out.latency_ms.push_back(took);
    out.index.push_back(i % inputs);
  }
  return out;
}

/// Mean over inputs of each input's median latency: the run's typical
/// operation time with the per-input size differences averaged out.
double mean_of_medians(const LoopSamples& samples, std::size_t inputs);
/// Mean over inputs of each input's q-quantile latency; q = 1 gives the
/// mean of each input's slowest operation.
double mean_of_quantiles(const LoopSamples& samples, std::size_t inputs,
                         double q);

/// Layer times the probes measured, for the workloads' coverage sums.
struct LayerTimes {
  double build_ms = 0;         // pipeline::build_network_cached
  double graph_ms = 0;         // graph::InstanceGraph::build
  double fixpoint_ms = 0;      // ReachabilityAnalysis::run
  double rules_ms = 0;         // RuleEngine::run
  double whatif_ms = 0;        // the single-failure sweep
  double discover_ms = 0;      // prop::discover
  double sim_scenarios_ms = 0; // sum of sim::simulate over the sweep
  double handle_hit_us = 0;    // Service::handle, response-cache hit
  double frame_us = 0;         // request + response encode/decode
  double connect_us = 0;       // fresh connection + ping round trip
};

/// Per-layer probes on one network: time each public entry point from
/// outside, read exact obs counts, and set every per-layer metric that
/// does not come from the workload's own run. Oracle failures land in
/// `report`; `scratch` holds the probe daemon's socket.
LayerTimes layer_probes(const NetInput& probe, std::uint64_t seed,
                        rd::util::ThreadPool& pool, Report& report,
                        const std::filesystem::path& scratch);

/// The daemon mix's request classes: the seven parameterless analysis
/// requests a warm client repeats (hits), and reachability/headerspace
/// endpoint pairs never asked before (misses), drawn from the network's
/// interface addresses.
std::vector<rd::serve::Request> hit_requests(const std::string& fleet);
std::vector<rd::serve::Request> miss_requests(const rd::model::Network& network,
                                              const std::string& fleet,
                                              std::uint64_t seed,
                                              std::size_t count);
/// The direct serve:: query function behind a request: the bytes a socket
/// reply must equal.
rd::serve::QueryResult direct_query(const rd::serve::ResidentFleet& fleet,
                                    const rd::analysis::RuleEngine& engine,
                                    const rd::serve::Request& request,
                                    rd::util::ThreadPool& pool);

/// An rdd server on a Unix socket, run on its own thread for the object's
/// lifetime; the destructor stops and joins it, on error paths too.
class RunningServer {
 public:
  RunningServer(rd::serve::Service& service, const std::string& socket);
  ~RunningServer();
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  /// Stop accepting and join; true when the server loop ended cleanly.
  bool stop();

 private:
  rd::serve::Server server_;
  std::atomic<bool> failed_{false};
  std::thread loop_;  // last: starts after the members it uses
};

/// One fleet pass fanned out exactly as pipeline::analyze_fleet_parallel
/// does (one task per network: serial build, then analyze_network), with
/// each task timed from outside.
struct Fanout {
  std::vector<rd::pipeline::NetworkReport> reports;
  double wall_ms = 0;
  double sum_ms = 0;  // summed task time
  double max_ms = 0;  // slowest network
};
Fanout fanout_pass(const std::vector<rd::pipeline::FleetInput>& inputs,
                   rd::util::ThreadPool& pool);
/// Set pipeline.network_max_ms and pipeline.pool_efficiency.
void set_fanout_figures(const Fanout& fanout, Report& report);
/// The fleet inputs of a set of generated networks.
std::vector<rd::pipeline::FleetInput> as_fleet(
    const std::vector<NetInput>& nets);

/// Per-layer figures each workload measures on its own run.
struct RunFigures {
  double untraced_ms = 0;  // one workload operation, tracing off
  double traced_ms = 0;    // the same with obs tracing and counting on
  double probe_op_ms = 0;  // one untraced operation on the probe input
  double covered_ms = 0;   // timed layer calls that make up that operation
  double generator_late_p99_ms = 0;
  double thread_stacks_end = 0;
  double vmsize_growth_mb = 0;
};

/// Set obs.trace_overhead, trace.coverage and the serve.* run figures.
void set_run_figures(const RunFigures& run, Report& report);

int run_audit_cold(const Args& args, Report& report);
int run_fleet_pipeline(const Args& args, Report& report);
int run_daemon_mix(const Args& args, Report& report);
int run_sim_flap(const Args& args, Report& report);

}  // namespace pb
