// End-to-end benchmark driver: one process runs one seeded workload for a
// fixed time, checks every answer against an oracle the repository already
// trusts, and prints one JSON result line last on stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--corrupt ORACLE] [--capacity 0|1]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (layer entry points timed from outside, obs counters read through
// obs::Registry). --corrupt breaks one oracle's reference on purpose so a
// test can see that oracle fail. --capacity 1 (daemon_mix only) measures the
// warm daemon's closed-loop capacity, from which the mix's offered rate was
// set. See README.md in this directory.
#include <malloc.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "graph/instances.h"
#include "pipeline/parse_cache.h"
#include "pipeline/series.h"
#include "serve/queries.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/stats.h"

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  return rd::util::quantile(std::move(values), q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

std::vector<std::vector<double>> by_input(const LoopSamples& samples,
                                          std::size_t inputs) {
  std::vector<std::vector<double>> out(inputs);
  for (std::size_t i = 0; i < samples.latency_ms.size(); ++i) {
    out[samples.index[i]].push_back(samples.latency_ms[i]);
  }
  return out;
}

}  // namespace

double mean_of_medians(const LoopSamples& samples, std::size_t inputs) {
  return mean_of_quantiles(samples, inputs, 0.5);
}

double mean_of_quantiles(const LoopSamples& samples, std::size_t inputs,
                         double q) {
  std::vector<double> per_input;
  for (const auto& values : by_input(samples, inputs)) {
    if (!values.empty()) per_input.push_back(quantile(values, q));
  }
  return mean(per_input);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why) {
  ++failed_;
  // Enough to diagnose; a systematic failure would otherwise flood stderr.
  if (logged_++ < 20) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
}

void Report::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail(what);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", entry.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

ProcStatus proc_status() {
  ProcStatus status;
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    double value = 0;
    if (key == "VmHWM:" && in >> value) status.vm_hwm_mb = value / 1024;
    if (key == "VmSize:" && in >> value) status.vm_size_mb = value / 1024;
    in.ignore(1 << 20, '\n');
  }
  pthread_attr_t attr;
  std::size_t stack_size = 0;
  if (::pthread_getattr_default_np(&attr) == 0) {
    ::pthread_attr_getstacksize(&attr, &stack_size);
    ::pthread_attr_destroy(&attr);
  }
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[5] = {};
    int name_at = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx %4s %*s %*s %*s %n", &lo, &hi,
                    perms, &name_at) >= 3 &&
        hi - lo == stack_size && std::string(perms) == "rw-p" &&
        line.find_first_not_of(' ', static_cast<std::size_t>(name_at)) ==
            std::string::npos) {
      ++status.thread_stacks;
    }
  }
  return status;
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

Workspace::Workspace(const std::string& tag)
    : path_(std::filesystem::path(".bench_work") /
            (tag + "-" + std::to_string(::getpid()))) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

Workspace::~Workspace() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
  std::filesystem::remove(path_.parent_path(), ignored);  // only if empty
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  // splitmix64 of (seed, i): neighbouring run seeds share no derived seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

NetInput write_managed(std::uint64_t seed, const std::filesystem::path& dir) {
  rd::synth::ManagedEnterpriseParams params;
  params.seed = seed;
  rd::synth::emit_network(rd::synth::make_managed_enterprise(params).configs,
                          dir);
  return load_net(dir);
}

NetInput load_net(const std::filesystem::path& dir) {
  auto loaded = rd::synth::load_network_texts_named(dir);
  NetInput net;
  net.dir = dir.string();
  net.texts = std::move(loaded.texts);
  net.names = std::move(loaded.names);
  for (const auto& text : net.texts) net.bytes += text.size();
  return net;
}

std::string audit_dir(const std::string& dir, rd::util::ThreadPool& pool) {
  auto loaded = rd::synth::load_network_texts_named(dir);
  rd::pipeline::ParseCache cache;
  const auto network = rd::pipeline::build_network_cached(
      loaded.texts, loaded.names, cache, pool);
  const auto ig = rd::graph::InstanceGraph::build(network);
  return rd::serve::audit_report(network, ig, pool).output;
}

RunningServer::RunningServer(rd::serve::Service& service,
                             const std::string& socket)
    : server_(service, {socket, -1}), loop_([this] {
        try {
          server_.run();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: server: %s\n", e.what());
          failed_ = true;
        }
      }) {}

RunningServer::~RunningServer() { stop(); }

bool RunningServer::stop() {
  server_.request_stop();
  if (loop_.joinable()) loop_.join();
  return !failed_;
}

std::vector<rd::pipeline::FleetInput> as_fleet(
    const std::vector<NetInput>& nets) {
  std::vector<rd::pipeline::FleetInput> fleet;
  for (const auto& net : nets) {
    fleet.push_back({std::filesystem::path(net.dir).filename().string(),
                     net.texts});
  }
  return fleet;
}

Fanout fanout_pass(const std::vector<rd::pipeline::FleetInput>& inputs,
                   rd::util::ThreadPool& pool) {
  struct Timed {
    rd::pipeline::NetworkReport report;
    double ms = 0;
  };
  Fanout out;
  const auto start = Clock::now();
  auto timed = rd::util::parallel_map(
      pool, inputs, [](const rd::pipeline::FleetInput& input) {
        const auto t0 = Clock::now();
        Timed t{rd::pipeline::analyze_network(
                    input.name, rd::pipeline::build_network_serial(input.texts)),
                0};
        t.ms = ms_since(t0);
        return t;
      });
  out.wall_ms = ms_since(start);
  for (auto& t : timed) {
    out.sum_ms += t.ms;
    out.max_ms = std::max(out.max_ms, t.ms);
    out.reports.push_back(std::move(t.report));
  }
  return out;
}

void set_fanout_figures(const Fanout& fanout, Report& report) {
  report.set("pipeline.network_max_ms", fanout.max_ms, "ms");
  report.set("pipeline.pool_efficiency",
             fanout.sum_ms / (static_cast<double>(kThreads) * fanout.wall_ms),
             "ratio");
}

void set_run_figures(const RunFigures& run, Report& report) {
  report.set("obs.trace_overhead", run.traced_ms / run.untraced_ms - 1,
             "ratio");
  report.set("trace.coverage", run.covered_ms / run.probe_op_ms, "ratio");
  report.set("serve.generator_late_p99_ms", run.generator_late_p99_ms, "ms");
  report.set("serve.threads_end", run.thread_stacks_end, "count");
  report.set("serve.vmsize_growth_mb", run.vmsize_growth_mb, "MB");
}

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

/// Commit and dirty flag come from the wrapper (the build tree cannot see
/// git); compiler and build type from the build itself.
void print_provenance(const Args& args) {
  std::printf(
      "# provenance {\"commit\": \"%s\", \"dirty\": \"%s\", "
      "\"source_sha1\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"pool_threads\": %zu}\n",
      env_or("PERFBENCH_COMMIT", "unknown").c_str(),
      env_or("PERFBENCH_DIRTY", "unknown").c_str(),
      env_or("PERFBENCH_SOURCE_SHA1", "unknown").c_str(),
      std::thread::hardware_concurrency(), PB_COMPILER, PB_BUILD_TYPE,
      args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
      kThreads);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else if (flag == "--capacity") {
      if (value != "0" && value != "1") return false;
      args.capacity = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  pb::Args args;
  if (!pb::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--corrupt ORACLE] "
                 "[--capacity 0|1]\n");
    return 2;
  }
  int (*run)(const pb::Args&, pb::Report&) = nullptr;
  if (args.workload == "audit_cold") run = pb::run_audit_cold;
  if (args.workload == "fleet_pipeline") run = pb::run_fleet_pipeline;
  if (args.workload == "daemon_mix") run = pb::run_daemon_mix;
  if (args.workload == "sim_flap") run = pb::run_sim_flap;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  pb::print_provenance(args);
  pb::Report report;
  try {
    if (const int rc = run(args, report); rc != 0) return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 2;
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
