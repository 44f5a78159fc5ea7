// The four workloads. Each builds its inputs from the seed before any timed
// region, runs its loop for the requested time, checks every answer, and
// sets the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Why each workload exists is recorded in BENCHMARK.json and
// README.md.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "analysis/propagation.h"
#include "bench.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "obs/obs.h"
#include "pipeline/series.h"
#include "sim/sweep.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "util/rng.h"

namespace pb {
namespace {

namespace fs = std::filesystem;
using rd::util::ThreadPool;

// Inputs per run. Generated networks and simulation seeds differ in cost;
// spreading a run over several of them keeps one unlucky seed from moving
// the run's figures.
constexpr std::size_t kAuditNets = 16;
constexpr std::size_t kSimSeeds = 12;
// The audit_cold network at seed 1 (260 routers, 11 flap scenarios):
// daemon_mix holds it resident and sim_flap sweeps it.
constexpr std::uint64_t kTopologySeed = 1;
// fleet_pipeline analyzes the repository's study fleet (fleet seed 42, the
// one every fleet bench uses); the run seed draws the serial-oracle sample
// and the probe network. A pass is bound by the fleet's largest networks,
// whose sizes vary from fleet seed to fleet seed, moving the pass by a
// fifth; fixing the fleet keeps a run's figure steady.
constexpr std::uint64_t kFleetSeed = 42;

// daemon_mix: open-loop Poisson arrivals at a fixed offered rate, an eighth
// of the warm daemon's closed-loop capacity on a quiet host (--capacity 1
// measures it). A shared host takes back a varying share of a VM's CPU.
// Near half the capacity the mix then measures the host, not the daemon:
// two competing busy threads cut the capacity by over a quarter, the
// arrivals queue, and the hit median triples. At this rate three such threads move
// the median by a sixth. The server keeps one finished thread, and its
// 8 MB stack mapping, per connection until shutdown, and thread creation
// fails near 30,000 of them; a run at the default length opens about 2,300.
constexpr double kDaemonRate = 150;        // requests per second
constexpr double kMissShare = 0.10;        // never-asked endpoint pairs
constexpr std::size_t kInFlight = 4;       // client connections at once
constexpr double kLatencyLimitMs = 500;    // later than this counts failed
constexpr int kReplyTimeoutS = 10;
// --capacity 1: requests sent back to back, well under the thread ceiling.
constexpr std::size_t kCapacityRequests = 12000;

void flip(std::string& bytes) {
  if (bytes.empty()) bytes = "x";
  bytes[bytes.size() / 2] ^= 0x20;
}

double median_of_input(const LoopSamples& samples, std::size_t input) {
  std::vector<double> values;
  for (std::size_t i = 0; i < samples.latency_ms.size(); ++i) {
    if (samples.index[i] == input) values.push_back(samples.latency_ms[i]);
  }
  return quantile(values, 0.5);
}

/// Runs a closed loop for half the time untraced and half with obs
/// tracing and counting on.
template <class Op>
std::pair<LoopSamples, LoopSamples> traced_halves(double seconds,
                                                  std::size_t min_ops,
                                                  std::size_t inputs, Op& op) {
  auto plain = closed_loop(seconds / 2, min_ops, inputs, op);
  auto& registry = rd::obs::Registry::instance();
  registry.reset();
  registry.set_tracing(true);
  registry.set_counting(true);
  auto traced = closed_loop(seconds / 2, min_ops, inputs, op);
  registry.set_tracing(false);
  registry.set_counting(false);
  registry.reset();
  return {std::move(plain), std::move(traced)};
}

/// Per-input medians on stderr: which input a slow run came from.
void log_inputs(const char* workload, const LoopSamples& samples,
                std::size_t inputs) {
  std::fprintf(stderr, "perfbench: %s %zu operations; per-input medians ms:",
               workload, samples.latency_ms.size());
  for (std::size_t i = 0; i < inputs; ++i) {
    std::fprintf(stderr, " %.1f", median_of_input(samples, i));
  }
  std::fprintf(stderr, "\n");
}

void set_e2e(Report& report, double setup_s, double p50_ms, double slow_ms) {
  report.set("setup_s", setup_s, "s");
  report.set("p50_ms", p50_ms, "ms");
  report.set("slow_ms", slow_ms, "ms");
  report.set("peak_rss_mb", proc_status().vm_hwm_mb, "MB");
}

/// Median of a few untraced runs of `op(input)`: the probe input's own
/// operation time, against which trace.coverage sums the probed layers.
template <class Op>
double probe_op_ms(Op& op, std::size_t input) {
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    op(input);
    times.push_back(ms_since(t0));
  }
  return quantile(times, 0.5);
}

/// The built audit_network binary, next to this driver.
std::string sibling_binary(const std::string& name) {
  return (fs::read_symlink("/proc/self/exe").parent_path() / name).string();
}

/// Stdout of `audit_network DIR` run as its own process.
std::string one_shot_audit(const std::string& dir) {
  const std::string command = "'" + sibling_binary("audit_network") + "' '" +
                              dir + "' --threads " +
                              std::to_string(kThreads) + " 2>/dev/null";
  std::string out;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  // Exit 1 only means error-severity findings; anything else is a failure.
  if (!WIFEXITED(status) || WEXITSTATUS(status) > 1) out += "\n(exit error)";
  return out;
}

/// prop::run_naive, the reference engine, against the default engine.
bool naive_matches(const NetInput& net, ThreadPool& pool, bool corrupt) {
  namespace prop = rd::analysis::prop;
  rd::pipeline::ParseCache cache;
  const auto network =
      rd::pipeline::build_network_cached(net.texts, net.names, cache, pool);
  const auto ig = rd::graph::InstanceGraph::build(network);
  const auto problem = prop::discover(
      network, ig.set, {}, prop::external_universe(network, {}));
  auto naive = prop::run_naive(problem);
  const auto fast = prop::run_semi_naive(problem, {});
  if (corrupt && !naive.routes.empty()) naive.routes.back().clear();
  return naive.routes == fast.routes && naive.announced == fast.announced;
}

}  // namespace

// --- audit_cold -------------------------------------------------------------

int run_audit_cold(const Args& args, Report& report) {
  Workspace ws("audit_cold");
  ThreadPool pool(kThreads);
  std::vector<NetInput> nets;
  std::vector<std::string> refs;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kAuditNets; ++i) {
    const auto t0 = Clock::now();
    nets.push_back(write_managed(sub_seed(args.seed, i),
                                 ws.path() / ("net" + std::to_string(i))));
    refs.push_back(audit_dir(nets.back().dir, pool));
    setup_s.push_back(ms_since(t0) / 1000);
    report.attempt();
  }
  if (args.corrupt == "audit-ref") flip(refs[0]);

  std::string cli = one_shot_audit(nets[0].dir);
  if (args.corrupt == "cli") flip(cli);
  report.check(cli == refs[0], "audit_network DIR stdout differs from the "
                               "in-process audit");
  report.check(naive_matches(nets[0], pool, args.corrupt == "naive"),
               "run_naive differs from run_semi_naive");

  const auto after_setup = proc_status();
  auto op = [&](std::size_t i) {
    report.check(audit_dir(nets[i].dir, pool) == refs[i],
                 "audit of net" + std::to_string(i) + " changed");
  };
  if (!args.trace) {
    const auto s = closed_loop(args.seconds, 2 * kAuditNets, kAuditNets, op);
    log_inputs("audit_cold", s, kAuditNets);
    // A run holds two to three audits per input, too few for a p90: the
    // slow figure is each input's slowest audit, averaged over inputs.
    set_e2e(report, quantile(setup_s, 0.5), mean_of_medians(s, kAuditNets),
            mean_of_quantiles(s, kAuditNets, 1.0));
    return 0;
  }
  const auto [plain, traced] =
      traced_halves(args.seconds, kAuditNets, kAuditNets, op);
  const auto end = proc_status();
  set_fanout_figures(fanout_pass(as_fleet(nets), pool), report);
  const auto t = layer_probes(nets[0], args.seed, pool, report, ws.path());
  RunFigures run;
  run.untraced_ms = mean_of_medians(plain, kAuditNets);
  run.traced_ms = mean_of_medians(traced, kAuditNets);
  run.probe_op_ms = probe_op_ms(op, 0);
  run.covered_ms =
      t.build_ms + t.graph_ms + t.fixpoint_ms + t.rules_ms + t.whatif_ms;
  run.generator_late_p99_ms = quantile(plain.gap_ms, 0.99);
  run.thread_stacks_end = end.thread_stacks;
  run.vmsize_growth_mb = end.vm_size_mb - after_setup.vm_size_mb;
  set_run_figures(run, report);
  return 0;
}

// --- fleet_pipeline ---------------------------------------------------------

namespace {

bool same_report(const rd::pipeline::NetworkReport& a,
                 const rd::pipeline::NetworkReport& b) {
  return a.name == b.name && a.archetype == b.archetype &&
         a.routers == b.routers && a.links == b.links &&
         a.instances == b.instances &&
         a.consistency_findings == b.consistency_findings &&
         a.lint_findings == b.lint_findings &&
         a.rule_findings == b.rule_findings &&
         a.rule_errors == b.rule_errors &&
         a.parse_diagnostics == b.parse_diagnostics &&
         a.internet_reaching_instances == b.internet_reaching_instances &&
         a.json == b.json && a.instance_graph_dot == b.instance_graph_dot;
}

std::size_t mismatches(const std::vector<rd::pipeline::NetworkReport>& got,
                       const std::vector<rd::pipeline::NetworkReport>& want) {
  if (got.size() != want.size()) return want.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_report(got[i], want[i])) ++bad;
  }
  return bad;
}

}  // namespace

int run_fleet_pipeline(const Args& args, Report& report) {
  Workspace ws("fleet_pipeline");
  ThreadPool pool(kThreads);
  const auto t0 = Clock::now();
  std::vector<rd::pipeline::FleetInput> inputs;
  std::vector<std::size_t> routers;
  NetInput probe;
  std::vector<std::size_t> sample;
  {
    const auto fleet = rd::synth::generate_fleet(kFleetSeed);
    for (const auto& net : fleet.networks) {
      rd::pipeline::FleetInput input{net.name, {}};
      for (const auto& config : net.configs) {
        input.texts.push_back(rd::config::write_config(config));
      }
      inputs.push_back(std::move(input));
      routers.push_back(net.configs.size());
    }
    // Serial-oracle sample: seeded, from the networks no larger than the
    // median, so the serial reference costs seconds rather than minutes.
    auto sorted = routers;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t median = sorted[sorted.size() / 2];
    std::vector<std::size_t> small;
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (routers[i] <= median) small.push_back(i);
    }
    rd::util::Rng rng(args.seed);
    for (int k = 0; k < 3 && !small.empty(); ++k) {
      const std::size_t pick = rng.below(small.size());
      sample.push_back(small[pick]);
      small.erase(small.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (args.trace) {
      rd::synth::emit_network(fleet.networks[sample[0]].configs,
                              ws.path() / "probe");
      probe = load_net(ws.path() / "probe");
    }
  }
  auto first = rd::pipeline::analyze_fleet_parallel(inputs, pool);
  const double setup_s = ms_since(t0) / 1000;
  report.attempt();
  if (args.corrupt == "fleet-ref") flip(first[0].json);

  std::vector<rd::pipeline::FleetInput> subset;
  for (const auto i : sample) subset.push_back(inputs[i]);
  auto serial = rd::pipeline::analyze_fleet_serial(subset);
  if (args.corrupt == "serial") flip(serial[0].json);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    report.check(same_report(serial[k], first[sample[k]]),
                 "serial analysis of " + inputs[sample[k]].name +
                     " differs from the parallel pass");
  }

  const auto after_setup = proc_status();
  // Each pass starts from a trimmed heap with the peak reset, as a fresh
  // process would; the RSS figure is the median of the passes' peaks.
  // Without the trim, the peak depends on what earlier passes left in the
  // allocator's arenas and varies by half from run to run.
  std::vector<double> pass_peak_mb;
  auto op = [&](std::size_t) {
    auto reports = rd::pipeline::analyze_fleet_parallel(inputs, pool);
    pass_peak_mb.push_back(proc_status().vm_hwm_mb);
    const std::size_t bad = mismatches(reports, first);
    report.check(bad == 0, std::to_string(bad) + " network report(s) changed "
                                                 "between passes");
  };
  if (!args.trace) {
    // A run holds two passes: the slow figure is the slower one.
    const auto s = closed_loop(args.seconds, 2, 1, op, reset_peak_rss);
    set_e2e(report, setup_s, quantile(s.latency_ms, 0.5),
            quantile(s.latency_ms, 1.0));
    report.set("peak_rss_mb", quantile(pass_peak_mb, 0.5), "MB");
    std::fprintf(stderr, "perfbench: fleet passes ms:");
    for (const double ms : s.latency_ms) std::fprintf(stderr, " %.0f", ms);
    std::fprintf(stderr, "; peaks MB:");
    for (const double mb : pass_peak_mb) std::fprintf(stderr, " %.0f", mb);
    std::fprintf(stderr, "\n");
    return 0;
  }
  const auto plain = closed_loop(args.seconds / 2, 1, 1, op);
  auto& registry = rd::obs::Registry::instance();
  registry.reset();
  registry.set_tracing(true);
  registry.set_counting(true);
  const auto fanout = fanout_pass(inputs, pool);
  registry.set_tracing(false);
  registry.set_counting(false);
  registry.reset();
  report.check(mismatches(fanout.reports, first) == 0,
               "timed fan-out pass differs from the first pass");
  const auto end = proc_status();
  set_fanout_figures(fanout, report);
  layer_probes(probe, args.seed, pool, report, ws.path());
  RunFigures run;
  run.untraced_ms = quantile(plain.latency_ms, 0.5);
  run.traced_ms = fanout.wall_ms;
  run.probe_op_ms = run.untraced_ms;
  run.covered_ms = fanout.sum_ms / static_cast<double>(kThreads);
  run.generator_late_p99_ms = quantile(plain.gap_ms, 0.99);
  run.thread_stacks_end = end.thread_stacks;
  run.vmsize_growth_mb = end.vm_size_mb - after_setup.vm_size_mb;
  set_run_figures(run, report);
  return 0;
}

// --- daemon_mix -------------------------------------------------------------

namespace {

struct Planned {
  double due_ms = 0;           // offset from the schedule's start
  const rd::serve::Request* request = nullptr;
  const std::string* expect = nullptr;  // hit reference; null for misses
  std::size_t kind = 0;  // request kind within its class, for per-kind stats
};

struct Outcome {
  double latency_ms = 0;  // done - due
  double late_ms = 0;     // send start - due
  bool ok = false;
  std::string output;     // kept for misses, checked after the run
};

/// One request on a fresh connection, as rdctl sends it.
bool send_fresh(const std::string& socket, const rd::serve::Request& request,
                rd::serve::Response& response) {
  const int fd = rd::serve::connect_unix(socket);
  if (fd < 0) return false;
  timeval timeout{kReplyTimeoutS, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  auto reply = rd::serve::roundtrip(fd, request);
  ::close(fd);
  if (!reply || !reply->ok) return false;
  response = std::move(*reply);
  return true;
}

}  // namespace

int run_daemon_mix(const Args& args, Report& report) {
  Workspace ws("daemon_mix");
  // The daemon holds the audit_cold network at seed 1; the run seed drives
  // the arrivals, the hit/miss draw and the endpoint pairs. Hit cost
  // follows reply size and miss cost follows the network, both of which
  // vary widely across generated networks.
  const auto net = write_managed(kTopologySeed, ws.path() / "net");
  const auto hits = hit_requests("net");

  // Set-up, several times: Service construction, add_fleet, every hit key
  // filled once. The last service stays up to serve the mix.
  std::unique_ptr<rd::serve::Service> service;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    rd::serve::Service::Options options;
    options.threads = kThreads;
    service = std::make_unique<rd::serve::Service>(options);
    service->add_fleet("net", net.dir);
    for (const auto& request : hits) service->handle(request);
    setup_s.push_back(ms_since(t0) / 1000);
  }
  const auto& fleet = service->fleets()[0];

  // References: the direct query functions over the same resident fleet.
  const auto engine = rd::analysis::RuleEngine::with_default_rules();
  std::vector<std::string> refs;
  for (const auto& request : hits) {
    refs.push_back(direct_query(fleet, engine, request, service->pool()).output);
  }
  if (args.corrupt == "hit-ref") flip(refs[0]);
  const double requests = args.capacity
                              ? static_cast<double>(kCapacityRequests)
                              : kDaemonRate * args.seconds;
  const auto misses =
      miss_requests(*fleet.network, "net", args.seed ^ 0x5eed,
                    static_cast<std::size_t>(requests * kMissShare * 2) + 100);

  // Schedules: Poisson arrivals, each a hit (any key) or a miss no earlier
  // request asked. A traced run splits its time between an untraced and a
  // traced schedule. The capacity schedule has every request due at once.
  rd::util::Rng rng(args.seed ^ 0xda3e);
  std::size_t next_miss = 0;
  auto draw = [&](double due_ms) {
    Planned p;
    p.due_ms = due_ms;
    if (rng.chance(kMissShare) && next_miss < misses.size()) {
      p.request = &misses[next_miss++];
      p.kind = p.request->op == "headerspace" ? 1 : 0;
    } else {
      p.kind = rng.below(hits.size());
      p.request = &hits[p.kind];
      p.expect = &refs[p.kind];
    }
    return p;
  };
  auto schedule = [&](double seconds) {
    std::vector<Planned> plan;
    if (args.capacity) {
      for (std::size_t i = 0; i < kCapacityRequests; ++i) {
        plan.push_back(draw(0));
      }
      return plan;
    }
    for (double t = 0;;) {
      t += -std::log(1 - rng.uniform()) * 1000 / kDaemonRate;
      if (t >= seconds * 1000) break;
      plan.push_back(draw(t));
    }
    return plan;
  };
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const auto plain_plan = schedule(seconds);
  const auto traced_plan = args.trace ? schedule(seconds)
                                      : std::vector<Planned>{};

  const auto socket = (ws.path() / "rdd.sock").string();
  const auto after_setup = proc_status();
  const std::size_t hits_after_setup = service->response_cache_hits();
  RunningServer server(*service, socket);

  auto run_mix = [&](const std::vector<Planned>& plan) {
    std::vector<Outcome> outcomes(plan.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kInFlight; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i; (i = next++) < plan.size();) {
          const auto& p = plan[i];
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(p.due_ms));
          std::this_thread::sleep_until(due);
          auto& o = outcomes[i];
          o.late_ms = ms_since(due);
          rd::serve::Response response;
          o.ok = send_fresh(socket, *p.request, response);
          o.latency_ms = ms_since(due);
          if (p.expect != nullptr) {
            o.ok = o.ok && response.output == *p.expect;
          } else {
            o.output = std::move(response.output);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    return outcomes;
  };

  const auto mix_start = Clock::now();
  const auto plain = run_mix(plain_plan);
  const double mix_s = ms_since(mix_start) / 1000;
  std::vector<Outcome> traced;
  if (args.trace) {
    auto& registry = rd::obs::Registry::instance();
    registry.reset();
    registry.set_tracing(true);
    registry.set_counting(true);
    traced = run_mix(traced_plan);
    registry.set_tracing(false);
    registry.set_counting(false);
    registry.reset();
  }
  const auto end = proc_status();
  const std::size_t mix_hits = service->response_cache_hits() - hits_after_setup;
  report.check(server.stop(), "server loop failed");

  // Check every reply: hits were compared as they arrived, misses are
  // compared with the direct query now. A failed request counts as over
  // the latency limit.
  auto check = [&](const std::vector<Planned>& plan,
                   const std::vector<Outcome>& outcomes) {
    std::vector<double> latency;
    std::vector<std::size_t> answered_misses;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& o = outcomes[i];
      const std::string op = plan[i].request->op;
      report.check(o.ok, "request " + op + " failed or changed its reply");
      if (o.ok && !args.capacity && o.latency_ms > kLatencyLimitMs) {
        report.fail("request " + op + " missed the latency limit");
      }
      latency.push_back(o.ok ? o.latency_ms
                             : std::max(o.latency_ms, kLatencyLimitMs));
      if (o.ok && plan[i].expect == nullptr) answered_misses.push_back(i);
    }
    auto expected = rd::util::parallel_map(
        service->pool(), answered_misses, [&](std::size_t i) {
          return direct_query(fleet, engine, *plan[i].request,
                              service->pool())
              .output;
        });
    if (args.corrupt == "miss-ref" && !expected.empty()) flip(expected[0]);
    for (std::size_t k = 0; k < answered_misses.size(); ++k) {
      if (outcomes[answered_misses[k]].output != expected[k]) {
        report.fail("miss reply differs from the direct query");
      }
    }
    return latency;
  };
  const auto latency = check(plain_plan, plain);
  const auto traced_latency = check(traced_plan, traced);
  // Per-kind statistics, averaged over kinds: hit kinds differ in reply
  // size by two orders of magnitude, so a pooled median would jump between
  // kinds as the random mix shifts.
  LoopSamples hit_samples;
  LoopSamples miss_samples;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    auto& into = plain_plan[i].expect != nullptr ? hit_samples : miss_samples;
    into.latency_ms.push_back(latency[i]);
    into.index.push_back(plain_plan[i].kind);
  }
  const std::size_t hit_kinds = hits.size();
  const std::size_t miss_kinds = 2;  // reachability, headerspace
  const double hit_p50 = mean_of_medians(hit_samples, hit_kinds);
  // The miss class is the mix's slow tenth; its median is the slow figure.
  // Per-kind miss p90s swing by half between runs on a shared host, since
  // they catch whichever burst of contention the run met.
  const double miss_p50 = mean_of_medians(miss_samples, miss_kinds);
  std::fprintf(stderr,
               "perfbench: daemon_mix %zu requests; hits %zu p50 %.3f p99 "
               "%.3f ms; misses %zu p50 %.3f p90 %.3f ms\n",
               plain.size(), hit_samples.latency_ms.size(),
               quantile(hit_samples.latency_ms, 0.5),
               quantile(hit_samples.latency_ms, 0.99),
               miss_samples.latency_ms.size(),
               quantile(miss_samples.latency_ms, 0.5),
               quantile(miss_samples.latency_ms, 0.9));

  if (args.capacity) {
    // Closed loop: kInFlight clients, each sending its next request as soon
    // as the last one is answered.
    const double rps = static_cast<double>(plain.size()) / mix_s;
    std::fprintf(stderr, "perfbench: daemon_mix capacity %.0f requests/s\n",
                 rps);
    report.set("capacity_rps", rps, "1/s");
    return 0;
  }
  if (!args.trace) {
    set_e2e(report, quantile(setup_s, 0.5), hit_p50, miss_p50);
    return 0;
  }
  // One network: a placeholder at 1 / kThreads by construction.
  set_fanout_figures(fanout_pass(as_fleet({net}), service->pool()), report);
  const auto t =
      layer_probes(net, args.seed, service->pool(), report, ws.path());
  std::vector<double> late;
  for (const auto& o : plain) late.push_back(o.late_ms);
  RunFigures run;
  std::vector<double> traced_hits;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced_plan[i].expect != nullptr) {
      traced_hits.push_back(traced_latency[i]);
    }
  }
  run.untraced_ms = quantile(hit_samples.latency_ms, 0.5);
  run.traced_ms = quantile(traced_hits, 0.5);
  run.probe_op_ms = run.untraced_ms;
  run.covered_ms = (t.connect_us + t.frame_us + t.handle_hit_us) / 1000;
  run.generator_late_p99_ms = quantile(late, 0.99);
  run.thread_stacks_end = end.thread_stacks;
  run.vmsize_growth_mb = end.vm_size_mb - after_setup.vm_size_mb;
  set_run_figures(run, report);
  // The mix's own response-cache share, not the probe service's.
  report.set("serve.response_cache_hit_ratio",
             static_cast<double>(mix_hits) /
                 static_cast<double>(plain.size() + traced.size()),
             "ratio");
  return 0;
}

// --- sim_flap ---------------------------------------------------------------

int run_sim_flap(const Args& args, Report& report) {
  Workspace ws("sim_flap");
  ThreadPool pool(kThreads);
  // One topology, the audit_cold network at seed 1, swept under several
  // simulation seeds derived from the run seed (timer jitter, link delays).
  // Sweep cost follows the topology's flap-scenario count, which varies 4x
  // across generated networks, and the simulation seed moves it by a tenth;
  // averaging over seeds on one topology keeps a run's figure steady.
  std::vector<rd::sim::SweepOptions> variants(kSimSeeds);
  NetInput net;
  std::unique_ptr<const rd::model::Network> network;
  std::optional<rd::graph::InstanceGraph> graph;
  std::vector<std::string> refs;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSimSeeds; ++i) {
    variants[i].seed = sub_seed(args.seed, i);
    const auto t0 = Clock::now();
    net = write_managed(kTopologySeed,
                        ws.path() / ("net" + std::to_string(i)));
    rd::pipeline::ParseCache cache;
    network = std::make_unique<const rd::model::Network>(
        rd::pipeline::build_network_cached(net.texts, net.names, cache, pool));
    graph = rd::graph::InstanceGraph::build(*network);
    refs.push_back(rd::sim::simulate_report(*network, *graph, variants[i],
                                            pool));
    setup_s.push_back(ms_since(t0) / 1000);
    report.attempt();
  }
  if (args.corrupt == "sim-match") refs[0] += "MISMATCH\n";
  if (args.corrupt == "sim-ref") flip(refs[0]);
  for (const auto& ref : refs) {
    // simulate_report marks a scenario MISMATCH unless both its
    // degraded_match and final_match cross-checks held.
    report.check(ref.find("MISMATCH") == std::string::npos,
                 "a scenario disagrees with the static fixpoint");
  }

  const auto after_setup = proc_status();
  auto op = [&](std::size_t i) {
    report.check(rd::sim::simulate_report(*network, *graph, variants[i],
                                          pool) == refs[i],
                 "sweep under seed " + std::to_string(variants[i].seed) +
                     " changed");
  };
  if (!args.trace) {
    const auto s = closed_loop(args.seconds, 2 * kSimSeeds, kSimSeeds, op);
    log_inputs("sim_flap", s, kSimSeeds);
    // A run holds two to three sweeps per seed, too few for a p90: the slow
    // figure is each seed's slowest sweep, averaged over seeds.
    set_e2e(report, quantile(setup_s, 0.5), mean_of_medians(s, kSimSeeds),
            mean_of_quantiles(s, kSimSeeds, 1.0));
    return 0;
  }
  const auto [plain, traced] =
      traced_halves(args.seconds, kSimSeeds, kSimSeeds, op);
  const auto end = proc_status();
  // One network: a placeholder at 1 / kThreads by construction.
  set_fanout_figures(fanout_pass(as_fleet({net}), pool), report);
  const auto t =
      layer_probes(net, variants[0].seed, pool, report, ws.path());
  RunFigures run;
  run.untraced_ms = mean_of_medians(plain, kSimSeeds);
  run.traced_ms = mean_of_medians(traced, kSimSeeds);
  run.probe_op_ms = probe_op_ms(op, 0);
  run.covered_ms = t.discover_ms + t.sim_scenarios_ms / kThreads;
  run.generator_late_p99_ms = quantile(plain.gap_ms, 0.99);
  run.thread_stacks_end = end.thread_stacks;
  run.vmsize_growth_mb = end.vm_size_mb - after_setup.vm_size_mb;
  set_run_figures(run, report);
  return 0;
}

}  // namespace pb
