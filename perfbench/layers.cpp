// Per-layer probes for the traced run. Each public entry point is called
// and timed from outside, on the workload's probe network; exact event
// counts come from the program's own obs counters. Nothing here changes
// how the program runs — the probes only call what its CLIs call.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>

#include "analysis/dataflow.h"
#include "analysis/propagation.h"
#include "analysis/reachability.h"
#include "analysis/rules.h"
#include "analysis/whatif.h"
#include "bench.h"
#include "config/parser.h"
#include "graph/instances.h"
#include "obs/obs.h"
#include "pipeline/parse_cache.h"
#include "pipeline/series.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "sim/sweep.h"
#include "util/rng.h"

namespace pb {

std::vector<rd::serve::Request> hit_requests(const std::string& fleet) {
  std::vector<rd::serve::Request> out;
  for (const char* op : {"audit", "whatif", "rdlint", "rdlint", "rdlint",
                         "reachability", "headerspace"}) {
    rd::serve::Request request;
    request.op = op;
    request.fleet = fleet;
    out.push_back(request);
  }
  out[2].format = "text";
  out[3].format = "json";
  out[4].format = "sarif";
  return out;
}

std::vector<rd::serve::Request> miss_requests(const rd::model::Network& network,
                                              const std::string& fleet,
                                              std::uint64_t seed,
                                              std::size_t count) {
  std::vector<std::string> addresses;
  for (const auto& itf : network.interfaces()) {
    if (itf.address && !itf.shutdown) {
      addresses.push_back(itf.address->to_string());
    }
  }
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()),
                  addresses.end());
  const std::size_t n = addresses.size();
  // Distinct ordered pairs, so no miss repeats a request asked before.
  count = std::min(count, n < 2 ? 0 : n * (n - 1));
  rd::util::Rng rng(seed);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::vector<rd::serve::Request> out;
  while (out.size() < count) {
    const std::size_t a = rng.below(n);
    const std::size_t b = rng.below(n);
    if (a == b || !seen.insert({a, b}).second) continue;
    rd::serve::Request request;
    // Alternate the two engines a miss can hit: a concrete fixpoint, or a
    // fixpoint plus the symbolic header space.
    request.op = out.size() % 2 == 0 ? "reachability" : "headerspace";
    request.fleet = fleet;
    request.source = addresses[a];
    request.destination = addresses[b];
    out.push_back(request);
  }
  return out;
}

rd::serve::QueryResult direct_query(const rd::serve::ResidentFleet& fleet,
                                    const rd::analysis::RuleEngine& engine,
                                    const rd::serve::Request& request,
                                    rd::util::ThreadPool& pool) {
  using namespace rd::serve;
  if (request.op == "audit") {
    return audit_report(*fleet.network, *fleet.graph, pool);
  }
  if (request.op == "whatif") {
    return whatif_report(*fleet.network, *fleet.graph, pool);
  }
  if (request.op == "rdlint") {
    return lint_report(*fleet.network, engine, fleet.report_name,
                       *lint_format_from(request.format), pool,
                       fleet.graph.get());
  }
  ReachabilityRequest reach;
  reach.symbolic = request.op == "headerspace";
  reach.source = request.source;
  reach.destination = request.destination;
  return reachability_report(*fleet.network, fleet.graph->set, reach);
}

namespace {

/// Median wall time of `reps` calls of `fn`, in ms.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(ms_since(t0));
  }
  return quantile(times, 0.5);
}

constexpr int kReps = 3;

std::uint64_t counter_of(const std::string& name) {
  for (const auto& [key, value] :
       rd::obs::Registry::instance().counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

void probe_sim(const rd::model::Network& network,
               const rd::graph::InstanceGraph& ig, std::uint64_t seed,
               rd::util::ThreadPool& pool, Report& report, LayerTimes& t) {
  namespace prop = rd::analysis::prop;
  const rd::sim::SweepOptions defaults;
  const auto scenarios = rd::sim::flap_scenarios(network, ig, 0);
  // The same capped problem sweep_scenarios builds.
  auto universe = prop::external_universe(network, {});
  if (universe.size() > defaults.max_external_prefixes) {
    universe.resize(defaults.max_external_prefixes);
  }
  const auto problem = prop::discover(network, ig.set, {}, universe);
  const auto baseline = prop::run_semi_naive(problem, {}).routes;

  rd::sim::Options options;
  options.seed = seed;
  struct Timed {
    rd::sim::ScenarioResult result;
    double ms = 0;
  };
  const auto start = Clock::now();
  const auto timed = rd::util::parallel_map(
      pool, scenarios, [&](const rd::sim::Scenario& scenario) {
        const auto t0 = Clock::now();
        Timed out{rd::sim::simulate(problem, scenario, options, &baseline), 0};
        out.ms = ms_since(t0);
        return out;
      });
  const double wall = ms_since(start);

  std::vector<double> scenario_ms;
  double events = 0;
  double microloops = 0;
  for (const auto& entry : timed) {
    scenario_ms.push_back(entry.ms);
    events += static_cast<double>(entry.result.events_processed);
    microloops += static_cast<double>(entry.result.microloops);
    report.check(entry.result.degraded_match && entry.result.final_match,
                 "sim probe scenario " + entry.result.name +
                     " disagrees with the static fixpoint");
  }
  t.sim_scenarios_ms = std::accumulate(scenario_ms.begin(), scenario_ms.end(),
                                       0.0);
  report.set("sim.scenario_p50_ms", quantile(scenario_ms, 0.5), "ms");
  report.set("sim.scenario_max_ms", quantile(scenario_ms, 1.0), "ms");
  report.set("sim.pool_efficiency",
             t.sim_scenarios_ms / (static_cast<double>(kThreads) * wall),
             "ratio");
  report.set("sim.events", events, "count");
  report.set("sim.microloops", microloops, "count");
  report.set("sim.events_per_s", events / (t.sim_scenarios_ms / 1000), "1/s");

  std::vector<double> cross_ms;
  for (const auto& scenario : scenarios) {
    if (scenario.failed.empty()) continue;
    cross_ms.push_back(median_ms(1, [&] {
      prop::run_semi_naive(prop::masked(problem, scenario.failed), {});
    }));
  }
  report.set("sim.cross_check_ms", quantile(cross_ms, 0.5), "ms");
}

void probe_serve(const NetInput& probe, std::uint64_t seed,
                 Report& report, const std::filesystem::path& scratch,
                 LayerTimes& t) {
  using namespace rd::serve;
  Service::Options options;
  options.threads = kThreads;
  Service service(options);
  service.add_fleet("probe", probe.dir);
  const auto hits = hit_requests("probe");
  std::vector<Response> filled;
  for (const auto& request : hits) filled.push_back(service.handle(request));

  std::vector<double> hit_us;
  for (std::size_t i = 0; i < 4000; ++i) {
    const auto t0 = Clock::now();
    const auto response = service.handle(hits[i % hits.size()]);
    hit_us.push_back(ms_since(t0) * 1000);
    if (i < hits.size()) {
      report.check(response.output == filled[i].output,
                   "probe hit reply changed");
    }
  }
  t.handle_hit_us = quantile(hit_us, 0.5);
  report.set("serve.handle_hit_us", t.handle_hit_us, "us");

  const auto misses =
      miss_requests(*service.fleets()[0].network, "probe", seed, 16);
  std::vector<double> miss_ms;
  for (const auto& request : misses) {
    const auto t0 = Clock::now();
    const auto response = service.handle(request);
    miss_ms.push_back(ms_since(t0));
    report.check(response.ok, "probe miss request refused");
  }
  report.set("serve.handle_miss_ms", quantile(miss_ms, 0.5), "ms");

  // Request and response framing at the hit replies' sizes.
  std::vector<double> frame_us;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto& request = hits[i % hits.size()];
    const auto& response = filled[i % hits.size()];
    const auto t0 = Clock::now();
    const auto req = decode_request(encode_request(request));
    const auto resp = decode_response(encode_response(response));
    frame_us.push_back(ms_since(t0) * 1000);
    if (i < hits.size()) {
      report.check(req && resp && resp->output == response.output,
                   "frame round trip changed a reply");
    }
  }
  t.frame_us = quantile(frame_us, 0.5);
  report.set("serve.frame_us", t.frame_us, "us");

  const auto socket = (scratch / "probe.sock").string();
  RunningServer server(service, socket);
  std::vector<double> connect_us;
  Request ping;
  ping.op = "ping";
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const int fd = connect_unix(socket);
    const auto response = fd >= 0 ? roundtrip(fd, ping) : std::nullopt;
    if (fd >= 0) ::close(fd);
    connect_us.push_back(ms_since(t0) * 1000);
    report.check(response && response->output == "pong\n",
                 "probe ping failed");
  }
  report.check(server.stop(), "probe server failed");
  t.connect_us = quantile(connect_us, 0.5);
  report.set("serve.connect_us", t.connect_us, "us");
  report.set("serve.response_cache_hit_ratio",
             static_cast<double>(service.response_cache_hits()) /
                 static_cast<double>(hit_us.size() + hits.size() +
                                     misses.size()),
             "ratio");
}

}  // namespace

LayerTimes layer_probes(const NetInput& probe, std::uint64_t seed,
                        rd::util::ThreadPool& pool, Report& report,
                        const std::filesystem::path& scratch) {
  namespace analysis = rd::analysis;
  LayerTimes t;

  std::vector<rd::config::ParseResult> parses;
  const double parse_ms = median_ms(kReps, [&] {
    parses.clear();
    for (std::size_t i = 0; i < probe.texts.size(); ++i) {
      parses.push_back(rd::config::parse_config(probe.texts[i], probe.names[i]));
    }
  });
  std::size_t diagnostics = 0;
  for (const auto& parse : parses) diagnostics += parse.diagnostics.size();
  report.set("config.parse_ms", parse_ms, "ms");
  report.set("config.mb_per_s",
             static_cast<double>(probe.bytes) / 1e6 / (parse_ms / 1000), "MB/s");
  report.set("config.diagnostics", static_cast<double>(diagnostics), "count");

  std::vector<double> model_ms;
  for (int i = 0; i < kReps; ++i) {
    auto copy = parses;
    const auto t0 = Clock::now();
    const auto network = rd::model::Network::build_parsed(std::move(copy));
    model_ms.push_back(ms_since(t0));
  }
  report.set("model.build_ms", quantile(model_ms, 0.5), "ms");

  std::optional<rd::model::Network> network;
  t.build_ms = median_ms(kReps, [&] {
    rd::pipeline::ParseCache cache;
    network = rd::pipeline::build_network_cached(probe.texts, probe.names,
                                                 cache, pool);
  });
  report.set("pipeline.build_ms", t.build_ms, "ms");

  std::optional<rd::graph::InstanceGraph> ig;
  t.graph_ms =
      median_ms(kReps, [&] { ig = rd::graph::InstanceGraph::build(*network); });
  report.set("graph.instance_graph_ms", t.graph_ms, "ms");

  const auto universe = analysis::prop::external_universe(*network, {});
  t.discover_ms = median_ms(kReps, [&] {
    analysis::prop::discover(*network, ig->set, {}, universe);
  });
  report.set("analysis.discover_ms", t.discover_ms, "ms");

  t.fixpoint_ms = median_ms(kReps, [&] {
    analysis::ReachabilityAnalysis::run(*network, ig->set);
  });
  report.set("analysis.fixpoint_ms", t.fixpoint_ms, "ms");

  const auto engine = analysis::RuleEngine::with_default_rules();
  std::vector<double> rules_ms;
  std::map<std::string, std::vector<double>> rule_ms;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    const auto result = engine.run(*network, *ig, pool);
    rules_ms.push_back(ms_since(t0));
    for (const auto& timing : result.timings) {
      rule_ms[timing.rule_id].push_back(timing.millis);
    }
  }
  t.rules_ms = quantile(rules_ms, 0.5);
  report.set("analysis.rules_ms", t.rules_ms, "ms");
  for (const char* id : {"RD050", "RD060", "RD062", "RD043"}) {
    report.set(std::string("analysis.rule_") + id + "_ms",
               quantile(rule_ms[id], 0.5), "ms");
  }

  report.set("analysis.dataflow_ms", median_ms(kReps, [&] {
               analysis::InstanceDataflow flow(*network, *ig);
             }),
             "ms");

  const auto scenarios = analysis::single_failure_scenarios(*network, *ig);
  t.whatif_ms = median_ms(kReps, [&] {
    analysis::sweep_failure_scenarios(*network, ig->set, scenarios, {}, pool);
  });
  report.set("analysis.whatif_ms", t.whatif_ms, "ms");
  report.set("analysis.whatif_scenarios",
             static_cast<double>(scenarios.size()), "count");

  report.set("serve.audit_report_ms", median_ms(kReps, [&] {
               rd::serve::audit_report(*network, *ig, pool);
             }),
             "ms");

  // Exact event counts of one audit, from the program's own counters.
  auto& registry = rd::obs::Registry::instance();
  registry.reset();
  registry.set_counting(true);
  rd::serve::audit_report(*network, *ig, pool);
  registry.set_counting(false);
  report.set("analysis.reachability_runs",
             static_cast<double>(counter_of("reachability.runs")), "count");
  report.set("analysis.dataflow_runs",
             static_cast<double>(counter_of("dataflow.runs")), "count");
  report.set("analysis.routes",
             static_cast<double>(counter_of("reachability.routes")), "count");
  registry.reset();

  probe_sim(*network, *ig, seed, pool, report, t);
  probe_serve(probe, seed, report, scratch, t);
  return t;
}

}  // namespace pb
