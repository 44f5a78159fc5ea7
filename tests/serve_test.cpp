// The rdd serve layer: frame protocol round-trips (including the oversize
// guard), Service request dispatch, and the determinism contract — every
// analysis response is byte-identical to the shared query functions run
// over a directly-built network, at pool sizes 1/2/8, across repeats, and
// under concurrent multi-client hammering (in-process and through a real
// Unix-socket Server). A client that hangs up without reading its reply
// (EPIPE) must not take the daemon down.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rules.h"
#include "config/writer.h"
#include "graph/instances.h"
#include "model/network.h"
#include "obs/obs.h"
#include "pipeline/parse_cache.h"
#include "pipeline/pipeline.h"
#include "pipeline/series.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

std::filesystem::path fleet_dir() {
  // One directory per process: ctest runs each case as its own process,
  // concurrently, and one must not delete the fleet another is reading.
  struct Dir {
    std::filesystem::path path =
        std::filesystem::path(testing::TempDir()) /
        ("rd_serve_fleet_" + std::to_string(::getpid()));
    Dir() {
      std::filesystem::remove_all(path);
      synth::ManagedEnterpriseParams params;
      params.regions = 2;
      params.spokes_per_region = 4;
      params.ebgp_spoke_rate = 0.3;
      synth::emit_network(synth::make_managed_enterprise(params).configs,
                          path);
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// The one-shot CLI's construction of the same fleet: parse with file
/// provenance, build, graph. What every daemon response is diffed against.
struct Reference {
  model::Network network;
  graph::InstanceGraph graph;

  static const Reference& instance() {
    static Reference* ref = [] {
      auto network = model::Network::build(synth::load_network(fleet_dir()));
      auto graph = graph::InstanceGraph::build(network);
      return new Reference{std::move(network), std::move(graph)};
    }();
    return *ref;
  }
};

// --- Frame protocol ---------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payloads[] = {"", "x", std::string(100000, 'q'),
                                  std::string("\x00\xff binary", 9)};
  for (const auto& payload : payloads) {
    ASSERT_TRUE(serve::write_frame(fds[0], payload));
    std::string got;
    std::string error;
    ASSERT_TRUE(serve::read_frame(fds[1], got, &error)) << error;
    EXPECT_EQ(got, payload);
  }
  // Clean EOF: close one end, read reports false with no error text.
  ::close(fds[0]);
  std::string got;
  std::string error;
  EXPECT_FALSE(serve::read_frame(fds[1], got, &error));
  EXPECT_TRUE(error.empty());
  ::close(fds[1]);
}

TEST(ServeProtocol, OversizeFrameIsRejectedWithoutAllocating) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix claiming 3.5 GiB.
  const unsigned char evil[4] = {0xE0, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fds[0], evil, 4, 0), 4);
  std::string got;
  std::string error;
  EXPECT_FALSE(serve::read_frame(fds[1], got, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  // And the writer refuses to produce one: a payload past the limit is
  // rejected before any bytes hit the wire.
  const std::string too_big(serve::kMaxFrameBytes + 1, 'z');
  EXPECT_FALSE(serve::write_frame(fds[0], too_big));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocol, TruncatedFrameBodyIsAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char prefix[4] = {0, 0, 0, 10};  // promises 10 bytes
  ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
  ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);  // delivers 3
  ::close(fds[0]);
  std::string got;
  std::string error;
  EXPECT_FALSE(serve::read_frame(fds[1], got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  ::close(fds[1]);
}

TEST(ServeProtocol, RequestAndResponseJsonRoundTrip) {
  serve::Request request;
  request.op = "reachability";
  request.fleet = "corp";
  request.source = "10.0.0.1";
  request.destination = "10.0.1.1";
  request.naive = true;
  const auto decoded = serve::decode_request(serve::encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, request.op);
  EXPECT_EQ(decoded->fleet, request.fleet);
  EXPECT_EQ(decoded->source, request.source);
  EXPECT_EQ(decoded->destination, request.destination);
  EXPECT_TRUE(decoded->naive);

  serve::Response response;
  response.ok = false;
  response.exit_code = 2;
  response.output = "line one\nline two\n";
  response.error = "unknown fleet 'x'\n";
  const auto back = serve::decode_response(serve::encode_response(response));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->exit_code, 2);
  EXPECT_EQ(back->output, response.output);
  EXPECT_EQ(back->error, response.error);

  EXPECT_FALSE(serve::decode_request("not json"));
  EXPECT_FALSE(serve::decode_request("{\"no_op\": 1}"));
  EXPECT_FALSE(serve::decode_response("{\"ok\": \"maybe\"}"));
}

// --- Construction equivalence -----------------------------------------------

TEST(ServeService, CachedBuildMatchesDirectLoad) {
  // The daemon builds fleets through the parse cache with provenance
  // stamping; the CLIs parse files directly. Identical models — the root
  // of the byte-identity contract.
  auto loaded = synth::load_network_texts_named(fleet_dir());
  ASSERT_FALSE(loaded.texts.empty());
  pipeline::ParseCache cache;
  util::ThreadPool pool(2);
  const auto cached = pipeline::build_network_cached(loaded.texts,
                                                     loaded.names, cache, pool);
  EXPECT_EQ(pipeline::network_signature(cached),
            pipeline::network_signature(Reference::instance().network));
}

// --- Service dispatch and determinism ---------------------------------------

serve::Request op_request(const char* op) {
  serve::Request request;
  request.op = op;
  return request;
}

std::vector<serve::Request> analysis_requests() {
  std::vector<serve::Request> requests;
  for (const char* op :
       {"audit", "whatif", "reachability", "headerspace", "simulate"}) {
    serve::Request r;
    r.op = op;
    requests.push_back(r);
  }
  for (const char* format : {"text", "json", "sarif"}) {
    serve::Request r;
    r.op = "rdlint";
    r.format = format;
    requests.push_back(r);
  }
  return requests;
}

/// What the one-shot CLIs would print for this request, computed from the
/// reference network via the same shared query functions.
serve::QueryResult reference_result(const serve::Request& request,
                                    util::ThreadPool& pool) {
  const auto& ref = Reference::instance();
  if (request.op == "audit") {
    return serve::audit_report(ref.network, ref.graph, pool);
  }
  if (request.op == "whatif") {
    return serve::whatif_report(ref.network, ref.graph, pool);
  }
  if (request.op == "simulate") {
    return serve::simulate_report(ref.network, ref.graph, request.seed,
                                  request.until_ms, pool);
  }
  if (request.op == "rdlint") {
    // Reports name the network after the config directory's basename (the
    // one-shot CLI convention), never the daemon-local fleet name.
    const auto engine = analysis::RuleEngine::with_default_rules();
    return serve::lint_report(ref.network, engine,
                              fleet_dir().filename().string(),
                              *serve::lint_format_from(request.format), pool);
  }
  serve::ReachabilityRequest reach;
  reach.symbolic = request.op == "headerspace";
  reach.naive = request.naive;
  reach.source = request.source;
  reach.destination = request.destination;
  return serve::reachability_report(ref.network, ref.graph.set, reach);
}

TEST(ServeService, ResponsesAreByteIdenticalAcrossPoolSizes) {
  util::ThreadPool reference_pool(1);
  const auto requests = analysis_requests();
  std::vector<std::string> expected;
  std::vector<int> expected_exit;
  for (const auto& request : requests) {
    const auto qr = reference_result(request, reference_pool);
    expected.push_back(qr.output);
    expected_exit.push_back(qr.exit_code);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    serve::Service::Options options;
    options.threads = threads;
    serve::Service service(options);
    service.add_fleet("corp", fleet_dir().string());
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto response = service.handle(requests[i]);
        EXPECT_TRUE(response.ok);
        EXPECT_EQ(response.exit_code, expected_exit[i])
            << requests[i].op << " at " << threads << " threads";
        EXPECT_EQ(response.output, expected[i])
            << requests[i].op << " at " << threads << " threads, repeat "
            << repeat;
      }
    }
  }
}

TEST(ServeService, EndpointQueriesMatchReference) {
  // A concrete reachable pair: two spoke subnets from the generated plan.
  const auto& ref = Reference::instance();
  // Find two interface addresses on different routers to query between.
  std::string a;
  std::string b;
  for (const auto& itf : ref.network.interfaces()) {
    if (!itf.address) continue;
    if (a.empty()) {
      a = itf.address->to_string();
    } else if (itf.router != 0) {
      b = itf.address->to_string();
      break;
    }
  }
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());

  serve::Service::Options options;
  options.threads = 2;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());
  util::ThreadPool pool(1);
  for (const char* op : {"reachability", "headerspace"}) {
    serve::Request request;
    request.op = op;
    request.source = a;
    request.destination = b;
    const auto expected = reference_result(request, pool);
    const auto response = service.handle(request);
    EXPECT_EQ(response.output, expected.output) << op;
    EXPECT_EQ(response.exit_code, expected.exit_code) << op;
  }
  // Bad addresses surface the CLI's usage error.
  serve::Request bad;
  bad.op = "reachability";
  bad.source = "not-an-address";
  bad.destination = "also-not";
  const auto response = service.handle(bad);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.exit_code, 2);
  EXPECT_EQ(response.error, "bad addresses\n");
}

TEST(ServeService, DispatchErrorsAndHousekeepingOps) {
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  EXPECT_EQ(service.handle(op_request("ping")).output, "pong\n");
  const auto fleets = service.handle(op_request("fleets"));
  EXPECT_NE(fleets.output.find("corp:"), std::string::npos);

  const auto unknown_op = service.handle(op_request("frobnicate"));
  EXPECT_FALSE(unknown_op.ok);
  EXPECT_EQ(unknown_op.exit_code, 2);

  serve::Request wrong_fleet;
  wrong_fleet.op = "audit";
  wrong_fleet.fleet = "nope";
  EXPECT_FALSE(service.handle(wrong_fleet).ok);

  serve::Request bad_format;
  bad_format.op = "rdlint";
  bad_format.format = "yaml";
  const auto bad = service.handle(bad_format);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.exit_code, 2);

  const auto stats = service.handle(op_request("stats"));
  EXPECT_TRUE(stats.ok);
  EXPECT_NE(stats.output.find("\"parse_cache\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"response_cache\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"queue_depth\""), std::string::npos);
}

TEST(ServeService, TracedRequestsRecordTheirRootSpans) {
  // Each request's root span is named "serve.<op>"; the span keeps a view
  // of that name, so the name must outlive it (under ASan a temporary name
  // shows up as stack-use-after-scope).
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.set_tracing(true);
  EXPECT_EQ(service.handle(op_request("ping")).output, "pong\n");
  EXPECT_TRUE(service.handle(op_request("audit")).ok);
  registry.set_tracing(false);

  const auto doc = util::Json::parse(registry.trace_json());
  registry.reset();
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < events->size(); ++i) {
    if (const auto* name = events->at(i)->get("name")) {
      if (const auto* text = name->if_string()) names.push_back(*text);
    }
  }
  for (const char* expected : {"serve.ping", "serve.audit"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from the trace";
  }
}

TEST(ServeService, RepeatAnalysisRequestsHitTheResponseCache) {
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Request audit;
  audit.op = "audit";
  const auto first = service.handle(audit);
  EXPECT_EQ(service.response_cache_hits(), 0u);
  const auto second = service.handle(audit);
  EXPECT_EQ(service.response_cache_hits(), 1u);
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(second.exit_code, first.exit_code);

  // A different request is a different cache key, not a false hit.
  serve::Request lint;
  lint.op = "rdlint";
  lint.format = "json";
  service.handle(lint);
  EXPECT_EQ(service.response_cache_hits(), 1u);
  service.handle(lint);
  EXPECT_EQ(service.response_cache_hits(), 2u);
}

TEST(ServeService, SimulateSeedAndCapArePartOfTheCacheKey) {
  serve::Service::Options options;
  options.threads = 2;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Request request;
  request.op = "simulate";
  const auto default_seed = service.handle(request);
  EXPECT_TRUE(default_seed.ok);
  service.handle(request);
  EXPECT_EQ(service.response_cache_hits(), 1u);

  // A different seed is a different pure function: no false cache hit, and
  // the dynamics (event timings in the report) genuinely differ.
  request.seed = 7;
  const auto other_seed = service.handle(request);
  EXPECT_EQ(service.response_cache_hits(), 1u);
  EXPECT_TRUE(other_seed.ok);
  EXPECT_NE(other_seed.output, default_seed.output);

  // So is a different time cap.
  request.seed = 42;
  request.until_ms = 60'000;
  service.handle(request);
  EXPECT_EQ(service.response_cache_hits(), 1u);

  // And the protocol carries both: a decoded wire request reproduces them.
  const auto decoded = serve::decode_request(serve::encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seed, 42u);
  EXPECT_EQ(decoded->until_ms, 60'000u);
}

TEST(ServeService, StatsSeparateColdBuildsFromServingLatency) {
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Request audit;
  audit.op = "audit";
  service.handle(audit);  // cold: computes and fills the response cache
  service.handle(audit);  // warm: cache hit
  service.handle(audit);  // warm: cache hit

  const auto stats = service.handle(op_request("stats"));
  const auto doc = util::Json::parse(stats.output);
  ASSERT_TRUE(doc.has_value() && doc->is_object()) << stats.output;
  const auto* ops = doc->get("ops");
  ASSERT_TRUE(ops != nullptr && ops->is_array());
  bool found = false;
  for (std::size_t i = 0; i < ops->size(); ++i) {
    const auto* entry = ops->at(i);
    const auto* op = entry->get("op");
    if (op == nullptr || op->if_string() == nullptr ||
        *op->if_string() != "audit") {
      continue;
    }
    found = true;
    // One cold build, counted and costed separately; the percentiles cover
    // only the two cache-hit servings, so the one-time build cannot sit in
    // p99 forever.
    EXPECT_EQ(entry->get("count")->int_or(-1), 3);
    EXPECT_EQ(entry->get("builds")->int_or(-1), 1);
    ASSERT_NE(entry->get("build_ms"), nullptr);
    EXPECT_GT(entry->get("build_ms")->number_or(-1.0), 0.0);
    const auto* p99 = entry->get("p99_ms");
    ASSERT_NE(p99, nullptr);
    // Cache hits are microseconds; the cold audit build is orders of
    // magnitude slower. If the build leaked into the percentile, p99
    // would be ~build_ms.
    EXPECT_LT(p99->number_or(1e9),
              entry->get("build_ms")->number_or(0.0));
  }
  EXPECT_TRUE(found) << stats.output;
}

TEST(ServeService, StatsReportNoPercentileWithoutServedSamples) {
  // One cold reachability call: a build, and no served request to take a
  // percentile over. The percentiles read null, not a misleading 0.
  const auto& ref = Reference::instance();
  std::vector<std::string> addresses;
  for (const auto& itf : ref.network.interfaces()) {
    if (itf.address) addresses.push_back(itf.address->to_string());
    if (addresses.size() == 2) break;
  }
  ASSERT_EQ(addresses.size(), 2u);
  serve::Request reach;
  reach.op = "reachability";
  reach.source = addresses[0];
  reach.destination = addresses[1];
  serve::Service::Options options;
  options.threads = 1;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());
  ASSERT_TRUE(service.handle(reach).ok);

  const auto stats = service.handle(op_request("stats"));
  const auto doc = util::Json::parse(stats.output);
  ASSERT_TRUE(doc.has_value() && doc->is_object()) << stats.output;
  const auto* ops = doc->get("ops");
  ASSERT_TRUE(ops != nullptr && ops->is_array());
  bool found = false;
  for (std::size_t i = 0; i < ops->size(); ++i) {
    const auto* entry = ops->at(i);
    const auto* op = entry->get("op");
    if (op == nullptr || op->if_string() == nullptr ||
        *op->if_string() != "reachability") {
      continue;
    }
    found = true;
    EXPECT_EQ(entry->get("count")->int_or(-1), 1);
    EXPECT_EQ(entry->get("builds")->int_or(-1), 1);
    ASSERT_NE(entry->get("p50_ms"), nullptr);
    ASSERT_NE(entry->get("p99_ms"), nullptr);
    EXPECT_TRUE(entry->get("p50_ms")->is_null());
    EXPECT_TRUE(entry->get("p99_ms")->is_null());
  }
  EXPECT_TRUE(found) << stats.output;
}

TEST(ServeService, ConcurrentClientsGetIdenticalBytes) {
  util::ThreadPool reference_pool(1);
  const auto requests = analysis_requests();
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    expected.push_back(reference_result(request, reference_pool).output);
  }

  serve::Service::Options options;
  options.threads = 4;
  serve::Service service(options);
  service.add_fleet("corp", fleet_dir().string());

  constexpr int kClients = 6;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const auto i = static_cast<std::size_t>(c + round) % requests.size();
        const auto response = service.handle(requests[i]);
        if (response.output != expected[i]) ++mismatches[c];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

// --- Server end-to-end -------------------------------------------------------

TEST(ServeServer, UnixSocketEndToEndWithConcurrentClients) {
  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_e2e.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 2;
  serve::Service service(service_options);
  service.add_fleet("corp", fleet_dir().string());

  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  util::ThreadPool reference_pool(1);
  const auto requests = analysis_requests();
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    expected.push_back(reference_result(request, reference_pool).output);
  }

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = serve::connect_unix(socket_path);
      if (fd < 0) {
        ++failures[c];
        return;
      }
      // Several requests on one connection, answered in order.
      for (int round = 0; round < 2; ++round) {
        const auto i = static_cast<std::size_t>(c + round) % requests.size();
        const auto response = serve::roundtrip(fd, requests[i]);
        if (!response || response->output != expected[i]) ++failures[c];
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  // A client that sends a request and hangs up without reading the reply
  // must not kill the daemon (EPIPE, not SIGPIPE)...
  {
    const int fd = serve::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::write_frame(fd, serve::encode_request(op_request("ping"))));
    ::close(fd);
  }
  // ...and the next client still gets served.
  {
    const int fd = serve::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    const auto response = serve::roundtrip(fd, op_request("ping"));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->output, "pong\n");
    ::close(fd);
  }

  // Shutdown op stops the accept loop; run() returns and the socket file
  // is collected by the server's destructor.
  {
    const int fd = serve::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    const auto response = serve::roundtrip(fd, op_request("shutdown"));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->output, "shutting down\n");
    ::close(fd);
  }
  server_thread.join();
}

void eintr_noop_handler(int) {}

TEST(ServeServer, SignalInterruptedPollIsRetriedNotTreatedAsShutdown) {
  // Regression: the accept loop's poll(2) used to treat every failure as a
  // stop request, so any non-EINTR error made rdd "shut down" cleanly with
  // exit 0 — and a stray signal was one misclassification away from the
  // same fate. Interrupt the loop repeatedly with a handler installed
  // WITHOUT SA_RESTART (so poll really returns EINTR) and require the
  // daemon to keep serving.
  struct sigaction action {};
  action.sa_handler = eintr_noop_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the syscall must observe EINTR
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_eintr.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 1;
  serve::Service service(service_options);
  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ::pthread_kill(server_thread.native_handle(), SIGUSR1);
  }

  const int fd = serve::connect_unix(socket_path);
  ASSERT_GE(fd, 0);
  const auto pong = serve::roundtrip(fd, op_request("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->output, "pong\n");
  ::close(fd);

  server.request_stop();
  server_thread.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
}

TEST(ServeServer, MalformedFrameDrawsAnErrorResponse) {
  const auto socket_path =
      (std::filesystem::path(testing::TempDir()) / "rd_serve_bad.sock")
          .string();
  serve::Service::Options service_options;
  service_options.threads = 1;
  serve::Service service(service_options);
  service.add_fleet("corp", fleet_dir().string());
  serve::Server::Options server_options;
  server_options.unix_path = socket_path;
  serve::Server server(service, server_options);
  std::thread server_thread([&] { server.run(); });

  const int fd = serve::connect_unix(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(serve::write_frame(fd, "this is not json"));
  std::string payload;
  std::string error;
  ASSERT_TRUE(serve::read_frame(fd, payload, &error)) << error;
  const auto response = serve::decode_response(payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->exit_code, 2);
  // The connection survives a malformed frame; a good one still works.
  const auto pong = serve::roundtrip(fd, op_request("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->output, "pong\n");
  ::close(fd);

  server.request_stop();
  server_thread.join();
}

}  // namespace
}  // namespace rd
