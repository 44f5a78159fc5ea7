#include "analysis/router_rib.h"

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.h"

namespace rd::analysis {

std::uint32_t administrative_distance(RouteSource source) noexcept {
  switch (source) {
    case RouteSource::kConnected:
      return 0;
    case RouteSource::kStatic:
      return 1;
    case RouteSource::kEbgp:
      return 20;
    case RouteSource::kEigrp:
      return 90;
    case RouteSource::kOspf:
      return 110;
    case RouteSource::kRip:
      return 120;
    case RouteSource::kIbgp:
      return 200;
  }
  return 255;
}

std::string_view to_string(RouteSource source) noexcept {
  switch (source) {
    case RouteSource::kConnected:
      return "connected";
    case RouteSource::kStatic:
      return "static";
    case RouteSource::kEbgp:
      return "ebgp";
    case RouteSource::kEigrp:
      return "eigrp";
    case RouteSource::kOspf:
      return "ospf";
    case RouteSource::kRip:
      return "rip";
    case RouteSource::kIbgp:
      return "ibgp";
  }
  return "?";
}

namespace {

/// The selection class of every process's routes, indexed by process. BGP
/// routes count as EBGP when the process has any external or inter-AS
/// session, as IBGP otherwise — a simplification of per-route provenance
/// that matches how the analyses use the result.
std::vector<RouteSource> process_sources(const model::Network& network) {
  std::vector<RouteSource> out(network.processes().size(), RouteSource::kIbgp);
  for (model::ProcessId p = 0; p < out.size(); ++p) {
    switch (network.processes()[p].protocol) {
      case config::RoutingProtocol::kOspf:
        out[p] = RouteSource::kOspf;
        break;
      case config::RoutingProtocol::kEigrp:
      case config::RoutingProtocol::kIgrp:
        out[p] = RouteSource::kEigrp;
        break;
      case config::RoutingProtocol::kRip:
      case config::RoutingProtocol::kIsis:
        out[p] = RouteSource::kRip;
        break;
      case config::RoutingProtocol::kBgp:
        break;
    }
  }
  for (const auto& session : network.bgp_sessions()) {
    const model::ProcessId p = session.local_process;
    if (p < out.size() && out[p] == RouteSource::kIbgp &&
        (session.external() || session.ebgp())) {
      out[p] = RouteSource::kEbgp;
    }
  }
  return out;
}

/// One process RIB feeding the merge: its instance's routes, sorted by
/// prefix (then tag), all offered under the same source.
struct ProcessStream {
  const model::Route* next;
  const model::Route* end;
  RouteSource source;
  model::ProcessId process;
};

/// Per-worker buffers, reused across the routers a worker selects for.
struct Scratch {
  std::vector<SelectedRoute> local;
  std::vector<ProcessStream> streams;
  std::vector<SelectedRoute> merged;
};

/// Select one router's RIB into `scratch.merged`, ordered by prefix. Per
/// prefix the lowest administrative distance wins and, on a tie, the first
/// route offered: interfaces, then static routes, then the router's
/// processes in `router_processes` order. Every input run is sorted by
/// prefix, so one merge pass replaces a per-prefix map.
void select_rib(const model::Network& network,
                const graph::InstanceSet& instances,
                const ReachabilityAnalysis& reachability,
                const std::vector<RouteSource>& sources, model::RouterId r,
                Scratch& scratch) {
  // Local RIB: connected subnets and static routes (paper Figure 3). The
  // stable sort keeps offer order among equal prefixes.
  auto& local = scratch.local;
  local.clear();
  for (const model::InterfaceId i : network.router_interfaces(r)) {
    const auto& itf = network.interfaces()[i];
    if (itf.subnet && !itf.shutdown) {
      local.push_back(
          {*itf.subnet, RouteSource::kConnected, model::kInvalidId});
    }
  }
  for (const auto& route : network.routers()[r].static_routes) {
    local.push_back({route.prefix(), RouteSource::kStatic, model::kInvalidId});
  }
  std::stable_sort(local.begin(), local.end(),
                   [](const SelectedRoute& a, const SelectedRoute& b) {
                     return a.prefix < b.prefix;
                   });

  // Process RIBs: each process offers its instance's routes.
  auto& streams = scratch.streams;
  streams.clear();
  for (const model::ProcessId p : network.router_processes(r)) {
    const auto& routes = reachability.instance_routes(instances.instance_of[p]);
    if (routes.empty()) continue;
    streams.push_back(
        {routes.data(), routes.data() + routes.size(), sources[p], p});
  }

  auto& merged = scratch.merged;
  merged.clear();
  std::size_t l = 0;
  for (;;) {
    const ip::Prefix* least = l < local.size() ? &local[l].prefix : nullptr;
    for (const auto& s : streams) {
      if (s.next != s.end && (least == nullptr || s.next->prefix < *least)) {
        least = &s.next->prefix;
      }
    }
    if (least == nullptr) break;
    SelectedRoute best{*least, RouteSource::kConnected, model::kInvalidId};
    std::uint32_t best_distance = UINT32_MAX;
    const auto offer = [&](RouteSource source, model::ProcessId p) {
      if (administrative_distance(source) < best_distance) {
        best_distance = administrative_distance(source);
        best.source = source;
        best.process = p;
      }
    };
    for (; l < local.size() && local[l].prefix == best.prefix; ++l) {
      offer(local[l].source, local[l].process);
    }
    for (auto& s : streams) {
      if (s.next == s.end || s.next->prefix != best.prefix) continue;
      offer(s.source, s.process);
      while (s.next != s.end && s.next->prefix == best.prefix) ++s.next;
    }
    merged.push_back(best);
  }
}

}  // namespace

RouterRibAnalysis RouterRibAnalysis::run(
    const model::Network& network, const graph::InstanceSet& instances,
    const ReachabilityAnalysis& reachability, util::ThreadPool* pool) {
  RouterRibAnalysis out;
  out.ribs_.resize(network.router_count());
  out.process_load_.resize(network.processes().size(), 0);
  out.has_external_.resize(network.router_count(), 0);

  for (model::ProcessId p = 0; p < network.processes().size(); ++p) {
    out.process_load_[p] =
        reachability.instance_routes(instances.instance_of[p]).size();
  }
  const auto sources = process_sources(network);

  // Routers are independent: each chunk owns a contiguous router range and
  // one scratch, and writes only its routers' slots, so the result is the
  // same at every pool size.
  const std::size_t routers = network.router_count();
  if (routers == 0) return out;
  const std::size_t chunks =
      pool == nullptr ? 1 : std::min(routers, 4 * pool->size());
  const auto run_chunk = [&](std::size_t c) {
    Scratch scratch;
    const std::size_t first = routers * c / chunks;
    const std::size_t last = routers * (c + 1) / chunks;
    for (auto r = static_cast<model::RouterId>(first); r < last; ++r) {
      select_rib(network, instances, reachability, sources, r, scratch);
      out.ribs_[r].assign(scratch.merged.begin(), scratch.merged.end());
      const auto& rib = out.ribs_[r];
      out.has_external_[r] = !rib.empty() && rib.front().prefix.length() == 0;
    }
  };
  if (pool != nullptr) {
    pool->run_indexed(chunks, run_chunk);
  } else {
    run_chunk(0);
  }
  return out;
}

bool RouterRibAnalysis::router_can_reach(model::RouterId router,
                                         ip::Ipv4Address addr) const {
  for (const auto& route : ribs_[router]) {
    if (route.prefix.length() > 0 && route.prefix.contains(addr)) return true;
  }
  return false;
}

std::vector<model::RouterId> RouterRibAnalysis::routers_with_external_routes()
    const {
  std::vector<model::RouterId> out;
  for (model::RouterId r = 0; r < has_external_.size(); ++r) {
    if (has_external_[r]) out.push_back(r);
  }
  return out;
}

std::vector<std::size_t> RouterRibAnalysis::rib_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(ribs_.size());
  for (const auto& rib : ribs_) out.push_back(rib.size());
  return out;
}

}  // namespace rd::analysis
