#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>

#include "graph/address_space.h"
#include "synth/archetypes.h"
#include "synth/emit.h"
#include "synth/fleet.h"
#include "testutil.h"

namespace rd::graph {
namespace {

using rd::test::addr;
using rd::test::network_of;
using rd::test::pfx;

std::vector<ip::Prefix> roots_of(std::vector<ip::Prefix> subnets) {
  return extract_address_structure(std::move(subnets)).root_blocks();
}

TEST(AddressStructure, EmptyInput) {
  const auto s = extract_address_structure(std::vector<ip::Prefix>{});
  EXPECT_TRUE(s.nodes.empty());
  EXPECT_TRUE(s.roots.empty());
}

TEST(AddressStructure, SingleSubnetIsItsOwnRoot) {
  const auto roots = roots_of({pfx("10.0.0.0/24")});
  EXPECT_EQ(roots, (std::vector<ip::Prefix>{pfx("10.0.0.0/24")}));
}

TEST(AddressStructure, JoinsRunOfSlash30s) {
  // A run of /30s from one block plan joins into the covering block.
  std::vector<ip::Prefix> subnets;
  for (std::uint32_t i = 0; i < 16; ++i) {
    subnets.push_back(ip::Prefix(ip::Ipv4Address(0x0A000000u + i * 4), 30));
  }
  const auto roots = roots_of(subnets);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], pfx("10.0.0.0/26"));
}

TEST(AddressStructure, SeparatePlansStaySeparate) {
  const auto roots = roots_of({pfx("10.1.0.0/24"), pfx("10.1.1.0/24"),
                               pfx("192.168.7.0/24"), pfx("192.168.6.0/24")});
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0], pfx("10.1.0.0/23"));
  EXPECT_EQ(roots[1], pfx("192.168.6.0/23"));
}

TEST(AddressStructure, HalfUsedRuleBlocksSparseJoin) {
  // Two /24s eight blocks apart: any covering block would be < half used.
  const auto roots = roots_of({pfx("10.0.0.0/24"), pfx("10.0.8.0/24")});
  EXPECT_EQ(roots.size(), 2u);
}

TEST(AddressStructure, TreeHasConsistentParentChildLinks) {
  std::vector<ip::Prefix> subnets;
  for (std::uint32_t i = 0; i < 8; ++i) {
    subnets.push_back(ip::Prefix(ip::Ipv4Address(0x0A000000u + i * 256), 24));
  }
  const auto s = extract_address_structure(subnets);
  for (std::uint32_t n = 0; n < s.nodes.size(); ++n) {
    for (const auto child : s.nodes[n].children) {
      EXPECT_EQ(s.nodes[child].parent, static_cast<std::int32_t>(n));
      EXPECT_TRUE(s.nodes[n].block.contains(s.nodes[child].block));
    }
  }
  // Roots have no parent.
  for (const auto r : s.roots) EXPECT_EQ(s.nodes[r].parent, -1);
}

TEST(AddressStructure, LeavesAreInputSubnets) {
  const std::vector<ip::Prefix> input{pfx("10.0.0.0/24"), pfx("10.0.1.0/24")};
  const auto s = extract_address_structure(input);
  std::vector<ip::Prefix> leaves;
  for (const auto& node : s.nodes) {
    if (node.leaf) leaves.push_back(node.block);
  }
  std::sort(leaves.begin(), leaves.end());
  EXPECT_EQ(leaves, input);
}

TEST(AddressStructure, NestedInputSubnetsBecomeChildren) {
  const auto s = extract_address_structure(
      std::vector<ip::Prefix>{pfx("10.0.0.0/16"), pfx("10.0.5.0/24")});
  ASSERT_EQ(s.roots.size(), 1u);
  EXPECT_EQ(s.nodes[s.roots[0]].block, pfx("10.0.0.0/16"));
  ASSERT_EQ(s.nodes[s.roots[0]].children.size(), 1u);
  EXPECT_TRUE(s.nodes[s.roots[0]].leaf);  // the /16 is itself an input
}

TEST(AddressStructure, RootContaining) {
  const auto s = extract_address_structure(
      std::vector<ip::Prefix>{pfx("10.0.0.0/24"), pfx("192.168.0.0/24")});
  EXPECT_EQ(s.root_containing(addr("10.0.0.55")), 0);
  EXPECT_EQ(s.root_containing(addr("192.168.0.1")), 1);
  EXPECT_EQ(s.root_containing(addr("8.8.8.8")), -1);
}

TEST(AddressStructure, DuplicatesCollapse) {
  const auto roots = roots_of({pfx("10.0.0.0/24"), pfx("10.0.0.0/24")});
  EXPECT_EQ(roots.size(), 1u);
}

// --- instance-block association (paper §3.4 first use) -------------------------

TEST(BlocksPerInstance, AssociatesCoveredSubnets) {
  const auto net = network_of(
      {"hostname a\n"
       "interface FastEthernet0/0\n ip address 10.1.0.1 255.255.255.0\n"
       "interface FastEthernet0/1\n ip address 10.1.1.1 255.255.255.0\n"
       "router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n",
       "hostname b\n"
       "interface FastEthernet0/0\n ip address 192.168.0.1 255.255.255.0\n"
       "router ospf 1\n network 192.168.0.0 0.0.255.255 area 0\n"});
  const auto instances = compute_instances(net);
  const auto structure = extract_address_structure(net);
  const auto blocks = blocks_per_instance(net, instances, structure);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), 1u);
  EXPECT_EQ(blocks[1].size(), 1u);
  EXPECT_NE(blocks[0][0], blocks[1][0]);
}

// --- missing-router detection (paper §3.4 second use) ---------------------------

TEST(MissingRouter, DetectsHoleInInternalBlock) {
  // Six /30s from one block plan, five fully populated, one half-populated
  // (the missing router). The heuristic should flag the orphan interface.
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    const std::string base = "10.0.0." + std::to_string(i * 4);
    const std::string a = "10.0.0." + std::to_string(i * 4 + 1);
    const std::string b = "10.0.0." + std::to_string(i * 4 + 2);
    texts.push_back("hostname a" + std::to_string(i) +
                    "\ninterface Serial0/0 point-to-point\n ip address " + a +
                    " 255.255.255.252\n");
    if (i != 5) {  // the 6th peer's config is "missing from the data set"
      texts.push_back("hostname b" + std::to_string(i) +
                      "\ninterface Serial0/0 point-to-point\n ip address " +
                      b + " 255.255.255.252\n");
    }
  }
  const auto net = network_of(texts);
  const auto structure = extract_address_structure(net);
  const auto suspects = detect_missing_routers(net, structure, 0.8);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(net.interfaces()[suspects[0].interface].address->to_string(),
            "10.0.0.21");
  EXPECT_GE(suspects[0].internal_fraction, 0.8);
}

TEST(MissingRouter, TrueEdgeBlockNotFlagged) {
  // External-facing interfaces drawn from their own block (as the paper
  // says many networks do) should not be flagged.
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back(
        "hostname e" + std::to_string(i) +
        "\ninterface Serial0/0 point-to-point\n ip address 66.0.0." +
        std::to_string(i * 4 + 1) + " 255.255.255.252\n");
  }
  const auto net = network_of(texts);
  const auto structure = extract_address_structure(net);
  EXPECT_TRUE(detect_missing_routers(net, structure, 0.8).empty());
}

// --- differential: level sweep vs the greedy join loop --------------------------
//
// `extract_address_structure` sweeps each block length once (DESIGN.md §5).
// The reference below is the greedy loop it replaced, kept verbatim: one
// O(n) scan per join for the adjacent pair with the longest qualifying
// common block. Both must build the same tree — node ids, blocks, leaf
// flags, parents, children order and roots order.
//
// Volume is dialable: RD_FUZZ_SEEDS (default 8) seeds of RD_FUZZ_ITERS
// (default 60) random subnet sets each.

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const auto parsed = std::strtoull(value, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0) ? parsed : fallback;
}

ip::Prefix reference_lca(const ip::Prefix& a, const ip::Prefix& b) noexcept {
  const std::uint32_t diff = a.network().value() ^ b.network().value();
  int length = std::min(a.length(), b.length());
  if (diff != 0) {
    int highest = 31;
    while (((diff >> highest) & 1u) == 0) --highest;
    length = std::min(length, 31 - highest);
  }
  return ip::Prefix(a.network(), length);
}

AddressSpaceStructure greedy_reference(std::vector<ip::Prefix> subnets) {
  using ip::Ipv4Address;
  using ip::Prefix;
  struct Active {
    Prefix block;
    std::uint32_t node;
  };
  AddressSpaceStructure out;
  std::sort(subnets.begin(), subnets.end(), [](const Prefix& a,
                                               const Prefix& b) {
    if (a.network() != b.network()) return a.network() < b.network();
    return a.length() < b.length();
  });
  subnets.erase(std::unique(subnets.begin(), subnets.end()), subnets.end());

  std::vector<Active> active;
  std::vector<Active> containers;
  for (const Prefix& subnet : subnets) {
    while (!containers.empty() && !containers.back().block.contains(subnet)) {
      containers.pop_back();
    }
    const auto id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back({subnet, -1, {}, true});
    if (!containers.empty()) {
      out.nodes[id].parent = static_cast<std::int32_t>(containers.back().node);
      out.nodes[containers.back().node].children.push_back(id);
    } else {
      active.push_back({subnet, id});
    }
    containers.push_back({subnet, id});
  }

  while (active.size() > 1) {
    std::vector<std::uint64_t> cum(active.size() + 1, 0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      cum[i + 1] = cum[i] + active[i].block.size();
    }
    auto used_inside = [&](const Prefix& block) {
      const auto lo = std::lower_bound(
          active.begin(), active.end(), block.network(),
          [](const Active& a, Ipv4Address v) { return a.block.network() < v; });
      auto hi = lo;
      while (hi != active.end() && block.contains(hi->block)) ++hi;
      const auto lo_i = static_cast<std::size_t>(lo - active.begin());
      const auto hi_i = static_cast<std::size_t>(hi - active.begin());
      return cum[hi_i] - cum[lo_i];
    };

    int best_length = -1;
    Prefix best_block;
    for (std::size_t i = 0; i + 1 < active.size(); ++i) {
      const Prefix lca = reference_lca(active[i].block, active[i + 1].block);
      const int shorter =
          std::min(active[i].block.length(), active[i + 1].block.length());
      if (shorter - lca.length() > 2) continue;
      if (lca.length() == 0) continue;
      if (used_inside(lca) * 2 < lca.size()) continue;
      if (lca.length() > best_length) {
        best_length = lca.length();
        best_block = lca;
      }
    }
    if (best_length < 0) break;

    const auto parent_id = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.push_back({best_block, -1, {}, false});
    std::vector<Active> next;
    next.reserve(active.size());
    bool inserted = false;
    for (const Active& a : active) {
      if (best_block.contains(a.block)) {
        out.nodes[a.node].parent = static_cast<std::int32_t>(parent_id);
        out.nodes[parent_id].children.push_back(a.node);
        if (!inserted) {
          next.push_back({best_block, parent_id});
          inserted = true;
        }
      } else {
        next.push_back(a);
      }
    }
    active = std::move(next);
  }

  out.roots.reserve(active.size());
  for (const Active& a : active) out.roots.push_back(a.node);
  return out;
}

/// The whole structure, node by node, against the greedy reference.
void expect_matches_reference(const std::vector<ip::Prefix>& subnets,
                              const std::string& label) {
  const auto fast = extract_address_structure(subnets);
  const auto ref = greedy_reference(subnets);
  ASSERT_EQ(fast.nodes.size(), ref.nodes.size()) << label;
  for (std::size_t n = 0; n < ref.nodes.size(); ++n) {
    const auto& a = fast.nodes[n];
    const auto& b = ref.nodes[n];
    ASSERT_EQ(a.block, b.block) << label << " node " << n;
    ASSERT_EQ(a.leaf, b.leaf) << label << " node " << n;
    ASSERT_EQ(a.parent, b.parent) << label << " node " << n;
    ASSERT_EQ(a.children, b.children) << label << " node " << n;
  }
  ASSERT_EQ(fast.roots, ref.roots) << label;
}

/// A random subnet set drawn around a few bases, mixing the shapes the join
/// rule treats specially.
std::vector<ip::Prefix> random_subnets(std::mt19937_64& rng) {
  auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  std::vector<ip::Prefix> out;
  std::vector<std::uint32_t> bases;
  const std::uint32_t base_count = 1 + pick(3);
  for (std::uint32_t b = 0; b < base_count; ++b) {
    // A /16 region, so random draws collide, nest and abut often.
    bases.push_back((10u << 24) | (pick(4) << 16));
  }
  auto random_in_base = [&](int length) {
    const std::uint32_t base = bases[pick(bases.size())];
    const std::uint32_t offset = pick(1u << 16);
    return ip::Prefix(ip::Ipv4Address(base | offset), length);
  };
  const std::uint32_t count = 1 + pick(120);
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t shape = out.empty() ? 0 : pick(8);
    const ip::Prefix existing =
        out.empty() ? ip::Prefix() : out[pick(out.size())];
    switch (shape) {
      case 0:  // fresh block, any length a site plan uses
        out.push_back(random_in_base(20 + static_cast<int>(pick(13))));
        break;
      case 1:  // nested inside an existing subnet
        if (existing.length() < 32) {
          const int length =
              existing.length() + 1 +
              static_cast<int>(pick(static_cast<std::uint64_t>(
                  32 - existing.length())));
          out.push_back(ip::Prefix(
              ip::Ipv4Address(existing.network().value() |
                              (pick(1ull << 32) & ~existing.mask().bits())),
              length));
        }
        break;
      case 2:  // adjacent: the buddy, or the next block of the same length
        out.push_back(pick(2) == 0
                          ? existing.buddy()
                          : ip::Prefix(ip::Ipv4Address(
                                           existing.last_address().value() +
                                           1u),
                                       existing.length()));
        break;
      case 3:  // duplicate
        out.push_back(existing);
        break;
      case 4:  // point-to-point /31 or host /32
        out.push_back(random_in_base(31 + static_cast<int>(pick(2))));
        break;
      case 5: {  // exactly half used: a quarter in each half of a block
        const ip::Prefix block = random_in_base(22 + static_cast<int>(pick(8)));
        const std::uint32_t quarter =
            static_cast<std::uint32_t>(block.size() / 4);
        const std::uint32_t net = block.network().value();
        out.push_back(ip::Prefix(ip::Ipv4Address(net + pick(2) * quarter),
                                 block.length() + 2));
        out.push_back(
            ip::Prefix(ip::Ipv4Address(net + (2 + pick(2)) * quarter),
                       block.length() + 2));
        break;
      }
      case 6: {  // just under half used: a quarter and an eighth
        const ip::Prefix block = random_in_base(22 + static_cast<int>(pick(8)));
        const std::uint32_t eighth =
            static_cast<std::uint32_t>(block.size() / 8);
        const std::uint32_t net = block.network().value();
        out.push_back(ip::Prefix(ip::Ipv4Address(net), block.length() + 2));
        out.push_back(ip::Prefix(ip::Ipv4Address(net + 4 * eighth),
                                 block.length() + 3));
        break;
      }
      default:  // a run of equal blocks, the shape a /30 link plan has
        for (std::uint32_t j = 0, run = 2 + pick(8); j < run; ++j) {
          out.push_back(ip::Prefix(
              ip::Ipv4Address(existing.network().value() +
                              j * static_cast<std::uint32_t>(existing.size())),
              existing.length()));
        }
        break;
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

TEST(AddressStructureDifferential, HandPickedShapes) {
  const std::vector<std::vector<std::string>> cases = {
      {},
      {"10.0.0.0/24"},
      {"10.0.0.0/24", "10.0.0.0/24"},
      {"10.0.0.0/31", "10.0.0.2/31", "10.0.0.4/32", "10.0.0.5/32"},
      // Exactly half used at the two-bit limit, and one bit past it.
      {"10.0.0.0/26", "10.0.0.128/26"},
      {"10.0.0.0/27", "10.0.0.128/27"},
      // Nested: a join pulls in a container and the blocks it holds.
      {"10.0.0.0/16", "10.0.5.0/24", "10.1.0.0/16", "10.0.5.128/25"},
      // A join whose block also holds an earlier, unpaired active block.
      {"10.0.0.0/30", "10.0.0.4/30", "10.0.0.12/30", "10.0.0.16/28"},
      {"10.0.0.0/24", "10.0.8.0/24"},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::vector<ip::Prefix> subnets;
    for (const auto& text : cases[c]) subnets.push_back(pfx(text));
    expect_matches_reference(subnets, "case " + std::to_string(c));
  }
}

TEST(AddressStructureDifferential, RandomSubnetSets) {
  const auto seeds = env_u64("RD_FUZZ_SEEDS", 8);
  const auto iters = env_u64("RD_FUZZ_ITERS", 60);
  std::size_t joins = 0;
  std::size_t nested = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    std::mt19937_64 rng(0xAD0B10C5ull + seed);
    for (std::uint64_t it = 0; it < iters; ++it) {
      const auto subnets = random_subnets(rng);
      expect_matches_reference(
          subnets,
          "seed " + std::to_string(seed) + " iter " + std::to_string(it));
      if (HasFatalFailure()) return;
      const auto structure = extract_address_structure(subnets);
      for (const auto& node : structure.nodes) {
        if (!node.leaf) ++joins;
        if (node.parent >= 0 && structure.nodes[node.parent].leaf) ++nested;
      }
    }
  }
  // The generator must exercise both the join and the containment paths.
  EXPECT_GT(joins, 0u);
  EXPECT_GT(nested, 0u);
}

TEST(AddressStructureDifferential, EveryFleetNetwork) {
  for (const auto& net : synth::generate_fleet(1).networks) {
    const auto network = model::Network::build(synth::reparse(net.configs));
    expect_matches_reference(network.interface_subnets(), net.name);
    if (HasFatalFailure()) return;
  }
}

/// Managed seeds derived the way the cold-audit benchmark derives its
/// sixteen networks from run seed 1: index 0 is the seed itself, the rest
/// are splitmix64 of (seed, index).
std::uint64_t derived_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(AddressStructureDifferential, ManagedAuditNetworks) {
  for (std::size_t i = 0; i < 16; ++i) {
    synth::ManagedEnterpriseParams params;
    params.seed = derived_seed(1, i);
    const auto network = model::Network::build(
        synth::reparse(synth::make_managed_enterprise(params).configs));
    expect_matches_reference(network.interface_subnets(),
                             "managed seed " + std::to_string(params.seed));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace rd::graph
