#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ip/ipv4.h"

namespace rd::model {

// --- Symbolic packet-set predicates ------------------------------------------
//
// The paper's §6 pathway analysis answers "does *this* packet get through?";
// the header-space engine (analysis/header_space.h) answers "exactly *which*
// packets get through?". Its packet sets are predicates over the header
// coordinates the packet filters can test:
//
//     (source address, destination address, protocol, destination port)
//
// represented as a union of cross-products of one set per coordinate. Each
// coordinate set has a closed, finitely-representable form — prefixes for
// addresses, a bitmask for protocols, an integer interval for ports — so the
// union-of-boxes algebra below (intersect / subtract / emptiness) is exact,
// and predicate equivalence is decidable by symmetric difference.

/// The port coordinate ranges over the real ports 0..65535 plus one extra
/// point, `kNoPort` (65536), standing for "the packet carries no layer-4
/// port" — the header FlowQuery expresses with an empty destination_port.
/// Folding the portless packet into the numeric line keeps every atom a pure
/// cross-product: an ACL clause without an `eq` port matches [0, kNoPort],
/// a clause with `eq p` matches exactly [p, p].
inline constexpr std::uint32_t kNoPort = 65536;

/// Protocol coordinate sets are bitmasks over a `ProtocolDomain`.
inline constexpr std::uint64_t kAllProtocols = ~0ULL;

/// Interns protocol names ("tcp", "udp", "icmp", ...) to bit positions.
///
/// Bit 0 is always "ip": the *unspecified-protocol* packet (FlowQuery's
/// default), which matches only protocol-wildcard clauses. A clause written
/// with protocol "ip" is IOS's wildcard and lowers to `kAllProtocols`; any
/// other clause protocol lowers to its own single bit. Packet protocols
/// never named by a clause share the reserved "unknown" bit — sound, because
/// no clause mask ever contains that bit except the all-ones wildcard.
class ProtocolDomain {
 public:
  ProtocolDomain();

  /// Mask a clause with this protocol keyword matches ("ip" = wildcard).
  /// Interns new names; at most `kMaxNamed` distinct names are
  /// distinguished, later ones share the overflow bit (documented
  /// approximation, unreachable with realistic configurations).
  std::uint64_t clause_mask(std::string_view protocol);

  /// The single coordinate bit of a concrete packet's protocol. Names never
  /// interned by any clause map to the reserved unknown bit.
  std::uint64_t packet_bit(std::string_view protocol) const noexcept;

  /// Name for a coordinate bit index (used to print witnesses); the
  /// reserved bits print as "ip"-compatible placeholders.
  std::string_view bit_name(int bit) const noexcept;

  std::size_t named_count() const noexcept { return names_.size(); }

  static constexpr int kUnknownBit = 63;
  static constexpr std::size_t kMaxNamed = 62;

 private:
  std::vector<std::string> names_;  // names_[i] owns bit i; names_[0] = "ip"
};

/// One cross-product of coordinate sets. Invariant (enforced by
/// HeaderPredicate): never empty — `protocols != 0` and `port_lo <=
/// port_hi`.
struct HeaderAtom {
  ip::Prefix source;                           // source-address set
  ip::Prefix destination;                      // destination-address set
  std::uint64_t protocols = kAllProtocols;     // ProtocolDomain bitmask
  std::uint32_t port_lo = 0;                   // inclusive
  std::uint32_t port_hi = kNoPort;             // inclusive

  bool empty() const noexcept { return protocols == 0 || port_lo > port_hi; }

  /// Does this atom cover every header `other` covers?
  bool covers(const HeaderAtom& other) const noexcept {
    return source.contains(other.source) &&
           destination.contains(other.destination) &&
           (other.protocols & ~protocols) == 0 && port_lo <= other.port_lo &&
           other.port_hi <= port_hi;
  }

  friend bool operator==(const HeaderAtom&, const HeaderAtom&) = default;
};

/// Deterministic ordering for normalization and witness selection.
bool operator<(const HeaderAtom& a, const HeaderAtom& b) noexcept;

/// `a ∩ b`, itself a single atom (each coordinate set is closed under
/// intersection); nullopt when the two share no header.
std::optional<HeaderAtom> atom_intersect(const HeaderAtom& a,
                                         const HeaderAtom& b) noexcept;

/// Set difference of two prefixes as a disjoint prefix cover:
/// `a \ b` — empty when b covers a, `{a}` when they are disjoint, and the
/// sibling prefixes along the trie path from a down to b when b ⊂ a (at
/// most 32 - a.length() prefixes).
std::vector<ip::Prefix> prefix_difference(const ip::Prefix& a,
                                          const ip::Prefix& b);

/// A packet-set predicate: the union of its atoms. Atoms may overlap (the
/// algebra never requires disjointness); emptiness is `atoms().empty()`
/// because empty atoms are never stored.
class HeaderPredicate {
 public:
  HeaderPredicate() = default;

  static HeaderPredicate none() { return {}; }
  /// Every header: both address dimensions 0.0.0.0/0, every protocol,
  /// ports [0, kNoPort].
  static HeaderPredicate all();
  static HeaderPredicate of(HeaderAtom atom);

  bool is_empty() const noexcept { return atoms_.empty(); }
  std::size_t atom_count() const noexcept { return atoms_.size(); }
  const std::vector<HeaderAtom>& atoms() const noexcept { return atoms_; }

  /// Membership of one concrete header. `protocol_bit` is a single
  /// ProtocolDomain bit; `port` is a real port or kNoPort.
  bool contains(ip::Ipv4Address source, ip::Ipv4Address destination,
                std::uint64_t protocol_bit, std::uint32_t port) const noexcept;

  void unite(HeaderAtom atom);
  void unite(const HeaderPredicate& other);
  /// Union with a predicate the caller knows is disjoint from this one
  /// (e.g. first-match effective regions): appends atoms without unite()'s
  /// per-atom cover scan, which is quadratic on large accumulations.
  void unite_disjoint(const HeaderPredicate& other);
  HeaderPredicate intersect(const HeaderAtom& atom) const;
  HeaderPredicate intersect(const HeaderPredicate& other) const;
  HeaderPredicate subtract(const HeaderAtom& atom) const;
  HeaderPredicate subtract(const HeaderPredicate& other) const;

  /// subtract() without the per-call predicate copy: peels `atom` out of
  /// this predicate, using `scratch` as the rebuild buffer (cleared and
  /// swapped in; pass the same vector across calls to amortize its
  /// capacity). Produces the identical atom list to `*this =
  /// subtract(atom)`. The hot path of ACL lowering, which peels every
  /// clause against all earlier clauses.
  void subtract_in_place(const HeaderAtom& atom,
                         std::vector<HeaderAtom>& scratch);
  void subtract_in_place(const HeaderPredicate& other,
                         std::vector<HeaderAtom>& scratch);

  bool disjoint_with(const HeaderPredicate& other) const {
    return intersect(other).is_empty();
  }

  /// True when every header in `other` is also in this predicate. Decided
  /// one atom at a time, so the fragment set stays proportional to a single
  /// atom's splintering rather than the whole predicate's — materializing
  /// subtract(other) on two multi-thousand-atom predicates is intractable.
  bool covers(const HeaderPredicate& other) const;

  /// Exact set equivalence, decided by mutual cover. Two predicates with
  /// different atom lists describing the same set compare equal.
  bool equivalent(const HeaderPredicate& other) const {
    return covers(other) && other.covers(*this);
  }

  /// Sort atoms and drop atoms covered by another single atom. Not a
  /// canonical form (union-of-boxes has none that is cheap), but enough to
  /// make printed output and atom-count metrics deterministic and small.
  void normalize();

  /// normalize() for predicates the caller knows have pairwise-disjoint
  /// atoms (first-match effective regions, unite_disjoint accumulations):
  /// disjoint atoms can neither cover nor equal each other, so the cover
  /// prune is a no-op and sorting alone gives the identical result in
  /// O(n log n).
  void normalize_disjoint();

  /// The least header in the predicate (by the atom ordering, then least
  /// coordinates within the first atom); nullopt when empty. Used to print
  /// deterministic witnesses for violated intents.
  struct Witness {
    ip::Ipv4Address source;
    ip::Ipv4Address destination;
    int protocol_bit = 0;
    std::uint32_t port = 0;  // kNoPort = portless
  };
  std::optional<Witness> witness() const;

  /// "src dst proto-mask ports" per atom, one per line — diagnostics only.
  std::string to_string(const ProtocolDomain& domain) const;

 private:
  std::vector<HeaderAtom> atoms_;
};

}  // namespace rd::model
