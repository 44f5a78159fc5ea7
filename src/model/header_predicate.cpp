#include "model/header_predicate.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace rd::model {

namespace {

/// Intersection of two prefixes: with prefixes, overlap means one contains
/// the other, so the intersection is the longer of the two.
std::optional<ip::Prefix> prefix_intersect(const ip::Prefix& a,
                                           const ip::Prefix& b) noexcept {
  if (a.contains(b)) return b;
  if (b.contains(a)) return a;
  return std::nullopt;
}

/// `a \ b` for the prefix coordinate, emitted in the same sorted order
/// prefix_difference returns but through a stack buffer: the siblings are
/// generated bottom-up in strictly decreasing length, so emitting them in
/// reverse *is* the (length, network) ascending order — no sort, no heap.
template <typename Emit>
void for_each_prefix_difference(const ip::Prefix& a, const ip::Prefix& b,
                                Emit&& emit) {
  if (b.contains(a)) return;
  if (!a.contains(b)) {
    emit(a);
    return;
  }
  ip::Prefix buf[32];
  int n = 0;
  ip::Prefix cursor = b;
  while (cursor.length() > a.length()) {
    buf[n++] = cursor.buddy();
    cursor = cursor.parent();
  }
  for (int i = n - 1; i >= 0; --i) emit(buf[i]);
}

/// Appends the disjoint pieces of `have \ hole` (hole = a non-empty
/// atom_intersect(have, atom)) to `out` — the coordinate-peeling step
/// shared by subtract() and subtract_in_place(), kept byte-identical
/// between the two.
void append_peeled_pieces(const HeaderAtom& have, const HeaderAtom& hole,
                          std::vector<HeaderAtom>& out) {
  // Peel the atom coordinate by coordinate: each piece keeps the hole's
  // coordinates on the dimensions already peeled and the atom's on the
  // rest, so the pieces are disjoint and their union is `have \ hole`.
  // Pieces are appended without unite()'s cover scan — they are disjoint
  // by construction, and the scan turns peeling quadratic on the
  // multi-thousand-atom predicates ACL lowering produces.
  for_each_prefix_difference(have.source, hole.source,
                             [&](const ip::Prefix& src) {
                               HeaderAtom piece = have;
                               piece.source = src;
                               out.push_back(piece);
                             });
  for_each_prefix_difference(have.destination, hole.destination,
                             [&](const ip::Prefix& dst) {
                               HeaderAtom piece = have;
                               piece.source = hole.source;
                               piece.destination = dst;
                               out.push_back(piece);
                             });
  if (const std::uint64_t rest = have.protocols & ~hole.protocols) {
    HeaderAtom piece = have;
    piece.source = hole.source;
    piece.destination = hole.destination;
    piece.protocols = rest;
    out.push_back(piece);
  }
  if (have.port_lo < hole.port_lo) {
    HeaderAtom piece = have;
    piece.source = hole.source;
    piece.destination = hole.destination;
    piece.protocols = hole.protocols;
    piece.port_hi = hole.port_lo - 1;
    out.push_back(piece);
  }
  if (have.port_hi > hole.port_hi) {
    HeaderAtom piece = have;
    piece.source = hole.source;
    piece.destination = hole.destination;
    piece.protocols = hole.protocols;
    piece.port_lo = hole.port_hi + 1;
    out.push_back(piece);
  }
}

}  // namespace

std::optional<HeaderAtom> atom_intersect(const HeaderAtom& a,
                                         const HeaderAtom& b) noexcept {
  const auto src = prefix_intersect(a.source, b.source);
  if (!src) return std::nullopt;
  const auto dst = prefix_intersect(a.destination, b.destination);
  if (!dst) return std::nullopt;
  HeaderAtom out;
  out.source = *src;
  out.destination = *dst;
  out.protocols = a.protocols & b.protocols;
  out.port_lo = std::max(a.port_lo, b.port_lo);
  out.port_hi = std::min(a.port_hi, b.port_hi);
  if (out.empty()) return std::nullopt;
  return out;
}

bool operator<(const HeaderAtom& a, const HeaderAtom& b) noexcept {
  if (a.source != b.source) return a.source < b.source;
  if (a.destination != b.destination) return a.destination < b.destination;
  if (a.port_lo != b.port_lo) return a.port_lo < b.port_lo;
  if (a.port_hi != b.port_hi) return a.port_hi < b.port_hi;
  return a.protocols < b.protocols;
}

ProtocolDomain::ProtocolDomain() { names_.emplace_back("ip"); }

std::uint64_t ProtocolDomain::clause_mask(std::string_view protocol) {
  if (protocol == "ip") return kAllProtocols;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == protocol) return 1ULL << i;
  }
  if (names_.size() >= kMaxNamed) return 1ULL << (kMaxNamed - 1);
  names_.emplace_back(protocol);
  return 1ULL << (names_.size() - 1);
}

std::uint64_t ProtocolDomain::packet_bit(
    std::string_view protocol) const noexcept {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == protocol) return 1ULL << i;
  }
  return 1ULL << kUnknownBit;
}

std::string_view ProtocolDomain::bit_name(int bit) const noexcept {
  if (bit >= 0 && static_cast<std::size_t>(bit) < names_.size()) {
    return names_[static_cast<std::size_t>(bit)];
  }
  return bit == kUnknownBit ? "other" : "?";
}

std::vector<ip::Prefix> prefix_difference(const ip::Prefix& a,
                                          const ip::Prefix& b) {
  if (b.contains(a)) return {};
  if (!a.contains(b)) return {a};
  // b is a strict sub-prefix of a: the difference is the buddy at every
  // level on the path from b up to (but excluding) a.
  std::vector<ip::Prefix> out;
  ip::Prefix cursor = b;
  while (cursor.length() > a.length()) {
    out.push_back(cursor.buddy());
    cursor = cursor.parent();
  }
  std::sort(out.begin(), out.end());
  return out;
}

HeaderPredicate HeaderPredicate::all() {
  HeaderAtom atom;  // defaults: /0 × /0 × all protocols × [0, kNoPort]
  return of(atom);
}

HeaderPredicate HeaderPredicate::of(HeaderAtom atom) {
  HeaderPredicate p;
  p.unite(atom);
  return p;
}

bool HeaderPredicate::contains(ip::Ipv4Address source,
                               ip::Ipv4Address destination,
                               std::uint64_t protocol_bit,
                               std::uint32_t port) const noexcept {
  for (const auto& atom : atoms_) {
    if (atom.source.contains(source) &&
        atom.destination.contains(destination) &&
        (atom.protocols & protocol_bit) != 0 && atom.port_lo <= port &&
        port <= atom.port_hi) {
      return true;
    }
  }
  return false;
}

void HeaderPredicate::unite(HeaderAtom atom) {
  if (atom.empty()) return;
  for (const auto& have : atoms_) {
    if (have.covers(atom)) return;
  }
  atoms_.push_back(atom);
}

void HeaderPredicate::unite(const HeaderPredicate& other) {
  for (const auto& atom : other.atoms_) unite(atom);
}

void HeaderPredicate::unite_disjoint(const HeaderPredicate& other) {
  atoms_.insert(atoms_.end(), other.atoms_.begin(), other.atoms_.end());
}

HeaderPredicate HeaderPredicate::intersect(const HeaderAtom& atom) const {
  // Pieces of distinct atoms overlap only where the inputs already did, so
  // they are appended without unite()'s cover scan; callers that need a
  // small atom list normalize() afterwards.
  HeaderPredicate out;
  for (const auto& have : atoms_) {
    if (const auto piece = atom_intersect(have, atom)) {
      out.atoms_.push_back(*piece);
    }
  }
  return out;
}

HeaderPredicate HeaderPredicate::intersect(
    const HeaderPredicate& other) const {
  HeaderPredicate out;
  for (const auto& atom : other.atoms_) {
    out.unite_disjoint(intersect(atom));
  }
  return out;
}

HeaderPredicate HeaderPredicate::subtract(const HeaderAtom& atom) const {
  HeaderPredicate out;
  for (const auto& have : atoms_) {
    const auto hole = atom_intersect(have, atom);
    if (!hole) {
      out.atoms_.push_back(have);
      continue;
    }
    append_peeled_pieces(have, *hole, out.atoms_);
  }
  return out;
}

HeaderPredicate HeaderPredicate::subtract(const HeaderPredicate& other) const {
  HeaderPredicate out = *this;
  std::vector<HeaderAtom> scratch;
  for (const auto& atom : other.atoms_) {
    out.subtract_in_place(atom, scratch);
    if (out.is_empty()) break;
  }
  return out;
}

void HeaderPredicate::subtract_in_place(const HeaderAtom& atom,
                                        std::vector<HeaderAtom>& scratch) {
  // Fast path: when nothing overlaps the atom the predicate is unchanged —
  // the common case when peeling an ACL clause against far-apart earlier
  // clauses — and no atom is copied at all.
  std::size_t first = 0;
  while (first < atoms_.size() && !atom_intersect(atoms_[first], atom)) {
    ++first;
  }
  if (first == atoms_.size()) return;
  scratch.clear();
  scratch.insert(scratch.end(), atoms_.begin(), atoms_.begin() + first);
  for (std::size_t i = first; i < atoms_.size(); ++i) {
    const auto& have = atoms_[i];
    const auto hole = atom_intersect(have, atom);
    if (!hole) {
      scratch.push_back(have);
      continue;
    }
    append_peeled_pieces(have, *hole, scratch);
  }
  atoms_.swap(scratch);
}

void HeaderPredicate::subtract_in_place(const HeaderPredicate& other,
                                        std::vector<HeaderAtom>& scratch) {
  for (const auto& atom : other.atoms_) {
    subtract_in_place(atom, scratch);
    if (is_empty()) return;
  }
}

bool HeaderPredicate::covers(const HeaderPredicate& other) const {
  // Exact-twin lookup first: when the two predicates share structure (e.g.
  // two lowerings of the same access list) almost every atom has a
  // verbatim counterpart, and the O(n^2) single-cover scan below would
  // dominate.
  std::vector<HeaderAtom> sorted = atoms_;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& atom : other.atoms_) {
    if (std::binary_search(sorted.begin(), sorted.end(), atom)) continue;
    // Fast path: a single atom swallows it whole.
    bool swallowed = false;
    for (const auto& mine : atoms_) {
      if (mine.covers(atom)) {
        swallowed = true;
        break;
      }
    }
    if (swallowed) continue;
    // Otherwise peel just this atom; subtract(atom) skips non-overlapping
    // pieces, and the early-empty exit fires as soon as the cover is
    // complete.
    HeaderPredicate rest = HeaderPredicate::of(atom);
    for (const auto& mine : atoms_) {
      rest = rest.subtract(mine);
      if (rest.is_empty()) break;
    }
    if (!rest.is_empty()) return false;
  }
  return true;
}

void HeaderPredicate::normalize() {
  // The single-atom cover pruning below is pairwise; past a few thousand
  // atoms its cost dwarfs what it saves, and sorting alone already gives
  // the determinism callers rely on. Large predicates get sort + exact
  // dedup only.
  if (atoms_.size() > 2048) {
    std::sort(atoms_.begin(), atoms_.end());
    atoms_.erase(std::unique(atoms_.begin(), atoms_.end()), atoms_.end());
    return;
  }
  std::vector<char> dead(atoms_.size(), 0);
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    for (std::size_t j = 0; j < atoms_.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (atoms_[j].covers(atoms_[i]) &&
          (!(atoms_[i] == atoms_[j]) || j < i)) {
        dead[i] = 1;
        break;
      }
    }
  }
  std::vector<HeaderAtom> kept;
  kept.reserve(atoms_.size());
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (!dead[i]) kept.push_back(atoms_[i]);
  }
  std::sort(kept.begin(), kept.end());
  atoms_ = std::move(kept);
}

void HeaderPredicate::normalize_disjoint() {
  // With pairwise-disjoint atoms no distinct atom can cover another (cover
  // implies a shared header, atoms are never empty) and no two atoms are
  // equal, so normalize()'s O(n^2) cover-prune provably removes nothing:
  // sorting alone yields the identical atom list.
  std::sort(atoms_.begin(), atoms_.end());
}

std::optional<HeaderPredicate::Witness> HeaderPredicate::witness() const {
  if (atoms_.empty()) return std::nullopt;
  const HeaderAtom* least = &atoms_.front();
  for (const auto& atom : atoms_) {
    if (atom < *least) least = &atom;
  }
  Witness w;
  w.source = least->source.network();
  w.destination = least->destination.network();
  w.protocol_bit = std::countr_zero(least->protocols);
  w.port = least->port_lo;
  return w;
}

std::string HeaderPredicate::to_string(const ProtocolDomain& domain) const {
  std::string out;
  for (const auto& atom : atoms_) {
    out += atom.source.to_string();
    out += " -> ";
    out += atom.destination.to_string();
    out += " proto ";
    if (atom.protocols == kAllProtocols) {
      out += "any";
    } else {
      bool first = true;
      for (int bit = 0; bit < 64; ++bit) {
        if ((atom.protocols >> bit) & 1) {
          if (!first) out += ',';
          out += domain.bit_name(bit);
          first = false;
        }
      }
    }
    out += " port ";
    if (atom.port_lo == 0 && atom.port_hi == kNoPort) {
      out += "any";
    } else {
      out += atom.port_lo == kNoPort ? std::string("none")
                                     : std::to_string(atom.port_lo);
      if (atom.port_hi != atom.port_lo) {
        out += '-';
        out += atom.port_hi == kNoPort ? std::string("none")
                                       : std::to_string(atom.port_hi);
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace rd::model
