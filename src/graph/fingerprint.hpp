// Canonical forms and isomorphism-stable fingerprints for task graphs.
//
// The partition service memoizes results by graph *content*, not by the
// accident of how a graph was presented: a chain and its reversal describe
// the same linear task graph, and a tree whose children were listed in a
// different order is still the same tree.  This module provides
//
//   * chain_orientation — which of the chain and its reversal is the
//     lexicographically smaller (weights compared by exact bit pattern):
//     all that is needed to map edge indices back to the submitted
//     orientation;
//   * canonical_chain — the chain copied into that orientation;
//   * canonical_labelling — the tree re-rooted at its (hash-disambiguated)
//     centroid and relabeled in preorder with children sorted by subtree
//     hash: vertex/edge maps back to the submitted labeling, the
//     canonical parent array and the fingerprint, from one hashing pass;
//     its TreeKey part (fingerprint and edge map) is what
//     Tree::canonical_key computes once per tree and keeps, the rest its
//     TreeOrder;
//   * build_canonical_tree — the relabeled Tree itself, built from the
//     submitted tree and its labelling (canonical_tree does both steps);
//   * fingerprint — a 128-bit hash of the canonical form, equal for
//     isomorphic chains (reversal) and for trees that differ only by
//     child order / vertex relabeling.
//
// Equality of fingerprints is probabilistic (two independent 64-bit
// streams; collision odds ~2^-128 for unrelated graphs), which is the
// right trade for a memo cache: a collision can at worst return a result
// computed for a different graph.  The service trusts any key match
// (svc/cache.hpp); nothing compares the graphs themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/chain.hpp"
#include "graph/tree.hpp"

namespace tgp::util {
class Arena;
}

namespace tgp::graph {

/// 128-bit content hash.  Comparable and hashable so it can key maps.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// 64-bit fold for shard selection / unordered_map bucketing.
  std::uint64_t fold() const { return hi ^ (lo * 0x9E3779B97F4A7C15ull); }

  std::string hex() const;

  /// Number of bytes in the wire representation below.
  static constexpr std::size_t kWireBytes = 16;

  /// Serialize as 16 bytes in explicit little-endian order: `lo` first,
  /// then `hi`, each least-significant byte first.  This is the byte
  /// layout the network wire format carries, so a shard router and a
  /// backend on different architectures always agree on ownership.
  void store_le(unsigned char out[kWireBytes]) const;

  /// Inverse of store_le.
  static Fingerprint load_le(const unsigned char in[kWireBytes]);
};

// ---- Chains ---------------------------------------------------------------

/// How a submitted chain sits against its canonical orientation:
/// `reversed` records whether it has to be flipped, and map_edge_back
/// translates a canonical edge index to the submitted chain's numbering.
/// That is all a cut needs to map back; the canonical copy is not.
struct ChainOrientation {
  bool reversed = false;
  int edge_count = 0;

  int map_edge_back(int canonical_edge) const {
    return reversed ? edge_count - 1 - canonical_edge : canonical_edge;
  }
};

/// A chain in canonical orientation, with the orientation it came from.
struct CanonicalChain : ChainOrientation {
  Chain chain;
};

/// The orientation canonical_chain picks: of the chain and its reversal,
/// the one whose (vertex weights, edge weights) sequence is
/// lexicographically smaller under bit-pattern comparison; a palindrome
/// keeps its own.  Reads the weights only up to the first pair that
/// differs, and checks nothing.
ChainOrientation chain_orientation(const Chain& chain);

/// Canonicalize: validate, then copy the chain in chain_orientation's
/// direction.  Palindromic chains are their own canonical form.  O(n).
CanonicalChain canonical_chain(const Chain& chain);

// ---- Trees ----------------------------------------------------------------

/// What a memo-cache hit on a tree needs: the cache key's fingerprint
/// (equal to tree_fingerprint of the submitted tree) and orig_edge[c],
/// the submitted index of canonical edge c.  Tree::canonical_key keeps
/// one per Tree.
struct TreeKey {
  Fingerprint fingerprint;
  std::vector<int> orig_edge;

  int map_edge_back(int canonical_edge) const {
    return orig_edge[static_cast<std::size_t>(canonical_edge)];
  }
};

/// The rest of a labelling, which building the canonical tree needs
/// beside the key: orig_vertex[c], the submitted index of canonical
/// vertex c, and parent[c], the canonical parent of canonical vertex c
/// (−1 for the root, vertex 0).
struct TreeOrder {
  std::vector<int> orig_vertex;
  std::vector<int> parent;
};

/// The canonical relabeling of a tree, without the relabeled tree itself:
/// its key and its vertex order.
struct TreeLabelling : TreeKey, TreeOrder {};

/// A labelling plus the tree relabeled into canonical form.
struct CanonicalTree : TreeLabelling {
  Tree tree;
};

/// Canonical labelling of a free tree: root at the centroid (of the two
/// possible centroids, the one with the smaller rooted subtree hash, the
/// lower vertex id on a tie), then number vertices in preorder visiting
/// each vertex's children in ascending (subtree hash, edge-weight bit
/// pattern) order.  Isomorphic trees — any vertex relabeling, any child
/// order — get labellings that build identical canonical trees up to
/// 128-bit subtree-hash collisions.
///
/// The submitted tree is traversed once: a BFS from vertex 0 lays it out
/// by position (graph::TreeLayout: vertex, parent position, parent edge,
/// weights, and each vertex's children as one contiguous block in
/// adjacency order), and subtree sizes from that layout locate the
/// centroids.  Re-rooting
/// at a centroid flips only the path from it to position 0: a path
/// vertex's children become its block minus its path child plus its old
/// parent, placed at that parent's rank in the adjacency.  Every child
/// list thus reaches the sort in adjacency order minus the parent, and
/// the hashing and relabeling read position-ordered arrays.  The maps and
/// the fingerprint come from this one hashing pass, which hashes two
/// vertices at a time, neither the other's parent, with their absorb
/// calls interleaved; each vertex's absorb sequence, and with it the
/// fingerprint, is what hashing it alone gives.  O(n log n).
/// All scratch comes from `arena` (null = per-thread fallback); only the
/// returned arrays are heap-allocated.
TreeLabelling canonical_labelling(const Tree& tree,
                                  util::Arena* arena = nullptr);

/// The canonical Tree for a labelling's `key` and `order`, which must
/// come from canonical_labelling(tree) (a TreeLabelling passes as both).
/// Canonical edge c joins vertex c+1 to its parent.  O(n) plus Tree's
/// own construction checks.
Tree build_canonical_tree(const Tree& tree, const TreeKey& key,
                          const TreeOrder& order);

/// canonical_labelling followed by build_canonical_tree.
CanonicalTree canonical_tree(const Tree& tree, util::Arena* arena = nullptr);

// ---- Fingerprints ---------------------------------------------------------

/// Fingerprint of the canonical orientation of `chain` (reversal-stable).
/// Absorbs its weights in chain_orientation's direction without copying
/// them, so the service keys a chain job with it and maps a hit back
/// through chain_orientation alone.  Precondition: `chain` passed
/// Chain::validate() (the service checks every spec at submit, and
/// net::decode_submit every chain it decodes); nothing is checked here.
/// Each weight array is read by its own size, so a malformed chain gets
/// a meaningless fingerprint, never an out-of-bounds read.
Fingerprint chain_fingerprint(const Chain& chain);

/// Fingerprint of the canonical form of `tree` (relabeling- and
/// child-order-stable); the same value canonical_labelling reports,
/// without the maps.  Scratch from `arena` (null = per-thread fallback);
/// allocates nothing in steady state.
Fingerprint tree_fingerprint(const Tree& tree, util::Arena* arena = nullptr);

}  // namespace tgp::graph

// std::hash so Fingerprint can key unordered containers directly.
template <>
struct std::hash<tgp::graph::Fingerprint> {
  std::size_t operator()(const tgp::graph::Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.fold());
  }
};
