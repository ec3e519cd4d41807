// The "every component fits under the limit" feasibility checks the tree
// solvers re-run on their answers: a union pass over a flat CsrView with
// some edges marked removed, and a bottom-up sweep over a TreeLayout.
#pragma once

#include <span>

#include "graph/csr.hpp"
#include "graph/weight.hpp"
#include "util/arena.hpp"

namespace tgp::core {

/// Per-call scratch, all drawn from one arena.  Trivially destructible:
/// callers placement-new arrays of these into arena memory.
struct ComponentScratch {
  ComponentScratch(const graph::CsrView& g, util::Arena& arena);

  unsigned char* removed;  ///< m flags, 1 = edge is cut (zeroed at birth)
  int* comp;               ///< n union-find parents, then the flood's marks
  graph::Weight* load;     ///< n component loads, each kept at its root
  int* stack;              ///< n-entry DFS stack
};

/// True iff every component of the tree view g (csr_from_tree) minus the
/// removed edges weighs at most `limit`, each weighed depth first from its
/// lowest vertex, neighbours in CSR order.  One union pass over the kept
/// edges in index order, each root its component's lowest vertex, gives
/// every load in another order; a load more than eps/2 (load_epsilon)
/// from `limit` decides as the depth-first sum would, and only the
/// others, NaN included, are flooded in that order.
bool feasible_with_removed(const graph::CsrView& g, ComponentScratch& s,
                           graph::Weight limit);

/// True iff every component of the laid-out tree minus the edges in `cut`
/// weighs at most `limit`.  One bottom-up sweep: a position's load folds
/// into its parent's unless the edge between them is cut, where it closes
/// a component.  Children fold into their parent in reverse position
/// order, not in feasible_with_removed's order; callers that accept loads
/// only up to K + eps/2 in their own order can check against K + eps
/// either way.
bool feasible_bottom_up(const graph::TreeLayout& layout,
                        std::span<const int> cut, graph::Weight limit,
                        util::Arena& arena);

}  // namespace tgp::core
