// The "every component fits under the limit" feasibility checks the tree
// solvers re-run on their answers: a flood over a flat CsrView with some
// edges marked removed, and a bottom-up sweep over a TreeLayout.
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
  int* comp;               ///< n component ids, the flood's visited marks
  int* stack;              ///< n-entry DFS stack
};

/// True iff every component of g − removed weighs at most `limit`.  Each
/// component is weighed depth first from its lowest vertex, neighbours in
/// CSR order.  Stops at the first component that exceeds it.
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
