"""Which nodes a single broken node cuts off from a set of roots.

Open extraction asks the same question for many nodes ``v`` of one net's
connectivity graph: "once ``v`` is broken, which nodes can no longer reach
a root (the net's drivers, or its sinks)?"  One BFS per question costs
``O(V + E)`` each.  :class:`Separation` answers all of them from one
iterative Tarjan low-point DFS, started at a virtual root joined to every
root.  In DFS preorder each subtree is a contiguous range, and removing a
reached node ``v`` cuts off exactly the subtrees of those children ``c``
with ``low[c] >= disc[v]``: no back edge leaves them above ``v``.

Callers that classify what a removal cuts off can bisect sorted preorder
positions against :meth:`Separation.cut_ranges` instead of walking every
separated node.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence

__all__ = ["Separation"]


class Separation:
    """Reachability from ``roots`` in ``adjacency`` under each single removal.

    ``adjacency`` maps every node to its neighbours and must be symmetric.
    """

    def __init__(self, adjacency: Mapping[int, Sequence[int]], roots: Iterable[int]):
        root_set = set(roots)
        order: list[int] = []
        disc: dict[int, int] = {}
        # low[at]: the lowest preorder position a back edge reaches from the
        # subtree of the node at preorder position ``at``.
        low: list[int] = []
        # cuts[v] = (starts, stops): the preorder ranges removing v cuts
        # off, disjoint, appended in increasing order and merged where they
        # abut.
        cuts: dict[int, tuple[list[int], list[int]]] = {}
        for root in root_set:
            if root in disc:
                continue
            # Every root also has an edge to the virtual root (preorder -1):
            # a tree edge for this one, a back edge for roots found later.
            disc[root] = len(order)
            order.append(root)
            low.append(-1)
            # Stack entries: (position, parent's position, neighbour iterator).
            stack = [(len(order) - 1, -1, iter(adjacency.get(root, ())))]
            while stack:
                at, up, neighbours = stack[-1]
                for w in neighbours:
                    # The edge back to the parent only lowers low[at] to
                    # ``up``, which changes no cut decision.
                    seen = disc.get(w)
                    if seen is not None:
                        if seen < low[at]:
                            low[at] = seen
                        continue
                    seen = disc[w] = len(order)
                    order.append(w)
                    low.append(-1 if w in root_set else seen)
                    stack.append((seen, at, iter(adjacency.get(w, ()))))
                    break
                else:
                    stack.pop()
                    if up < 0:
                        continue
                    if low[at] < low[up]:
                        low[up] = low[at]
                    if low[at] >= up:
                        starts, stops = cuts.setdefault(order[up], ([], []))
                        if stops and stops[-1] == at:
                            stops[-1] = len(order)  # abuts the last range
                        else:
                            starts.append(at)
                            stops.append(len(order))
        #: Every reached node, in DFS preorder.
        self.preorder = order
        #: Nodes no root reaches even with nothing removed.
        self.unreached = [n for n in adjacency if n not in disc]
        self._disc = disc
        self._cuts = cuts

    def position(self, node: int) -> int | None:
        """Preorder position of ``node``; None when no root reaches it."""
        return self._disc.get(node)

    def reaches(self, removed: int, node: int) -> bool:
        """True when ``node`` still reaches a root once ``removed`` is gone."""
        at = self._disc.get(node)
        if at is None or node == removed:
            return False
        cut = self._cuts.get(removed)
        if cut is None:
            return True
        k = bisect_right(cut[0], at) - 1
        return k < 0 or at >= cut[1][k]

    def cut_ranges(self, removed: int) -> tuple[Sequence[int], Sequence[int]]:
        """``(starts, stops)`` of the preorder ranges cut off by ``removed``.

        The half-open ranges are disjoint, ascending, never abut and never
        hold ``removed``.  Together with :attr:`unreached` (less ``removed``)
        they are exactly :meth:`cut_off`.
        """
        return self._cuts.get(removed, ((), ()))

    def cut_off(self, removed: int) -> set[int]:
        """Every node but ``removed`` that reaches no root once it is gone."""
        lost = set(self.unreached)
        for lo, hi in zip(*self.cut_ranges(removed)):
            lost.update(self.preorder[lo:hi])
        lost.discard(removed)
        return lost
