"""Which nodes a single broken node cuts off from a set of roots.

Open extraction asks the same question for many nodes ``v`` of one net's
connectivity graph: "once ``v`` is broken, which nodes can no longer reach
a root (the net's drivers, or its sinks)?"  One BFS per question costs
``O(V + E)`` each.  :class:`Separation` answers all of them from one
iterative Tarjan low-point DFS, started at a virtual root joined to every
root.  In DFS preorder each subtree is a contiguous range, and removing a
reached node ``v`` cuts off exactly the subtrees of those children ``c``
with ``low[c] >= disc[v]``: no back edge leaves them above ``v``.
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
        low: dict[int, int] = {}
        # cuts[v] = (starts, stops): the preorder ranges removing v cuts
        # off, disjoint and appended in increasing order.
        cuts: dict[int, tuple[list[int], list[int]]] = {}
        for root in root_set:
            if root in disc:
                continue
            # Every root also has an edge to the virtual root (preorder -1):
            # a tree edge for this one, a back edge for roots found later.
            disc[root] = len(order)
            low[root] = -1
            order.append(root)
            stack = [(root, None, iter(adjacency.get(root, ())))]
            while stack:
                v, parent, neighbours = stack[-1]
                for w in neighbours:
                    # The edge back to ``parent`` only lowers low[v] to
                    # disc[parent], which changes no cut decision.
                    if w in disc:
                        if disc[w] < low[v]:
                            low[v] = disc[w]
                        continue
                    disc[w] = len(order)
                    low[w] = -1 if w in root_set else disc[w]
                    order.append(w)
                    stack.append((w, v, iter(adjacency.get(w, ()))))
                    break
                else:
                    stack.pop()
                    if parent is None:
                        continue
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        starts, stops = cuts.setdefault(parent, ([], []))
                        starts.append(disc[v])
                        stops.append(len(order))
        self._order = order
        self._disc = disc
        self._cuts = cuts
        self._unreached = [n for n in adjacency if n not in disc]

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

    def cut_off(self, removed: int) -> set[int]:
        """Every node but ``removed`` that reaches no root once it is gone."""
        lost = set(self._unreached)
        for lo, hi in zip(*self._cuts.get(removed, ((), ()))):
            lost.update(self._order[lo:hi])
        lost.discard(removed)
        return lost
