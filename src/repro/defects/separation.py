"""Which nodes a single broken node cuts off from a set of roots.

Open extraction asks the same question for many nodes ``v`` of a
connectivity graph: "once ``v`` is broken, which nodes can no longer reach
a root (the net's drivers, or its sinks)?"  One BFS per question costs
``O(V + E)`` each.  :class:`Separation` answers all of them from one
iterative Tarjan low-point DFS, started at a virtual root joined to every
root.  In DFS preorder each subtree is a contiguous range, and removing a
reached node ``v`` cuts off exactly the subtrees of those children ``c``
with ``low[c] >= disc[v]``: no back edge leaves them above ``v``.

The ranges are kept as one table of rows ``(removed, start, stop)`` over
preorder positions, sorted by ``(removed, start)``, so callers can answer
the question for whole columns of removals at once: bisect sorted member
positions against the rows, or test which nodes still reach a root
(:meth:`Separation.survives`).  A graph made of several disjoint nets is
handled by one DFS over all of them: no range crosses a net.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

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
        # Cut rows: removing the node at preorder position rows_at[k] cuts
        # off [rows_start[k], rows_stop[k]).  A node's rows are appended in
        # increasing order and merged where they abut; last_row[at] is the
        # index of the latest row of position ``at``.
        rows_at: list[int] = []
        rows_start: list[int] = []
        rows_stop: list[int] = []
        last_row: dict[int, int] = {}
        get = adjacency.get
        found = disc.get
        count = 0
        for root in root_set:
            if root in disc:
                continue
            # Every root also has an edge to the virtual root (preorder -1):
            # a tree edge for this one, a back edge for roots found later.
            disc[root] = count
            order.append(root)
            low.append(-1)
            # Stack entries: (position, parent's position, neighbour iterator).
            stack = [(count, -1, iter(get(root, ())))]
            count += 1
            while stack:
                at, up, neighbours = stack[-1]
                for w in neighbours:
                    # The edge back to the parent only lowers low[at] to
                    # ``up``, which changes no cut decision.
                    seen = found(w)
                    if seen is not None:
                        if seen < low[at]:
                            low[at] = seen
                        continue
                    disc[w] = count
                    order.append(w)
                    low.append(-1 if w in root_set else count)
                    stack.append((count, at, iter(get(w, ()))))
                    count += 1
                    break
                else:
                    stack.pop()
                    if up < 0:
                        continue
                    if low[at] < low[up]:
                        low[up] = low[at]
                    if low[at] >= up:
                        k = last_row.get(up)
                        if k is not None and rows_stop[k] == at:
                            rows_stop[k] = count  # abuts the last range
                        else:
                            last_row[up] = len(rows_at)
                            rows_at.append(up)
                            rows_start.append(at)
                            rows_stop.append(count)
        #: Every reached node, in DFS preorder.
        self.preorder = order
        #: Nodes no root reaches even with nothing removed.
        self.unreached = [n for n in adjacency if n not in disc]
        self._disc = disc
        # Starts are distinct positions, so one key orders the rows.
        width = len(order) + 1
        key = np.array(rows_at, dtype=np.int64) * width + np.array(
            rows_start, dtype=np.int64
        )
        rank = np.argsort(key)
        self._width = width
        self._key = key[rank]
        #: The cut table, sorted by ``(cut_at, cut_start)``: removing the
        #: node at preorder position ``cut_at[k]`` cuts off the half-open
        #: range ``[cut_start[k], cut_stop[k])``.  A node's ranges are
        #: disjoint, never abut and never hold the node itself.
        self.cut_at = np.array(rows_at, dtype=np.int64)[rank]
        self.cut_start = np.array(rows_start, dtype=np.int64)[rank]
        self.cut_stop = np.array(rows_stop, dtype=np.int64)[rank]

    def position(self, node: int) -> int | None:
        """Preorder position of ``node``; None when no root reaches it."""
        return self._disc.get(node)

    def positions(self, n: int) -> np.ndarray:
        """Preorder positions of nodes ``0 .. n-1``; -1 where none is reached."""
        out = np.full(n, -1, dtype=np.int64)
        placed = [node for node in self.preorder if 0 <= node < n]
        out[placed] = [self._disc[node] for node in placed]
        return out

    def rows(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: the cut table rows of each position in ``at``.

        Rows ``lo[k] .. hi[k]-1`` are the ranges removing the node at
        position ``at[k]`` cuts off; a negative position has none.
        """
        lo = np.searchsorted(self.cut_at, at, side="left")
        hi = np.searchsorted(self.cut_at, at, side="right")
        return lo, np.where(at < 0, lo, hi)

    def survives(self, removed_at: np.ndarray, node_at: np.ndarray) -> np.ndarray:
        """True where the node at ``node_at`` still reaches a root once the
        node at ``removed_at`` is gone (positions; -1: not reached)."""
        alive = (node_at >= 0) & (node_at != removed_at)
        if not len(self._key):
            return alive
        k = np.searchsorted(self._key, removed_at * self._width + node_at, "right") - 1
        k = np.maximum(k, 0)
        inside = (self.cut_at[k] == removed_at) & (self.cut_start[k] <= node_at)
        return alive & ~(inside & (node_at < self.cut_stop[k]))

    def reaches(self, removed: int, node: int) -> bool:
        """True when ``node`` still reaches a root once ``removed`` is gone."""
        at = self._disc.get(node)
        if at is None or node == removed:
            return False
        gone = self._disc.get(removed)
        if gone is None:
            return True
        return bool(self.survives(np.array([gone]), np.array([at]))[0])

    def cut_ranges(self, removed: int) -> tuple[Sequence[int], Sequence[int]]:
        """``(starts, stops)`` of the preorder ranges cut off by ``removed``.

        The half-open ranges are disjoint, ascending, never abut and never
        hold ``removed``.  Together with :attr:`unreached` (less ``removed``)
        they are exactly :meth:`cut_off`.
        """
        at = self._disc.get(removed)
        if at is None:
            return (), ()
        (lo,), (hi,) = self.rows(np.array([at]))
        return self.cut_start[lo:hi].tolist(), self.cut_stop[lo:hi].tolist()

    def cut_off(self, removed: int) -> set[int]:
        """Every node but ``removed`` that reaches no root once it is gone."""
        lost = set(self.unreached)
        for lo, hi in zip(*self.cut_ranges(removed)):
            lost.update(self.preorder[lo:hi])
        lost.discard(removed)
        return lost
