"""Oracle tests for the array-based extraction paths.

* :func:`facing_pairs` (per-layer sort-and-sweep plus :class:`GridOrder`)
  must yield exactly the pairs, spans and order of the bucket-grid filter
  it replaced: ``SpatialIndex.candidate_pairs(margin)`` plus ``facing_span``.
* :func:`build_connectivity` must find exactly the edges of a brute-force
  pass over every shape pair, and :func:`find_shorts` exactly the shorts
  of the bucket-grid pass it replaced; :func:`neighbour_lists` must list
  each shape's neighbours in the graph's own order; :func:`sweep_axis`
  must pick the axis whose sweep offers fewer pairs.
* :class:`Separation` must agree with one BFS per removed node, through
  both :meth:`~Separation.cut_off` and its preorder ranges.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defects.extraction import facing_pairs
from repro.defects.separation import Separation
from repro.layout import build_connectivity, find_shorts
from repro.layout.extract import connectivity_edges, neighbour_lists
from repro.layout.geometry import Layer, Rect, facing_span
from repro.layout.spatial import SpatialIndex
from repro.layout.sweep import ShapeColumns, cross_pairs, sweep_axis, sweep_pairs

# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def reference_facing_pairs(shapes, margin):
    """The bucket-grid bridge filter, one Python pair at a time."""
    index_of = {id(s): i for i, s in enumerate(shapes)}
    out = []
    for a, b in SpatialIndex(shapes).candidate_pairs(margin=margin):
        if a.layer != b.layer or not a.layer.is_conductor:
            continue
        if not a.net or not b.net or a.net == b.net:
            continue
        span = facing_span(a, b)
        if span is None:
            continue
        spacing, run = span
        if spacing >= margin or run <= 0:
            continue
        out.append((index_of[id(a)], index_of[id(b)], spacing, run))
    return out


def pair_rows(columns):
    """:func:`facing_pairs` columns as ``(a, b, spacing, run)`` tuples."""
    return list(zip(*(column.tolist() for column in columns)))


def reference_connectivity(shapes):
    """Connectivity edges from the rules, checked on every shape pair."""
    contact_joins = (Layer.METAL1, Layer.POLY, Layer.NDIFF, Layer.PDIFF)
    edges = set()
    for (i, a), (j, b) in itertools.combinations(enumerate(shapes), 2):
        if a.layer == b.layer and a.layer.is_conductor:
            if a.intersects(b):
                edges.add((i, j))
            continue
        if a.layer.is_cut == b.layer.is_cut:
            continue
        cut, metal = (a, b) if a.layer.is_cut else (b, a)
        joins = contact_joins if cut.layer is Layer.CONTACT else (Layer.METAL1, Layer.METAL2)
        if metal.layer in joins and cut.overlap_area(metal) > 0:
            edges.add((i, j))
    return edges


def reference_reach(adjacency, roots, removed):
    seen = {r for r in roots if r != removed}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in adjacency.get(v, ()):
            if w not in seen and w != removed:
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# Random geometry: coarse grids give equal-llx ties, abutting edges and gaps
# exactly at the margin; the nudges give gaps one ulp either side of it.
# ---------------------------------------------------------------------------
_LAYERS = [Layer.METAL1] * 4 + [Layer.METAL2, Layer.POLY, Layer.NWELL, Layer.CONTACT]
_NUDGES = st.sampled_from([0.0, 0.0, 0.0, np.inf, -np.inf])


def _nudge(x: float, direction: float) -> float:
    return float(np.nextafter(x, direction)) if direction else x


@st.composite
def layouts(draw, max_shapes=40):
    """Wire-like rectangles in clusters spread over many 25 um buckets."""
    margin = draw(st.sampled_from([0.5, 1.5, 3.0, 7.5, 30.0]))
    centres = draw(
        st.lists(st.tuples(st.integers(-4, 12), st.integers(-4, 12)), min_size=1, max_size=4)
    )
    shapes = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_shapes))):
        cx, cy = draw(st.sampled_from(centres))
        x = cx * 25.0 + draw(st.integers(-20, 60)) * 0.5
        y = cy * 25.0 + draw(st.integers(-20, 60)) * 0.5
        long_side = draw(st.integers(0, 160)) * 0.5
        short_side = draw(st.integers(0, 6)) * 0.5
        w, h = (long_side, short_side) if draw(st.booleans()) else (short_side, long_side)
        urx = _nudge(x + w, draw(_NUDGES))
        shapes.append(
            Rect(
                draw(st.sampled_from(_LAYERS)),
                x,
                y,
                max(urx, x),
                y + h,
                net=draw(st.sampled_from(["", "a", "b", "c", "d"])),
            )
        )
    return shapes, margin


@settings(max_examples=150, deadline=None)
@given(case=layouts())
def test_facing_pairs_match_bucket_grid_filter(case):
    shapes, margin = case
    columns, examined = facing_pairs(ShapeColumns.of(shapes), margin)
    reference = reference_facing_pairs(shapes, margin)
    # repr tells apart values == cannot (0.0 and -0.0): bit-identical spans.
    assert repr(pair_rows(columns)) == repr(reference)
    assert set(examined) == {layer.value for layer in Layer if layer.is_conductor}


def test_facing_pairs_tie_and_margin_edges():
    m = 3.0
    shapes = [
        Rect(Layer.METAL1, 0.0, 0.0, 10.0, 1.0, net="a"),
        Rect(Layer.METAL1, 0.0, 4.0, 10.0, 5.0, net="b"),  # gap == margin: out
        Rect(Layer.METAL1, 0.0, 1.0, 10.0, 2.0, net="c"),  # abuts a: gap 0
        Rect(Layer.METAL1, 0.0, float(np.nextafter(4.0, 0)), 10.0, 6.0, net="d"),
        Rect(Layer.METAL1, 0.0, 2.5, 10.0, 3.0, net=""),  # net-less: ignored
        Rect(Layer.METAL2, 0.0, 2.0, 10.0, 3.0, net="e"),  # other layer
    ]
    pairs = pair_rows(facing_pairs(ShapeColumns.of(shapes), m)[0])
    assert pairs == reference_facing_pairs(shapes, m)
    found = {(a, b) for a, b, *_ in pairs}
    assert (0, 1) not in found
    assert (0, 2) in found and (0, 3) in found


def test_sweep_blocks_cover_every_window_pair_once():
    rng = np.random.default_rng(3)
    llx = np.round(rng.uniform(0, 50, 300), 1)
    urx = llx + np.round(rng.uniform(0, 6, 300), 1)

    def within(margin):
        return {
            (i, j)
            for i in range(300)
            for j in range(i + 1, 300)
            if max(llx[i], llx[j]) <= min(urx[i], urx[j]) + margin
        }

    touching = within(0.0)
    for block in (1, 7, 1 << 18):
        for margin in (0.0, 2.0):
            got = [
                tuple(sorted(p))
                for i, j in sweep_pairs(llx, urx, margin, block=block)
                for p in zip(i.tolist(), j.tolist())
            ]
            assert len(got) == len(set(got))
            assert set(got) >= within(margin)
            if margin == 0.0:
                assert set(got) == touching
        crossed = [
            p
            for i, j in cross_pairs(llx[:150], urx[:150], llx[150:], urx[150:], block)
            for p in zip(i.tolist(), (j + 150).tolist())
        ]
        assert len(crossed) == len(set(crossed))
        assert set(crossed) == {(i, j) for i, j in touching if i < 150 <= j}


@settings(max_examples=100, deadline=None)
@given(
    extents=st.lists(
        st.tuples(*[st.integers(0, 40)] * 2, *[st.integers(0, 30)] * 2),
        min_size=1,
        max_size=40,
    ),
    split=st.integers(0, 40),
)
def test_sweep_axis_picks_the_axis_offering_fewer_pairs(extents, split):
    boxes = np.array(
        [(x, y, x + w, y + h) for x, y, w, h in extents], dtype=np.float64
    )

    def offered(axis, a, b=None):
        lo, hi = (0, 2) if axis == 0 else (1, 3)
        if b is None:
            return sum(len(i) for i, _ in sweep_pairs(a[:, lo], a[:, hi]))
        pairs = cross_pairs(a[:, lo], a[:, hi], b[:, lo], b[:, hi])
        return sum(len(i) for i, _ in pairs)

    for a, b in ((boxes, None), (boxes[:split], boxes[split:])):
        if b is not None and not (len(a) and len(b)):
            continue
        x, y = offered(0, a, b), offered(1, a, b)
        assert sweep_axis(a, b) == int(y < x)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------
@st.composite
def connectivity_layouts(draw):
    layers = list(Layer)
    shapes = []
    for _ in range(draw(st.integers(0, 30))):
        x = draw(st.integers(0, 60)) * 0.5
        y = draw(st.integers(0, 60)) * 0.5
        w = draw(st.integers(0, 16)) * 0.5
        h = draw(st.integers(0, 16)) * 0.5
        net = draw(st.sampled_from(["", "a", "b", "c"]))
        shapes.append(Rect(draw(st.sampled_from(layers)), x, y, x + w, y + h, net=net))
    return shapes


@settings(max_examples=150, deadline=None)
@given(shapes=connectivity_layouts())
def test_connectivity_matches_brute_force(shapes):
    graph = build_connectivity(shapes)
    assert set(graph.nodes) == set(range(len(shapes)))
    assert {tuple(sorted(e)) for e in graph.edges} == reference_connectivity(shapes)


@settings(max_examples=150, deadline=None)
@given(shapes=connectivity_layouts())
def test_find_shorts_matches_bucket_grid(shapes):
    position = {id(shape): k for k, shape in enumerate(shapes)}
    expected = {
        tuple(sorted((position[id(a)], position[id(b)])))
        for a, b in SpatialIndex(shapes).candidate_pairs()
        if a.layer == b.layer
        and a.layer.is_conductor
        and a.net
        and b.net
        and a.net != b.net
        and a.intersects(b)
    }
    got = [(position[id(a)], position[id(b)]) for a, b in find_shorts(shapes)]
    assert got == sorted(expected)


def test_connectivity_matches_brute_force_on_c17(c17_design):
    shapes = c17_design.shapes
    graph = build_connectivity(shapes)
    assert {tuple(sorted(e)) for e in graph.edges} == reference_connectivity(shapes)


def assert_neighbour_lists_match_graph(shapes):
    edges = connectivity_edges(ShapeColumns.of(shapes))
    assert [tuple(e) for e in edges.tolist()] == sorted(reference_connectivity(shapes))
    graph = build_connectivity(shapes)
    expected = [list(graph.neighbors(i)) for i in range(len(shapes))]
    assert neighbour_lists(len(shapes), edges) == expected


@settings(max_examples=150, deadline=None)
@given(shapes=connectivity_layouts())
def test_neighbour_lists_match_networkx_order(shapes):
    assert_neighbour_lists_match_graph(shapes)


def test_neighbour_lists_match_networkx_order_on_c17(c17_design):
    assert_neighbour_lists_match_graph(c17_design.shapes)


# ---------------------------------------------------------------------------
# Separation (Tarjan) vs one BFS per removed node
# ---------------------------------------------------------------------------
@st.composite
def graphs_with_roots(draw):
    n = draw(st.integers(1, 24))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    adjacency = {v: [] for v in range(n)}
    for u, v in edges:
        if u != v and v not in adjacency[u]:
            adjacency[u].append(v)
            adjacency[v].append(u)
    anchors = draw(st.sets(st.integers(0, n - 1), max_size=4))
    sinks = draw(st.sets(st.integers(0, n - 1), max_size=4))
    return adjacency, anchors, sinks


@settings(max_examples=300, deadline=None)
@given(case=graphs_with_roots())
def test_separation_matches_bfs_per_removed_node(case):
    adjacency, anchors, sinks = case
    nodes = set(adjacency)
    for roots in (anchors, sinks):
        separation = Separation(adjacency, roots)
        preorder = separation.preorder
        assert sorted(preorder + separation.unreached) == sorted(nodes)
        for at, node in enumerate(preorder):
            assert separation.position(node) == at
        for node in separation.unreached:
            assert separation.position(node) is None
        at = separation.positions(len(nodes))
        assert at.tolist() == [
            -1 if separation.position(v) is None else separation.position(v)
            for v in range(len(nodes))
        ]
        for removed in nodes:
            reach = reference_reach(adjacency, roots, removed)
            lost = nodes - reach - {removed}
            assert separation.cut_off(removed) == lost
            for node in nodes:
                assert separation.reaches(removed, node) == (node in reach)
            # The column form answers the same for every node at once.
            survives = separation.survives(np.full(len(at), at[removed]), at)
            assert survives.tolist() == [v in reach for v in range(len(nodes))]
            # The ranges: ascending, disjoint, never abutting, never holding
            # ``removed``, and with the unreached nodes exactly ``lost``.
            starts, stops = separation.cut_ranges(removed)
            assert len(starts) == len(stops)
            assert all(lo < hi for lo, hi in zip(starts, stops))
            assert all(hi < lo for hi, lo in zip(stops, starts[1:]))
            ranged = [node for lo, hi in zip(starts, stops) for node in preorder[lo:hi]]
            assert removed not in ranged
            assert len(ranged) == len(set(ranged))
            assert set(ranged) | (set(separation.unreached) - {removed}) == lost


def test_separation_on_a_path_with_a_removed_anchor():
    # 0 - 1 - 2 - 3, anchors {0, 2}; 4 is isolated and never reached.
    adjacency = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2], 4: []}
    separation = Separation(adjacency, {0, 2})
    assert separation.cut_off(1) == {4}
    assert separation.cut_off(2) == {3, 4}
    assert separation.cut_off(0) == {4}
    assert not separation.reaches(2, 3)
    assert separation.reaches(1, 3)


@pytest.mark.parametrize("roots", [set(), {7}])
def test_separation_without_reachable_roots_cuts_off_everything(roots):
    adjacency = {0: [1], 1: [0]}
    separation = Separation(adjacency, roots)
    assert separation.cut_off(0) == {1}
    assert not separation.reaches(0, 1)
