"""The riser-column registry against a linear scan of its entries.

``_VerticalRegistry`` tests a probe against every registered vertical of
the probe's zone at once.  It must accept exactly the columns a linear scan
with the same float comparisons accepts, and ``find_column`` must pick the
same column.  The random registries put coordinates on a quarter-micron
grid, so gaps of exactly ``metal2_space`` occur, and zones on small
integers, so zones that share a boundary occur.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import DesignRules
from repro.layout.routing import M2_COLUMN_PITCH, _VerticalRegistry

_GAP = DesignRules().metal2_space


def reference_is_free(entries, x_lo, x_hi, zone) -> bool:
    """The linear scan: any entry of an overlapping zone within the gap."""
    for ex_lo, ex_hi, z_lo, z_hi in entries:
        if zone[1] <= z_lo or z_hi <= zone[0]:
            continue
        if x_lo - _GAP < ex_hi and ex_lo < x_hi + _GAP:
            return False
    return True


def reference_find_column(entries, preferred, zone, x_min, x_max, half_width):
    grain = M2_COLUMN_PITCH / 2
    step = 0
    while step * grain < (x_max - x_min) + M2_COLUMN_PITCH:
        for sign in (1, -1) if step else (1,):
            x = preferred + sign * step * grain
            if x_min <= x <= x_max and reference_is_free(
                entries, x - half_width, x + half_width, zone
            ):
                entries.append((x - half_width, x + half_width, *zone))
                return x
        step += 1
    return None


coordinate = st.integers(0, 160).map(lambda k: k * 0.25)
zones = st.tuples(st.integers(0, 6), st.integers(1, 3)).map(
    lambda z: (float(z[0]), float(z[0] + z[1]))
)
entries = st.lists(
    st.tuples(coordinate, st.sampled_from([1.5, 3.0]), zones).map(
        lambda e: (e[0], e[0] + e[1], *e[2])
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(registered=entries, probes=st.lists(st.tuples(coordinate, zones), max_size=20))
def test_is_free_matches_linear_scan(registered, probes):
    registry = _VerticalRegistry()
    for x_lo, x_hi, z_lo, z_hi in registered:
        registry.add(x_lo, x_hi, (z_lo, z_hi))
    # Probes right at the spacing rule from each entry, and arbitrary ones.
    candidates = [(x, zone) for x, zone in probes]
    for x_lo, x_hi, z_lo, z_hi in registered:
        candidates.append((x_hi + _GAP, (z_hi, z_hi + 1.0)))  # zones abut
        candidates.append((x_hi + _GAP, (z_lo, z_hi)))  # gap == spacing
        candidates.append((x_lo - _GAP - 1.5, (z_lo, z_hi)))
    for x, zone in candidates:
        assert registry.is_free(x, x + 1.5, zone) == reference_is_free(
            registered, x, x + 1.5, zone
        )


@settings(max_examples=200, deadline=None)
@given(
    registered=entries,
    requests=st.lists(st.tuples(coordinate, zones), min_size=1, max_size=8),
)
def test_find_column_matches_linear_scan(registered, requests):
    registry = _VerticalRegistry()
    reference = list(registered)
    for x_lo, x_hi, z_lo, z_hi in registered:
        registry.add(x_lo, x_hi, (z_lo, z_hi))
    for preferred, zone in requests:
        expected = reference_find_column(reference, preferred, zone, 9.0, 45.0, 0.75)
        try:
            found = registry.find_column(preferred, zone, 9.0, 45.0)
        except RuntimeError:
            found = None
        assert found == expected
