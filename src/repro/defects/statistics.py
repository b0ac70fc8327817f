"""Spot-defect statistics: defect types, size distribution, density tables.

The paper weights each extracted fault by its *average number of inducing
defects* ``w_j = A_j * D_j`` (critical area x defect density), using density
and size statistics "similar to Maly" — a bridge-heavy table, as expected for
positive-photoresist CMOS lines.  This module provides:

* the classic ``p(x) = 2 x0^2 / x^3`` spot-defect diameter distribution
  (normalised on ``[x0, inf)``, truncated at ``x_max`` in practice);
* per-mechanism defect densities (:class:`DefectStatistics`), with the
  bridge-heavy default table plus an open-heavy variant for the ablation
  benches;
* yield helpers shared with :mod:`repro.core`.

Units: lengths in micrometres, densities in defects per square micrometre
(conductor mechanisms) or per cut (contact/via mechanisms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.layout.geometry import Layer

__all__ = [
    "DefectMechanism",
    "SizeDistribution",
    "DefectStatistics",
    "maly_like_statistics",
    "open_heavy_statistics",
]


class DefectMechanism(str, Enum):
    """Physical defect mechanisms the extractor models."""

    METAL1_SHORT = "metal1_short"
    METAL1_OPEN = "metal1_open"
    METAL2_SHORT = "metal2_short"
    METAL2_OPEN = "metal2_open"
    POLY_SHORT = "poly_short"
    POLY_OPEN = "poly_open"
    DIFF_SHORT = "diff_short"
    DIFF_OPEN = "diff_open"
    CONTACT_OPEN = "contact_open"
    VIA_OPEN = "via_open"
    GATE_OXIDE_SHORT = "gate_oxide_short"

    @property
    def is_bridge(self) -> bool:
        """True for mechanisms that connect distinct nodes."""
        return self.value.endswith("short")

    @property
    def is_open(self) -> bool:
        """True for mechanisms that sever connections."""
        return self.value.endswith("open")


#: Conductor layer -> (short mechanism, open mechanism).
LAYER_MECHANISMS: dict[Layer, tuple[DefectMechanism, DefectMechanism]] = {
    Layer.METAL1: (DefectMechanism.METAL1_SHORT, DefectMechanism.METAL1_OPEN),
    Layer.METAL2: (DefectMechanism.METAL2_SHORT, DefectMechanism.METAL2_OPEN),
    Layer.POLY: (DefectMechanism.POLY_SHORT, DefectMechanism.POLY_OPEN),
    Layer.NDIFF: (DefectMechanism.DIFF_SHORT, DefectMechanism.DIFF_OPEN),
    Layer.PDIFF: (DefectMechanism.DIFF_SHORT, DefectMechanism.DIFF_OPEN),
}


@dataclass(frozen=True)
class SizeDistribution:
    """Power-law spot-defect diameter distribution on ``[x0, x_max]``.

    ``p(x) = (p - 1) x0^(p-1) / x^p`` — the Ferris-Prabhu family, with the
    standard empirical exponent ``p = 3`` (Stapper's inverse-cube law) as
    default.  ``x0`` is the peak/minimum resolvable size; ``x_max`` truncates
    the integrals (the residual tail mass beyond ``x_max`` is negligible for
    ``x_max >> x0`` and is simply ignored, matching common practice).
    Smaller exponents put more mass on large defects, which fattens
    critical-area weights for widely-spaced geometry.
    """

    x0: float = 1.0
    x_max: float = 30.0
    exponent: float = 3.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x0, self.x_max, self.exponent))):
            raise ValueError(
                "size distribution needs finite x0, x_max and exponent, got "
                f"{self.x0}, {self.x_max}, {self.exponent}"
            )
        if not 0 < self.x0 < self.x_max:
            raise ValueError(f"need 0 < x0 < x_max, got {self.x0}, {self.x_max}")
        if self.exponent <= 1.0:
            raise ValueError("power-law exponent must exceed 1")

    def pdf(self, x: float) -> float:
        """Probability density at diameter ``x`` (0 outside the support)."""
        if x < self.x0 or x > self.x_max:
            return 0.0
        p = self.exponent
        return (p - 1.0) * self.x0 ** (p - 1.0) / x**p

    def cdf(self, x: float) -> float:
        """Cumulative probability of diameter <= x."""
        if x <= self.x0:
            return 0.0
        x = min(x, self.x_max)
        return 1.0 - (self.x0 / x) ** (self.exponent - 1.0)

    def sample(self, u: float) -> float:
        """Inverse-CDF sample from a uniform ``u`` in [0, 1)."""
        if not 0.0 <= u < 1.0:
            raise ValueError("u must be in [0, 1)")
        return self.x0 * (1.0 - u) ** (-1.0 / (self.exponent - 1.0))

    def mean(self) -> float:
        """Mean defect diameter over the (untruncated) distribution.

        Finite only for exponents above 2.
        """
        p = self.exponent
        if p <= 2.0:
            return math.inf
        return self.x0 * (p - 1.0) / (p - 2.0)


@dataclass(frozen=True)
class DefectStatistics:
    """Density table: average defects per um^2 (or per cut) by mechanism.

    The absolute scale cancels when the experiment pipeline rescales yield to
    the paper's Y = 0.75; only the *relative* mix matters for the coverage
    curves and the fitted (R, theta_max).
    """

    size: SizeDistribution = field(default_factory=SizeDistribution)
    densities: dict[DefectMechanism, float] = field(
        default_factory=lambda: dict(_MALY_LIKE_DENSITIES)
    )

    def __post_init__(self) -> None:
        bad = {
            getattr(m, "value", m): d
            for m, d in self.densities.items()
            if not (math.isfinite(d) and d >= 0)
        }
        if bad:
            raise ValueError(f"defect densities must be finite and >= 0, got {bad}")

    def density(self, mechanism: DefectMechanism) -> float:
        """Density for one mechanism (0 when absent from the table)."""
        return self.densities.get(mechanism, 0.0)

    def scaled(self, factor: float) -> DefectStatistics:
        """A copy with every density multiplied by ``factor``."""
        return replace(
            self,
            densities={m: d * factor for m, d in self.densities.items()},
        )

    def bridge_fraction(self) -> float:
        """Fraction of total tabulated density on bridge mechanisms."""
        total = sum(self.densities.values())
        if total == 0:
            return 0.0
        bridges = sum(d for m, d in self.densities.items() if m.is_bridge)
        return bridges / total


# Relative density table "similar to Maly": metal bridging dominates, as in
# positive-photoresist CMOS lines, with extra (bridging) defects roughly an
# order of magnitude more likely than missing (open) defects.  Units:
# defects/um^2 for area mechanisms, defects/cut for cuts.
_MALY_LIKE_DENSITIES: dict[DefectMechanism, float] = {
    DefectMechanism.METAL1_SHORT: 8.0e-7,
    DefectMechanism.METAL2_SHORT: 6.0e-7,
    DefectMechanism.POLY_SHORT: 5.0e-7,
    DefectMechanism.DIFF_SHORT: 2.0e-7,
    DefectMechanism.METAL1_OPEN: 0.5e-7,
    DefectMechanism.METAL2_OPEN: 0.4e-7,
    DefectMechanism.POLY_OPEN: 0.4e-7,
    DefectMechanism.DIFF_OPEN: 0.3e-7,
    DefectMechanism.CONTACT_OPEN: 2.0e-7,
    DefectMechanism.VIA_OPEN: 2.0e-7,
    DefectMechanism.GATE_OXIDE_SHORT: 4.0e-7,
}

# Open-heavy table for the ablation study (electromigration-limited or
# negative-photoresist-style lines): the paper predicts the susceptibility
# ratio R moves toward (or below) 1 under such statistics.
_OPEN_HEAVY_DENSITIES: dict[DefectMechanism, float] = {
    DefectMechanism.METAL1_SHORT: 1.5e-7,
    DefectMechanism.METAL2_SHORT: 1.2e-7,
    DefectMechanism.POLY_SHORT: 1.0e-7,
    DefectMechanism.DIFF_SHORT: 0.5e-7,
    DefectMechanism.METAL1_OPEN: 8.0e-7,
    DefectMechanism.METAL2_OPEN: 6.0e-7,
    DefectMechanism.POLY_OPEN: 5.0e-7,
    DefectMechanism.DIFF_OPEN: 2.0e-7,
    DefectMechanism.CONTACT_OPEN: 12.0e-7,
    DefectMechanism.VIA_OPEN: 12.0e-7,
    DefectMechanism.GATE_OXIDE_SHORT: 2.0e-7,
}


def maly_like_statistics() -> DefectStatistics:
    """The default, bridge-heavy density table (the paper's regime)."""
    return DefectStatistics()


def open_heavy_statistics() -> DefectStatistics:
    """An open-dominated density table for ablation experiments."""
    return DefectStatistics(densities=dict(_OPEN_HEAVY_DENSITIES))
