"""Realistic (defect-induced) fault records.

Each fault carries a ``weight``: the average number of defects inducing it,
``w_j = A_j * D_j`` (eq. 4 of the paper via ``w_j = -ln(1 - p_j)``).  The
behavioural classes mirror what the switch-level simulator can inject:

* :class:`BridgeFault` — two distinct circuit nodes resistively connected
  (same-layer proximity bridges and gate-oxide shorts);
* :class:`FloatingNetFault` — an open that leaves a set of gate inputs (and
  possibly primary-output observers) electrically floating;
* :class:`TransistorStuckOpen` — an open in a cell's source/drain path or a
  missing cell contact, so the affected devices can never conduct;
* :class:`TransistorStuckOn` — a device that conducts regardless of its gate
  (from channel-region diffusion shorts).

``origin`` records the mechanism and layer the fault came from so histograms
and ablations can slice the population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

from repro.defects.statistics import DefectMechanism

__all__ = [
    "RealisticFault",
    "BridgeFault",
    "FloatingNetFault",
    "TransistorGateOpen",
    "TransistorStuckOpen",
    "TransistorStuckOn",
    "FaultList",
]


#: Each mechanism's value, the sort key of merged origins.
_VALUE_OF = {m: m.value for m in DefectMechanism}


@dataclass
class RealisticFault:
    """Base class: a layout-extracted fault with an occurrence weight."""

    weight: float = 0.0
    origin: tuple[DefectMechanism, ...] = field(default_factory=tuple)

    @property
    def probability(self) -> float:
        """Occurrence probability ``p_j = 1 - exp(-w_j)`` (inverse of eq. 4)."""
        from math import exp

        return 1.0 - exp(-self.weight)

    def key(self) -> tuple:
        """Behavioural identity used to aggregate same-effect faults."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner."""
        raise NotImplementedError


@dataclass
class BridgeFault(RealisticFault):
    """Nodes ``net_a`` and ``net_b`` bridged (order-normalised)."""

    net_a: str = ""
    net_b: str = ""

    def __post_init__(self) -> None:
        if self.net_a > self.net_b:
            self.net_a, self.net_b = self.net_b, self.net_a

    def key(self) -> tuple:
        return ("bridge", self.net_a, self.net_b)

    def describe(self) -> str:
        return f"bridge({self.net_a}, {self.net_b})"


@dataclass
class FloatingNetFault(RealisticFault):
    """An open on net ``net`` leaving ``floating_inputs`` undriven.

    ``floating_inputs`` holds ``(instance, net)`` gate-input pins cut off
    from the net's driver; ``floats_output_port`` marks a primary-output
    observer that lost its connection.
    """

    net: str = ""
    floating_inputs: tuple[tuple[str, str], ...] = ()
    floats_output_port: bool = False
    #: Devices additionally severed from the net (partial-drive opens).
    stuck_open: tuple[str, ...] = ()

    def key(self) -> tuple:
        return (
            "open",
            self.net,
            self.floating_inputs,
            self.floats_output_port,
            self.stuck_open,
        )

    def describe(self) -> str:
        pins = ", ".join(f"{inst}" for inst, _ in self.floating_inputs)
        tag = "+PO" if self.floats_output_port else ""
        extra = f" +open[{','.join(self.stuck_open)}]" if self.stuck_open else ""
        return f"open({self.net} -> floats [{pins}]{tag}{extra})"


@dataclass
class TransistorStuckOpen(RealisticFault):
    """Devices (by name) that can no longer conduct."""

    transistors: tuple[str, ...] = ()
    instance: str = ""

    def key(self) -> tuple:
        return ("t-open", self.transistors)

    def describe(self) -> str:
        return f"stuck-open({', '.join(self.transistors)})"


@dataclass
class TransistorGateOpen(RealisticFault):
    """A single device whose gate poly broke between its channel and the pin.

    The trapped gate charge fixes the device in an unknown but constant
    state; detection semantics require failing for both the always-on and
    always-off assumption.
    """

    transistor: str = ""
    instance: str = ""

    def key(self) -> tuple:
        return ("g-open", self.transistor)

    def describe(self) -> str:
        return f"gate-open({self.transistor})"


@dataclass
class TransistorStuckOn(RealisticFault):
    """A device that conducts regardless of its gate value."""

    transistor: str = ""
    instance: str = ""

    def key(self) -> tuple:
        return ("t-on", self.transistor)

    def describe(self) -> str:
        return f"stuck-on({self.transistor})"


class FaultList:
    """Aggregating container: same-effect faults merge, weights add."""

    def __init__(self) -> None:
        self._by_key: dict[tuple, RealisticFault] = {}

    def add(self, fault: RealisticFault) -> None:
        """Insert or merge ``fault`` by behavioural key.

        A merge adds the weights and keeps the value-sorted union of both
        origins.
        """
        if fault.weight <= 0:
            return
        key = fault.key()
        existing = self._by_key.get(key)
        if existing is None:
            self._by_key[key] = fault
            return
        existing.weight += fault.weight
        # A repeat of a lone mechanism leaves the origin as it is; anything
        # else re-sorts the union, which also canonicalises a given tuple.
        if len(existing.origin) != 1 or fault.origin != existing.origin:
            merged = set(existing.origin) | set(fault.origin)
            existing.origin = tuple(sorted(merged, key=_VALUE_OF.__getitem__))

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def faults(self) -> list[RealisticFault]:
        """All aggregated faults (insertion order)."""
        return list(self._by_key.values())

    def total_weight(self) -> float:
        """Sum of weights — the exponent of the yield formula (eq. 5)."""
        return sum(f.weight for f in self._by_key.values())

    def predicted_yield(self) -> float:
        """``Y = exp(-sum w_j)`` (eq. 5)."""
        from math import exp

        return exp(-self.total_weight())

    def scaled_to_yield(self, target_yield: float) -> "FaultList":
        """A copy rescaled so the predicted yield equals ``target_yield``.

        The paper scales its c432 experiment to Y = 0.75 ("as if the circuit
        has a different size but maintains the same testability features"):
        every weight is multiplied by ``ln(target) / ln(current)``.
        """
        if not 0 < target_yield < 1:
            raise ValueError("target yield must be in (0, 1)")
        current = self.total_weight()
        if current <= 0:
            raise ValueError("cannot scale an empty fault list")
        factor = -log(target_yield) / current
        scaled = FaultList()
        for key, fault in self._by_key.items():
            weight = fault.weight * factor
            if weight > 0:
                # A shallow copy under the same key: every field but the
                # weight is shared (all are immutable).
                clone = object.__new__(type(fault))
                clone.__dict__.update(fault.__dict__)
                clone.weight = weight
                scaled._by_key[key] = clone
        return scaled

    def weights(self) -> list[float]:
        """All fault weights, in fault order."""
        return [f.weight for f in self]

    def by_class(self) -> dict[str, list[RealisticFault]]:
        """Faults grouped by behavioural class name."""
        groups: dict[str, list[RealisticFault]] = {}
        for fault in self:
            groups.setdefault(type(fault).__name__, []).append(fault)
        return groups

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_records(self) -> list[dict]:
        """Plain-dict records (JSON-ready) for every fault."""
        records = []
        for fault in self:
            record = {
                "class": type(fault).__name__,
                "weight": fault.weight,
                "origin": [m.value for m in fault.origin],
            }
            for key, value in fault.__dict__.items():
                if key in ("weight", "origin"):
                    continue
                if isinstance(value, tuple):
                    value = [list(v) if isinstance(v, tuple) else v for v in value]
                record[key] = value
            records.append(record)
        return records

    def save_json(self, path) -> None:
        """Write the fault list (with weights and origins) to a JSON file."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_records(), indent=1))

    @classmethod
    def load_json(cls, path) -> "FaultList":
        """Re-load a fault list written by :meth:`save_json`."""
        import json
        from pathlib import Path

        from repro.defects.statistics import DefectMechanism

        classes = {
            "BridgeFault": BridgeFault,
            "FloatingNetFault": FloatingNetFault,
            "TransistorGateOpen": TransistorGateOpen,
            "TransistorStuckOpen": TransistorStuckOpen,
            "TransistorStuckOn": TransistorStuckOn,
        }
        faults = cls()
        for record in json.loads(Path(path).read_text()):
            kwargs = dict(record)
            klass = classes[kwargs.pop("class")]
            kwargs["origin"] = tuple(DefectMechanism(m) for m in kwargs["origin"])
            for key, value in list(kwargs.items()):
                if isinstance(value, list):
                    kwargs[key] = tuple(
                        tuple(v) if isinstance(v, list) else v for v in value
                    )
            faults.add(klass(**kwargs))
        return faults
