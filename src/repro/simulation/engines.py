"""Fault-simulation engine registry.

Two interchangeable engines implement the same protocol (``pack`` /
``run`` / ``run_packed`` / ``_simulate_groups``, a ``width`` attribute and
a ``kind`` tag):

* ``"python"`` — :class:`~repro.simulation.fault_sim.FaultSimulator`, the
  pure-python wide-word reference implementation.  Always available.
* ``"numpy"`` — :class:`~repro.simulation.numpy_sim.NumpyFaultSimulator`,
  the vectorized ``uint64`` bitslice kernel.  Available when numpy imports
  and the platform passes the bitslice :func:`numpy_preflight` (dtype
  width, shift semantics, packing byte order); requires the word width to
  be a multiple of 64.

``resolve_engine`` turns a requested name (including ``"auto"``) into a
concrete engine kind plus a human-readable reason, which flows into
``engine_info()`` and hence the run manifest — an ``auto`` run always
records which engine it picked and why.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuit.library import DEFAULT_WORD_WIDTH
from repro.circuit.netlist import Circuit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.fault_sim import FaultSimulator
    from repro.simulation.numpy_sim import NumpyFaultSimulator

    Engine = FaultSimulator | NumpyFaultSimulator

__all__ = [
    "ENGINE_NAMES",
    "ENGINE_KINDS",
    "EngineUnavailableError",
    "create_engine",
    "default_crossover",
    "default_width",
    "numpy_preflight",
    "resolve_engine",
]

#: Accepted values for the ``engine=`` knob (CLI ``--engine``).
ENGINE_NAMES = ("python", "numpy", "auto")

#: Concrete engine kinds ``resolve_engine`` can return.
ENGINE_KINDS = ("python", "numpy")

#: Serial/parallel work crossover (``n_faults * n_patterns``) per engine
#: kind: below this the process-pool start-up, engine recompilation and
#: pattern pickling cost more than the fan-out saves.  Calibrated from the
#: serial engine wall times on c880 (see ``docs/PERFORMANCE.md`` and
#: ``BENCH_fault_sim.json``); the numpy kernel's serial throughput is
#: several times the python engine's, so its pool overhead amortises later.
_DEFAULT_CROSSOVERS = {"python": 8_000_000, "numpy": 48_000_000}

_DEFAULT_WIDTHS = {"python": DEFAULT_WORD_WIDTH}

_preflight_cache: tuple[bool, str] | None = None


class EngineUnavailableError(RuntimeError):
    """An explicitly requested engine cannot run on this platform."""


def default_width(kind: str) -> int:
    """Default packed-word width (patterns per group) for an engine kind."""
    if kind == "numpy":
        from repro.simulation.numpy_sim import DEFAULT_NUMPY_WIDTH

        return DEFAULT_NUMPY_WIDTH
    try:
        return _DEFAULT_WIDTHS[kind]
    except KeyError:
        raise ValueError(f"unknown engine kind {kind!r}") from None


def default_crossover(kind: str) -> int:
    """Default serial/parallel work crossover for an engine kind."""
    try:
        return _DEFAULT_CROSSOVERS[kind]
    except KeyError:
        raise ValueError(f"unknown engine kind {kind!r}") from None


def numpy_preflight() -> tuple[bool, str]:
    """Check that the numpy bitslice kernel can run on this platform.

    Returns ``(ok, reason)``.  Beyond importability this functionally
    probes the assumptions the kernel's bit layout rests on: ``uint64`` is
    8 bytes wide, shifts and complements behave as 64-bit operations, and
    ``packbits``-then-``view`` yields little-bit-order words (byte 0 holds
    patterns 0..7).  A platform where any probe fails (exotic endianness,
    a broken numpy build) keeps the python engine as ``auto``'s choice and
    fails an explicit ``--engine numpy`` request up front.

    The verdict is cached for the process lifetime.
    """
    global _preflight_cache
    if _preflight_cache is not None:
        return _preflight_cache
    _preflight_cache = _numpy_preflight_uncached()
    return _preflight_cache


def _numpy_preflight_uncached() -> tuple[bool, str]:
    try:
        import numpy as np
    except Exception as exc:  # pragma: no cover - numpy present in CI
        return False, f"numpy import failed: {exc}"
    try:
        if np.dtype(np.uint64).itemsize != 8:
            return (
                False,
                f"np.uint64 is {np.dtype(np.uint64).itemsize} bytes, not 8",
            )
        if int(np.uint64(1) << np.uint64(63)) != 1 << 63:
            return False, "uint64 left shift is not 64-bit"
        if int(~np.uint64(0)) != (1 << 64) - 1:
            return False, "uint64 complement is not 64-bit"
        bits = np.zeros((64, 1), dtype=np.uint8)
        bits[[0, 2, 3, 63], 0] = 1
        word = (
            np.packbits(bits, axis=0, bitorder="little")
            .T.copy()
            .view(np.uint64)
        )
        expected = (1 << 0) | (1 << 2) | (1 << 3) | (1 << 63)
        if int(word[0, 0]) != expected:
            return (
                False,
                "bitslice word packing disagrees with the little-bit-order "
                "layout (byte order mismatch)",
            )
    except Exception as exc:
        return False, f"numpy bitslice probe failed: {type(exc).__name__}: {exc}"
    return True, "uint64 bitslice probes passed"


def resolve_engine(
    name: str = "auto", width: int | None = None
) -> tuple[str, str]:
    """Resolve an ``engine=`` request into ``(kind, reason)``.

    ``"auto"`` prefers the numpy kernel and falls back to python when the
    preflight fails or the requested width is not a whole number of uint64
    words; the reason string records the decision for ``engine_info()`` and
    the run manifest.  An explicit ``"numpy"`` request that cannot be
    honoured raises :class:`EngineUnavailableError` instead of silently
    degrading.
    """
    if name not in ENGINE_NAMES:
        known = ", ".join(ENGINE_NAMES)
        raise ValueError(f"unknown engine {name!r} (choose from: {known})")
    if name == "python":
        return "python", "requested"
    width_ok = width is None or (width >= 64 and width % 64 == 0)
    if name == "numpy":
        ok, reason = numpy_preflight()
        if not ok:
            raise EngineUnavailableError(
                f"numpy engine unavailable: {reason}"
            )
        if not width_ok:
            raise EngineUnavailableError(
                "numpy engine requires a word width that is a positive "
                f"multiple of 64, got {width}"
            )
        return "numpy", "requested"
    # auto
    if not width_ok:
        return (
            "python",
            f"auto: width {width} is not a multiple of 64, numpy engine "
            "needs whole uint64 words",
        )
    ok, reason = numpy_preflight()
    if not ok:
        return "python", f"auto: {reason}"
    return "numpy", f"auto: {reason}"


def create_engine(
    name: str,
    circuit: Circuit,
    width: int | None = None,
) -> "Engine":
    """Construct a fault-simulation engine by name (``"auto"`` resolves).

    ``width=None`` uses the resolved engine's default width
    (:func:`default_width`); the python engine default is
    ``DEFAULT_WORD_WIDTH``, the numpy kernel prefers wider blocks.
    """
    kind, _ = resolve_engine(name, width)
    if width is None:
        width = default_width(kind)
    if kind == "numpy":
        from repro.simulation.numpy_sim import NumpyFaultSimulator

        return NumpyFaultSimulator(circuit, width=width)
    from repro.simulation.fault_sim import FaultSimulator

    return FaultSimulator(circuit, width=width)
