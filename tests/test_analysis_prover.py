"""Tests for the proof-carrying redundancy prover and its certificate checker.

Three load-bearing contracts:

* **Soundness** — every fault the prover marks untestable really is
  undetectable.  Checked exhaustively (all ``2^n`` vectors) on the small
  builtins and on hypothesis-generated random circuits, under both the
  python and numpy simulation engines, and cross-checked against PODEM at a
  20k backtrack budget on the c432/c880-class benchmarks.
* **Strict superset** — the prover subsumes the uncertified implication
  screen (the oracle in ``tests/analysis_oracle.py``) on every builtin, and
  on c432 proves strictly more (static learning earns its keep).
* **Certificates** — every proved fault carries a certificate the
  *independent* checker validates, and the checker rejects tampered
  certificates (premises, steps, conflicts, and split cases alike).
"""

import copy
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_circuit
from repro.analysis.check import (
    CertificateChecker,
    check_certificate,
    check_certificates,
)
from repro.analysis.prover import (
    CERTIFICATE_VERSION,
    RedundancyProver,
    netlist_hash,
    prove_untestable,
    static_learning,
)
from repro.atpg.podem import AtpgStatus, PodemAtpg
from repro.circuit import Circuit, GateType
from repro.circuit.iscas import BENCHMARKS
from repro.circuit.levelize import levelize
from repro.circuit.library import evaluate_gate
from repro.simulation.faults import collapse_faults, full_fault_universe
from repro.simulation.numpy_sim import NumpyFaultSimulator
from tests.analysis_oracle import find_untestable_faults
from tests.fault_sim_oracle import FaultSimulator


def all_vectors(circuit: Circuit) -> list[list[int]]:
    n = len(circuit.primary_inputs)
    return [list(bits) for bits in product((0, 1), repeat=n)]


def exhaustively_undetected(circuit: Circuit, engine: str = "python") -> set:
    """The ground-truth untestable set: faults no input vector detects."""
    sim_cls = FaultSimulator if engine == "python" else NumpyFaultSimulator
    universe = full_fault_universe(circuit)
    result = sim_cls(circuit).run(all_vectors(circuit), faults=universe)
    return set(universe) - set(result.detected)


def const_split_circuit() -> Circuit:
    """``g0 = XOR(a, a)`` is constant 0; ``g0/sa0`` is proved through it.

    Direct implication cannot refute ``g0 = 1`` (an XOR with both inputs
    unknown forces nothing), so the constant lemma splits on ``a``: the
    one prover path that still emits split proof nodes.
    """
    ckt = Circuit(name="const_split")
    for net in ("a", "b"):
        ckt.add_input(net)
    ckt.add_gate(GateType.XOR, ["a", "a"], "g0")
    ckt.add_gate(GateType.OR, ["g0", "b"], "g1")
    ckt.add_output("g1")
    ckt.validate()
    return ckt


@pytest.fixture(scope="module")
def c432_proof():
    """One prover run over the full c432 universe, shared."""
    circuit = BENCHMARKS["c432_like"]()
    return circuit, prove_untestable(circuit)


@pytest.fixture(scope="module")
def c880_proof():
    """One prover run over the full c880 universe, shared."""
    circuit = BENCHMARKS["c880_like"]()
    return circuit, prove_untestable(circuit)


# ---------------------------------------------------------------------------
# Soundness against exhaustive simulation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["c17", "dec4", "mux8", "alu4", "mul4", "rca8"]
)
def test_prover_sound_on_builtins_exhaustive(name):
    circuit = BENCHMARKS[name]()
    result = prove_untestable(circuit)
    undetected = exhaustively_undetected(circuit)
    assert set(result.proved) <= undetected, name
    assert result.certs_failed == 0
    assert len(result.certificates) == len(result.proved)


@pytest.mark.parametrize("engine", ["python", "numpy"])
def test_prover_complete_on_alu4_under_both_engines(engine):
    # alu4 is the one small builtin with genuinely untestable faults; the
    # prover finds exactly the exhaustive ground truth, and both simulation
    # engines agree on what that ground truth is.
    circuit = BENCHMARKS["alu4"]()
    result = prove_untestable(circuit)
    assert set(result.proved) == exhaustively_undetected(circuit, engine)
    assert len(result.proved) == 4


@st.composite
def random_circuits(draw):
    gate_types = [
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.NOT,
        GateType.BUF,
    ]
    n_inputs = draw(st.integers(min_value=2, max_value=5))
    n_gates = draw(st.integers(min_value=1, max_value=14))
    ckt = Circuit(name="rand")
    nets = [ckt.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        gt = draw(st.sampled_from(gate_types))
        fan = 1 if gt in (GateType.NOT, GateType.BUF) else draw(st.integers(2, 3))
        sources = [nets[draw(st.integers(0, len(nets) - 1))] for _ in range(fan)]
        out = f"g{g}"
        ckt.add_gate(gt, sources, out)
        nets.append(out)
    ckt.add_output(nets[-1])
    ckt.validate()
    return ckt


@settings(max_examples=40, deadline=None)
@given(ckt=random_circuits())
def test_prover_sound_on_random_circuits(ckt):
    result = prove_untestable(ckt)
    undetected = exhaustively_undetected(ckt)
    assert set(result.proved) <= undetected
    assert result.certs_failed == 0
    # Every certificate survives a fresh, independent checker pass.
    n_ok, errors = check_certificates(ckt, result.certificates)
    assert not errors, errors
    assert n_ok == len(result.proved)


# ---------------------------------------------------------------------------
# Superset of the implication screen
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["c17", "alu4", "mul4", "rca8", "mux8"])
def test_prover_subsumes_screen(name):
    circuit = BENCHMARKS[name]()
    screen = find_untestable_faults(circuit)
    result = prove_untestable(circuit)
    assert set(screen.untestable) <= set(result.proved), name


def test_prover_subsumes_screen_on_c880(c880_proof):
    circuit, result = c880_proof
    screen = find_untestable_faults(circuit)
    assert set(screen.untestable) <= set(result.proved)
    assert len(result.proved) == 8
    assert result.by_method == {"fire": 8}


def test_prover_strictly_exceeds_screen_on_c432(c432_proof):
    circuit, result = c432_proof
    screen = find_untestable_faults(circuit)
    assert set(screen.untestable) < set(result.proved)
    extras = set(result.proved) - set(screen.untestable)
    assert {str(f) for f in extras} == {"SC8.in1(PC)/sa1"}
    (extra,) = extras
    assert result.methods[extra] == "static_learning"
    assert len(result.proved) == 49


# ---------------------------------------------------------------------------
# PODEM cross-check at 20k backtracks
# ---------------------------------------------------------------------------
def test_podem_never_tests_a_proved_fault_c880(c880_proof):
    circuit, result = c880_proof
    assert result.proved
    atpg = PodemAtpg(circuit, backtrack_limit=20_000)
    for fault in result.proved:
        outcome = atpg.generate(fault)
        assert outcome.status == AtpgStatus.REDUNDANT, str(fault)


def test_podem_never_tests_a_proved_fault_c432(c432_proof):
    # The XA/XB/XC parity-checker pin faults complete in milliseconds
    # under PODEM; the remaining proved faults need seconds-to-minutes of
    # search each, so they are covered by the certificate checker and the
    # exhaustive contracts instead.
    circuit, result = c432_proof
    sample = [
        f for f in result.proved
        if str(f).startswith(("XA", "XB", "XC"))
    ]
    assert len(sample) == 27
    atpg = PodemAtpg(circuit, backtrack_limit=20_000)
    for fault in sample:
        outcome = atpg.generate(fault)
        assert outcome.status != AtpgStatus.TESTED, str(fault)


# ---------------------------------------------------------------------------
# Split certificates
# ---------------------------------------------------------------------------
def _const_split_cert():
    """The checked certificate of ``g0/sa0`` and its constant lemma's split."""
    ckt = const_split_circuit()
    result = prove_untestable(ckt)
    (cert,) = [
        c for c in result.certificates
        if c["fault"]["net"] == "g0" and c["fault"]["site"] == "net"
        and c["fault"]["value"] == 0
    ]
    (step,) = [s for s in cert["proof"]["chain"] if s["by"] == "constant"]
    return ckt, result, copy.deepcopy(cert), step


def test_split_certificate_emitted_and_checked():
    ckt, result, cert, step = _const_split_cert()
    assert step["assign"] == ["g0", 0]
    assert step["proof"]["split"] == "a"
    assert cert["method"] == "fire"
    assert check_certificate(ckt, cert).ok
    # ...and every proved fault really is undetectable.
    assert set(result.proved) <= exhaustively_undetected(ckt)


def test_checker_rejects_tampered_split_case():
    ckt, _result, cert, _step = _const_split_cert()

    def lemma(c):
        (step,) = [s for s in c["proof"]["chain"] if s["by"] == "constant"]
        return step["proof"]

    # Corrupt one case of the split: replace it with an empty chain that
    # claims a conflict it never derived.
    tampered = copy.deepcopy(cert)
    case = lemma(tampered)["cases"][0]
    lemma(tampered)["cases"][0] = {"chain": [], "conflict": case["conflict"]}
    assert not check_certificate(ckt, tampered).ok
    # Dropping a case entirely must fail too (both branches are required).
    truncated = copy.deepcopy(cert)
    lemma(truncated)["cases"] = lemma(truncated)["cases"][:1]
    assert not check_certificate(ckt, truncated).ok


def test_checker_verifies_hand_built_top_level_split(c432_proof):
    # Splitting a checked chain proof on a net the chain never assigns
    # keeps it valid in both cases; breaking either case must not pass.
    circuit, result = c432_proof
    cert = _first_cert_with(
        result,
        lambda c: c.get("proof") is not None and c["proof"].get("chain"),
    )
    chain = cert["proof"]
    assigned = {s["assign"][0] for s in chain["chain"]}
    assigned.add(chain["conflict"]["assign"][0])
    assigned.update(p["net"] for p in cert["premises"])
    net = next(n for n in circuit.primary_inputs if n not in assigned)
    split = copy.deepcopy(cert)
    split["proof"] = {"split": net, "cases": [chain, copy.deepcopy(chain)]}
    assert check_certificate(circuit, split).ok
    broken = copy.deepcopy(split)
    broken["proof"]["cases"][1] = {"chain": [], "conflict": chain["conflict"]}
    assert not check_certificate(circuit, broken).ok
    truncated = copy.deepcopy(split)
    truncated["proof"]["cases"] = [chain]
    assert not check_certificate(circuit, truncated).ok


# ---------------------------------------------------------------------------
# Certificate tampering: the checker must reject
# ---------------------------------------------------------------------------
def _first_cert_with(result, pred):
    for cert in result.certificates:
        if pred(cert):
            return copy.deepcopy(cert)
    raise AssertionError("fixture lacks the expected certificate shape")


def test_checker_rejects_flipped_fault_value(c432_proof):
    circuit, result = c432_proof
    cert = _first_cert_with(result, lambda c: c.get("proof") is not None)
    cert["fault"]["value"] = 1 - cert["fault"]["value"]
    assert not check_certificate(circuit, cert).ok


def test_checker_rejects_tampered_premise(c432_proof):
    circuit, result = c432_proof
    cert = _first_cert_with(
        result, lambda c: c.get("proof") is not None and c["premises"]
    )
    cert["premises"][0]["value"] = 1 - cert["premises"][0]["value"]
    assert not check_certificate(circuit, cert).ok


def test_checker_rejects_tampered_chain_step(c432_proof):
    circuit, result = c432_proof
    cert = _first_cert_with(
        result,
        lambda c: c.get("proof") is not None and c["proof"].get("chain"),
    )
    step = cert["proof"]["chain"][0]
    step["assign"][1] = 1 - step["assign"][1]
    assert not check_certificate(circuit, cert).ok


def test_checker_rejects_dropped_conflict(c432_proof):
    circuit, result = c432_proof
    cert = _first_cert_with(
        result,
        lambda c: c.get("proof") is not None and "conflict" in c["proof"],
    )
    del cert["proof"]["conflict"]
    assert not check_certificate(circuit, cert).ok


def test_checker_rejects_wrong_dominator_source(c432_proof):
    circuit, result = c432_proof
    cert = _first_cert_with(
        result, lambda c: c["reason"] == "unobservable" and not c["premises"]
    )
    # Claim a different (observable) net is the unobservable source.
    cert["fault"]["net"] = circuit.primary_inputs[0]
    cert["fault"]["site"] = "net"
    cert["fault"]["gate"] = None
    cert["fault"]["pin"] = None
    cert["source"] = circuit.primary_inputs[0]
    assert not check_certificate(circuit, cert).ok


def test_checker_rejects_unknown_version(c432_proof):
    circuit, result = c432_proof
    cert = copy.deepcopy(result.certificates[0])
    cert["version"] = CERTIFICATE_VERSION + 1
    assert not check_certificate(circuit, cert).ok


# ---------------------------------------------------------------------------
# Hashing, caching, result surface
# ---------------------------------------------------------------------------
def test_netlist_hash_is_structural():
    a, b = BENCHMARKS["c17"](), BENCHMARKS["c17"]()
    assert a is not b
    assert netlist_hash(a) == netlist_hash(b)
    assert netlist_hash(a) != netlist_hash(BENCHMARKS["alu4"]())


def test_static_learning_cache_hits_on_equal_netlists():
    a, b = BENCHMARKS["mux8"](), BENCHMARKS["mux8"]()
    assert static_learning(a) is static_learning(b)


def test_prover_work_does_not_depend_on_the_learning_cache():
    from repro.analysis.prover import _STATIC_LEARNING_CACHE

    circuit = BENCHMARKS["alu4"]()
    _STATIC_LEARNING_CACHE.pop(netlist_hash(circuit), None)
    cold = prove_untestable(circuit).work  # learns, then proves
    warm = prove_untestable(circuit).work  # cache hit: proves only
    assert cold == warm
    assert cold["engine_closures"] > 0


@pytest.mark.parametrize("name", ["c17", "alu4", "mux8"])
def test_static_learning_is_sound(name):
    # Every learned implication (a, v) -> (b, w) must hold on all vectors.
    circuit = BENCHMARKS[name]()
    learned = static_learning(circuit)
    order = levelize(circuit)
    for vector in all_vectors(circuit):
        values = dict(zip(circuit.primary_inputs, vector))
        for gate in order:
            values[gate.output] = evaluate_gate(
                gate.gate_type, [values[n] for n in gate.inputs]
            )
        for (a, v), consequents in learned.items():
            if values[a] != v:
                continue
            for b, w in consequents:
                assert values[b] == w, (a, v, b, w)


def test_prover_result_to_dict_shape(c432_proof):
    circuit, result = c432_proof
    payload = result.to_dict()
    assert payload["n_proved"] == len(result.proved) == 49
    assert payload["n_screened"] == 820
    assert "depth" not in payload
    assert payload["netlist_sha256"] == netlist_hash(circuit)
    assert payload["by_method"] == {"fire": 48, "static_learning": 1}
    assert payload["certs_failed"] == 0
    assert sum(payload["by_reason"].values()) == 49
    assert len(payload["faults"]) == 49
    assert payload["work"]["closures"] >= 0
    assert result.proved[0] in result
    assert result.n_learned == payload["n_learned"] > 0


def test_checker_is_independent_of_prover_state(c432_proof):
    # A checker built from a *fresh* circuit object validates certificates
    # produced elsewhere: nothing in the certificate depends on prover
    # in-memory state.
    _, result = c432_proof
    fresh = BENCHMARKS["c432_like"]()
    checker = CertificateChecker(fresh)
    for cert in result.certificates:
        verdict = checker.check(cert)
        assert verdict.ok, verdict


# ---------------------------------------------------------------------------
# analyze_circuit integration
# ---------------------------------------------------------------------------
def test_analyze_circuit_prove_populates_prover():
    circuit = BENCHMARKS["alu4"]()
    analysis = analyze_circuit(circuit)
    assert analysis.prover is not None
    assert len(analysis.prover.proved) == 4
    # Proved faults flow into the untestable set used by the pipeline.
    untestable = analysis.untestable_faults()
    assert set(analysis.prover.proved) <= set(untestable)
    payload = analysis.to_dict()
    assert payload["prover"]["n_proved"] == 4


#: The distinct registered circuits (``c432_like``/``c880_like`` alias two).
REGISTERED = sorted(
    {"c17", "c432", "c880", "rca8", "rca16", "par16", "mux8", "dec4", "alu4", "mul4"}
)


@pytest.mark.parametrize("name", REGISTERED)
def test_prover_fire_phase_reproduces_the_screen(name):
    # The prover's fire phase is the pipeline's untestability screen, so it
    # must flag exactly the oracle screen's faults for the same reasons,
    # and the pipeline's untestable list must stay the screen followed by
    # the prover's extras.
    circuit = BENCHMARKS[name]()
    faults = collapse_faults(circuit)
    screen = find_untestable_faults(circuit, faults)
    analysis = analyze_circuit(circuit, faults=faults)
    assert analysis.untestable is not None and analysis.prover is not None
    assert analysis.untestable.untestable == screen.untestable
    assert analysis.untestable.reasons == screen.reasons
    assert analysis.untestable.n_screened == screen.n_screened
    extras = [f for f in analysis.prover.proved if f not in screen]
    assert analysis.untestable_faults() == screen.untestable + extras
