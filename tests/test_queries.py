"""Single-state queries: a validated ``State`` or ``Effect`` is read as its
stored matrix and never checked again; a raw array is coerced and checked
once per call, also when a queried subset is empty."""

import numpy as np
import pytest

import qcond.channels as channels
import qcond.effects as effects
from qcond.errors import InvariantViolation
from qcond.instruments import _factored_probability, given_distribution
from qcond.rand import random_channel, random_effect, random_instrument, random_observable, random_state

from pinned import assert_pinned

_RNG = np.random.default_rng(41)
CH = random_channel(2, 3, 2, _RNG)
INS = random_instrument(2, 3, 3, _RNG)
OBS = random_observable(3, 3, _RNG)
OBS_IN = random_observable(2, 3, _RNG)
RHO = random_state(2, _RNG)
EFFECT = random_effect(3, _RNG)
EFFECT_IN = random_effect(2, _RNG)

# every single-state query, as a function of the state and of an effect on
# the matching space (the input or the output one)
QUERIES = {
    "apply": lambda rho, e_in, e_out: CH.apply(rho),
    "dual-apply": lambda rho, e_in, e_out: CH.dual_apply(e_out).matrix,
    "outcome-probability": lambda rho, e_in, e_out: INS.outcome_probability("x1", rho),
    "subset-probability": lambda rho, e_in, e_out: INS.subset_probability(["x0", "x2"], rho),
    "updated-state": lambda rho, e_in, e_out: INS.updated_state("x1", rho).matrix,
    "given-distribution": lambda rho, e_in, e_out: given_distribution(OBS, INS, rho, ["x0", "x2"], ["x1", "x2"]),
    "born-probability": lambda rho, e_in, e_out: effects.born_probability(rho, e_in),
    "observable-distribution": lambda rho, e_in, e_out: effects.observable_distribution(rho, OBS_IN, ["x0", "x1"]),
    "outcome-probabilities": lambda rho, e_in, e_out: list(effects.outcome_probabilities(rho, OBS_IN).values()),
}


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("name", QUERIES)
def test_a_validated_value_gives_the_bits_of_its_raw_matrix(name):
    query = QUERIES[name]
    validated = query(RHO, EFFECT_IN, EFFECT)
    raw = query(RHO.matrix.copy(), EFFECT_IN.matrix.copy(), EFFECT.matrix.copy())
    assert _bits(validated) == _bits(raw)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", QUERIES)
def test_a_raw_matrix_with_a_non_finite_entry_is_rejected(name, bad):
    rho, e_in, e_out = RHO.matrix.copy(), EFFECT_IN.matrix.copy(), EFFECT.matrix.copy()
    # the query's own argument carries the bad entry: the output-side effect
    # for dual-apply, the state for every other query
    (e_out if name == "dual-apply" else rho)[0, 1] = bad
    with pytest.raises(InvariantViolation, match="finite entries"):
        QUERIES[name](rho, e_in, e_out)


def _with_entry(value) -> np.ndarray:
    m = RHO.matrix.copy()
    m[1, 0] = value
    return m


FINITE = InvariantViolation("matrix", "finite entries")
WRONG_DIMENSION = ValueError("dimension mismatch: expected 2, got (3, 3)")


@pytest.mark.parametrize("query", [
    lambda rho: given_distribution(OBS, INS, rho, [], OBS.outcomes),
    lambda rho: given_distribution(OBS, INS, rho, INS.outcomes, []),
    lambda rho: INS.subset_probability([], rho),
], ids=["given-empty-first", "given-empty-second", "subset-empty"])
@pytest.mark.parametrize("rho, expected", [
    (_with_entry(np.nan), FINITE),
    (_with_entry(np.inf), FINITE),
    (np.eye(3) / 3, WRONG_DIMENSION),
    (RHO, 0.0),
], ids=["nan", "inf", "dimension", "valid"])
def test_an_empty_subset_checks_the_state_first(query, rho, expected):
    assert_pinned(lambda: query(rho), expected)


def test_factored_probability_of_one_matrix_has_the_bits_of_a_stack_of_one():
    rng = np.random.default_rng(42)
    atol = 1e-9
    # the scales put tr(sigma) above atol, at or below it and below zero, so
    # both branches run
    scales = [1.0, 1e-3, 3e-9, 1e-9, 1e-10, 0.0, -1e-10, -1.0]
    for i in range(400):
        d = 1 + i % 6
        sigma = random_state(d, rng).matrix * scales[i % len(scales)]
        effect = random_effect(d, rng).matrix
        one = _factored_probability(sigma, effect, atol)
        stacked = _factored_probability(sigma[None], effect, atol)
        assert isinstance(one, float)
        assert np.float64(one).tobytes() == stacked[0].tobytes()
    # tr(sigma) < 0 and tr(sigma b) > 0: both forms give 0 * negative, -0.0
    sigma, effect = np.diag([-1.0, 0.5]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    one = _factored_probability(sigma, effect, atol)
    assert np.signbit(one) and np.float64(one).tobytes() == _factored_probability(sigma[None], effect, atol).tobytes()


def _count_calls(monkeypatch, name: str, *modules) -> list:
    """Replace ``name`` in each of ``modules`` by a wrapper that records the
    first argument of every call, in one list."""
    calls: list = []
    for module in modules:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, **k: calls.append(a[0]) or _fn(*a, **k))
    return calls


def test_updated_state_makes_one_positivity_check_and_no_copy(monkeypatch):
    checks = _count_calls(monkeypatch, "is_psd", effects, channels)
    out = INS.updated_state("x0", RHO)
    assert len(checks) == 1 and checks[0] is out.matrix
    assert not out.matrix.flags.writeable and out.matrix.flags.c_contiguous


@pytest.mark.parametrize("query", [
    lambda rho: CH.apply(rho),
    lambda rho: effects.outcome_probabilities(rho, OBS_IN),
    lambda rho: given_distribution(OBS, INS, rho, ["x0", "x1"], ["x0", "x2"]),
    lambda rho: INS.subset_probability(["x0", "x1", "x2"], rho),
], ids=["apply", "outcome-probabilities", "given-distribution", "subset-probability"])
def test_a_state_is_never_scanned_and_a_raw_matrix_once(monkeypatch, query):
    scans = _count_calls(monkeypatch, "isfinite", np)
    query(RHO)
    assert not any(np.shares_memory(x, RHO.matrix) for x in scans)
    raw = RHO.matrix.copy()
    query(raw)
    assert sum(np.shares_memory(x, raw) for x in scans) == 1
