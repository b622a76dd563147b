"""Tests for the seeded random-object generators."""

import numpy as np
import pytest

import qcond.rand as rand
from qcond.channels import Channel
from qcond.errors import InvariantViolation
from qcond.linalg import DEFAULT_ATOL, is_effect_matrix, max_abs_diff
from qcond.rand import (
    _draw_channels,
    _draw_observables,
    random_channel,
    random_effect,
    random_instrument,
    random_observable,
    random_pure_state,
    random_state,
    random_stochastic_matrix,
    random_surjection,
    random_unitary,
)

from pinned import assert_pinned


def test_random_state_dim_one_is_forced():
    np.testing.assert_allclose(random_state(1, 0).matrix, [[1.0]])


def test_random_state_reproducible():
    a = random_state(3, 42)
    b = random_state(3, 42)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = random_state(3, 43)
    assert max_abs_diff(a.matrix, c.matrix) > 1e-3


def test_random_effect_valid():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 4):
        assert is_effect_matrix(random_effect(dim, rng).matrix)


def test_random_unitary():
    u = random_unitary(3, 2)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_array_equal(u, random_unitary(3, 2))


def test_random_observable_single_outcome_forced():
    obs = random_observable(2, 1, 3)
    np.testing.assert_allclose(obs.effects[0].matrix, np.eye(2), atol=1e-12)


def test_random_observable_normalizes():
    rng = np.random.default_rng(4)
    for dim, n in ((2, 2), (3, 4), (4, 3)):
        obs = random_observable(dim, n, rng)
        total = sum(e.matrix for e in obs.effects)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-11)


def test_random_observable_reproducible():
    a = random_observable(3, 3, 5)
    b = random_observable(3, 3, 5)
    for x, y in zip(a.effects, b.effects):
        np.testing.assert_array_equal(x.matrix, y.matrix)


def test_random_channel_phase_case():
    ch = random_channel(1, 1, 1, 6)
    assert abs(abs(ch.kraus_stack[0][0, 0]) - 1.0) < 1e-12


def test_random_channel_reproducible_and_valid():
    a = random_channel(2, 3, 2, 7)
    b = random_channel(2, 3, 2, 7)
    for x, y in zip(a.kraus_stack, b.kraus_stack):
        np.testing.assert_array_equal(x, y)
    assert a.is_trace_preserving(1e-11)


def test_random_channel_rejects_rank_starved_request():
    with pytest.raises(ValueError, match="n_kraus"):
        random_channel(4, 1, 2, 8)


@pytest.mark.parametrize("rank", [0, 1])
def test_a_rank_deficient_draw_still_gives_a_channel(rank, monkeypatch):
    # the Householder Q factor is an isometry whatever the rank of the draw
    def low_rank(rngs, n, rows, cols):
        g = rank * np.outer(np.arange(1, rows + 1), np.arange(1, cols + 1))
        return np.broadcast_to(g.astype(complex), (len(rngs), n, rows, cols)).copy()

    monkeypatch.setattr(rand, "_draw_ginibre", low_rank)
    stack = _draw_channels([np.random.default_rng(s) for s in range(3)], 3, 2, 2)
    assert np.linalg.matrix_rank(low_rank([None], 1, 4, 3)[0, 0]) == rank
    assert Channel._checked(stack, DEFAULT_ATOL).is_trace_preserving(1e-12)


def test_random_instrument_total_is_channel():
    ins = random_instrument(2, 3, 3, 9)
    assert ins.total_channel().is_trace_preserving(1e-11)
    again = random_instrument(2, 3, 3, 9)
    for x, y in zip(ins.ops, again.ops):
        for k, l in zip(x.kraus_stack, y.kraus_stack):
            np.testing.assert_array_equal(k, l)


def test_random_instrument_single_outcome_is_channel():
    ins = random_instrument(2, 2, 1, 10)
    assert ins.ops[0].is_trace_preserving(1e-11)


def test_random_stochastic_matrix_rows():
    lam = random_stochastic_matrix(("a", "b", "c"), ("u", "v"), 11)
    np.testing.assert_allclose(lam.weights.sum(axis=1), np.ones(3), atol=1e-12)


def test_random_surjection_hits_all_targets():
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = random_surjection(("a", "b", "c", "d"), ("u", "v"), rng)
        assert set(f.mapping.values()) == {"u", "v"}
    with pytest.raises(ValueError):
        random_surjection(("a",), ("u", "v"), 13)


@pytest.mark.parametrize("seed", range(6))
def test_random_surjection_rejects_repeated_sources(seed):
    # what a draw would do with the repeated label depends on the seed, so
    # the rejection must come before the draw
    with pytest.raises(InvariantViolation, match="distinct outcome labels"):
        random_surjection(["a", "a", "b"], ["x", "y"], seed)


# Reference draws: each object drawn matrix by matrix, real part then
# imaginary part, as the generators drew them before they went through the
# batched ``_draw_*`` functions. The stream contract is equality, bit for bit.
def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _reference_state(dim, rng):
    g = _ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _reference_effect(dim, rng):
    g = _ginibre(rng, dim, dim)
    pos = g @ g.conj().T
    return rng.uniform(0.0, 1.0) / float(np.linalg.eigvalsh(pos).max()) * pos


def _reference_observable(dim, n, rng, atol=1e-9):
    while True:
        gs = [g @ g.conj().T for g in (_ginibre(rng, dim, dim) for _ in range(n))]
        evals, evecs = np.linalg.eigh(sum(gs))
        if float(evals.min()) > atol:
            inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
            return np.stack([inv_sqrt @ g @ inv_sqrt for g in gs])


def _reference_channel(dim_in, dim_out, n, rng):
    q, _ = np.linalg.qr(_ginibre(rng, n * dim_out, dim_in))
    return q.reshape(n, dim_out, dim_in)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draws_equal_the_matrix_by_matrix_reference(seed):
    def both(draw, reference):
        got = draw(np.random.default_rng(seed))
        want = reference(np.random.default_rng(seed))
        assert got.tobytes() == np.asarray(want).tobytes()

    both(lambda r: random_state(3, r).matrix, lambda r: _reference_state(3, r))
    both(lambda r: random_effect(3, r).matrix, lambda r: _reference_effect(3, r))
    both(lambda r: random_observable(3, 4, r).effect_stack, lambda r: _reference_observable(3, 4, r))
    both(lambda r: random_channel(2, 3, 2, r).kraus_stack, lambda r: _reference_channel(2, 3, 2, r))


def test_batched_draws_retry_per_generator():
    # with a large atol some first attempts are rejected; each member of the
    # batch still equals its generator's own draw
    atol = 1.0
    seeds = range(12)
    batch = _draw_observables([np.random.default_rng(s) for s in seeds], 2, 2, atol)
    retried = 0
    for s, member in zip(seeds, batch):
        assert member.tobytes() == _reference_observable(2, 2, np.random.default_rng(s), atol).tobytes()
        first = np.random.default_rng(s).standard_normal((2, 2, 2, 2))
        g = first[:, 0] + 1j * first[:, 1]
        retried += np.linalg.eigh((g @ g.conj().swapaxes(-1, -2)).sum(axis=0))[0].min() <= atol
    assert 0 < retried < len(seeds)
    with pytest.raises(RuntimeError, match="singular normalizer"):
        _draw_observables([np.random.default_rng(0)], 2, 2, atol=1e6)


@pytest.mark.parametrize("n_sources, n_targets", [(1, 1), (3, 2), (4, 3), (2, 9), (5, 17)])
def test_stochastic_draws_have_the_bits_of_dirichlet(n_sources, n_targets):
    # each generator's rows and its next draw equal Generator.dirichlet's at
    # alpha = 1, also past 8 targets, where numpy's own row sums reorder
    seeds = range(6)
    rngs = [np.random.default_rng(s) for s in seeds]
    batch = rand._draw_stochastic(rngs, n_sources, n_targets)
    assert batch.shape == (6, n_sources, n_targets)
    for s, rng, member in zip(seeds, rngs, batch):
        ref = np.random.default_rng(s)
        assert member.tobytes() == ref.dirichlet(np.ones(n_targets), size=n_sources).tobytes()
        assert rng.random() == ref.random()


def test_batched_surjections_redraw_per_generator():
    # about half of the first draws of 4 -> 3 miss a target; each member
    # still equals its generator's own draw, redrawn alone
    seeds = range(20)
    rngs = [np.random.default_rng(s) for s in seeds]
    batch = rand._draw_surjections(rngs, 4, 3)
    redrawn = 0
    for s, rng, member in zip(seeds, rngs, batch):
        ref = np.random.default_rng(s)
        picks = ref.integers(0, 3, size=4)
        while set(picks.tolist()) != {0, 1, 2}:
            picks, redrawn = ref.integers(0, 3, size=4), redrawn + 1
        assert member.tolist() == picks.tolist()
        assert rng.random() == ref.random()
    assert redrawn > 0


@pytest.mark.parametrize("n_words", range(4, 10))
def test_seed_states_equal_the_seed_sequence_of_each_row(n_words):
    # numpy's SeedSequence is the reference: each word past the fourth is
    # hashed into the whole pool
    rng = np.random.default_rng(n_words)
    words = rng.integers(0, 2**32, size=(6, n_words), dtype=np.uint32)
    words[0] = 0
    words[1] = 2**32 - 1
    states = rand._seed_states(words)
    assert states.dtype == np.uint64 and states.shape == (6, 4)
    for row, state in zip(words, states):
        expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
        assert state.tolist() == expected.tolist()


@pytest.mark.parametrize("prefix", [(7, 123, 2), (2**32 + 7, 123, 3)])
def test_trial_states_take_trial_indices_of_one_word_only(prefix):
    # the last trials of one word get their generators; one more is refused
    trials = range(2**32 - 3, 2**32)
    rngs = rand._generators(rand._trial_states(prefix, trials))
    for t, rng in zip(trials, rngs, strict=True):
        assert rng.bit_generator.state == np.random.default_rng((*prefix, t)).bit_generator.state
    with pytest.raises(ValueError, match=r"^trial indices must lie in \[0, 2\*\*32\)"):
        rand._trial_states(prefix, range(2**32 - 1, 2**32 + 1))


def test_pcg64_reads_a_contiguous_native_uint64_row(monkeypatch):
    handed = []
    generate_state = rand._SeedState.generate_state

    def recording(self, n_words, dtype=np.uint32):
        handed.append(generate_state(self, n_words, dtype))
        return handed[-1]

    monkeypatch.setattr(rand._SeedState, "generate_state", recording)
    states = rand._trial_states((3, 1, 2), range(5))
    expected = [np.random.default_rng((3, 1, 2, t)).bit_generator.state for t in range(5)]
    # row-major, column-major, strided and big-endian layouts of the states
    layouts = [states, np.asfortranarray(states), np.repeat(states, 2, axis=0)[::2], states.astype(">u8")]
    for layout in layouts:
        handed.clear()
        rngs = rand._generators(layout)
        assert [rng.bit_generator.state for rng in rngs] == expected
        assert len(handed) == 5
        for row in handed:
            assert row.shape == (4,) and row.dtype == np.uint64 and row.dtype.isnative
            assert row.flags.c_contiguous
    seq = rand._SeedState(states[0])
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="generate_state"):
            seq.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="shape"):
        rand._generators(states[:, :3])


def test_trial_states_reject_a_negative_seed_entry():
    with pytest.raises(ValueError, match="non-negative"):
        rand._trial_states((7, -1, 2), range(1))


def _pure_state_of_seed(seed: int) -> np.ndarray:
    """|v><v|/<v|v> for the complex Ginibre vector v of C³ drawn from ``seed``."""
    re, im = np.random.default_rng(seed).standard_normal((2, 3))
    v = (re + 1j * im) / np.linalg.norm(re + 1j * im)
    return np.outer(v, v.conj())


@pytest.mark.parametrize("call, expected", [
    (lambda: random_observable(2, 0, 0), ValueError("need at least one outcome")),
    (lambda: np.allclose(random_pure_state(3, 5).matrix, _pure_state_of_seed(5), rtol=0, atol=1e-15), True),
], ids=["no-outcomes", "pure-state"])
def test_random_object_arguments_and_values(call, expected):
    assert_pinned(call, expected)
