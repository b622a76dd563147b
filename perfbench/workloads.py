"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop with one client in one process. It makes its
inputs from the seed alone, hands ``qcond`` only those inputs, and checks
every output. ``prepare`` builds the next operation's input outside the
timed span; ``run`` is the timed operation; ``check`` validates its output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np

# Entry points are looked up on their modules at call time, so that the
# traced run's wrappers see the benchmark's own calls too.
import qcond.channels as channels
import qcond.cli as cli
import qcond.effects as effects
import qcond.instruments as instruments
import qcond.measurement as measurement
import qcond.rand as rand
import qcond.scenario as scenario

ATOL = 1e-9


# ---------------------------------------------------------------- output checks

def report_problems(text: str) -> list[str]:
    """Why a ``qcond check --format json`` report is not a clean pass.

    A non-finite ``max_deviation`` is a failure whatever the report's own
    ``passed`` flag says.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [] if report.get("passed") is True else ["report does not pass"]
    results = report.get("results") or []
    if not results:
        problems.append("report has no results")
    for r in results:
        dev, tol = r.get("max_deviation"), r.get("tolerance")
        if not isinstance(dev, (int, float)) or not math.isfinite(dev):
            problems.append(f"{r.get('name')}: non-finite deviation {dev!r}")
        elif not isinstance(tol, (int, float)) or not dev <= tol:
            problems.append(f"{r.get('name')}: deviation {dev!r} above tolerance {tol!r}")
    return problems


def distribution_ok(probs: Mapping[str, float], atol: float = ATOL) -> bool:
    """Finite, non-negative probabilities summing to one."""
    values = np.array(list(probs.values()), dtype=float)
    return bool(values.size and np.all(np.isfinite(values)) and values.min() >= -atol
                and abs(values.sum() - 1.0) <= atol)


def state_ok(m: np.ndarray, atol: float = ATOL) -> bool:
    """Finite, Hermitian, unit-trace and positive within ``atol``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        return False
    if np.max(np.abs(m - m.conj().T)) > atol or abs(np.trace(m) - 1.0) > atol:
        return False
    return bool(np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -atol)


def close(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


# -------------------------------------------------------------------- workloads

class CheckCanonical:
    """One operation is the canonical ``qcond check`` run, in process."""

    trace_ops = 1
    reference = "interp"

    def __init__(self, seed: int, workdir: Path):
        self.argv = ["check", "--suite", "all", "--trials", "100", "--dims", "2..3",
                     "--seed", str(seed), "--format", "json"]
        self.first_report: str | None = None

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self) -> None:
        # One trial per identity and dimension fills the per-dimension caches.
        warm = list(self.argv)
        warm[warm.index("--trials") + 1] = "1"
        self._main(warm)

    def prepare(self, i: int) -> None:
        return None

    def run(self, _) -> tuple[int, str]:
        return self._main(self.argv)

    def check(self, _, out: tuple[int, str]) -> bool:
        code, text = out
        if self.first_report is None:
            self.first_report = text
        # Every repeat in one invocation must print the same bytes.
        return code == 0 and not report_problems(text) and text == self.first_report


class Readout:
    """One operation is the measured instrument plus the pointer observable of
    a fresh generic measurement model (what ``qcond measure`` computes)."""

    DIM_PROBE = 2
    # Input streams for the untimed warm-up and memory extractions; the
    # loop's operations use streams 0, 1, 2, ...
    WARM_UP, PEAK = 2**32 - 1, 2**32 - 2

    def __init__(self, seed: int, workdir: Path, dim_base: int):
        self.seed = seed
        self.dim_base = dim_base
        self.trace_ops = {4: 200, 16: 20, 24: 3}[dim_base]
        # Dense superoperator algebra dominates from dim_base 16 up.
        self.reference = "interp" if dim_base < 16 else "blas"

    def prepare(self, i) -> measurement.MeasurementModel:
        # A fresh model per sample, so per-object memoization cannot pass as a gain.
        rng = np.random.default_rng([self.seed, self.dim_base, i])
        db, dp = self.dim_base, self.DIM_PROBE
        interaction = rand.random_instrument(db, db * dp, 2, rng)
        probe = rand.random_observable(dp, 2, rng)
        return measurement.MeasurementModel(db, dp, interaction, probe)

    def setup(self) -> None:
        # A cold extraction fills the per-dimension caches before timing.
        self.run(self.prepare(self.WARM_UP))

    def run(self, model):
        return model.measured_instrument(), model.measured_pointer_observable()

    def check(self, model, out) -> bool:
        instrument, pointer = out
        if pointer.outcomes != instrument.outcomes:
            return False
        # The measurement-pointer identity, at this workload's dimension.
        return all(
            close(pointer.effect(y).matrix, instrument.op(y).measured_effect().matrix)
            for y in pointer.outcomes
        )


class QueryPrebuilt:
    """Many reads of objects validated once: a fixed round-robin mix of queries
    on a seeded pool that went through ``save_scenario``/``load_scenario``."""

    DIMS = (2, 8, 16)
    POOL = 6
    BATCH = 256
    KINDS = ("outcome_probabilities", "updated_state", "apply", "given_distribution",
             "condition_observable")
    trace_ops = 3000
    reference = "interp"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / f"query-pool-{seed}.json"
        self.scenario_bytes = 0

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        pool = scenario.Scenario()
        for d in self.DIMS:
            for j in range(self.POOL):
                pool.operations[f"ch{d}_{j}"] = rand.random_channel(d, d, 2, rng)
                pool.instruments[f"ins{d}_{j}"] = rand.random_instrument(d, d, 3, rng)
                pool.observables[f"obs{d}_{j}"] = rand.random_observable(d, 3, rng)
        scenario.save_scenario(pool, self.path)
        self.scenario_bytes = self.path.stat().st_size
        loaded = scenario.load_scenario(self.path)
        self.path.unlink()
        self.objects = {
            d: [(loaded.operations[f"ch{d}_{j}"], loaded.instruments[f"ins{d}_{j}"],
                 loaded.observables[f"obs{d}_{j}"]) for j in range(self.POOL)]
            for d in self.DIMS
        }
        self.state_rng = np.random.default_rng([self.seed, 1])
        self.states: dict[int, list] = {d: [] for d in self.DIMS}
        self._refill()
        warm = len(self.KINDS) * len(self.DIMS)
        for i in range(warm):
            q = self.prepare(-warm + i)
            self.check(q, self.run(q))

    def _refill(self) -> None:
        # Every query gets a state no query has seen; batches are made outside
        # the timed spans.
        for d in self.DIMS:
            self.states[d] = [rand.random_state(d, self.state_rng) for _ in range(self.BATCH)]

    def prepare(self, i: int):
        kind = self.KINDS[i % len(self.KINDS)]
        d = self.DIMS[(i // len(self.KINDS)) % len(self.DIMS)]
        k = i // (len(self.KINDS) * len(self.DIMS))
        if not self.states[d]:
            self._refill()
        ch, ins, obs = self.objects[d][k % self.POOL]
        rho = self.states[d].pop()
        if kind == "outcome_probabilities":
            return kind, (rho, obs), effects.outcome_probabilities
        if kind == "updated_state":
            return kind, (ins.outcomes[k % 3], rho), ins.updated_state
        if kind == "apply":
            return kind, (rho,), ch.apply
        if kind == "given_distribution":
            subset1, subset2 = ins.outcomes[: 1 + k % 2], obs.outcomes[:2]
            return kind, (obs, ins, rho, subset1, subset2), instruments.given_distribution
        return kind, (ch, obs), channels.condition_observable

    @staticmethod
    def run(query):
        _, args, fn = query
        return fn(*args)

    @staticmethod
    def check(query, out) -> bool:
        kind, args, _ = query
        if kind == "outcome_probabilities":
            return distribution_ok(out)
        if kind == "updated_state":
            return isinstance(out, effects.State) and state_ok(out.matrix)
        if kind == "apply":
            return state_ok(out)
        if kind == "given_distribution":
            # The factored form must equal the double sum over the product set.
            obs, ins, rho, subset1, subset2 = args
            sigma = sum(_kraus_apply(ins.op(x).kraus_stack, rho.matrix) for x in subset1)
            expected = sum(np.trace(sigma @ obs.effect(y).matrix).real for y in subset2)
            return math.isfinite(out) and abs(out - expected) <= ATOL
        ch, obs = args
        stack = ch.kraus_stack
        return out.outcomes == obs.outcomes and all(
            close(out.effect(y).matrix,
                  np.einsum("kba,bc,kcd->ad", stack.conj(), obs.effect(y).matrix, stack))
            for y in obs.outcomes
        ) and close(sum(e.matrix for e in out.effects), np.eye(obs.dim))


def _kraus_apply(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("kab,bc,kdc->ad", stack, rho, stack.conj())


WORKLOADS = {
    "check-canonical": CheckCanonical,
    "readout-d4": lambda seed, workdir: Readout(seed, workdir, 4),
    "readout-d16": lambda seed, workdir: Readout(seed, workdir, 16),
    "readout-d24": lambda seed, workdir: Readout(seed, workdir, 24),
    "query-prebuilt": QueryPrebuilt,
}
