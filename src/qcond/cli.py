"""Command-line interface.

Verbs:

* ``validate <file>`` — load a scenario file, report its contents.
* ``check --suite <names> --trials N --dims A..B --seed S [--tol T]`` — run
  registered identity checks; exit code 0 iff every check passes, 1 if one
  fails or a check worker process dies (an ``error:`` line, no report), 2
  on bad arguments or an unwritable ``--out`` path.
* ``distribution --scenario <file> --observable <name> --state <name>`` —
  outcome probabilities of an observable in a state.
* ``measure --scenario <file> --model <name>`` — pointer observable and
  measured-instrument action summary of a measurement model.

The environment variable ``QCOND_TOL`` overrides the default tolerance
whenever ``--tol`` is not given. A bad ``--tol`` or ``QCOND_TOL`` is a bad
argument for every verb: an ``error:`` line and exit code 2.

Importing this module, building the parser and running a scenario verb
compile nothing of ``qcond.checks``. The module is imported on first use:
when the ``check`` help, whose ``--suite`` line names every registered
identity, is formatted, and by the ``check`` verb, which runs them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .effects import State, outcome_probabilities
from .errors import ScenarioError
from .linalg import DEFAULT_ATOL, require_tolerance
from .scenario import load_scenario, matrix_to_json

ENV_TOL = "QCOND_TOL"


def _resolve_tol(arg: str | None, fallback: float | None = None) -> float | None:
    """Explicit ``--tol`` wins, then ``QCOND_TOL``, then the fallback; each
    must be finite and positive (``ValueError`` naming ``--tol`` or
    ``QCOND_TOL`` otherwise)."""
    if arg is not None:
        return require_tolerance(arg, "--tol")
    raw = os.environ.get(ENV_TOL)
    return fallback if raw is None else require_tolerance(raw, ENV_TOL)


def _parse_dims(spec: str) -> list[int]:
    """The dimensions of ``--dims``; ``ValueError`` naming ``--dims`` when
    ``spec`` is malformed or describes no positive dimension."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(spec)]
    except ValueError:
        raise ValueError(f"--dims expects 'A..B' or a single integer, got {spec!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"--dims must describe positive dimensions, got {spec!r}")
    return dims


def _format_matrix(m: np.ndarray, indent: str = "    ") -> str:
    text = np.array2string(np.asarray(m), precision=4, suppress_small=True, separator=", ")
    return indent + text.replace("\n", "\n" + indent)


def _cmd_validate(args: argparse.Namespace) -> int:
    print(f"scenario {args.scenario}: valid (tolerance {args.loaded.atol:g})")
    for kind, count in args.loaded.summary().items():
        if count:
            print(f"  {kind}: {count}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_checks

    try:
        tol = _resolve_tol(args.tol, DEFAULT_ATOL)
        report = run_checks(args.suite, args.trials, _parse_dims(args.dims), args.seed, tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a check worker that died: no report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = report.to_json() if args.format == "json" else report.to_table()
    sys.stdout.write(rendered)
    if args.out:
        try:
            Path(args.out).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


def _cmd_distribution(args: argparse.Namespace) -> int:
    scn = args.loaded
    if args.observable not in scn.observables:
        print(f"error: no observable named {args.observable!r}", file=sys.stderr)
        return 2
    if args.state not in scn.states:
        print(f"error: no state named {args.state!r}", file=sys.stderr)
        return 2
    obs = scn.observables[args.observable]
    rho = scn.states[args.state]
    if obs.dim != rho.dim:
        print("error: observable and state dimensions differ", file=sys.stderr)
        return 2
    probs = outcome_probabilities(rho, obs, scn.atol)
    if args.format == "json":
        payload = {
            "observable": args.observable,
            "state": args.state,
            "probabilities": probs,
            "total": sum(probs.values()),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"distribution of {args.observable} in state {args.state}:")
        for label, p in probs.items():
            print(f"  {label:<12} {p:.6f}")
        print(f"  {'total':<12} {sum(probs.values()):.6f}")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    scn = args.loaded
    if args.model not in scn.models:
        print(f"error: no measurement model named {args.model!r}", file=sys.stderr)
        return 2
    model = scn.models[args.model]
    pointer = model.measured_pointer_observable(scn.atol)
    instrument = model.measured_instrument(scn.atol)
    mixed = State.maximally_mixed(model.dim_base)
    rows, matrices = [], []
    for label in pointer.outcomes:
        effect = pointer.effect(label).matrix
        output = instrument.op(label).apply(mixed)
        matrices.append((effect, output))
        rows.append(
            {
                "outcome": label,
                "pointer_effect": matrix_to_json(effect),
                "probability_maximally_mixed": float(np.trace(mixed.matrix @ effect).real),
                "output_on_maximally_mixed": matrix_to_json(output),
                "output_trace": float(np.trace(output).real),
            }
        )
    if args.format == "json":
        payload = {
            "model": args.model,
            "dim_base": model.dim_base,
            "dim_probe": model.dim_probe,
            "pointer_outcomes": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"model {args.model}: base dim {model.dim_base}, probe dim {model.dim_probe}, "
            f"pointer outcomes {list(pointer.outcomes)}"
        )
        for row, (effect, output) in zip(rows, matrices):
            print(f"outcome {row['outcome']}:")
            print("  pointer effect:")
            print(_format_matrix(effect))
            print(f"  probability on maximally mixed state: {row['probability_maximally_mixed']:.6f}")
            print("  post-measurement (unnormalized) output on maximally mixed state:")
            print(_format_matrix(output))
    return 0


class _CheckHelp(argparse.HelpFormatter):
    """The ``check`` help, whose ``--suite`` line lists the registered
    identities, read from ``qcond.checks`` only as that line is formatted."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if "--suite" not in action.option_strings:
            return action.help
        from .checks import registered_identities

        return f"{action.help} (known: {', '.join(registered_identities())})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcond",
        description="Quantum effects, channels, instruments and measurement models "
        "with an executable identity-check suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("scenario", metavar="file", help="path to a JSON scenario file")
    p_validate.add_argument("--tol", default=None, help="override the tolerance")
    p_validate.set_defaults(func=_cmd_validate)

    p_check = sub.add_parser("check", help="run registered identity checks", formatter_class=_CheckHelp)
    p_check.add_argument("--suite", default="all", help="comma-separated identity names or 'all'")
    p_check.add_argument("--trials", type=int, default=100, help="random instances per dimension")
    p_check.add_argument("--dims", default="2..3", help="dimension range 'A..B' or a single integer")
    p_check.add_argument("--seed", type=int, default=0, help="master seed")
    p_check.add_argument("--tol", default=None, help="pass tolerance (default 1e-9)")
    p_check.add_argument("--format", choices=("table", "json"), default="table")
    p_check.add_argument("--out", default=None, help="also write the JSON report to this path")
    p_check.set_defaults(func=_cmd_check)

    p_dist = sub.add_parser("distribution", help="outcome distribution of an observable in a state")
    p_dist.add_argument("--scenario", required=True)
    p_dist.add_argument("--observable", required=True)
    p_dist.add_argument("--state", required=True)
    p_dist.add_argument("--tol", default=None)
    p_dist.add_argument("--format", choices=("table", "json"), default="table")
    p_dist.set_defaults(func=_cmd_distribution)

    p_meas = sub.add_parser("measure", help="summarize what a measurement model measures")
    p_meas.add_argument("--scenario", required=True)
    p_meas.add_argument("--model", required=True)
    p_meas.add_argument("--tol", default=None)
    p_meas.add_argument("--format", choices=("table", "json"), default="table")
    p_meas.set_defaults(func=_cmd_measure)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "scenario" in args:
        # the one loading path of the verbs that read a scenario file
        try:
            atol = _resolve_tol(args.tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            args.loaded = load_scenario(args.scenario, atol=atol)
        except ScenarioError as exc:
            print(f"invalid scenario: {exc}", file=sys.stderr)
            return 1
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
