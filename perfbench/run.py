"""The qcond benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads, metrics and bounds are listed in
``BENCHMARK.json``; ``perfbench/README.md`` says what each metric should
move. Every operation runs in a separate worker process (``worker.py``)
that imports ``qcond`` from ``src/``, so import time is part of set-up.

``--trace 0`` sets the workload up three times, each in a fresh process,
then runs its closed loop for ``--seconds`` and prints the end-to-end
metrics. Timed metrics are scaled to a nominal host speed by a reference
task timed in the same process (``hostspeed.py``); the wall-clock figures
are printed beside them. ``--trace 1`` runs a fixed number of operations
untraced and again traced, and prints the per-layer metrics. Both print the environment, every
metric by name and unit, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results and the
recorded spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def tail_percentile(n: int) -> float | None:
    """The highest percentile in ``PERCENTILES`` with at least ten of ``n``
    samples beyond it (nearest-rank), or ``None`` when there is none."""
    usable = [p for p in PERCENTILES if n - math.ceil(n * p / 100) >= 10]
    return usable[-1] if usable else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * p / 100), 1) - 1]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(mode: str, args, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One BLAS thread: on a few shared cores a second one measures the
    # scheduler (a 1.3 ms readout took 15 ms while another process ran BLAS).
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Fixed string hashing, so set and dict layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict]:
    procs = [worker("setup", args, 120) for _ in range(SETUPS - 1)]
    run = worker("run", args, args.seconds + 120)
    procs.append(run)
    setups = [p["setup_s"] * p["setup_scale"] for p in procs]
    lat = run["latencies"]
    n = len(lat)
    scale = run["host_scale"]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups, at nominal host speed"),
        "p50_ms": (statistics.median(lat) * 1e3 * scale, "ms",
                   f"n={n}, at nominal host speed"),
        "ops_per_s": (n / sum(lat) / scale, "1/s",
                      f"n={n} in {sum(lat):.3f} s busy, at nominal host speed"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB", "worker process high-water mark"),
        "setup_wall_s": (statistics.median(p["setup_s"] for p in procs), "s",
                         f"median of {len(setups)} set-ups, wall clock"),
        "p50_wall_ms": (statistics.median(lat) * 1e3, "ms", f"n={n}, wall clock"),
        "host_scale": (scale, "1", f"nominal / trimmed mean of {run['reference_chunks']} "
                                   f"{run['reference_kind']} reference chunks"),
    }
    # Per-workload names for these figures (README), at nominal host speed.
    named = {"failed_frac": (run["failed"] / n, "1", f"{run['failed']}/{n}")}
    if args.workload == "check-canonical":
        named["check.wall_s"] = (statistics.median(lat) * scale, "s", f"median, n={n}")
    elif args.workload.startswith("readout-"):
        d = args.workload.split("-")[1]
        named[f"readout.{d}.p50_ms"] = metrics["p50_ms"]
        named[f"readout.{d}.peak_mib"] = (run["readout_peak_mib"], "MiB",
                                          "tracemalloc peak of one warm extraction")
    else:
        named["query.ops_per_s"] = metrics["ops_per_s"]
        named["query.p50_us"] = (statistics.median(lat) * 1e6 * scale, "us", f"n={n}")
    tail = tail_percentile(n)
    if tail is not None and tail > 50 and args.workload == "query-prebuilt":
        named[f"query.p{tail:g}_us"] = (percentile(lat, tail) * 1e6 * scale, "us", f"n={n}")
    elif tail is not None and tail > 50:
        named[f"tail.p{tail:g}_ms"] = (percentile(lat, tail) * 1e3 * scale, "ms", f"n={n}")
    run["setups"] = setups
    return metrics, {"named": named, "worker": run}


def traced(args) -> tuple[dict, dict]:
    run = worker("trace", args, 170)
    metrics = {name: (value, _unit(name), "") for name, value in run.pop("metrics").items()}
    return metrics, {"worker": run}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qcond" / "__init__.py").is_file():
        print(f"no qcond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    metrics, detail = (traced if args.trace else end_to_end)(args)
    run = detail["worker"]
    env = {"workload": args.workload, "seed": args.seed, "commit": git_commit(), **run["env"]}
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in {**metrics, **detail.get("named", {})}.items():
        mark = "*" if name in reported else " "
        print(f"{mark} {name:<42} {value:>14.6g} {unit:<6} {note}")
    if run.get("error"):
        print(run["error"], file=sys.stderr)

    attempted = len(run["latencies"]) if "latencies" in run else run["attempted"]
    result = {
        "correct": run["failed"] == 0 and attempted > 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "all_metrics": metrics, **detail}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
