"""One measured process of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``: import ``qcond``, set the workload up, report the set-up time
  and the host-speed scale (``hostspeed``) timed right after it.
* ``run``: the same set-up, then the closed loop for ``--seconds`` while a
  timer starts reference chunks; reports every operation's latency (without
  the chunks), the failures, the host-speed scale and the peak memory.
* ``trace``: a fixed number of operations untraced, then the same set-up and
  operations again with spans recorded; reports per-layer metrics and
  writes the spans to ``--out``.

The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import qcond  # noqa: E402  (import time is part of set-up)
from hostspeed import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Seconds of reference chunks timed after a set-up.
SETUP_REFERENCE_S = 0.25


def _set_up(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    return workload


class Loop:
    """Runs operations, times each, checks each output."""

    def __init__(self, workload, tracer=None, reference: Reference | None = None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.latencies: list[float] = []
        self.failed = 0
        self.error: str | None = None

    def step(self, i: int) -> None:
        w = self.workload
        if self.tracer is not None:
            self.tracer.op = i
        inp = w.prepare(i)
        first = len(self.reference.times) if self.reference is not None else 0
        start = time.perf_counter()
        try:
            out = w.run(inp)
        except Exception:
            self._timed(first, start)
            self.failed += 1
            self.error = self.error or traceback.format_exc()
            return
        self._timed(first, start)
        if self.tracer is not None:
            with self.tracer.paused():
                ok = w.check(inp, out)
        else:
            ok = w.check(inp, out)
        self.failed += not ok

    def _timed(self, first: int, start: float) -> None:
        end = time.perf_counter()
        elapsed = end - start
        if self.reference is not None:
            elapsed -= self.reference.inside(first, start, end)
        self.latencies.append(elapsed)


def _environment() -> dict:
    import os
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its own API."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(qcond.__file__).resolve().parents:
        print(f"qcond was imported from {qcond.__file__}, not from {src}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)

    workload = _set_up(args.workload, args.seed, args.out)
    result: dict = {"setup_s": time.perf_counter() - _T0}
    setup_reference = Reference(workload.reference)
    setup_reference.run_for(SETUP_REFERENCE_S)
    result["setup_scale"] = setup_reference.scale()
    if args.mode == "run":
        reference = Reference(workload.reference)
        loop = Loop(workload, reference=reference)
        deadline = time.perf_counter() + args.seconds
        i = 0
        with reference.sampling():
            while time.perf_counter() < deadline:
                loop.step(i)
                i += 1
        result.update(latencies=loop.latencies, failed=loop.failed, error=loop.error,
                      host_scale=reference.scale(), reference_kind=reference.kind,
                      reference_chunks=len(reference.times),
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      env=_environment())
        if hasattr(workload, "dim_base"):
            result["readout_peak_mib"] = _readout_peak_mib(workload)
    elif args.mode == "trace":
        result.update(_trace(args, workload))
    print(json.dumps(result))
    return 0


def _readout_peak_mib(workload) -> float:
    """``tracemalloc`` peak of one warm extraction on a fresh model."""
    import tracemalloc

    model = workload.prepare(workload.PEAK)
    tracemalloc.start()
    try:
        workload.run(model)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _trace(args, untraced_workload) -> dict:
    from tracing import Tracer, identity_seconds, layer_metrics

    n = untraced_workload.trace_ops
    untraced = Loop(untraced_workload)
    for i in range(n):
        untraced.step(i)

    tracer = Tracer()
    tracer.install()
    try:
        workload = _set_up(args.workload, args.seed, args.out)
        traced = Loop(workload, tracer)
        for i in range(n):
            traced.step(i)
    finally:
        tracer.uninstall()
    tracer.write(args.out / f"trace-{args.workload}-seed{args.seed}.npz")

    metrics = layer_metrics(tracer.names, tracer.spans())
    metrics["scenario.bytes"] = getattr(workload, "scenario_bytes", 0)
    metrics.update(identity_seconds(tracer.kept, qcond.checks.registered_identities()))
    untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {
        "metrics": metrics,
        "attempted": 2 * n,
        "failed": untraced.failed + traced.failed,
        "error": untraced.error or traced.error,
        "spans": len(tracer.starts),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "env": _environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
