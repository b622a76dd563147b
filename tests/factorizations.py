"""Watch the library's one factorization kernel: every Cholesky
factorization and Hermitian eigendecomposition goes through the gufuncs of
``qcond.linalg._GUFUNCS``; and watch the trace rules of every family total,
``channels._require_trace_rules`` as ``instruments._admit_family`` calls it."""

import qcond.instruments as instruments
import qcond.linalg as linalg


def watch_factorizations(monkeypatch, watch) -> None:
    """Call ``watch(name, m, out)`` after every factorization: ``name`` is
    ``"cholesky"``, ``"eigh"`` or ``"eigvalsh"``, ``m`` the input stack and
    ``out`` the gufunc's result (NaN where a factorization failed)."""
    for name, (gufunc, signature) in list(linalg._GUFUNCS.items()):

        def watched(m, *, signature, _name=name, _gufunc=gufunc):
            out = _gufunc(m, signature=signature)
            watch(_name, m, out)
            return out

        monkeypatch.setitem(linalg._GUFUNCS, name, (watched, signature))


def watch_trace_rules(monkeypatch, watch) -> None:
    """Call ``watch(total)`` before every decision of a family total's trace
    rules, for each family any constructor admits."""
    rules = instruments._require_trace_rules

    def watched(total, atol, kind, invariant):
        watch(total)
        return rules(total, atol, kind, invariant)

    monkeypatch.setattr(instruments, "_require_trace_rules", watched)
