"""Watch the library's one factorization kernel: every Cholesky
factorization and Hermitian eigendecomposition goes through the gufuncs of
``qcond.linalg._GUFUNCS``."""

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
