"""``python -m qcond``: the command-line interface of :mod:`qcond.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
