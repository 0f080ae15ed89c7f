#!/usr/bin/env python3
"""Run the ``ftppi`` program with every number it prints at full precision.

    PYTHONPATH=TREE/src python tools/full_precision.py ARGS...

does what ``python -m ftppi ARGS...`` does on that tree, except that the
floats in its JSON and CSV outputs keep all their bits.  The program
rounds them to 12 significant digits in one place, the call
``format(x, ".12g")`` in ``ftppi.cli._round_floats``.  This launcher
imports ``ftppi.__main__``, whose set-up then runs as it does for the
program, and puts a module global ``format`` in ``ftppi.cli``: for the
spec ``".12g"`` it returns ``repr(float(x))``, which reads back as the
same float, and otherwise it calls the builtin.  Then it runs the
program: ``ftppi.__main__.run``, or ``entry`` on trees without ``run``,
or else ``ftppi.cli.main``.

If ``_round_floats`` is missing, or its source has no
``format(x, ".12g")``, the launcher prints a message to stderr and exits
with status 3 without running the program, so it never prints rounded
output as if it were exact.
"""

from __future__ import annotations

import builtins
import inspect
import sys

#: The rounding call this launcher replaces, as it appears in the source.
ROUNDING = 'format(x, ".12g")'
#: Exit status when the rounding is not where the launcher expects it.
EXIT_NOT_FOUND = 3


def _format(value, spec: str = "") -> str:
    if spec == ".12g":
        return repr(float(value))
    return builtins.format(value, spec)


def main() -> None:
    import ftppi.__main__ as program
    from ftppi import cli

    rounding = getattr(cli, "_round_floats", None)
    if rounding is None or ROUNDING not in inspect.getsource(rounding):
        sys.stderr.write(
            f"full_precision: {cli.__file__} has no _round_floats calling {ROUNDING}; "
            "cannot print its numbers at full precision\n"
        )
        sys.exit(EXIT_NOT_FOUND)
    cli.format = _format
    if hasattr(program, "run"):
        program.run()  # ends the process
    elif hasattr(program, "entry"):
        sys.exit(program.entry())
    else:
        sys.exit(cli.main())


if __name__ == "__main__":
    main()
