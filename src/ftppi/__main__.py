"""The ``ftppi`` program: ``python -m ftppi`` and the ``ftppi`` console script.

The process is set up here, before ``.cli`` and so numpy are imported:

* numpy's OpenBLAS gets one thread unless the caller set
  ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.  Its worker thread
  would otherwise start at import and spin beside the main thread while
  the modules load, and compete with the CLI's own ``--threads`` workers
  and kernel threads.  The CLI's BLAS products gain nothing from it: the
  widest, the OLS Hessian and the sandwich covariance over a million
  rows, took the same time on one thread as on two on a 2-vCPU machine.
* The collector is off while ``.cli``, ``.core`` and numpy load: almost
  nothing they create is garbage.  ``entry`` freezes the import heap and
  turns the collector back on; each command's other modules load on
  first use, during the run.

The process also ends here, without interpreter teardown (``run``).
Nothing the program leaves needs it: ``--out`` files are closed by
``with``, forked workers are reaped, kernel threads are joined and a
pipe's spool is an unlinked temporary file.

A library ``import ftppi`` never imports this module, and ``ftppi.cli.main``
returns its exit code as before.
"""

import gc
import os
import sys

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
gc.disable()

from .cli import main  # noqa: E402  (must follow the set-up above)


def entry() -> int:
    """``main`` on ``sys.argv`` after freezing the import heap; returns its exit code.

    ``gc.freeze`` moves every object alive at this point (the modules just
    imported: ``.cli``, ``.core`` and numpy) out of the collector's reach,
    so the collections during the run do not walk them again; ``gc.enable``
    then turns the collector back on for the run.  ``main`` itself leaves
    the collector alone, for callers in a longer-lived process.
    """
    gc.freeze()
    gc.enable()
    return main()


def run():
    """The ``ftppi`` program: ``entry``, then the end of the process without teardown.

    The exit code is ``entry``'s, or that of the ``SystemExit`` argparse
    raises for ``--version`` and usage errors.  The ``atexit`` handlers
    run, ``sys.stdout`` and ``sys.stderr`` are flushed, and ``os._exit``
    ends the process, skipping the 3-5 ms CPython spends freeing every
    module and object.  When another thread is alive, a flush fails (a
    closed stdout pipe) or ``main`` raised anything else, the process
    ends through ``sys.exit`` as before, with the same output and code.
    """
    # Imported once ``.cli`` has loaded numpy, and threading with it:
    # importing threading first raised a run's sampled peak RSS by 0.1 MB.
    import atexit
    import threading

    try:
        code = entry()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    if not 0 <= code <= 255 or threading.active_count() > 1:
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None and not stream.closed:
                stream.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
