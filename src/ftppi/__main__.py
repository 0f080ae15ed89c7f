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

A library ``import ftppi`` never imports this module.
"""

import gc
import os
import sys

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
gc.disable()

from .cli import main  # noqa: E402  (must follow the set-up above)


def entry() -> int:
    """The ``ftppi`` program: ``main`` on ``sys.argv`` after freezing the import heap.

    ``gc.freeze`` moves every object alive at this point (the modules just
    imported: ``.cli``, ``.core`` and numpy) out of the collector's reach,
    so neither the collections during the run nor the one at interpreter
    exit walk them again; ``gc.enable`` then turns the collector back on
    for the run.  ``main`` itself leaves the collector alone, for callers
    in a longer-lived process.
    """
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
