"""Shared domain types: datasets, predictors, seeds, errors, and CSV ingestion.

Everything downstream (scaling-law fitting, allocation, rectified
estimation, simulation) works in terms of the containers defined here.
Datasets are immutable after construction and carry value semantics;
predictors are deterministic maps from feature vectors to predicted
outcomes, with per-dataset caching of their evaluations.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import signal
import sys
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_U = TypeVar("_U")

#: Default master seed used by the CLI and by convenience entry points.
DEFAULT_SEED = 1729


class FtppiError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(FtppiError):
    """An argument is outside the mathematical domain of the operation."""


class ParameterError(FtppiError):
    """A configuration parameter is malformed (bad delta, bad sizes, ...)."""


class InsufficientDataError(FtppiError):
    """Not enough observations to carry out the computation."""


class UnderdeterminedFitError(FtppiError):
    """Too few distinct observations to identify the scaling-law parameters."""


class ConvergenceError(FtppiError):
    """An iterative solver ran out of iterations.

    Carries the last iterate and the final score norm so callers can
    inspect how close the solve got.
    """

    def __init__(self, message: str, last_iterate=None, score_norm: float | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.score_norm = score_norm


class SingularHessianError(FtppiError):
    """The estimated Hessian is numerically singular."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class UnsupportedSizeError(FtppiError):
    """A trainer was asked for a fine-tuning size outside its support."""


class PlanError(FtppiError):
    """A ramp-up plan violates its structural constraints."""


class NumericalError(FtppiError):
    """A numeric result left its valid range beyond tolerance."""


class CsvFormatError(FtppiError):
    """A CSV input is malformed; the message is row/column addressed."""


def check_int(value, what: str, low: int) -> int:
    """``value`` as a plain ``int``: a Python or numpy integer, not a bool, >= ``low``.

    Anything else is a ParameterError naming ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{what} must be >= {low}, got {value}")
    return int(value)


def check_probability(value, what: str) -> float:
    """``value`` as a float strictly inside (0, 1); else a ParameterError naming ``what``."""
    if not (isinstance(value, (float, int, np.floating)) and 0.0 < value < 1.0):
        raise ParameterError(f"{what} must lie in (0, 1), got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RngSeed:
    """Master seed for reproducible randomness.

    Child seeds are derived, never reused: every replicate of an
    experiment derives its own seed from the master seed and the
    replicate index, so replicate k is reproducible in isolation.
    """

    seed: int

    def __post_init__(self) -> None:
        seed = check_int(self.seed, "seed", 0)
        if seed >= 2**64:
            raise ParameterError(f"seed must fit in uint64, got {seed}")
        object.__setattr__(self, "seed", seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, *tags: int) -> "RngSeed":
        """Derive an independent seed from this one plus integer tags."""
        entropy = (self.seed,) + tuple(int(t) for t in tags)
        state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)
        return RngSeed(int(state[0]))


def as_seed(seed: "RngSeed | int") -> RngSeed:
    """Coerce an int or RngSeed into an RngSeed."""
    if isinstance(seed, RngSeed):
        return seed
    return RngSeed(seed)


def _as_feature_matrix(xs, what: str, adopt: bool = False) -> np.ndarray:
    """Validated read-only float64 copy of ``xs``.

    With ``adopt`` a C-contiguous float64 matrix that owns its memory is
    frozen in place instead of copied; only a caller that holds the sole
    reference to it (a CSV reader) may ask for that.
    """
    try:
        arr = np.asarray(xs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what}: features are not numeric ({exc})") from exc
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DomainError(f"{what}: expected a 2-d feature array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InsufficientDataError(f"{what}: dataset is empty")
    if arr.shape[1] == 0:
        raise DomainError(f"{what}: feature dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what}: features contain non-finite values")
    if not (adopt and arr.base is None and arr.flags.c_contiguous):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class _Dataset:
    """Read-only feature rows of a common dimension, plus any row-aligned
    columns a subclass adds: every instance attribute is one such array."""

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def dim(self) -> int:
        return self._xs.shape[1]

    def __len__(self) -> int:
        return self._xs.shape[0]

    def subset(self, indices):
        """The rows at ``indices``, as a dataset of the same kind."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            raise InsufficientDataError("subset: empty index list")
        if idx.min() < 0 or idx.max() >= len(self):
            raise DomainError(f"subset: index out of range for size {len(self)}")
        out = type(self).__new__(type(self))
        for name, column in vars(self).items():
            rows = column[idx]  # a fresh copy of validated rows: frozen, not re-checked
            rows.setflags(write=False)
            setattr(out, name, rows)
        return out


class LabeledDataset(_Dataset):
    """Immutable container of (x, y) pairs with a common feature dimension.

    Duplicate rows are allowed and treated as distinguishable by index.
    """

    def __init__(self, xs, ys):
        self._xs = _as_feature_matrix(xs, "LabeledDataset")
        try:
            y_arr = np.asarray(ys, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"LabeledDataset: outcomes are not numeric ({exc})") from exc
        if y_arr.ndim != 1 or y_arr.shape[0] != self._xs.shape[0]:
            raise DomainError(
                f"LabeledDataset: need one outcome per row, got {y_arr.shape} "
                f"for {self._xs.shape[0]} rows"
            )
        if not np.all(np.isfinite(y_arr)):
            raise DomainError("LabeledDataset: outcomes contain non-finite values")
        y_arr = y_arr.copy()
        y_arr.setflags(write=False)
        self._ys = y_arr

    @property
    def ys(self) -> np.ndarray:
        return self._ys

    n = property(len)

    def __repr__(self) -> str:
        return f"LabeledDataset(n={self.n}, dim={self.dim})"


class UnlabeledDataset(_Dataset):
    """Immutable container of feature vectors without outcomes."""

    def __init__(self, xs):
        self._xs = _as_feature_matrix(xs, "UnlabeledDataset")

    @classmethod
    def _adopt(cls, mat: np.ndarray) -> "UnlabeledDataset":
        """Dataset over a matrix nobody else references, frozen without a copy."""
        out = cls.__new__(cls)
        out._xs = _as_feature_matrix(mat, "UnlabeledDataset", adopt=True)
        return out

    @classmethod
    def _shape_only(cls, m: int, d: int) -> "UnlabeledDataset":
        """A pool of ``m`` rows of ``d`` features that holds none: its ``xs``
        is a read-only zero-stride view of one 0.0.  For a pool whose
        predictions are precomputed and whose features are never read."""
        out = cls.__new__(cls)
        out._xs = np.broadcast_to(0.0, (m, d))
        return out

    m = property(len)

    def __repr__(self) -> str:
        return f"UnlabeledDataset(m={self.m}, dim={self.dim})"


class Predictor:
    """Deterministic map from feature vectors to predicted outcomes.

    ``s`` is a provenance tag recording how many labeled samples the
    producing trainer consumed (0 for a predictor that never saw task
    labels).  Evaluations are cached per dataset object, so repeated
    estimate/CI calls on the same data pay for prediction once.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray] | None, s: int, label: str = ""):
        self._fn = fn
        self.s = check_int(s, "Predictor: provenance tag s", 0)
        self.label = label
        self._cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @classmethod
    def precomputed(cls, values_by_dataset, s: int = 0, label: str = "precomputed") -> "Predictor":
        """Build a predictor from already-materialized prediction columns.

        ``values_by_dataset`` is an iterable of (dataset, values) pairs.
        The predictor only answers for those exact dataset objects, and
        holds copies of the values.
        """
        copies = ((ds, np.array(values, dtype=np.float64)) for ds, values in values_by_dataset)
        return cls._adopt(copies, s, label)

    @classmethod
    def _adopt(cls, values_by_dataset, s: int = 0, label: str = "precomputed") -> "Predictor":
        """``precomputed`` over columns nobody else references, frozen without a copy."""
        pred = cls(None, s, label)
        for dataset, values in values_by_dataset:
            arr = np.asarray(values, dtype=np.float64).reshape(-1)
            if arr.shape[0] != len(dataset):
                raise DomainError(
                    f"precomputed predictor: {arr.shape[0]} values for {len(dataset)} rows"
                )
            if not np.all(np.isfinite(arr)):
                raise DomainError("precomputed predictor: non-finite prediction values")
            arr.setflags(write=False)
            pred._cache[dataset] = arr
        return pred

    def predict(self, xs: np.ndarray) -> np.ndarray:
        if self._fn is None:
            raise DomainError(
                "this predictor only holds precomputed values; "
                "it cannot evaluate new feature vectors"
            )
        values = np.asarray(self._fn(np.asarray(xs, dtype=np.float64)), dtype=np.float64)
        values = values.reshape(-1)
        if values.shape[0] != np.asarray(xs).shape[0]:
            raise DomainError("predictor returned a wrong-length prediction vector")
        if not np.all(np.isfinite(values)):
            raise DomainError("predictor produced non-finite predictions")
        return values

    def on(self, dataset) -> np.ndarray:
        """Predictions for every row of a dataset, cached per dataset object."""
        cached = self._cache.get(dataset)
        if cached is not None:
            return cached
        values = self.predict(dataset.xs)
        values.setflags(write=False)
        self._cache[dataset] = values
        return values

    def __repr__(self) -> str:
        tag = self.label or "fn"
        return f"Predictor({tag}, s={self.s})"


# ---------------------------------------------------------------------------
# Workers: forked processes for simulation replicates and CSV ingest, threads
# for the multinomial-choice blocks
# ---------------------------------------------------------------------------

#: Forked workers need Linux: ``os.fork`` and ``os.memfd_create``.
#: A CSV body, and each memfd part of one, is parsed through ``/proc/self/fd``.
_CAN_FORK = sys.platform.startswith("linux") and os.path.isdir("/proc/self/fd")


def _resolve_workers(workers: int, items: int) -> int:
    """Workers, processes or threads, for ``items`` units of work: ``workers``,
    or every usable CPU for 0, capped at the usable CPUs and at ``items``.
    The usable CPUs are this process's affinity set where the platform
    has one, else all of them."""
    workers = check_int(workers, "workers", 0)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers or cpus, cpus, items))


def _forked_rows(fn: Callable[..., object], items: Sequence, workers: int, scratch=()) -> np.ndarray:
    """The rows of ``fn(item, *buffers)`` for every item, joined in item order.

    A 2-d result contributes its rows; any other result, a number or a
    sequence of numbers, is one row.  Rows are float64 and share the first
    item's trailing shape; the result for no items is empty.  ``fn`` must
    be a pure function of its item.

    The items are cut into contiguous chunks, one per worker: ``workers``
    resolved as ``_resolve_workers`` does, and 1 where nothing can fork.
    The process that runs a chunk makes its ``buffers`` once, one float64
    array per shape in ``scratch``, as scratch to write before reading.
    This process runs the first chunk while one forked child per later
    chunk sends its row count and raw rows through a pipe.  The first
    chunk's rows are then grown in place (``ndarray.resize``, which realloc
    does without a copy for a large block) and each child's rows are read
    straight into their tail, so the joined array is never held twice.  A
    chunk of one 2-d result gives that array itself, which must then be
    C-contiguous float64 and own its memory.  A child that fails sends its
    pickled exception instead.  After an error, the children not yet read
    from are killed; once every child is reaped, the earliest item's error
    is raised, as a serial loop would have raised it.
    """
    if not items:
        return np.empty(0)
    workers = _resolve_workers(workers, len(items) if _CAN_FORK else 1)
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pipes, pids, read = [], [], 0
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _forked_child(fn, chunk, scratch, write_fd)
            finally:  # reached in this process only: the child leaves by os._exit
                os.close(write_fd)
            pids.append(pid)
        out, failed = _chunk_rows(fn, chunks[0], scratch), None
        for k, pipe in enumerate(pipes):
            head = pipe.read(8)
            rows = int.from_bytes(head, "little", signed=True) if len(head) == 8 else -1
            read += 1
            if rows < 0:  # a pickled error, or a child that died before its rows
                failed = k, pipe.read()
                break
            start = out.shape[0]
            out.resize((start + rows,) + out.shape[1:], refcheck=False)
            if pipe.readinto(out[start:]) != out[start:].nbytes or pipe.read(1):
                failed = k, b""
                break
    finally:  # after an error, the children not yet read from are not needed
        for pid in pids[read:]:
            os.kill(pid, signal.SIGKILL)
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if failed is not None:
        k, data = failed
        raise _child_error(pids[k], codes[k], data)
    return out


def _chunk_rows(fn, items: Sequence, scratch) -> np.ndarray:
    """One chunk of ``_forked_rows``: its buffers made here, its rows joined."""
    buffers = [np.empty(shape) for shape in scratch]  # the chunk's, freed on return
    rows = [
        out if np.ndim(out) == 2 else np.array([out], dtype=np.float64)
        for out in (fn(item, *buffers) for item in items)
    ]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _forked_child(fn, items: Sequence, scratch, write_fd: int) -> None:
    """Body of a forked worker: send its chunk's row count and rows (exit 0),
    or -1 and the pickled error (exit 1)."""
    status = 2
    try:
        try:
            rows = _chunk_rows(fn, items, scratch)
            head, payload, done = rows.shape[0], rows, 0
        except BaseException as exc:  # every error goes back to the parent
            import pickle

            head, payload, done = -1, pickle.dumps(exc), 1
        with open(write_fd, "wb") as pipe:
            pipe.write(head.to_bytes(8, "little", signed=True))
            pipe.write(payload)
        status = done
    finally:
        os._exit(status)


def _child_error(pid: int, code: int, data: bytes) -> BaseException:
    """The error a failed worker sent, or one naming how it ended."""
    if code == 1:
        import pickle

        try:
            return pickle.loads(data)
        except Exception:  # a truncated or unloadable error
            pass
    return ChildProcessError(f"worker {pid} exited with status {code}")


def _threaded_blocks(fn: Callable[..., _U], items: Sequence, workers: int, scratch=()) -> list[_U]:
    """``[fn(item, *buffers) for item in items]``, run on up to ``workers`` threads.

    With ``w = min(workers, len(items))`` threads, item i runs on worker
    ``i % w`` and worker 0 is the calling thread.  A worker's ``buffers``,
    one float64 array per shape in ``scratch``, are scratch for its items,
    all allocated here before any thread starts: what a worker thread
    allocates and frees stays in its own malloc arena.  Only numpy's
    GIL-free work (ufuncs, einsum, BLAS) overlaps; a worker stops at its
    first failing item.  Every thread is started here and joined before
    this returns, so none outlives the call, and the earliest failing
    item's error is raised, as a serial loop would have raised it.
    """
    w = max(1, min(workers, len(items)))
    buffers = [[np.empty(shape) for shape in scratch] for _ in range(w)]
    results: list = [None] * len(items)
    errors: list = [None] * len(items)

    def run(k: int) -> None:
        for i in range(k, len(items), w):
            try:
                results[i] = fn(items[i], *buffers[k])
            except BaseException as exc:  # raised below, in the calling thread
                errors[i] = exc
                return

    threads = []
    try:
        for k in range(1, w):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    failed = next((exc for exc in errors if exc is not None), None)
    if failed is not None:
        raise failed
    return results


# ---------------------------------------------------------------------------
# CSV ingestion.  Labeled files carry a header ``y,x1,...,xd``; unlabeled
# files carry ``x1,...,xd``; prediction files carry a single column ``f``.
# ---------------------------------------------------------------------------


def _undecodable(path: str, exc: UnicodeDecodeError) -> CsvFormatError:
    return CsvFormatError(f"{path}: cannot decode file as {exc.encoding} text ({exc.reason})")


def _read_rows(path: str, fh) -> tuple[list[str], list[list[str]], list[int]]:
    """Header cells, data rows and the file line each data row ends on, read
    from the start of the seekable text file ``fh`` opened on ``path``."""
    fh.seek(0)
    reader = csv.reader(fh)
    rows, lines = [], []
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if not rows:
        raise CsvFormatError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    return header, rows[1:], lines[1:]


def _parse_cell(path: str, row_no: int, col_name: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CsvFormatError(
            f"{path}: row {row_no}, column {col_name}: could not parse {cell!r} as a number"
        ) from None


def _parse_matrix(
    path: str, header: list[str], rows: list[list[str]], lines: list[int]
) -> np.ndarray:
    out = np.empty((len(rows), len(header)), dtype=np.float64)
    for i, (row, row_no) in enumerate(zip(rows, lines)):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}"
            )
        for j, cell in enumerate(row):
            out[i, j] = _parse_cell(path, row_no, header[j], cell.strip())
    return out


def _load_body(source, skiprows: int, n_cols: int) -> np.ndarray | None:
    """The lines of ``source`` after the first ``skiprows`` as a float matrix, or None.

    ``source`` is a ``/proc/self/fd`` path, which ``np.loadtxt`` feeds to
    its C tokenizer in chunks, or an open text file, read line by line.
    None means the body is not a plain numeric table of ``n_cols`` columns
    with at least one row; the row-by-row parser then decides what it is.
    """
    import warnings

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" and the like
            mat = np.loadtxt(
                source, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
                ndmin=2, skiprows=skiprows,
            )
    except (ValueError, Warning):
        return None
    if mat.shape[0] == 0 or mat.shape[1] != n_cols:
        return None
    return mat


#: A file under this size is parsed whole, and one of ``k`` times this size
#: in at most ``k + 1`` parts, so a small file forks few workers on any machine.
_SPLIT_MIN_BYTES = 1 << 20

#: A body read for per-part summaries is cut in parts of at most about this
#: size, so each worker holds one part's matrix at a time, whatever the file's size.
_PART_BYTES = 1 << 20

#: Bytes per read while looking for a cut or checking a part: below glibc's
#: 128 KiB mmap threshold, so these buffers neither map memory nor raise it.
_CHUNK_BYTES = 1 << 16


class _NotPlain(Exception):
    """A part of a CSV body that cannot be parsed on its own."""


def _after_newline(fd: int, pos: int, end: int) -> int:
    """The offset just past the first ``\\n`` at or after ``pos`` in ``fd``, or ``end``."""
    while pos < end:
        chunk = os.pread(fd, _CHUNK_BYTES, pos)
        if not chunk:
            break
        found = chunk.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(chunk)
    return end


def _load_part(fd: int, start: int, stop: int, skiprows: int, n_cols: int) -> np.ndarray:
    """``_load_body`` on bytes ``[start, stop)`` of ``fd``, copied into a memfd.

    Raises _NotPlain unless the bytes are ASCII without a ``"`` and parse
    to at least one row of ``n_cols`` columns.  Lines of such text never
    depend on the lines before them.
    """
    part = os.memfd_create("ftppi-csv-part")
    try:
        copied = 0
        while copied < stop - start:
            sent = os.sendfile(part, fd, start + copied, stop - start - copied)
            if not sent:
                break
            copied += sent
        for pos in range(0, copied, _CHUNK_BYTES):
            chunk = os.pread(part, _CHUNK_BYTES, pos)
            if not chunk.isascii() or b'"' in chunk:
                raise _NotPlain
        mat = _load_body(f"/proc/self/fd/{part}", skiprows, n_cols)
    finally:
        os.close(part)
    if mat is None:
        raise _NotPlain
    return mat


def _load_fd(
    fd: int, skiprows: int, n_cols: int, workers: int, summarize=None
) -> np.ndarray | None:
    """The lines of the file open on ``fd`` after the first ``skiprows``, as
    ``_load_body`` gives them, parsed in parts by up to ``workers`` processes
    (0: every usable CPU; fewer for a small file, see ``_SPLIT_MIN_BYTES``);
    None if the body must be parsed whole.

    The file is cut at the first ``\\n`` at or after each ``size * k /
    parts`` bytes, a line boundary whether lines end in LF, CRLF or CR.
    Each part goes through ``_load_part``, the first with ``skiprows``, and
    the rows are joined in file order.  With ``summarize``, there are also
    at least ``size / _PART_BYTES`` parts, each worker parses a contiguous
    run of them one at a time, and ``summarize(part)``, a few rows, takes
    each part's place.  A single part, a part that is not plain or does not
    parse, or a worker that failed gives None.
    """
    size = os.fstat(fd).st_size
    workers = _resolve_workers(workers, size // _SPLIT_MIN_BYTES + 1)
    parts = workers if summarize is None else max(workers, -(-size // _PART_BYTES))
    cuts = {_after_newline(fd, size * k // parts, size) for k in range(1, parts)}
    bounds = [0, *sorted(cuts - {size}), size]
    spans = list(zip(bounds, bounds[1:]))
    if len(spans) < 2:
        return None

    def part(span: tuple[int, int]) -> np.ndarray:
        lo, hi = span
        mat = _load_part(fd, lo, hi, skiprows if lo == 0 else 0, n_cols)
        return mat if summarize is None else summarize(mat)

    try:
        return _forked_rows(part, spans, workers)
    except (_NotPlain, ChildProcessError, OSError):  # the whole body decides
        return None


def _rereadable(fh):
    """``fh``, or for a stream that cannot seek (a pipe) a temporary file
    holding the rest of its bytes, so the text can be read again.

    The bytes are copied as they are and decoded as ``fh`` would decode
    them, when the copy is read.
    """
    if fh.seekable():
        return fh
    spool = tempfile.TemporaryFile()
    shutil.copyfileobj(fh.buffer, spool)
    spool.seek(0)
    return io.TextIOWrapper(spool, encoding=fh.encoding, errors=fh.errors, newline="")


class _RowError(Exception):
    """``_RowError(index, detail)``: a ``_read_csv`` converter rejects data row
    ``index``; the CsvFormatError names the row's file line, then ``detail``."""


def _read_csv(
    path: str,
    check_header: Callable[[str, list[str]], _T],
    convert: Callable[[_T, np.ndarray], _U] = lambda checked, mat: mat,
    workers: int = 1,
    summarize: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[_T, _U]:
    """Read a numeric CSV: ``(checked, body)`` with ``checked = check_header(path, header)``.

    The header is the first non-empty row, cells stripped; it is checked
    before any body cell is parsed.  A pipe's bytes are first copied to a
    temporary file.  The body goes through ``np.loadtxt``: on Linux,
    ``_load_fd`` reads the opened file through its descriptor, in parts by
    ``workers`` forked processes (0: every usable CPU) when the file is
    large and its text plain, and never looks the name up again; elsewhere,
    or where the parts fail, it is read whole.  Whatever that rejects is
    re-read row by row from the same handle, which returns the same matrix
    or raises a row- and column-addressed CsvFormatError.  ``body`` is
    ``convert(checked, matrix)``, the matrix itself by default; a _RowError
    it raises becomes a CsvFormatError at that row.  Rows are numbered by
    file line, so blank lines count.

    With ``summarize``, ``convert`` gets ``summarize(part)`` of each part of
    the matrix, joined in file order, in place of the matrix.  A body read
    in parts is cut in parts of at most about ``_PART_BYTES``, so no process
    holds more than one part's matrix; a body read whole is one part.
    """
    check_int(workers, "workers", 0)
    try:
        with open(path, newline="") as fh, _rereadable(fh) as text:
            reader = csv.reader(text)
            header = next((row for row in reader if row), None)
            if header is None:
                raise CsvFormatError(f"{path}: file is empty")
            header = [cell.strip() for cell in header]
            checked = check_header(path, header)
            mat, source, skip = None, text, 0
            if _CAN_FORK:  # the opened file (or a pipe's copy), never its name again
                source, skip = f"/proc/self/fd/{text.fileno()}", reader.line_num
                mat = _load_fd(text.fileno(), skip, len(header), workers, summarize)
            if mat is None:
                mat = _load_body(source, skip, len(header))
                if mat is None:
                    header, rows, lines = _read_rows(path, text)
                    if not rows:
                        raise CsvFormatError(f"{path}: no data rows")
                    mat = _parse_matrix(path, header, rows, lines)
                if summarize is not None:
                    mat = summarize(mat)
            try:
                return checked, convert(checked, mat)
            except _RowError as bad:
                index, detail = bad.args
                line = _read_rows(path, text)[2][index]
                raise CsvFormatError(f"{path}: row {line}{detail}") from bad.__cause__
    except OSError as exc:
        raise CsvFormatError(f"{path}: cannot read file ({exc})") from exc
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def _expect_feature_header(path: str, names: list[str], offset: int) -> None:
    expected = [f"x{j + 1}" for j in range(len(names))]
    if names != expected:
        raise CsvFormatError(
            f"{path}: expected feature columns {','.join(expected)} "
            f"starting at position {offset + 1}, got {','.join(names)}"
        )
    if not names:
        raise CsvFormatError(f"{path}: no feature columns found")


def _check_labeled_header(path: str, header: list[str]) -> None:
    if not header or header[0] != "y":
        raise CsvFormatError(f"{path}: first column must be 'y', got {header[:1]}")
    _expect_feature_header(path, header[1:], 1)


def _check_predictions_header(path: str, header: list[str]) -> None:
    if header != ["f"]:
        raise CsvFormatError(f"{path}: expected single column 'f', got {','.join(header)}")


def read_labeled_csv(path: str, workers: int = 1) -> LabeledDataset:
    """Read a labeled dataset from a CSV with header ``y,x1,...,xd``.

    ``workers`` is the number of processes that may parse a large file in
    parts (0: every usable CPU); the result does not depend on it.  The
    other CSV readers take it too.
    """
    _, mat = _read_csv(path, _check_labeled_header, workers=workers)
    return LabeledDataset(mat[:, 1:], mat[:, 0])


def _check_unlabeled_header(path: str, header: list[str]) -> int:
    _expect_feature_header(path, header, 0)
    return len(header)


def _rows_and_finite(mat: np.ndarray) -> np.ndarray:
    """One row: ``mat``'s row count, and 1.0 if all its cells are finite, else 0.0."""
    return np.array([[mat.shape[0], np.isfinite(mat).all()]], dtype=np.float64)


def read_unlabeled_csv(path: str, workers: int = 1, features: bool = True) -> UnlabeledDataset:
    """Read an unlabeled dataset from a CSV with header ``x1,...,xd``.

    With ``features=False`` every row is parsed and checked as it is with
    True, and the same errors are raised, but only the row count and the
    width are kept: the body is parsed in parts of bounded size, each
    dropped once counted, and the dataset is ``UnlabeledDataset._shape_only``.
    For a pool whose predictions are precomputed and whose features no
    estimate reads.
    """
    if features:
        _, mat = _read_csv(path, _check_unlabeled_header, workers=workers)
        return UnlabeledDataset._adopt(mat)
    width, parts = _read_csv(path, _check_unlabeled_header, workers=workers,
                             summarize=_rows_and_finite)
    if not parts[:, 1].all():  # worded as _as_feature_matrix words it
        raise DomainError("UnlabeledDataset: features contain non-finite values")
    return UnlabeledDataset._shape_only(int(parts[:, 0].sum()), width)


def read_predictions_csv(path: str, workers: int = 1) -> np.ndarray:
    """Read a single prediction column from a CSV with header ``f``."""
    _, mat = _read_csv(path, _check_predictions_header, workers=workers)
    return mat[:, 0]
