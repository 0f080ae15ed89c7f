"""Shared domain types: datasets, predictors, seeds, errors, and CSV ingestion.

Everything downstream (scaling-law fitting, allocation, rectified
estimation, simulation) works in terms of the containers defined here.
Datasets are immutable after construction and carry value semantics;
predictors are deterministic maps from feature vectors to predicted
outcomes, with per-dataset caching of their evaluations.
"""

from __future__ import annotations

import csv
import os
import shutil
import stat
import tempfile
import weakref
from dataclasses import dataclass
from typing import Callable, TypeVar

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
        The predictor only answers for those exact dataset objects.
        """
        pred = cls(None, s, label)
        for dataset, values in values_by_dataset:
            arr = np.asarray(values, dtype=np.float64).reshape(-1)
            if arr.shape[0] != len(dataset):
                raise DomainError(
                    f"precomputed predictor: {arr.shape[0]} values for {len(dataset)} rows"
                )
            if not np.all(np.isfinite(arr)):
                raise DomainError("precomputed predictor: non-finite prediction values")
            arr = arr.copy()
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


#: Suffixes by which ``np.loadtxt`` picks a decompressor for a path.  The
#: body of a file so named is read from the open handle, as plain text.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _load_body(source, skiprows: int, n_cols: int) -> np.ndarray | None:
    """The lines of ``source`` after the first ``skiprows`` as a float matrix, or None.

    ``source`` is a path, which ``np.loadtxt`` feeds to its C tokenizer in
    chunks, or an open text file, which it reads one line at a time.  None
    means the body is not a plain numeric table of ``n_cols`` columns with
    at least one row; the row-by-row parser then decides what it is.
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


def _same_file(path: str, opened: os.stat_result) -> bool:
    """Whether ``path`` still names the file whose ``fstat`` is ``opened``."""
    try:
        return os.path.samestat(os.stat(path), opened)
    except OSError:
        return False


def _rereadable(fh):
    """``fh``, or for a stream that cannot seek (a pipe) a temporary file
    holding the rest of its text, so the text can be read again."""
    if fh.seekable():
        return fh
    spool = tempfile.TemporaryFile("w+", newline="")
    shutil.copyfileobj(fh, spool)
    spool.seek(0)
    return spool


class _RowError(Exception):
    """``_RowError(index, detail)``: a ``_read_csv`` converter rejects data row
    ``index``; the CsvFormatError names the row's file line, then ``detail``."""


def _read_csv(
    path: str,
    check_header: Callable[[str, list[str]], _T],
    convert: Callable[[_T, np.ndarray], _U] = lambda checked, mat: mat,
) -> tuple[_T, _U]:
    """Read a numeric CSV: ``(checked, body)`` with ``checked = check_header(path, header)``.

    The header is the first non-empty row, cells stripped; it is checked
    before any body cell is parsed.  The body goes through ``np.loadtxt``:
    for a regular file, by path after the header's lines, unless the name
    has a compressed suffix or no longer names the file the header came
    from; for anything else, from the open handle, a pipe's text first
    copied to a temporary file.  Whatever that rejects is re-read row by
    row from the same handle, which returns the same matrix or raises a
    row- and column-addressed CsvFormatError.  ``body`` is
    ``convert(checked, matrix)``, the matrix itself by default; a _RowError
    it raises becomes a CsvFormatError at that row.  Rows are numbered by
    file line, so blank lines count.
    """
    try:
        with open(path, newline="") as fh, _rereadable(fh) as text:
            reader = csv.reader(text)
            header = next((row for row in reader if row), None)
            if header is None:
                raise CsvFormatError(f"{path}: file is empty")
            header = [cell.strip() for cell in header]
            checked = check_header(path, header)
            opened = os.fstat(fh.fileno())
            by_path = stat.S_ISREG(opened.st_mode) and not os.fspath(path).endswith(
                _COMPRESSED_SUFFIXES
            )
            if by_path:  # absolute, so np.loadtxt never takes a relative path for a URL
                mat = _load_body(os.path.join(os.getcwd(), path), reader.line_num, len(header))
                by_path = _same_file(path, opened)  # else replaced: use the opened file
            if not by_path:
                mat = _load_body(text, 0, len(header))
            if mat is None:
                header, rows, lines = _read_rows(path, text)
                if not rows:
                    raise CsvFormatError(f"{path}: no data rows")
                mat = _parse_matrix(path, header, rows, lines)
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


def read_labeled_csv(path: str) -> LabeledDataset:
    """Read a labeled dataset from a CSV with header ``y,x1,...,xd``."""
    _, mat = _read_csv(path, _check_labeled_header)
    return LabeledDataset(mat[:, 1:], mat[:, 0])


def read_unlabeled_csv(path: str) -> UnlabeledDataset:
    """Read an unlabeled dataset from a CSV with header ``x1,...,xd``."""
    _, mat = _read_csv(path, lambda p, header: _expect_feature_header(p, header, 0))
    return UnlabeledDataset._adopt(mat)


def read_predictions_csv(path: str) -> np.ndarray:
    """Read a single prediction column from a CSV with header ``f``."""
    _, mat = _read_csv(path, _check_predictions_header)
    return mat[:, 0]
