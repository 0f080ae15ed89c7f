"""CSV ingest: the np.loadtxt fast path against the row-by-row parser.

The row-by-row parser (``_read_rows`` plus ``_parse_matrix``) is the
oracle: on any file, the fast reader must return the same matrix bit for
bit, or raise the same exception with the same message.  A body parsed
in parts by forked workers is held to the same body read by one process.
"""

import gzip
import os
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ftppi import core
from ftppi.core import (
    CsvFormatError,
    _parse_matrix,
    _read_csv,
    _read_rows,
    read_labeled_csv,
    read_predictions_csv,
    read_unlabeled_csv,
)
from ftppi import m_estim
from ftppi.core import DomainError, ParameterError
from ftppi.m_estim import read_choice_labeled_csv, read_choice_unlabeled_csv
from ftppi.scaling import read_observations_csv

NUMBER_FORMATS = (lambda v: "%.6f" % v, repr, lambda v: "%.17g" % v, lambda v: "%.3e" % v)

#: Cells that float() or np.loadtxt (or both) treat specially.
ODD_CELLS = (
    "", " ", "nan", "-inf", "Infinity", "1e400", "-0", "1_000", "١٢",
    "#1", "# note", '"1.5"', '"1,5"', '" 2 "', '""', '"3"4', "0x10", "1d5",
    "\v4\f", "\xa05", "1 2", "oops",
)

LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def numbers(draw):
    value = draw(st.floats(allow_nan=True, allow_infinity=True))
    return draw(st.sampled_from(NUMBER_FORMATS))(value)


@st.composite
def csv_texts(draw, prefix="c"):
    """A header ``c1,...,ck`` plus a body: valid, or valid rows with a few faults."""
    n_cols = draw(st.integers(1, 3))
    valid_row = st.lists(numbers(), min_size=n_cols, max_size=n_cols).map(",".join)
    odd_cell = st.one_of(numbers(), st.sampled_from(ODD_CELLS))
    faults = st.one_of(
        st.lists(odd_cell, min_size=max(n_cols - 1, 0), max_size=n_cols + 1).map(",".join),
        valid_row.map(lambda text: text + ","),  # trailing comma
        valid_row.map(lambda text: text + " #x"),
        st.sampled_from(["   ", "\t", "#", "# comment", ","]),
    )
    if draw(st.booleans()):
        line = st.one_of(valid_row, valid_row, st.just(""))
    else:
        line = st.one_of(valid_row, valid_row, valid_row, st.just(""), faults)
    lines = ["" for _ in range(draw(st.integers(0, 2)))]  # blank lines before the header
    names = [f"{prefix}{j + 1}" for j in range(n_cols)]
    if draw(st.booleans()):  # a quoted line break in a header cell, stripped with the cell
        j = draw(st.integers(0, n_cols - 1))
        names[j] = f'"{names[j]}{draw(st.sampled_from(LINE_ENDS))}"'
    lines.append(",".join(names))
    lines += draw(st.lists(line, max_size=8))
    if draw(st.booleans()):  # one line end for the file, or one per line
        end = draw(st.sampled_from(LINE_ENDS))
        return end.join(lines) + draw(st.sampled_from(["", end]))
    return "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_same(fast, slow):
    if isinstance(fast, tuple) or isinstance(slow, tuple):
        assert fast == slow
    else:
        assert fast.shape == slow.shape
        np.testing.assert_array_equal(fast.view(np.int64), slow.view(np.int64))


def _refuse(*args):
    raise AssertionError("fell back to the row-by-row parser")


def _oracle_matrix(path):
    with open(path, newline="") as fh:
        header, rows, lines = _read_rows(path, fh)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return _parse_matrix(path, header, rows, lines)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("csv") / "data.csv")


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _through_pipe(pipe, text, read):
    """``_outcome(read)``, run on a daemon thread while another writes ``text``,
    a string or bytes, into the named pipe ``pipe``.

    A read that blocks (a second open of the pipe waits for a writer) is
    released after 10 s, and the test fails instead of hanging.
    """
    data = text if isinstance(text, bytes) else text.encode()
    writer = threading.Thread(target=Path(pipe).write_bytes, args=(data,), daemon=True)
    writer.start()
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(_outcome(read)), daemon=True)
    worker.start()
    worker.join(timeout=10)
    writer.join(timeout=10)
    if worker.is_alive():  # release the blocked open
        os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
        worker.join(timeout=10)
        pytest.fail("reading the named pipe blocked")
    [got] = outcome
    return got


class TestDifferential:
    @given(text=csv_texts())
    def test_fast_reader_matches_row_by_row_oracle(self, csv_path, text):
        _write(csv_path, text)
        fast = _outcome(lambda: _read_csv(csv_path, lambda path, header: None)[1])
        _assert_same(fast, _outcome(lambda: _oracle_matrix(csv_path)))

    @given(text=csv_texts(prefix="x"))
    def test_public_reader_matches_with_fast_path_disabled(self, csv_path, text):
        _write(csv_path, text)
        fast = _outcome(lambda: read_unlabeled_csv(csv_path).xs)
        with mock.patch.object(core, "_load_body", lambda source, skiprows, n_cols: None):
            slow = _outcome(lambda: read_unlabeled_csv(csv_path).xs)
        _assert_same(fast, slow)

    @pytest.mark.parametrize(
        "text",
        [
            "c1,c2\n1_000,2\n",
            "c1,c2\n١,2\n",
            "c1\n\"1.5\"\r\n\r\n-inf\rnan\n",
            "c1,c2\n\n   \n1,2\n",
            "c1,c2\n#1,2\n",
            "c1,c2\n1,2\n# note\n3,4\n",
            "c1,c2\n1,2 #x\n",
            "c1,c2\n1,2,\n",
            "c1,c2\n1,2,3\n",
            "c1,c2\n\n\n",
            "\n\nc1,c2\n1,2\n",
            'c1,c2\n"1\r\n",2\n',
            'c1,"c2\n"\n"1\n2",3\n',
        ],
    )
    def test_edge_cases_match_oracle(self, csv_path, text):
        _write(csv_path, text)
        fast = _outcome(lambda: _read_csv(csv_path, lambda path, header: None)[1])
        _assert_same(fast, _outcome(lambda: _oracle_matrix(csv_path)))

    # np.loadtxt's skiprows and csv.reader's line_num must both count physical
    # lines: counting records instead would drop the first data rows
    @pytest.mark.parametrize(
        "text",
        [
            '"c1\n",c2\n1,2\n3,4\n5,6\n',
            '"c1\r\n",c2\r\n1,2\r\n3,4\r\n5,6\r\n',
            '"c\r1",c2\r1,2\r3,4\r5,6\r',
            '\nc1,"c\n\n2"\n1,2\n\n3,4\n5,6\n',
        ],
    )
    def test_quoted_line_break_in_header_on_fast_path(self, csv_path, monkeypatch, text):
        _write(csv_path, text)
        expected = _oracle_matrix(csv_path)
        assert expected.shape == (3, 2)
        monkeypatch.setattr(core, "_read_rows", _refuse)
        _assert_same(_read_csv(csv_path, lambda path, header: None)[1], expected)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_compressed_suffix_reads_as_text(self, tmp_path, suffix):
        path = str(tmp_path / f"pool.csv{suffix}")
        _write(path, "\nc1,c2\r\n1.5,-2\r\n\r\n3e-3,4\n")
        fast = _outcome(lambda: _read_csv(path, lambda path, header: None)[1])
        assert fast.tolist() == [[1.5, -2.0], [3e-3, 4.0]]
        _assert_same(fast, _outcome(lambda: _oracle_matrix(path)))

    def test_url_like_relative_path_reads_the_local_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "pool.csv").write_text("x1\n1\n2\n")
        # where a reader that took the path for a URL would look for a cached copy
        (tmp_path / "host").mkdir()
        (tmp_path / "host" / "pool.csv").write_text("x1\n7\n8\n")
        assert read_unlabeled_csv("http://host/pool.csv").xs.tolist() == [[1.0], [2.0]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_reads_whole_body(self, tmp_path, monkeypatch):
        # far more than one read() chunk, so a second open of the pipe would
        # start past the rows the header read had buffered
        text = "x1,x2\n" + "".join(f"{i},{i / 7!r}\n" for i in range(5000))
        regular = tmp_path / "pool.csv"
        _write(regular, text)
        expected = read_unlabeled_csv(str(regular)).xs
        pipe = tmp_path / "pool.pipe"
        os.mkfifo(pipe)
        monkeypatch.setattr(core, "_read_rows", _refuse)  # a re-open would block
        got = _through_pipe(pipe, text, lambda: read_unlabeled_csv(str(pipe)).xs)
        _assert_same(got, expected)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "reader,text,message",
        [
            (
                read_unlabeled_csv,
                "x1\n1\noops\n",
                "row 3, column x1: could not parse 'oops' as a number",
            ),
            (
                read_observations_csv,
                "s,variance\n10,1.0\n20.5,0.9\n40,0.8\n",
                "row 3, column s: expected an integer, got 20.5",
            ),
        ],
        ids=["body-cell", "observation-size"],
    )
    def test_named_pipe_error_names_the_row(self, tmp_path, reader, text, message):
        pipe = tmp_path / "data.pipe"
        os.mkfifo(pipe)
        outcome = _through_pipe(pipe, text, lambda: reader(str(pipe)))
        assert outcome == (CsvFormatError, f"{pipe}: {message}")

    def test_file_replaced_after_header_read_gives_the_opened_files_body(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("x1\n1\n2\n")
        other = tmp_path / "other.csv"
        other.write_text("x1\n7\n8\n9\n")
        load_body = core._load_body

        def replace_then_load(source, skiprows, n_cols):
            if isinstance(source, str) and other.exists():
                os.replace(other, path)
            return load_body(source, skiprows, n_cols)

        with mock.patch.object(core, "_load_body", replace_then_load):
            xs = read_unlabeled_csv(str(path)).xs
        assert xs.tolist() == [[1.0], [2.0]]


class TestHandleRoute:
    """The open-handle route, taken where ``/proc/self/fd`` is missing, on the
    oracle corpus, named pipes and compressed names."""

    @pytest.fixture(autouse=True, scope="class")
    def handle_route(self):
        with mock.patch.object(core, "_CAN_FORK", False):
            yield

    @given(text=csv_texts())
    def test_oracle_corpus(self, csv_path, text):
        _write(csv_path, text)
        fast = _outcome(lambda: _read_csv(csv_path, lambda path, header: None)[1])
        _assert_same(fast, _outcome(lambda: _oracle_matrix(csv_path)))

    test_compressed_suffix = TestDifferential.test_plain_text_with_compressed_suffix_reads_as_text
    test_named_pipe_reads_whole_body = TestDifferential.test_named_pipe_reads_whole_body
    test_named_pipe_error_names_the_row = TestDifferential.test_named_pipe_error_names_the_row


def _plain(result):
    """Reader output as comparable bytes, ints and observations."""
    if isinstance(result, (tuple, list)):
        return [_plain(item) for item in result]
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, (core.LabeledDataset, core.UnlabeledDataset)):
        return [result.xs.tobytes(), getattr(result, "ys", result.xs).tobytes()]
    return result


VALID_FILES = [
    (read_labeled_csv, "y,x1,x2\r\n1.5,2,3\r\n\r\n\"4\",5e-3,-6\r\n"),
    (read_unlabeled_csv, "x1\n\n0.5\r-0.25\n"),
    (read_predictions_csv, "f\n1.5\n2.5\n"),
    (read_choice_labeled_csv, "choice,x_1_1,x_2_1\n1,0.5,1\n0,1.5,0\n"),
    (read_choice_unlabeled_csv, "x_1_1,x_2_1\n0.5,1.0\n-0.5,0.0\n"),
    (read_observations_csv, "s,variance\n10,2.5\n20,1.5\n40,1.0\n"),
]


class TestFastPath:
    @pytest.mark.parametrize("reader,text", VALID_FILES, ids=lambda v: getattr(v, "__name__", ""))
    def test_valid_file_never_reaches_row_by_row_parser(self, tmp_path, monkeypatch, reader, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(core, "_load_body", lambda source, skiprows, n_cols: None):
            expected = _plain(reader(str(path)))
        monkeypatch.setattr(core, "_parse_matrix", _refuse)
        monkeypatch.setattr(core, "_read_rows", _refuse)
        assert _plain(reader(str(path))) == expected

    def test_header_error_wins_over_body_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,feat\n1,oops\n")
        with pytest.raises(CsvFormatError, match="x1"):
            read_labeled_csv(str(path))


POOL_READERS = [
    (core, read_unlabeled_csv, "x1,x2\n"),
    (m_estim, read_choice_unlabeled_csv, "x_1_1,x_2_1\n"),
]


def _assert_adopted(path, owner, reader, **kwargs):
    """``reader(path, **kwargs)`` gives a dataset over ``_read_csv``'s own matrix."""
    parsed = []

    def keep(*args, **kwargs):
        result = _read_csv(*args, **kwargs)
        parsed.append(result[1])
        return result

    with mock.patch.object(owner, "_read_csv", keep):
        result = reader(str(path), **kwargs)
    pool = result[0] if isinstance(result, tuple) else result
    assert pool.xs is parsed[0]
    assert not pool.xs.flags.writeable and pool.xs.base is None
    assert pool.xs.tolist() == [[0.5, 1.0], [-2.0, 10.0]]


class TestPoolAdoption:
    """Unlabeled readers hand their parsed matrix to the dataset without a copy."""

    @pytest.mark.parametrize("owner,reader,header", POOL_READERS, ids=["plain", "choice"])
    # np.loadtxt rejects "1_0", so the second body goes through the row-by-row parser
    @pytest.mark.parametrize("body", ["0.5,1\n-2,10\n", "0.5,1\n-2,1_0\n"],
                             ids=["loadtxt", "row-by-row"])
    def test_dataset_holds_the_readers_matrix(self, tmp_path, owner, reader, header, body):
        path = tmp_path / "pool.csv"
        path.write_text(header + body)
        _assert_adopted(path, owner, reader)

    @pytest.mark.skipif(not core._CAN_FORK, reason="forked workers need Linux")
    @pytest.mark.parametrize("owner,reader,header", POOL_READERS, ids=["plain", "choice"])
    @pytest.mark.parametrize("body", ["0.5,1\n-2,10\n", "0.5,1\n-2,1_0\n"],
                             ids=["loadtxt", "row-by-row"])
    def test_split_read_holds_the_readers_matrix(
        self, tmp_path, monkeypatch, owner, reader, header, body
    ):
        # the second row is a forked worker's part, grown into the first in place
        path = tmp_path / "pool.csv"
        path.write_text(header + body)
        monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", 1)
        _assert_adopted(path, owner, reader, workers=2)

    @pytest.mark.parametrize("owner,reader,header", POOL_READERS, ids=["plain", "choice"])
    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_cell_is_still_rejected(self, tmp_path, owner, reader, header, cell):
        path = tmp_path / "pool.csv"
        path.write_text(header + f"0.5,1\n{cell},2\n")
        with pytest.raises(DomainError, match="non-finite"):
            reader(str(path))


class TestErrorLineNumbers:
    """Rows in error messages are file lines, so blank lines count."""

    def test_parse_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,x1\n\n1,2\n\n1,oops\n")
        with pytest.raises(CsvFormatError, match=r"row 5, column x1: could not parse 'oops'"):
            read_labeled_csv(str(path))

    def test_field_count_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\ny,x1\n\n1,2\n1\n")
        with pytest.raises(CsvFormatError, match=r"row 5: expected 2 fields, got 1"):
            read_labeled_csv(str(path))

    def test_choice_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"choice,x_1_1\n\n\n1,0.5\n7,0.1\n")
        with pytest.raises(CsvFormatError, match=r"row 5, column choice"):
            read_choice_labeled_csv(str(path))

    def test_observation_errors_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"s,variance\n10,2.5\n\n10.5,1.0\n")
        with pytest.raises(CsvFormatError, match=r"row 4, column s"):
            read_observations_csv(str(path))
        path.write_bytes(b"s,variance\n\n10,2.5\n\n20,-1\n")
        with pytest.raises(CsvFormatError, match=r"row 5: .*variance"):
            read_observations_csv(str(path))

    def test_oversized_header_cell_is_addressed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n" + "x" * 200_000 + "\n1\n")
        with pytest.raises(CsvFormatError, match=r"row 2: field larger than field limit"):
            read_unlabeled_csv(str(path))

    def test_crlf_lines_count_once(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,x1\r\n\r\n1,2\r\n1,oops\r\n")
        with pytest.raises(CsvFormatError, match=r"row 4, column x1"):
            read_labeled_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_size_is_addressed(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"s,variance\n10,2.5\n{cell},1.0\n")
        with pytest.raises(CsvFormatError, match=r"row 3, column s: expected an integer"):
            read_observations_csv(str(path))


UNDECODABLE = "cannot decode file as utf-8 text"


class TestUndecodableFiles:
    """Bytes that are not text in the file's encoding are a CsvFormatError, not a traceback."""

    def test_gzip_bytes(self, tmp_path):
        path = tmp_path / "pool.csv.gz"
        path.write_bytes(gzip.compress(b"x1\n1\n2\n"))
        with pytest.raises(CsvFormatError, match=r"pool\.csv\.gz: " + UNDECODABLE):
            read_unlabeled_csv(str(path))

    def test_utf16_byte_order_mark(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_bytes("x1\n1\n".encode("utf-16"))
        with pytest.raises(CsvFormatError, match=r"pool\.csv: " + UNDECODABLE):
            read_unlabeled_csv(str(path))

    # a short file is decoded whole by the header read; a long one is
    # decoded in chunks, so its bad byte is met by the body read
    @pytest.mark.parametrize("rows", [1, 20_000], ids=["header-read", "body-read"])
    @pytest.mark.parametrize(
        "load_body",
        [core._load_body, lambda source, skiprows, n_cols: None],
        ids=["loadtxt", "row-by-row"],
    )
    def test_latin1_body_under_valid_header(self, tmp_path, rows, load_body):
        path = tmp_path / "pool.csv"
        path.write_bytes(b"x1,x2\n" + b"0.5,1\n" * rows + "caf\xe9,2\n".encode("latin-1"))
        with mock.patch.object(core, "_load_body", load_body):
            with pytest.raises(CsvFormatError, match=r"pool\.csv: " + UNDECODABLE):
                read_unlabeled_csv(str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("rows", [1, 20_000], ids=["header-read", "body-read"])
    def test_latin1_body_through_a_named_pipe(self, tmp_path, rows):
        """A pipe's bytes are decoded when its copy is read, with the file's error."""
        data = b"x1,x2\n" + b"0.5,1\n" * rows + "caf\xe9,2\n".encode("latin-1")
        path = tmp_path / "pool.csv"
        path.write_bytes(data)
        pipe = tmp_path / "pool.pipe"
        os.mkfifo(pipe)
        got = _through_pipe(pipe, data, lambda: read_unlabeled_csv(str(pipe)))
        kind, message = _outcome(lambda: read_unlabeled_csv(str(path)))
        assert kind is CsvFormatError and UNDECODABLE in message
        assert got == (kind, message.replace(str(path), str(pipe)))


def _split_outcomes(path, check=lambda path, header: None, workers=(1, 2, 3)):
    """``_read_csv`` outcomes for each worker count, with every file big enough to split."""
    with mock.patch.object(core, "_SPLIT_MIN_BYTES", 1):
        return [_outcome(lambda: _read_csv(str(path), check, workers=w)[1]) for w in workers]


def _assert_all_same(outcomes):
    for got in outcomes[1:]:
        _assert_same(got, outcomes[0])


def _first_cut(path):
    """Where two workers cut the file: just past the first LF at or after its middle."""
    size = os.path.getsize(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        return core._after_newline(fd, size // 2, size)
    finally:
        os.close(fd)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_nothing_left(fds_before):
    assert _open_fds() <= fds_before  # no memfd or pipe end left open
    with pytest.raises(ChildProcessError):  # no unreaped worker
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not core._CAN_FORK, reason="forked workers need Linux")
class TestSplitReader:
    """A body parsed in parts by forked workers against the same body parsed whole."""

    @given(text=csv_texts())
    def test_any_worker_count_matches_one(self, csv_path, text):
        _write(csv_path, text)
        _assert_all_same(_split_outcomes(csv_path))

    def test_plain_body_is_parsed_in_parts(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.csv"
        _write(path, "\n\nc1,c2\n" + "".join(f"{i},{i / 7!r}\n" for i in range(40)))
        expected = _oracle_matrix(str(path))
        sources = []
        load_body = core._load_body

        def spy(source, skiprows, n_cols):
            sources.append((source, skiprows))
            return load_body(source, skiprows, n_cols)

        monkeypatch.setattr(core, "_load_body", spy)
        monkeypatch.setattr(core, "_read_rows", _refuse)
        monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", 1)
        _assert_same(_read_csv(str(path), lambda path, header: None, workers=2)[1], expected)
        # this process parsed only its own part, header lines skipped; never the path
        [(source, skiprows)] = sources
        assert source.startswith("/proc/self/fd/") and skiprows == 3

    def test_parts_grow_with_the_file(self, tmp_path, monkeypatch, forked_chunks):
        path = tmp_path / "pool.csv"
        _write(path, "c1\n" + "".join(f"{i}\n" for i in range(200)))
        size = os.path.getsize(path)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)))
        parts = forked_chunks
        # eight CPUs, but a file of k thresholds gets at most k + 1 parts
        for min_bytes, want in [(size + 1, []), (size, [2]), (size // 3, [4])]:
            parts.clear()
            monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", min_bytes)
            got = _read_csv(str(path), lambda path, header: None, workers=0)[1]
            assert parts == want and got.tolist() == [[i] for i in range(200)]

    @pytest.mark.parametrize("workers", [-1, 1.5, True, "2"])
    def test_invalid_worker_count_rejected(self, tmp_path, workers):
        path = tmp_path / "pool.csv"
        _write(path, "x1\n1\n")
        with pytest.raises(ParameterError, match="workers"):
            read_unlabeled_csv(str(path), workers=workers)

    @pytest.mark.parametrize("row", [0, -1], ids=["first-part", "second-part"])
    def test_quote_in_one_part(self, tmp_path, row):
        rows = [f"{i},{i + 0.5}" for i in range(8)]
        rows[row] = f'"{row}",2.5'
        path = tmp_path / "pool.csv"
        _write(path, "c1,c2\n" + "\n".join(rows) + "\n")
        cut = _first_cut(str(path))
        quote = path.read_bytes().index(b'"')
        assert (quote < cut) == (row == 0)
        outcomes = _split_outcomes(path)
        _assert_all_same(outcomes + [_oracle_matrix(str(path))])

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends(self, tmp_path, end):
        path = tmp_path / "pool.csv"
        _write(path, end.join(["c1,c2", "1,2", "", "3,4", "5,6", "7,8", ""]))
        outcomes = _split_outcomes(path)
        assert outcomes[0].tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        _assert_all_same(outcomes)

    @pytest.mark.parametrize("where", ["after", "before"])
    def test_blank_lines_at_the_cut(self, tmp_path, where):
        # rows of four bytes put the middle on the last byte of the row before
        # the blank lines, or of the blank lines themselves
        rows_before, rows_after = (4, 4) if where == "after" else (3, 5)
        text = "c1,c2\n" + "1,2\n" * rows_before + "\n\n\n" + "3,4\n" * rows_after
        path = tmp_path / "pool.csv"
        _write(path, text)
        cut = _first_cut(str(path))
        if where == "after":
            assert text[cut:cut + 3] == "\n\n\n"
        else:
            assert text[cut - 2:cut] == "\n\n" and text[cut:cut + 4] == "3,4\n"
        outcomes = _split_outcomes(path)
        assert outcomes[0].tolist() == [[1, 2]] * rows_before + [[3, 4]] * rows_after
        _assert_all_same(outcomes)

    def test_no_trailing_line_end(self, tmp_path):
        path = tmp_path / "pool.csv"
        _write(path, "c1,c2\n1,2\n3,4\n5,6\n7,8")
        outcomes = _split_outcomes(path)
        assert outcomes[0].tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        _assert_all_same(outcomes)

    def test_non_ascii_cell_in_a_workers_part(self, tmp_path):
        # float() reads Arabic-Indic digits, np.loadtxt does not
        path = tmp_path / "pool.csv"
        _write(path, "c1\n1\n2\n3\n4\n5\n١٢\n")
        assert path.read_bytes().index(b"\xd9") >= _first_cut(str(path))
        outcomes = _split_outcomes(path)
        assert outcomes[0].tolist() == [[1], [2], [3], [4], [5], [12]]
        _assert_all_same(outcomes)

    def test_quoted_header_across_the_cut(self, tmp_path):
        path = tmp_path / "pool.csv"
        _write(path, '"c1' + "\n" * 20 + '",c2\n1,2\n3,4\n')
        assert _first_cut(str(path)) < path.read_text().index(",c2")
        outcomes = _split_outcomes(path)
        assert outcomes[0].tolist() == [[1, 2], [3, 4]]
        _assert_all_same(outcomes)

    def test_bad_cell_error_names_the_row(self, tmp_path):
        path = tmp_path / "pool.csv"
        _write(path, "x1\n" + "".join(f"{i}\n" for i in range(9)) + "oops\n")
        outcomes = _split_outcomes(path, check=lambda path, header: None)
        message = f"{path}: row 11, column x1: could not parse 'oops' as a number"
        assert outcomes[0] == (CsvFormatError, message)
        _assert_all_same(outcomes)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, tmp_path, monkeypatch):
        text = "x1,x2\n" + "".join(f"{i},{i / 7!r}\n" for i in range(5000))
        regular = tmp_path / "pool.csv"
        _write(regular, text)
        pipe = tmp_path / "pool.pipe"
        os.mkfifo(pipe)
        monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", 1)
        got = _through_pipe(pipe, text, lambda: read_unlabeled_csv(str(pipe), workers=2).xs)
        _assert_same(got, read_unlabeled_csv(str(regular), workers=2).xs)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_copy_is_parsed_in_parts(self, tmp_path, monkeypatch, forked_chunks):
        text = "x1,x2\n" + "".join(f"{i},{i / 7!r}\n" for i in range(5000))
        pipe = tmp_path / "pool.pipe"
        os.mkfifo(pipe)

        def read(workers):
            return _through_pipe(
                pipe, text, lambda: read_unlabeled_csv(str(pipe), workers=workers).xs
            )

        expected = read(1)
        sources, parts = [], forked_chunks
        load_body = core._load_body

        def spy(source, skiprows, n_cols):
            sources.append(source)
            return load_body(source, skiprows, n_cols)

        monkeypatch.setattr(core, "_load_body", spy)
        monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", 1)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1})
        fds = _open_fds()
        got = read(2)
        _assert_nothing_left(fds)
        assert got.tobytes() == expected.tobytes()
        # the pipe's temporary copy, cut in two; this process parsed its own part
        [source] = sources
        assert source.startswith("/proc/self/fd/") and parts == [2]

    def test_plain_text_named_gz(self, tmp_path):
        path = tmp_path / "pool.csv.gz"
        _write(path, "c1,c2\n1.5,-2\n\n3e-3,4\n5,6\n")
        outcomes = _split_outcomes(path)
        assert outcomes[0].tolist() == [[1.5, -2.0], [3e-3, 4.0], [5.0, 6.0]]
        _assert_all_same(outcomes)

    def test_file_replaced_after_header_read(self, tmp_path):
        path = tmp_path / "pool.csv"

        def replace(name, header):
            (tmp_path / "other.csv").write_text("c1\n7\n8\n9\n10\n11\n12\n")
            os.replace(tmp_path / "other.csv", path)

        for workers in (1, 2):
            path.write_text("c1\n1\n2\n3\n4\n5\n6\n")
            [got] = _split_outcomes(path, replace, workers=(workers,))
            assert got.tolist() == [[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]]

    def test_worker_that_exits_gives_the_serial_result(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.csv"
        _write(path, "c1,c2\n" + "".join(f"{i},{-i}\n" for i in range(20)))
        [expected] = _split_outcomes(path, workers=(1,))
        parent, load_body = os.getpid(), core._load_body

        def exit_in_worker(source, skiprows, n_cols):
            if os.getpid() != parent:
                os._exit(1)
            return load_body(source, skiprows, n_cols)

        monkeypatch.setattr(core, "_load_body", exit_in_worker)
        fds = _open_fds()
        [got] = _split_outcomes(path, workers=(2,))
        _assert_same(got, expected)
        _assert_nothing_left(fds)

    @pytest.mark.parametrize(
        "header, last",
        [("c1,c2", ""), ('"c1",c2', ""), ("c1,c2", '"3",4\n')],
        ids=["split", "parent-part-not-plain", "worker-part-not-plain"],
    )
    def test_no_descriptor_or_worker_left_behind(self, tmp_path, header, last):
        path = tmp_path / "pool.csv"
        _write(path, header + "\n" + "1,2\n" * 50 + last)
        fds = _open_fds()
        [got] = _split_outcomes(path, workers=(2,))
        assert got.shape == (50 + bool(last), 2)
        _assert_nothing_left(fds)


#: A small pool file: 24 rows of two features, about 14 bytes a row.
SHAPE_ROWS = [f"{i}.25,{-i}.5" for i in range(24)]


def _pool_text(rows=SHAPE_ROWS, end="\n", final=True):
    return end.join(["x1,x2", *rows]) + (end if final else "")


def _with(k, row):
    rows = list(SHAPE_ROWS)
    rows[k] = row
    return _pool_text(rows)


SHAPE_INPUTS = {
    "lf": _pool_text(),
    "crlf": _pool_text(end="\r\n"),
    "cr": _pool_text(end="\r"),
    "blank-lines": _pool_text(SHAPE_ROWS[:5] + ["", ""] + SHAPE_ROWS[5:] + [""]),
    "no-final-newline": _pool_text(final=False),
    "quoted": _with(17, '"17.25",-17.5'),
    "non-ascii": _with(20, "١٢,3"),
    "header-only": "x1,x2\n",
    "non-finite": _with(13, "nan,1"),
    "non-finite-then-bad-cell": _with(3, "inf,1").replace("21.25,-21.5", "21.25,oops"),
    "wide-row": _with(19, "1,2,3"),
    **{f"bad-cell-row-{k}": _with(k, f"{k},oops") for k in range(0, 24, 3)},
}


def _shape(path, workers, features):
    def read():
        pool = read_unlabeled_csv(str(path), workers=workers, features=features)
        return pool.m, pool.dim

    return _outcome(read)


@pytest.mark.skipif(not core._CAN_FORK, reason="forked workers need Linux")
class TestShapeOnlyReader:
    """``read_unlabeled_csv(features=False)`` parses every row in parts of at
    most ``_PART_BYTES`` (here 40 bytes, three rows or so) and keeps only
    the shape: the same ``m`` and ``dim``, or the same error, as the matrix."""

    @pytest.fixture(autouse=True)
    def small_parts(self, monkeypatch):
        monkeypatch.setattr(core, "_PART_BYTES", 40)
        monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", 1)

    @pytest.mark.parametrize("name", SHAPE_INPUTS)
    @pytest.mark.parametrize("workers", [1, 2, 0])
    def test_same_shape_or_error_as_the_matrix(self, tmp_path, name, workers):
        path = tmp_path / "pool.csv"
        _write(path, SHAPE_INPUTS[name])
        want = _shape(path, 1, True)
        assert _shape(path, workers, False) == want
        if name in ("lf", "crlf", "cr", "no-final-newline", "quoted", "non-ascii"):
            assert want == (24, 2)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("name", ["lf", "quoted", "non-finite", "bad-cell-row-21"])
    def test_named_pipe(self, tmp_path, name):
        path = tmp_path / "pool.csv"
        _write(path, SHAPE_INPUTS[name])
        pipe = tmp_path / "pool.pipe"
        os.mkfifo(pipe)
        got = _through_pipe(pipe, SHAPE_INPUTS[name], lambda: read_unlabeled_csv(
            str(pipe), workers=2, features=False).xs.shape)
        want = _shape(path, 1, True)
        if isinstance(want, tuple) and isinstance(want[0], type):
            want = (want[0], want[1].replace(str(path), str(pipe)))
        assert got == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plain_file_is_parsed_in_bounded_parts(self, tmp_path, monkeypatch, workers):
        path = tmp_path / "pool.csv"
        _write(path, SHAPE_INPUTS["crlf"])
        parts, bodies = [], []
        load_part, load_body = core._load_part, core._load_body

        def part_spy(fd, start, stop, skiprows, n_cols):
            mat = load_part(fd, start, stop, skiprows, n_cols)
            parts.append((stop - start, mat.shape[0]))
            return mat

        def body_spy(*args):
            bodies.append(args)
            return load_body(*args)

        monkeypatch.setattr(core, "_load_part", part_spy)
        monkeypatch.setattr(core, "_load_body", body_spy)
        monkeypatch.setattr(core, "_read_rows", _refuse)
        pool = read_unlabeled_csv(str(path), workers=workers, features=False)
        assert (pool.m, pool.dim) == (24, 2)
        assert pool.xs.strides == (0, 0) and not pool.xs.flags.writeable and not pool.xs.any()
        # this process parsed its own parts, each at most a line past _PART_BYTES,
        # and never the whole body: all of them with one worker, the first run with two
        sizes, rows = zip(*parts)
        assert len(bodies) == len(parts) and max(sizes) <= 40 + len("23.25,-23.5\r\n")
        assert sum(rows) == 24 if workers == 1 else 0 < sum(rows) < 24
        assert len(parts) >= 8 // workers
