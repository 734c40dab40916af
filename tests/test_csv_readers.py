"""The record CSV format: the vectorized reader against the row reader that
defines the format, and the chunked writer against row-by-row csv.writer."""

import csv
import io
import itertools
import os
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairsim import AuditDataset, PopulationModel, densities, sample, solve_equalized_odds
from fairsim.densities import (
    _WRITE_CHUNK as WRITE_CHUNK,
    _is_plain_label,
    _read_columns,
    _read_rows,
    _score_cells,
    _shortest_digits,
    group_index,
)
from _helpers import judge_population

HEADER = "group,score,outcome,decision"

# Two 40-byte labels that share their first and last 16 bytes, which the
# fast reader's label key holds, and differ only in the middle.
TWINS = ["p" * 16 + "middle-a" + "q" * 16, "p" * 16 + "middle-b" + "q" * 16]
# Cells both readers accept, and cells that the vectorized reader leaves to
# the row reader (padding, control characters, over-long cells, quoting
# other than csv.writer's) or that neither accepts. A label that csv.writer
# would quote, such as '"a"b', is odd too when written bare.
LABELS = ["a", "b", "White", "a,b", 'x"y', '""', "#c", "# c", "\u00e9", "\u65e5\u672c", '"a"b', *TWINS]
ODD_LABELS = [
    "a\nb", "a\r\nb", "a\rb", " a", "a ", "\ta", "", "a\u2003", "a\x1c", "\x0cb", "q" * 45,
    "a\x00", "\x00", "a\x01b", "a\x7fb", '"x,0.5,1,0\ny"',
]
SCORES = [
    "0", "1", "0.5", "0.25", "1.0", "-0.0", "0.1234567890123456789", "1e-3", "+.5", " 0.5", "0.5 ", "\t0.5",
    "5E-05", "00.5", ".5", "1.", repr(0.1 + 0.2),
]
ODD_SCORES = [
    "0.5\u2003", "nan", "inf", "-0.1", "1.5", "1e5", "abc", "", "1_0", "\uff10.5", "0x1p-1",
    "0.5\x00", "0.5,", '"', "0" * 45, "0.5\n", "0\n" * 25, "0\r" * 25,
]
OUTCOMES = ["0", "1"]
ODD_OUTCOMES = [" 1", "0 ", "2", "", "01", "1.0", "x"]
DECISIONS = ["", "0", "1"]
ODD_DECISIONS = [" 0", "1 ", "2", "x", "-1", "#"]
ODD_HEADERS = [" group,score ,outcome,decision", "group,score,label,decision", '"group\n",score,outcome,decision', ""]
ODD_CELLS = [ODD_LABELS, ODD_SCORES, ODD_OUTCOMES, ODD_DECISIONS]


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _cell(draw, text: str) -> str:
    """One cell as file text, bare or quoted."""
    return _quoted(text) if draw(st.booleans()) else text


@st.composite
def csv_texts(draw) -> str:
    """CSV text; in a noisy file about one cell or line in five is odd."""
    noisy = draw(st.booleans())

    def pick(usual, odd):
        if noisy and draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(odd))
        return draw(st.sampled_from(usual))

    lines = [pick([HEADER], ODD_HEADERS)]
    for _ in range(draw(st.integers(0, 8))):
        kind = pick(["record"] * 4 + ["blank"], ["spaces", "short", "long"])
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        else:
            cells = [
                pick(LABELS, ODD_LABELS),
                pick(SCORES, ODD_SCORES),
                pick(OUTCOMES, ODD_OUTCOMES),
                pick(DECISIONS, ODD_DECISIONS),
            ]
            if kind == "short":
                cells.pop()
            elif kind == "long":
                cells.append("0")
            lines.append(",".join(_cell(draw, c) for c in cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@contextmanager
def _field_size_limit(limit):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.labels == want.labels
    assert np.array_equal(got.codes, want.codes)
    assert got.score.tobytes() == want.score.tobytes()
    assert np.array_equal(got.outcome, want.outcome)
    assert np.array_equal(got.decision, want.decision)


def _check_readers_agree(text: str, limit=None) -> None:
    with tempfile.TemporaryDirectory() as tmp, _field_size_limit(limit):
        path = Path(tmp) / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(_read_rows, path)
        fast = _read_columns(path)
        if fast is not None:
            _assert_same(fast, want)
        _assert_same(_outcome(AuditDataset.from_csv, path), want)


# A field-size limit of 40 makes over-long cells cheap to generate.
@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), limit=st.sampled_from([None, 40]))
def test_vectorized_reader_matches_row_reader(text, limit):
    _check_readers_agree(text, limit)


@pytest.mark.parametrize("limit", [None, 40])
def test_vectorized_reader_matches_row_reader_on_each_odd_cell(limit):
    usual = ["a", "0.5", "1", "1"]
    for column, tokens in enumerate(ODD_CELLS):
        for token in tokens:
            for quoted in (False, True):
                cells = usual.copy()
                cells[column] = _quoted(token) if quoted else token
                _check_readers_agree(f"{HEADER}\na,0.5,1,1\n{','.join(cells)}\nb,0.25,0,\n", limit)
    for header in ODD_HEADERS:
        _check_readers_agree(f"{header}\na,0.5,1,1\nb,0.25,0,\n", limit)
    for line in ["  ", "a,0.5,1", "a,0.5,1,1,0", "\x0c"]:
        _check_readers_agree(f"{HEADER}\na,0.5,1,1\n{line}\nb,0.25,0,\n", limit)


def test_vectorized_reader_reads_well_formed_files(tmp_path):
    path = tmp_path / "records.csv"
    # With or without a byte-order mark, and with or without blank lines
    # after a quoted-comma label's records.
    for mark, tail in itertools.product(["", "\ufeff"], ["", "\n\n\r\n"]):
        path.write_text(f'{mark}{HEADER}\n"a,b",0.5,1,1\r\nb,0.25,0,\n\nb,1,1,0\n{tail}', encoding="utf-8")
        data = _read_columns(path)
        assert data is not None
        assert data.labels == ("a,b", "b")
        assert data.codes.dtype == np.int32
        assert list(data.codes) == [0, 1, 1]
        assert list(data.decision) == [1, -1, 0]


@pytest.mark.parametrize("text", [HEADER, f"{HEADER}\n", f"\ufeff{HEADER}\r\n\n\r\n\r\r"])
def test_a_file_without_records_fails_with_no_warning(tmp_path, text):
    # Warnings are errors under pytest, so a warning would fail this test.
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    assert _read_columns(path) is None
    with pytest.raises(ValueError, match="^CSV contains no data rows$"):
        AuditDataset.from_csv(path)


@pytest.mark.parametrize("source", ["", "\ufeff", None])
def test_an_empty_file_is_named_empty(tmp_path, source):
    path = os.devnull
    if source is not None:
        path = tmp_path / "empty.csv"
        path.write_text(source, encoding="utf-8")
    with pytest.raises(ValueError, match="^file is empty; expected header 'group,score,outcome,decision'$"):
        AuditDataset.from_csv(path)


def _csv_writer_rendering(data: AuditDataset) -> bytes:
    """The row-by-row csv.writer rendering that to_csv must reproduce."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("group", "score", "outcome", "decision"))
    for i in range(len(data)):
        d = "" if data.decision[i] == -1 else str(int(data.decision[i]))
        writer.writerow((data.group[i], repr(float(data.score[i])), int(data.outcome[i]), d))
    return buf.getvalue().encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(LABELS + ODD_LABELS),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
            ).filter(_is_plain_label),
            st.floats(0.0, 1.0),
            st.integers(0, 1),
            st.integers(-1, 1),
        ),
        min_size=1,
        max_size=20,
    ),
    with_decisions=st.booleans(),
    chunk=st.one_of(st.integers(1, 8), st.just(WRITE_CHUNK)),
)
def test_to_csv_matches_csv_writer(records, with_decisions, chunk):
    # Small chunks make most datasets span several, the last one partial.
    group, score, outcome, decision = zip(*records)
    data = AuditDataset(
        group=list(group),
        score=np.array(score),
        outcome=np.array(outcome),
        decision=np.array(decision) if with_decisions else None,
    )
    with tempfile.TemporaryDirectory() as tmp, mock.patch("fairsim.densities._WRITE_CHUNK", chunk):
        path = Path(tmp) / "records.csv"
        data.to_csv(path)
        assert path.read_bytes() == _csv_writer_rendering(data)


def test_sampled_records_without_decisions_match_csv_writer_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr("fairsim.densities._WRITE_CHUNK", 7)
    pop = judge_population(64)
    records = sample(pop, 5_000, seed=3, rule=solve_equalized_odds(pop, "men", 0.5))
    data = AuditDataset(group=records.group, score=records.score, outcome=records.outcome)
    path = tmp_path / "records.csv"
    data.to_csv(path)
    assert path.read_bytes() == _csv_writer_rendering(data)


# Every odd label but the over-long one, which is odd only under a small
# field-size limit, a lone surrogate, which UTF-8 cannot encode, and labels
# that are not strings.
@pytest.mark.parametrize(
    "label", [label for label in ODD_LABELS if label != "q" * 45] + ["a\ud800", None, 1, b"a"]
)
def test_constructor_rejects_a_label_that_a_file_cannot_give_back(label):
    with pytest.raises(ValueError, match="^group label"):
        AuditDataset(group=[label, "c"], score=[0.1, 0.2], outcome=[0, 1])


# U+2028 and U+2029 are not control characters, but ``str.splitlines``
# breaks a report line on them as on a line break.
SEPARATOR_LABELS = ["x\u2028separation.holds = true\u2028y", "a\u2029b"]


@pytest.mark.parametrize("label", SEPARATOR_LABELS, ids=["line-separator", "paragraph-separator"])
def test_a_label_that_holds_a_line_separator_is_refused_on_every_path(tmp_path, label):
    """The constructor refuses the label; in a file that ``csv.writer``
    wrote, the tokenizer leaves its cell to the row reader, which names its row."""
    with pytest.raises(ValueError, match="^group label"):
        AuditDataset(group=[label, "c"], score=[0.1, 0.2], outcome=[0, 1])
    path = tmp_path / "records.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADER.split(","), ("c", 0.9, 1, 1), (label, 0.1, 0, 0)])
    assert densities._cell_label(label.encode()) is None
    assert _read_columns(path) is None
    want = f"ValueError: row 3: group label {label!r} holds a control character"
    assert _outcome(_read_rows, path) == _outcome(AuditDataset.from_csv, path) == want


@settings(max_examples=200, deadline=None)
@given(
    group=st.lists(
        st.one_of(
            st.sampled_from(LABELS + ODD_LABELS),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_every_accepted_dataset_reads_back_with_its_labels_and_codes(group):
    try:
        data = AuditDataset(group=group, score=np.full(len(group), 0.5), outcome=np.zeros(len(group)))
    except ValueError:
        assert not all(map(_is_plain_label, group))
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        data.to_csv(path)
        back = AuditDataset.from_csv(path)
    assert back.labels == data.labels
    assert np.array_equal(back.codes, data.codes)


def test_to_csv_chunks_keep_record_order(tmp_path, monkeypatch):
    monkeypatch.setattr("fairsim.densities._WRITE_CHUNK", 3)
    data = AuditDataset(
        group=["b", "a,c", "b", 'q"', "a,c", "b", "b"],
        score=np.linspace(0.0, 1.0, 7),
        outcome=np.array([0, 1, 1, 0, 1, 0, 1]),
        decision=np.array([1, -1, 0, 1, 1, -1, 0]),
    )
    path = tmp_path / "records.csv"
    data.to_csv(path)
    assert path.read_bytes() == _csv_writer_rendering(data)


def test_a_long_label_shortens_the_chunk_but_not_the_file(tmp_path, monkeypatch):
    # A 201-byte prefix (100 two-byte characters, a comma) makes a row of 60
    # words, so a chunk of 32 records that holds one shrinks to 8 or fewer:
    # here 13 chunks for 100 records, the last one partial.
    monkeypatch.setattr("fairsim.densities._WRITE_CHUNK", 32)
    rng = np.random.default_rng(4)
    data = AuditDataset(
        group=rng.choice(["a", "\u00e9" * 100, 'q"'], 100),
        score=rng.random(100),
        outcome=rng.integers(0, 2, 100),
        decision=rng.integers(-1, 2, 100),
    )
    path = tmp_path / "records.csv"
    data.to_csv(path)
    assert path.read_bytes() == _csv_writer_rendering(data)


@pytest.mark.parametrize(
    "at, sizes",
    [
        (0, [1, 7, 7, 7, 7, 7, 4]),
        (6, [6, 1, 7, 7, 7, 7, 5]),
        (7, [7, 1, 7, 7, 7, 7, 4]),
        (39, [7, 7, 7, 7, 7, 4, 1]),
    ],
)
def test_one_label_at_the_field_limit_shortens_only_its_own_chunk(tmp_path, monkeypatch, at, sizes):
    # A 131,072-character label, the csv field-size limit, at record 0, at
    # either side of the first chunk boundary, and last: its chunk holds it
    # alone, the others keep up to 7 records, and the file is csv.writer's.
    monkeypatch.setattr("fairsim.densities._WRITE_CHUNK", 7)
    parts = []
    chunks = densities._write_chunks
    monkeypatch.setattr(densities, "_write_chunks", lambda *args: (parts.append(c[0]) or c for c in chunks(*args)))
    rng = np.random.default_rng(6)
    group = rng.choice(["a", "b,c"], 40).astype(object)
    group[at] = "\u00e9," * 65_536
    data = AuditDataset(
        group=group, score=rng.random(40), outcome=rng.integers(0, 2, 40), decision=rng.integers(-1, 2, 40)
    )
    path = tmp_path / "records.csv"
    data.to_csv(path)
    assert path.read_bytes() == _csv_writer_rendering(data)
    assert [part.stop - part.start for part in parts] == sizes


def test_many_labels_cost_to_csv_no_more_memory_than_two(tmp_path):
    # The label table holds the labels back to back, not each padded to the
    # longest, so among 500 labels one label at the field limit raises the
    # traced peak of to_csv by no more than among 2.
    n = 10_000
    peaks = []
    for count in (2, 500):
        group = np.array([f"g{k % count}" for k in range(n)], dtype=object)
        group[n // 2] = "x" * 131_072
        data = AuditDataset(group=group, score=np.linspace(0, 1, n), outcome=np.arange(n) % 2)
        path = tmp_path / f"records-{count}.csv"
        tracemalloc.start()
        try:
            data.to_csv(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert path.read_bytes() == _csv_writer_rendering(data)
    assert peaks[1] - peaks[0] < 2 * 2**20


def _score_lines(x: np.ndarray) -> bytes:
    """Each score's cell as ``to_csv`` writes it, one to a line."""
    words = np.zeros((len(x), 7), np.uint32)
    keep = np.zeros((len(x), 28), bool)
    _score_cells(x, _shortest_digits(x), words[:, :6], keep[:, :24])
    words.view(np.uint8)[:, 24] = ord("\n")
    keep[:, 24] = True
    return words.view(np.uint8)[keep].tobytes()


def _edge_scores() -> np.ndarray:
    """Both zeros, 1.0, the least subnormal, 1e-1 to 1e-5 and their neighbours,
    and every power of two in [0, 1]."""
    tens = [float(f"1e-{k}") for k in range(1, 6)]
    near = [np.nextafter(t, toward) for t in tens for toward in (0.0, 1.0)]
    return np.array([0.0, -0.0, 1.0, 5e-324, *tens, *near, *(2.0**-j for j in range(1075))])


def _oracle_scores(name: str) -> np.ndarray:
    rng = np.random.default_rng(30)
    if name == "bit patterns":
        return rng.integers(0, np.float64(1.0).view(np.int64), 1_000_000, endpoint=True).view(np.float64)
    if name == "bit patterns from 1e-4":
        return rng.integers(np.float64(1e-4).view(np.int64), np.float64(1.0).view(np.int64), 200_000).view(np.float64)
    if name == "sampled":
        return sample(judge_population(1024), 1_000_000, seed=5).score
    if name == "short decimals":
        return np.concatenate([np.round(rng.random(10_000), d) for d in range(1, 16)])
    if name == "dyadics":  # every m / 2**j for j <= 14, then odd m drawn for j <= 30 (ties for nearest)
        drawn = [(2 * rng.integers(0, 2 ** (j - 1), 5_000) + 1) / 2**j for j in range(15, 31)]
        return np.concatenate([np.arange(1, 2**j) / 2**j for j in range(1, 15)] + drawn)
    if name == "repr lengths":  # per decade of [1e-4, 1): doubles, then decimals of 1 to 14 digits
        parts = []
        for decade in range(-4, 0):
            x = (1 + 9 * rng.random(20_000)) * 10.0**decade
            places = rng.integers(0, 14, 5_000).tolist()
            parts += [x, np.array([float(f"{v:.{p}e}") for p, v in zip(places, x.tolist())])]
        x = np.concatenate(parts)
        return x[(x >= 1e-4) & (x < 1.0)]
    assert name == "edges"
    return _edge_scores()


#: The least share of each set's scores that the kernel certifies, so that
#: its own digits, not ``repr``, are what the oracle checks.
CERTIFIED_SHARE = {"bit patterns from 1e-4": 0.98, "sampled": 0.99}


@pytest.mark.parametrize(
    "name", ["bit patterns", "bit patterns from 1e-4", "sampled", "short decimals", "dyadics", "edges"]
)
def test_score_kernel_writes_the_bytes_of_repr(name):
    """Every score the kernel certifies, and the first 1e5 of all (the rest
    only repeat ``repr`` against itself), come out as ``repr``'s bytes."""
    x = _oracle_scores(name)
    certified = _shortest_digits(x)[2]
    assert certified.mean() >= CERTIFIED_SHARE.get(name, 0.0)
    for scores in (x[certified], x[:100_000]):
        got = _score_lines(scores)
        if got != "".join(f"{v!r}\n" for v in scores.tolist()).encode():
            row, cell = next((i, a) for i, a in enumerate(got.splitlines()) if a != repr(scores[i]).encode())
            pytest.fail(f"score {scores[row]!r} ({float(scores[row]).hex()}) written as {cell!r}")


def test_score_kernel_takes_each_branch_and_leaves_short_scores_to_repr():
    """Scores of every decade in [1e-4, 1) whose ``repr`` has 17, 16 or 15
    significant digits take each branch of the kernel's search (17 where 16
    fails, 15 where 16 passes, 14 where 15 passes) and are certified; one
    of 14 digits or fewer, which fewer digits might write, is left to
    ``repr``. Every score comes out as ``repr``'s bytes."""
    x = _oracle_scores("repr lengths")
    texts = [repr(v) for v in x.tolist()]
    digits = np.array([len(text[2:].lstrip("0")) for text in texts])
    decade = np.floor(np.log10(x))
    certified = _shortest_digits(x)[2]
    for e in range(-4, 0):
        for n in (17, 16, 15):
            chosen = (decade == e) & (digits == n)
            assert chosen.sum() >= 1_000 and certified[chosen].all(), (e, n)
        assert (decade == e)[digits <= 14].sum() >= 1_000, e
    assert not certified[digits <= 14].any()
    assert _score_lines(x) == "".join(f"{text}\n" for text in texts).encode()


def test_to_csv_round_trips_sampled_and_edge_records_bit_for_bit(tmp_path):
    pop = judge_population(1024)
    drawn = sample(pop, 100_000, seed=8, rule=solve_equalized_odds(pop, "men", 0.5))
    edges = _edge_scores()
    rng = np.random.default_rng(8)
    data = AuditDataset(
        group=np.concatenate([drawn.group, rng.choice(["men", "women", "other"], len(edges))]),
        score=np.concatenate([drawn.score, edges]),
        outcome=np.concatenate([drawn.outcome, rng.integers(0, 2, len(edges))]),
        decision=np.concatenate([drawn.decision, rng.integers(-1, 2, len(edges))]),
    )
    assert len(data) % WRITE_CHUNK and len(data) > WRITE_CHUNK  # the last chunk is partial
    path = tmp_path / "records.csv"
    data.to_csv(path)
    back = AuditDataset.from_csv(path)
    assert back.labels == data.labels
    assert np.array_equal(back.score.view(np.int64), data.score.view(np.int64))
    for column in ("outcome", "decision", "codes"):
        assert np.array_equal(getattr(back, column), getattr(data, column)), column


def test_reader_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"{HEADER}\na,0.5,1,1\nb,0.25,0,0\n".encode())
    data = AuditDataset.from_csv(path)
    assert data.labels == ("a", "b")
    assert list(data.score) == [0.5, 0.25]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reader_reads_a_pipe_in_one_pass(tmp_path):
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    result = []

    def write():
        with open(fifo, "w") as fh:
            fh.write(f"{HEADER}\na,0.5,1,1\nb,0.25,0,0\n")

    def read():
        result.append(AuditDataset.from_csv(fifo))

    threads = [threading.Thread(target=write, daemon=True), threading.Thread(target=read, daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert result and result[0].labels == ("a", "b")


def test_row_reader_names_the_row_of_an_oversized_field(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(f"{HEADER}\na,0.5,1,1\n{'x' * (csv.field_size_limit() + 1)},0.5,1,1\n")
    with pytest.raises(ValueError, match=r"^row 3: field larger than field limit"):
        AuditDataset.from_csv(path)


@pytest.mark.parametrize("lines, bad_row", [(4, 1), (4, 3), (20_001, 15_001)])
def test_reader_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, lines, bad_row):
    # Row 15,001 lies past the first chunk that a text decoder reads.
    rows = [HEADER.encode()] + [b"a,0.5,1,1", b"b,0.25,0,0"] * (lines // 2)
    rows[bad_row - 1] = b"a\xff,0.5,1,1"
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join(rows[:lines]) + b"\n")
    assert _read_columns(path) is None
    with pytest.raises(ValueError, match=rf"^row {bad_row}: a cell holds bytes that are not UTF-8$"):
        AuditDataset.from_csv(path)


def test_readers_agree_on_a_score_cell_spread_over_lines(tmp_path):
    # Each line is short, but the quoted cell is over the csv field limit.
    path = tmp_path / "spread.csv"
    path.write_text(f'{HEADER}\na,"' + "\n" * 140_000 + '0.5",1,1\nb,0.25,0,0\n')
    assert _read_columns(path) is None
    with pytest.raises(ValueError, match=r"^row 2: field larger than field limit \(131072\)"):
        AuditDataset.from_csv(path)
    # The same cell followed by records ended by a lone CR, with a line feed
    # only every 5,000 records, so that line feeds alone undercount the lines.
    records = "\r".join(f"b,0.25,0,0{chr(10) if k % 5000 == 0 else ''}" for k in range(200_000))
    path.write_bytes(f'{HEADER}\na,"'.encode() + b"\n" * 140_000 + f'0.5",1,1\r{records}\r'.encode())
    assert _read_columns(path) is None
    with pytest.raises(ValueError, match=r"^row 2: field larger than field limit \(131072\)"):
        AuditDataset.from_csv(path)
    # Under the limit the row reader takes the cell: the fast reader leaves
    # every record spread over lines to it, and the readers agree.
    for ends in ("\n", "\r\n", "\r"):
        text = f'{HEADER}\na,"{ends}0.5{ends}",1,1{ends}b,0.25,0,0'
        path.write_bytes(text.encode())
        assert _read_columns(path) is None
        assert list(AuditDataset.from_csv(path).score) == [0.5, 0.25]
        _check_readers_agree(text)
        _check_readers_agree(text, limit=40)
    # Blank lines stay on the fast path, and the readers agree on them.
    blank = f"{HEADER}\n\na,0.5,1,1\n\r\n\nb,0.25,0,0\n"
    _check_readers_agree(blank)
    _check_readers_agree(blank, limit=40)


def test_blank_lines_need_no_second_csv_pass(tmp_path):
    # Blank lines are not records, so they keep a file on the fast path.
    path = tmp_path / "blank.csv"
    for text in (f"{HEADER}\n\na,0.5,1,1\n\r\n\nb,0.25,0,0\n\n", f"{HEADER}\r\ra,0.5,1,1\r\r\n\rb,0.25,0,0\r"):
        path.write_bytes(text.encode())
        data = _read_columns(path)
        assert data is not None and data.labels == ("a", "b")
        _assert_same(data, _read_rows(path))


def test_group_codes_are_integers_and_labels_first_seen():
    data = AuditDataset(group=["w", "m", "w", "x"], score=np.full(4, 0.5), outcome=np.array([0, 1, 1, 0]))
    assert data.labels == ("w", "m", "x")
    assert data.codes.dtype == np.int32
    assert list(data.codes) == [0, 1, 0, 2]
    assert list(data.group) == ["w", "m", "w", "x"]
    assert list(data.codes == group_index(data.labels, "w")) == [True, False, True, False]
    with pytest.raises(KeyError, match="known groups"):
        group_index(data.labels, "z")


def test_a_label_longer_than_the_field_limit_is_refused(tmp_path):
    # The csv field limit applies to the unquoted cell, so a label of the
    # limit's length reads back even when quoting doubles its quotes.
    limit = csv.field_size_limit()
    path = tmp_path / "records.csv"
    for label in ("q" * limit, 'q"' * (limit // 2)):
        data = AuditDataset(group=[label, "b"], score=[0.1, 0.2], outcome=[0, 1])
        data.to_csv(path)
        assert AuditDataset.from_csv(path).labels == (label, "b")
    too_long = "q" * (limit + 1)
    with pytest.raises(ValueError, match=rf"^group label of {limit + 1} characters exceeds the csv field limit"):
        AuditDataset(group=[too_long, "b"], score=[0.1, 0.2], outcome=[0, 1])
    pop = judge_population(64)
    pop = PopulationModel(groups={too_long: pop.group("men"), "b": pop.group("women")})
    with pytest.raises(ValueError, match="^group label of"):
        sample(pop, 100, seed=1)


def test_labels_over_32_bytes_and_with_quotes_read_back_through_the_fast_path(tmp_path):
    # TWINS share the 32 bytes of the fast reader's label key, so only the
    # middle bytes, which it hashes and compares too, keep them apart.
    group = [TWINS[0], 'a""b', TWINS[1], '"a"b', "a,b", TWINS[0], "x" * 33, TWINS[1]]
    data = AuditDataset(group=group, score=np.linspace(0, 1, len(group)), outcome=np.arange(len(group)) % 2)
    path = tmp_path / "records.csv"
    data.to_csv(path)
    fast = _read_columns(path)
    assert fast is not None
    _assert_same(fast, _read_rows(path))
    _assert_same(fast, data)
    assert fast.labels == (TWINS[0], 'a""b', TWINS[1], '"a"b', "a,b", "x" * 33)


@pytest.mark.parametrize(
    "lines, want",
    [
        # '"x' opens a quoted cell that csv continues on the next line.
        (['"x,0.5,1,0', 'y",0.5,1,0'], "ValueError: row 2: group label 'x,0.5,1,0\\ny' holds a control character"),
        (['"a"b,0.5,1,0', "a,0.5,0,1"], ("ab", "a")),  # csv reads '"a"b' as 'ab'
        (['"a",0.5,1,0', "a,0.5,0,1"], ("a",)),  # csv.writer would not quote 'a'
    ],
)
def test_quoting_other_than_csv_writers_goes_to_the_row_reader(tmp_path, lines, want):
    path = tmp_path / "records.csv"
    path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    assert _read_columns(path) is None
    got = _outcome(AuditDataset.from_csv, path)
    assert got == want if isinstance(want, str) else got.labels == want


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    offset=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)),
)
def test_scores_are_correctly_rounded(x, offset):
    """Each score reads as ``float`` reads its text, bit for bit: for x, and
    for a decimal within 1e-9 of a gap of the midpoint between x and the
    double below it, each written as ``repr``, to 17, 19 and 20 places; the
    last is not of the kernel's form ``0.`` plus 1-19 digits."""
    below = float(np.nextafter(x, -1.0)) if x > 0 else x
    mid = (Decimal(x) + Decimal(below)) / 2 + (Decimal(x) - Decimal(below)) * Decimal(offset)
    texts = [repr(x)] + [format(value, form) for value in (Decimal(x), mid) for form in (".17f", ".19f", ".20f")]
    body = "".join(f"a,{text},1,0\n" for text in texts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_text(f"{HEADER}\n{body}", encoding="utf-8")
        data = _read_columns(path)
    assert data is not None
    want = np.array([float(text) for text in texts])
    assert data.score.tobytes() == want.tobytes(), texts


def test_score_kernel_reads_scores_as_float_does():
    # Random doubles, in [0, 1) and toward 0, to each count of 1-19 places,
    # and the midpoints between 2,000 of them and the next double, to 19.
    rng = np.random.default_rng(34)
    x = rng.random(4_000) * 10.0 ** -rng.integers(0, 4, 4_000)
    texts = [f"{v:.{k}f}" for v in x.tolist() for k in range(1, 20)]
    texts += [format((Decimal(v) + Decimal(float(np.nextafter(v, 1.0)))) / 2, ".19f") for v in x[:2_000].tolist()]
    texts = [text for text in texts if text.startswith("0.")]
    digits = np.array([int(text[2:]) for text in texts], np.uint64)
    got, certified = densities._decimal_scores(digits, np.array([len(text) - 2 for text in texts]))
    want = np.array([float(text) for text in texts])
    assert certified.mean() > 0.99
    assert got[certified].tobytes() == want[certified].tobytes()


def _records_across_blocks() -> bytes:
    """Records in which new labels first appear deep into the file, with
    every line ending, blank lines, and a last line without a line break."""
    rng = np.random.default_rng(11)
    labels = np.array(["a", "b,c", 'q"', "é" * 20, *TWINS])
    first = np.array([0, 3, 40, 41, 200, 333])  # the record at which each label starts
    codes = rng.integers(0, len(labels), 400)
    codes = np.minimum(codes, np.searchsorted(first, np.arange(400), side="right") - 1)
    codes[first] = np.arange(len(labels))
    ends = rng.choice(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"], 400)
    cells = [densities._csv_line((label, ""))[:-2] for label in labels]
    decisions = ["" if k % 3 else str(rng.integers(2)) for k in range(400)]
    lines = [f"{cells[c]},{rng.random()!r},{rng.integers(2)},{d}" for c, d in zip(codes, decisions)]
    return (HEADER + "\r\n" + "".join(line + end for line, end in zip(lines, ends))).rstrip("\r\n").encode()


@pytest.mark.parametrize("block", [1, 3, 7 * 30, 1 << 19])
def test_blocks_give_the_same_records_with_labels_first_seen(tmp_path, block):
    # A block of a few bytes grows to its line's end; 7 lines of about 30
    # bytes split the records anywhere, a CR LF pair too; 512 KiB, larger
    # than the file as is the default block, reads it in one block.
    path = tmp_path / "records.csv"
    path.write_bytes(_records_across_blocks())
    want = _read_rows(path)
    with mock.patch("fairsim.densities._READ_BLOCK", block):
        got = _read_columns(path)
    assert got is not None
    _assert_same(got, want)
    assert got.labels == ("a", "b,c", 'q"', "é" * 20, *TWINS)


@settings(max_examples=200, deadline=None)
@given(text=csv_texts(), limit=st.sampled_from([None, 40]), block=st.integers(1, 64))
def test_small_blocks_match_the_row_reader(text, limit, block):
    with mock.patch("fairsim.densities._READ_BLOCK", block):
        _check_readers_agree(text, limit)


def test_a_line_longer_than_any_record_goes_to_the_row_reader(tmp_path):
    # Under a field limit of 40 no record line passes 5 * 40 + 8 bytes, so a
    # block stops growing there and the row reader names the row.
    path = tmp_path / "records.csv"
    path.write_text(f"{HEADER}\na,0.5,1,1\n{'x' * 300},0.5,1,1\n", encoding="utf-8")
    with _field_size_limit(40), mock.patch("fairsim.densities._READ_BLOCK", 16):
        assert _read_columns(path) is None
        with pytest.raises(ValueError, match=r"^row 3: field larger than field limit \(40\)"):
            AuditDataset.from_csv(path)


def _finish_order(monkeypatch, text: bytes) -> list[int]:
    """Patch ``_block_records`` so that the helper's first block sleeps, and
    return the list that gets each block's offset in ``text`` as it ends."""
    caller, parse = threading.get_ident(), densities._block_records
    finished, slept = [], []

    def slow(buf, *args):
        if threading.get_ident() != caller and not slept:
            slept.append(True)
            time.sleep(0.2)
        part = parse(buf, *args)
        finished.append(text.index(buf[densities._PAD : -densities._PAD].tobytes()))
        return part

    monkeypatch.setattr(densities, "_block_records", slow)
    return finished


@pytest.mark.parametrize("block", [7 * 30, 1000])
def test_labels_are_learned_in_file_order_on_the_calling_thread(tmp_path, monkeypatch, block):
    # Labels first seen deep into the file, while the helper's first block
    # ends after a later one, still give the row reader's labels and codes:
    # each block's labels are coded once, on the calling thread, in file order.
    path = tmp_path / "records.csv"
    text = _records_across_blocks()
    path.write_bytes(text)
    want = _read_rows(path)
    finished = _finish_order(monkeypatch, text)
    calls, codes = [], densities._LabelCodes.codes

    def spy(self, buf, *args):
        calls.append((threading.get_ident(), text.index(buf[densities._PAD : -densities._PAD].tobytes())))
        return codes(self, buf, *args)

    monkeypatch.setattr(densities._LabelCodes, "codes", spy)
    monkeypatch.setattr(densities, "_READ_BLOCK", block)
    got = _read_columns(path)
    assert got is not None
    _assert_same(got, want)
    assert finished != sorted(finished)  # a block ended before an earlier one
    assert {thread for thread, _ in calls} == {threading.get_ident()}
    assert [at for _, at in calls] == sorted(finished)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("final", [True, False], ids=["final-break", "no-final-break"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_blocks_at_the_end_of_the_file_match_the_row_reader(tmp_path, monkeypatch, end, final, delta):
    # The block size is the length of the bytes after the header's line
    # break, one byte less or one byte more, so the first read stops just
    # short of the end of the file, at it or past it. One byte short, a final
    # CR LF pair is split across two blocks. The blocks hold each of those
    # bytes once, and only the last block may end other than at a line break.
    lines = ["a,0.25,1,0", '"b,c",0.5,0,', "a,1.0,0,1"]
    text = (end.join([HEADER, *lines]) + (end if final else "")).encode()
    body = text[len(HEADER) + 1 :]  # from after the header's CR, for CR LF
    path = tmp_path / "records.csv"
    path.write_bytes(text)
    monkeypatch.setattr(densities, "_READ_BLOCK", len(body) + delta)
    blocks, parse = [], densities._block_records

    def spy(buf, *args):
        blocks.append(buf[densities._PAD : -densities._PAD].tobytes())
        return parse(buf, *args)

    monkeypatch.setattr(densities, "_block_records", spy)
    got = _read_columns(path)
    assert got is not None
    _assert_same(got, _read_rows(path))
    assert b"".join(blocks) == body
    assert all(block[-1:] in (b"\n", b"\r") for block in blocks[:-1])
    if end == "\r\n" and final and delta == -1:
        assert blocks[-2:] == [body[:-1], b"\n"]


def test_reads_at_once_with_threads_switching_often_give_the_row_readers_records(tmp_path, monkeypatch):
    # Four reads, each with its helper, on more threads than cores, switching
    # every microsecond: a block taken twice or skipped would show.
    path = tmp_path / "records.csv"
    path.write_bytes(_records_across_blocks())
    want = _read_rows(path)
    monkeypatch.setattr(densities, "_READ_BLOCK", 7 * 30)
    results = []
    threads = [threading.Thread(target=lambda: results.append(_read_columns(path))) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    for got in results:
        _assert_same(got, want)


class _HelperFailed(Exception):
    pass


@pytest.mark.parametrize("case", ["caller refuses", "helper refuses", "helper raises"])
def test_a_failed_block_ends_as_the_serial_reader_did(tmp_path, monkeypatch, case):
    # The calling thread parses the first block while the helper parses the
    # second; either one refuses a bad line, or the helper raises. The bad
    # line leaves the file to the row reader, which names its row.
    records = ["a,0.5,1,1"] * 20
    records[2 if case == "caller refuses" else 8] = "a,0.5,1,2"
    path = tmp_path / "records.csv"
    path.write_text("\n".join([HEADER, *records]) + "\n", encoding="utf-8")
    caller, parse, help_ = threading.get_ident(), densities._block_records, densities._InOrder._help
    started = {True: threading.Event(), False: threading.Event()}  # by "on the calling thread"
    raised = _HelperFailed("helper failed")

    def help(self):
        started[True].wait(5)  # so the calling thread takes the first block
        help_(self)

    def block_records(*args):
        ours = threading.get_ident() == caller
        first = not started[ours].is_set()
        started[ours].set()
        if first and not started[not ours].wait(5):
            raise AssertionError("the other thread parsed no block")
        if first and not ours:
            time.sleep(0.05)  # still parsing when the calling thread's block is refused
            if case == "helper raises":
                raise raised
        return parse(*args)

    monkeypatch.setattr(densities._InOrder, "_help", help)
    monkeypatch.setattr(densities, "_block_records", block_records)
    monkeypatch.setattr(densities, "_READ_BLOCK", 64)  # six records a block
    threads = threading.active_count()
    if case == "helper raises":
        with pytest.raises(_HelperFailed) as info:
            AuditDataset.from_csv(path)
        assert info.value is raised
    else:
        row = 4 if case == "caller refuses" else 10
        with pytest.raises(ValueError, match=rf"^row {row}: decision '2' must be empty, 0, or 1$"):
            AuditDataset.from_csv(path)
    assert threading.active_count() == threads


def _mixed_records(n: int) -> AuditDataset:
    """n records over labels that csv.writer quotes or that take two-byte
    characters, with scores across several decades and every decision."""
    rng = np.random.default_rng(8)
    return AuditDataset(
        group=rng.choice(["a", "b,c", 'q"', "\u00e9" * 20], n),
        score=rng.random(n) ** 4,
        outcome=rng.integers(0, 2, n),
        decision=rng.integers(-1, 2, n),
    )


def test_tiles_that_end_out_of_order_are_written_in_record_order(tmp_path, monkeypatch):
    # The helper's first tile sleeps, so the calling thread ends a later
    # tile first; the file is still csv.writer's.
    data = _mixed_records(2_000)
    monkeypatch.setattr(densities, "_WRITE_CHUNK", 7)
    caller, tile_bytes = threading.get_ident(), AuditDataset._tile_bytes
    finished, slept = [], []

    def slow(self, *args):
        if threading.get_ident() != caller and not slept:
            slept.append(True)
            time.sleep(0.2)
        out = tile_bytes(self, *args)
        finished.append(args[-1][0].start)
        return out

    monkeypatch.setattr(AuditDataset, "_tile_bytes", slow)
    path = tmp_path / "records.csv"
    data.to_csv(path)
    assert path.read_bytes() == _csv_writer_rendering(data)
    assert slept and finished != sorted(finished)  # a tile ended before an earlier one


def test_writes_at_once_with_threads_switching_often_give_csv_writers_bytes(tmp_path, monkeypatch):
    # Four writes, each with its helper, on more threads than cores,
    # switching every microsecond: a tile taken twice, skipped or written
    # out of order would show.
    data = _mixed_records(2_000)
    want = _csv_writer_rendering(data)
    monkeypatch.setattr(densities, "_WRITE_CHUNK", 7)
    paths = [tmp_path / f"records-{k}.csv" for k in range(4)]
    threads = [threading.Thread(target=data.to_csv, args=(path,)) for path in paths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for path in paths:
        assert path.read_bytes() == want


class _TileFailed(Exception):
    pass


@pytest.mark.parametrize("case", ["helper raises", "write raises"])
def test_a_failed_tile_or_write_ends_to_csv_with_its_exception(tmp_path, monkeypatch, case):
    # The calling thread formats the first tile while the helper formats the
    # second. The helper's tile raises, or the calling thread's write of the
    # first tile does: that exception leaves to_csv as itself, no tile is
    # formatted after it, and the helper is joined.
    data = _mixed_records(100)
    monkeypatch.setattr(densities, "_WRITE_CHUNK", 7)
    caller, tile_bytes, help_ = threading.get_ident(), AuditDataset._tile_bytes, densities._InOrder._help
    started = threading.Event()  # the calling thread has taken the first tile
    raised = _TileFailed(case)
    events = []

    def help(self):
        started.wait(5)
        help_(self)

    def tile(self, *args):
        ours = threading.get_ident() == caller
        events.append(("tile", args[-1][0].start, ours))
        if ours and not started.is_set():
            started.set()
            time.sleep(0.05)  # so the helper takes the second tile
        elif not ours and case == "helper raises":
            events.append("raised")
            raise raised
        return tile_bytes(self, *args)

    class Full(io.BytesIO):
        def write(self, data):
            if self.tell() and case == "write raises":  # past the header
                time.sleep(0.05)  # time for the helper to take a third tile, were it free to
                events.append("raised")
                raise raised
            return super().write(data)

    monkeypatch.setattr(densities._InOrder, "_help", help)
    monkeypatch.setattr(AuditDataset, "_tile_bytes", tile)
    monkeypatch.setattr(densities, "open", lambda path, mode: Full(), raising=False)
    threads = threading.active_count()
    with pytest.raises(_TileFailed) as info:
        data.to_csv(tmp_path / "records.csv")
    assert info.value is raised
    assert events[0] == ("tile", 0, True)  # the calling thread's first tile
    assert events[1][::2] == ("tile", False)  # the helper's
    assert events[2:] == ["raised"]  # and no tile after the failure
    assert threading.active_count() == threads


#: Peak traced memory of ``from_csv`` on the file below when it parsed with
#: ``np.loadtxt`` into an object-dtype record array (numpy 2.4, Python 3.11).
LOADTXT_PEAK = 22_828_487


def test_from_csv_peaks_at_under_half_the_memory_of_loadtxt(tmp_path):
    pop = judge_population(1024)
    data = sample(pop, 200_000, seed=9, rule=solve_equalized_odds(pop, "men", 0.5))
    path = tmp_path / "records.csv"
    data.to_csv(path)
    tracemalloc.start()
    try:
        back = AuditDataset.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same(back, data)
    assert peak <= LOADTXT_PEAK / 2


#: Bound on the traced peak of ``to_csv`` on the records below. It measured
#: 4.33-4.51 MB (numpy 2.4, Python 3.11, on two CPUs and on one): two tiles
#: of 16,384 records in work, about 1.9 MB each, and the tables. One thread
#: alone peaks at 2.57 MB, and a third thread at 4.98-6.22 MB.
TO_CSV_PEAK = 4_750_000


def test_to_csv_holds_at_most_two_tiles_of_work(tmp_path):
    pop = judge_population(1024)
    data = sample(pop, 200_000, seed=9, rule=solve_equalized_odds(pop, "men", 0.5))
    path = tmp_path / "records.csv"
    tracemalloc.start()
    try:
        data.to_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same(AuditDataset.from_csv(path), data)
    assert peak <= TO_CSV_PEAK
