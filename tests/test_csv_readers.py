"""The record CSV format: the vectorized reader against the row reader that
defines the format, and the chunked writer against row-by-row csv.writer."""

import csv
import io
import itertools
import os
import re
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairsim import AuditDataset, PopulationModel, sample, solve_equalized_odds
from fairsim.densities import (
    _WRITE_CHUNK as WRITE_CHUNK,
    _is_plain_label,
    _line_count,
    _read_columns,
    _read_rows,
    group_index,
)
from _helpers import judge_population

HEADER = "group,score,outcome,decision"

# Cells both readers accept, and cells that the vectorized reader leaves to
# the row reader (padding, control characters, over-long cells) or that
# neither accepts.
LABELS = ["a", "b", "White", "a,b", 'x"y', '""', "#c", "# c", "\u00e9", "\u65e5\u672c"]
ODD_LABELS = [
    "a\nb", "a\r\nb", "a\rb", " a", "a ", "\ta", "", "a\u2003", "a\x1c", "\x0cb", "q" * 45,
    "a\x00", "\x00", "a\x01b", "a\x7fb",
]
SCORES = ["0", "1", "0.5", "0.25", "1.0", "-0.0", "0.1234567890123456789", "1e-3", "+.5", " 0.5", "0.5 ", "\t0.5"]
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


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="a\r\n", max_size=40), limit=st.sampled_from([None, 4, 6]))
def test_line_count_counts_non_blank_lines(text, limit, tmp_path_factory):
    path = tmp_path_factory.mktemp("lines") / "text.csv"
    path.write_bytes(text.encode())
    want = sum(1 for line in re.split("\r\n|\r|\n", text) if line)
    got = _line_count(path, limit or csv.field_size_limit())
    # A small limit with a block of no line feed leaves the file to the row reader.
    assert got == want or (limit and got is None)


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
