"""Piecewise-constant score densities, populations, and score transformations.

Analytic objects live on a uniform grid over [0, 1]: a density stores one
nonnegative value per cell. Masses of threshold events ({s > t}) are computed
in exact rational arithmetic -- cell values are binary floats, hence dyadic
rationals -- while integrals of generic weight functions use the midpoint rule.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import mmap
import os
import re
import stat
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

DEFAULT_GRID = 1024

#: In-band marker for conditional probabilities whose conditioning event has
#: zero mass. Rendered as "undefined" in serialized reports.
UNDEFINED = float("nan")


def is_defined(value: float) -> bool:
    """True unless ``value`` is the undefined marker."""
    return not math.isnan(value)


def cell_index(scores, grid_size: int):
    """Grid cell containing each score; cell k covers [k/G, (k+1)/G), 1.0 maps to the last cell."""
    idx = np.floor(np.asarray(scores, dtype=float) * grid_size).astype(int)
    return np.clip(idx, 0, grid_size - 1)


def cell_midpoints(grid_size: int) -> np.ndarray:
    """Midpoint of each grid cell, (k + 1/2) / G for k = 0, ..., G - 1."""
    return (np.arange(grid_size) + 0.5) / grid_size


def group_index(labels: tuple[str, ...], label: str) -> int:
    """Position of ``label`` in ``labels``; a KeyError names the known groups."""
    if label not in labels:
        raise KeyError(f"unknown group {label!r}; known groups: {sorted(labels)}")
    return labels.index(label)


def _int64_sum(values: np.ndarray) -> int:
    """Exact sum of int64 values below 2**62: their high and low 31-bit limbs
    each sum within int64 over fewer than 2**32 values."""
    return (int((values >> 31).sum()) << 31) + int((values & 0x7FFFFFFF).sum())


@dataclass(frozen=True)
class ScoreDensity:
    """Nonnegative piecewise-constant density on a uniform grid over [0, 1].

    ``weights[i]`` is the density value (not the mass) on cell
    [i/G, (i+1)/G); the mass of a cell is ``weights[i] / G``.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def grid_size(self) -> int:
        return int(self.weights.size)

    @property
    def cell_width(self) -> float:
        return 1.0 / self.weights.size

    def midpoints(self) -> np.ndarray:
        return cell_midpoints(self.weights.size)

    @cached_property
    def _scaled_numerators(self) -> tuple[np.ndarray | tuple[int, ...], int, int | None]:
        """``(scaled, denominator, total)``. Each cell weight is a binary
        float, an integer over a power of two; ``denominator`` is G times the
        least common such power. When every cell numerator is below 2**62,
        ``scaled`` is their int64 array and ``total`` its sum. Else ``total``
        is None and ``scaled`` is ``_integer_form``, the G + 1 suffix sums of
        the Python-int numerators, with cell k as ``scaled[k] - scaled[k + 1]``:
        no array is kept beside it. Python ints cost about as much to sum as
        to accumulate, and the densities that hold them, the f0 and f1 of a
        calibrated group, are the ones the solvers scan."""
        mant, expo = np.frexp(self.weights)
        num = (mant * 2.0**53).astype(np.int64)  # w == num * 2**expo, exactly
        expo = expo.astype(np.int64) - 53
        nonzero = num != 0
        # Drop each numerator's trailing zero bits, so the common denominator
        # is the least one. ``num & -num`` is the lowest set bit, below 2**53.
        low = np.frexp((num & -num).astype(float))[1] - 1
        low[~nonzero] = 0
        num >>= low
        expo += low
        base = min(0, int(expo[nonzero].min())) if nonzero.any() else 0
        shift = np.where(nonzero, expo - base, 0)
        bits = np.frexp(num.astype(float))[1]  # bit length of each numerator
        # Weights whose exponents span a few bits, like a raw or normalized
        # density, shift within int64, about three times as fast. The f0 and
        # f1 of a calibrated group hold full 53-bit mantissas over exponents
        # spread by the calibration curve, so they need Python ints.
        den = (1 << -base) * self.weights.size
        if int((bits + shift).max()) < 63:
            scaled = num << shift
            return scaled, den, _int64_sum(scaled)
        cells = (num.astype(object) << shift).tolist()
        return tuple(itertools.accumulate(reversed(cells), initial=0))[::-1], den, None

    @cached_property
    def _integer_form(self) -> tuple[int, ...]:
        """The G + 1 suffix sums of the scaled numerators, as Python ints:
        entry k is the numerator of the exact mass of [k/G, 1]; built on
        first use from an int64 array."""
        scaled, _, total = self._scaled_numerators
        return scaled if total is None else tuple(itertools.accumulate(reversed(scaled.tolist()), initial=0))[::-1]

    def _tail(self, k: int) -> int:
        """Numerator over ``exact_denominator`` of the exact mass of [k/G, 1]:
        an int64 array sums its cells from k on, or gives its cached total;
        Python-int numerators are read off their suffix."""
        scaled, _, total = self._scaled_numerators
        if total is None:
            return scaled[k]
        return total if k == 0 else _int64_sum(scaled[k:])

    def boundary_numerators(self) -> tuple[int, ...]:
        """Integer numerators over ``exact_denominator`` of the exact mass of
        [k/G, 1], for k = 0..G; entry G is 0.

        The mass of cell k is ``(n[k] - n[k+1]) / exact_denominator``, so
        exact scans can compare integers and build rationals only where they
        need one.
        """
        return self._integer_form

    @property
    def exact_denominator(self) -> int:
        """Common denominator of ``boundary_numerators()``: a power of two times G."""
        return self._scaled_numerators[1]

    def exact_total(self) -> Fraction:
        return Fraction(self._tail(0), self.exact_denominator)

    def exact_mass_above(self, threshold) -> Fraction:
        """Exact mass of {s > threshold} under the piecewise-constant model."""
        a, b = (threshold if isinstance(threshold, Fraction) else float(threshold)).as_integer_ratio()
        if a <= 0:
            return self.exact_total()
        if a >= b:
            return Fraction(0)
        # t = a/b lies in cell j: the cells above it, plus cell j's part over
        # [t, (j+1)/G], all over denominator * b
        scaled, den, total = self._scaled_numerators
        grid = self.weights.size
        j = a * grid // b
        rest = self._tail(j + 1)
        cell = int(scaled[j]) if total is not None else scaled[j] - rest
        return Fraction(rest * b + cell * ((j + 1) * b - a * grid), den * b)

    def exact_mass_below(self, threshold) -> Fraction:
        """Exact mass of {s <= threshold}."""
        return self.exact_total() - self.exact_mass_above(threshold)

    def total_mass(self) -> float:
        return self._tail(0) / self.exact_denominator  # int / int is correctly rounded

    def is_normalized(self) -> bool:
        return abs(self.total_mass() - 1.0) <= 1e-9

    def normalized(self) -> "ScoreDensity":
        total = self.total_mass()
        if total <= 0:
            raise ValueError("cannot normalize a zero-mass density")
        return ScoreDensity(self.weights / total)

    @classmethod
    def uniform(cls, grid_size: int = DEFAULT_GRID) -> "ScoreDensity":
        return cls(np.ones(grid_size))


@dataclass(frozen=True)
class ConditionalScoreDensity:
    """Joint law of (score, outcome) for one group.

    ``f0`` carries the score mass of outcome-0 individuals, ``f1`` of
    outcome-1 individuals. The pair is normalized jointly: the total mass of
    f0 plus f1 is 1, and the mass of f1 alone is the group's base rate.
    """

    f0: ScoreDensity
    f1: ScoreDensity

    def __post_init__(self):
        if self.f0.grid_size != self.f1.grid_size:
            raise ValueError("f0 and f1 must share one grid")
        total = self.f0.total_mass() + self.f1.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"f0 and f1 masses must sum to 1, got {total!r}")

    @property
    def grid_size(self) -> int:
        return self.f0.grid_size

    @property
    def base_rate(self) -> float:
        return self.f1.total_mass()

    @classmethod
    def calibrated(cls, marginal: ScoreDensity) -> "ConditionalScoreDensity":
        """Split a normalized marginal score density so the score is calibrated.

        Puts mass proportional to s into the outcome-1 component and 1-s into
        the outcome-0 component, cell by cell, so P(Y=1 | S=s) = s wherever
        the marginal has mass, up to float rounding of each cell's weights.
        """
        if not marginal.is_normalized():
            raise ValueError("marginal density must integrate to 1")
        mids = marginal.midpoints()
        return cls(
            f0=ScoreDensity((1.0 - mids) * marginal.weights),
            f1=ScoreDensity(mids * marginal.weights),
        )

    @classmethod
    def from_base_rate(cls, base_rate: float, grid_size: int = DEFAULT_GRID) -> "ConditionalScoreDensity":
        """Calibrated group with a two-level marginal hitting the given base rate.

        The marginal is constant on [0, 1/2) and on [1/2, 1]; solving for the
        two levels pins the mean, which for a calibrated score equals the
        base rate. Levels are nonnegative only for base rates in [1/4, 3/4].
        """
        if not 0.25 <= base_rate <= 0.75:
            raise ValueError("two-level construction needs base_rate in [0.25, 0.75]")
        lo = 3.0 - 4.0 * base_rate
        hi = 4.0 * base_rate - 1.0
        half = grid_size // 2
        if 2 * half != grid_size:
            raise ValueError("grid_size must be even")
        weights = np.concatenate([np.full(half, lo), np.full(half, hi)])
        return cls.calibrated(ScoreDensity(weights))


@dataclass(frozen=True)
class PopulationModel:
    """Named groups of equal size, each with a conditional score density."""

    groups: dict[str, ConditionalScoreDensity]

    def __post_init__(self):
        if len(self.groups) < 2:
            raise ValueError("a population needs at least 2 groups")
        grids = {csd.grid_size for csd in self.groups.values()}
        if len(grids) != 1:
            raise ValueError("all groups must share one grid size")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.groups)

    @property
    def grid_size(self) -> int:
        return next(iter(self.groups.values())).grid_size

    def group(self, label: str) -> ConditionalScoreDensity:
        group_index(self.labels, label)
        return self.groups[label]

    def with_group(self, label: str, csd: ConditionalScoreDensity) -> "PopulationModel":
        group_index(self.labels, label)
        groups = dict(self.groups)
        groups[label] = csd
        return PopulationModel(groups=groups)


@dataclass(frozen=True)
class ScoreMap:
    """Cell-wise transformation from true probability to displayed score.

    ``values[i]`` is the score shown for true probabilities falling in grid
    cell i. The identity map displays each cell's midpoint, so a mapped
    population keeps the same grid.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)) or np.any(v < 0) or np.any(v > 1):
            raise ValueError("mapped scores must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def grid_size(self) -> int:
        return int(self.values.size)

    def __call__(self, p):
        return self.values[cell_index(p, self.grid_size)]

    def target_cells(self) -> np.ndarray:
        return cell_index(self.values, self.grid_size)

    @classmethod
    def identity(cls, grid_size: int = DEFAULT_GRID) -> "ScoreMap":
        return cls(cell_midpoints(grid_size))

    @classmethod
    def constant(cls, value: float, grid_size: int = DEFAULT_GRID) -> "ScoreMap":
        return cls(np.full(grid_size, float(value)))

    @classmethod
    def from_callable(cls, fn, grid_size: int = DEFAULT_GRID) -> "ScoreMap":
        return cls(np.asarray(fn(cell_midpoints(grid_size)), dtype=float))


CSV_HEADER = ("group", "score", "outcome", "decision")

#: Sentinel for a missing per-record decision.
NO_DECISION = -1

#: One record as the vectorized reader parses it. The label and both tokens
#: stay text, so they are checked exactly as the row reader checks them.
_CSV_RECORD = np.dtype([("group", object), ("score", "f8"), ("outcome", object), ("decision", object)])

#: A Unicode control character (category Cc), which could forge a report line.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f]")
#: A lone surrogate (category Cs), which UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_plain_label(label) -> bool:
    """True for a group label that a record file gives back as it is: a
    non-empty ``str`` with no surrounding space, no control character and no
    surrogate."""
    return (
        isinstance(label, str)
        and label != ""
        and label == label.strip()
        and not _CONTROL_CHARACTER.search(label)
        and not _SURROGATE.search(label)
    )


#: Records per chunk in ``to_csv``; bounds the text held in memory at once.
_WRITE_CHUNK = 1 << 16


@dataclass(frozen=True, init=False)
class AuditDataset:
    """Finite records of (group, score, outcome, optional decision), stored as
    columns.

    ``labels`` lists each group once, in the order of its first record, and
    ``codes[i]`` is the index in ``labels`` of record i's group. The
    constructor takes the per-record labels; ``group`` derives them back.
    ``decision`` is an int8 column of 0, 1 or ``NO_DECISION`` (-1) for a
    missing decision; the constructor stores ``decision=None`` as all -1.
    Each label must be one that ``from_csv`` reads back as written: a
    non-empty string that UTF-8 can encode, with no surrounding space or
    control character, and no longer than the csv field-size limit.
    """

    codes: np.ndarray
    labels: tuple[str, ...]
    score: np.ndarray
    outcome: np.ndarray
    decision: np.ndarray  # int8: 0, 1, or NO_DECISION (-1) where missing

    def __init__(self, group, score, outcome, decision=None):
        labels, codes = _factorize(np.asarray(group, dtype=object).tolist())
        if decision is None:
            decision = np.full(len(codes), NO_DECISION, dtype=np.int8)
        self._set_columns(codes, labels, score, outcome, decision)

    @classmethod
    def _from_codes(cls, codes, labels, score, outcome, decision) -> "AuditDataset":
        """Dataset whose ``labels`` are already in first-record order, each used."""
        data = cls.__new__(cls)
        data._set_columns(codes, labels, score, outcome, decision)
        return data

    def _set_columns(self, codes, labels, score, outcome, decision) -> None:
        limit = csv.field_size_limit()
        for label in labels:
            if not _is_plain_label(label):
                raise ValueError(
                    f"group label {label!r} must be non-empty UTF-8 text with no surrounding space or control character"
                )
            if len(label) > limit:
                raise ValueError(f"group label of {len(label)} characters exceeds the csv field limit ({limit})")
        n = len(codes)
        score = np.asarray(score, dtype=float)
        # Values are checked as given, before the int8 cast could wrap them.
        outcome = np.asarray(outcome)
        if len(score) != n or len(outcome) != n:
            raise ValueError("all columns must have equal length")
        if n == 0:
            raise ValueError("dataset must contain at least one record")
        if np.any(score < 0) or np.any(score > 1) or not np.all(np.isfinite(score)):
            raise ValueError("scores must lie in [0, 1]")
        if not np.all(np.isin(outcome, (0, 1))):
            raise ValueError("outcomes must be 0 or 1")
        object.__setattr__(self, "codes", np.asarray(codes, dtype=np.int32))
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "outcome", outcome.astype(np.int8, copy=False))
        decision = np.asarray(decision)
        if len(decision) != n:
            raise ValueError("decision column length mismatch")
        if not np.all(np.isin(decision, (NO_DECISION, 0, 1))):
            raise ValueError("decisions must be 0, 1, or missing")
        object.__setattr__(self, "decision", decision.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def group(self) -> np.ndarray:
        """Per-record group labels, as a new object array."""
        return np.array(self.labels, dtype=object)[self.codes]

    def decisions_complete(self) -> bool:
        return not np.any(self.decision == NO_DECISION)

    def to_csv(self, path) -> None:
        """Write the records with a header, byte for byte as ``csv.writer``
        writes them row by row.

        A row is three strings: its group's prefix (the label cell as
        ``csv.writer`` quotes it, then a comma), the ``repr`` of its score,
        and one of six suffixes ``",{outcome},{decision}\\n"``, at index
        ``3 * outcome + decision + 1``, where a missing decision (-1) has an
        empty cell. Each chunk of ``_WRITE_CHUNK`` records gathers its
        prefixes and suffixes from those small arrays and is joined into one
        string, so memory stays bounded."""
        prefixes = np.array([_csv_cell(label) + "," for label in self.labels], dtype=object)
        suffixes = np.array([f",{y},{d}\n" for y in (0, 1) for d in ("", "0", "1")], dtype=object)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(CSV_HEADER)
            for start in range(0, len(self), _WRITE_CHUNK):
                part = slice(start, start + _WRITE_CHUNK)
                kinds = 3 * self.outcome[part] + self.decision[part] + 1
                rows = zip(
                    prefixes[self.codes[part]].tolist(),
                    map(repr, self.score[part].tolist()),
                    suffixes[kinds].tolist(),
                )
                fh.write("".join(itertools.chain.from_iterable(rows)))

    @classmethod
    def from_csv(cls, path) -> "AuditDataset":
        """Read a ``group,score,outcome,decision`` file, UTF-8 with or without
        a byte-order mark.

        One vectorized pass reads well-formed files. A file it cannot take
        as is (padded cells, bad tokens, over-long cells, a record spread over
        lines, no records) is read again row by row; that reader's result, or
        its line-numbered error, defines the format.
        """
        data = _read_columns(path)
        return data if data is not None else _read_rows(path)


def _factorize(values: list) -> tuple[tuple, np.ndarray]:
    """The distinct values in first-seen order, and each value's index among them."""
    index = dict.fromkeys(values)
    for k, value in enumerate(index):
        index[value] = k
    return tuple(index), np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))


def _csv_cell(value) -> str:
    """``value`` as ``csv.writer`` renders it as the first cell of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[: -len(",\n")]


def _line_count(path, limit: int) -> int | None:
    """The number of non-blank lines in ``path``, or None unless it is a
    regular file, which can be read more than once, with no run of bytes
    between its line feeds reaching ``limit``.

    Both readers end a line at LF, CR LF or a lone CR, so each run of CR and
    LF bytes after other bytes ends one non-blank line. Every aligned block
    of ``limit // 2`` bytes holding a line feed bounds each run below
    ``limit``. The blocks are read one at a time through a memory map, so
    memory stays bounded.
    """
    info = os.stat(path)  # a pipe is not opened here: its data can be read only once
    if not stat.S_ISREG(info.st_mode):
        return None
    if info.st_size == 0:
        return 0
    step = max(1, limit // 2)
    lines, after_break = 0, True
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
        for start in range(0, info.st_size, step):
            chunk = mm[start : start + step]
            block = np.frombuffer(chunk, np.uint8)
            breaks = block == 10
            if not breaks.any() and start + step <= info.st_size and info.st_size >= limit:
                return None
            if b"\r" in chunk:
                breaks |= block == 13
            # A non-blank line ends where a line break follows another byte.
            lines += int(np.count_nonzero(breaks[1:] > breaks[:-1])) + bool(breaks[0] and not after_break)
            after_break = bool(breaks[-1])
    return lines + (not after_break)


def _read_columns(path) -> AuditDataset | None:
    """The records of ``path`` from one ``np.loadtxt`` pass, or None when the
    row reader must decide: on any parse error, and on any cell that it
    would read differently or reject.

    Only a file with one record on each non-blank line but the header is
    read here, so every cell lies on one line, and ``_line_count`` holds each
    line below the csv field-size limit. A file with a quoted cell spread
    over lines, or with no record, is left to the row reader, and so is a
    label or score that the dataset constructor refuses.
    """
    lines = _line_count(path, csv.field_size_limit())
    if lines is None or lines < 2:
        return None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except (ValueError, csv.Error):
            return None
        if header is None or reader.line_num != 1 or tuple(h.strip() for h in header) != CSV_HEADER:
            return None
    try:
        records = np.loadtxt(
            os.fspath(path), dtype=_CSV_RECORD, delimiter=",", quotechar='"', comments=None,
            skiprows=1, encoding="utf-8-sig", ndmin=1,
        )
    except ValueError:
        return None
    if lines != len(records) + 1:
        return None
    labels, codes = _factorize(records["group"].tolist())
    score = np.ascontiguousarray(records["score"])
    outcome = records["outcome"] == "1"
    decided = records["decision"] == "1"
    missing = ~(decided | (records["decision"] == "0"))
    if not (np.all(outcome | (records["outcome"] == "0")) and np.all(records["decision"][missing] == "")):
        return None
    decision = np.where(missing, NO_DECISION, decided).astype(np.int8)
    try:
        return AuditDataset._from_codes(codes, labels, score, outcome.astype(np.int8), decision)
    except ValueError:  # a label or score that the constructor refuses
        return None


def _read_rows(path) -> AuditDataset:
    """The row-by-row reader. Its result and its line-numbered errors are the
    specification that ``_read_columns`` reproduces faster.

    Bytes that are not UTF-8 decode to lone surrogates, so the row that
    holds them is named, wherever the decoder's chunks fall."""
    groups: list[str] = []
    scores: list[float] = []
    outcomes: list[int] = []
    decisions: list[int] = []
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        line_no = 0
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"file is empty; expected header {','.join(CSV_HEADER)!r}")
            if any(map(_SURROGATE.search, header)):
                raise ValueError("row 1: a cell holds bytes that are not UTF-8")
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise ValueError(f"expected header {','.join(CSV_HEADER)!r}, got {header!r}")
            line_no = 1
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if any(map(_SURROGATE.search, row)):
                    raise ValueError(f"row {line_no}: a cell holds bytes that are not UTF-8")
                if len(row) != 4:
                    raise ValueError(f"row {line_no}: expected 4 columns, got {len(row)}")
                group, score_s, outcome_s, decision_s = (c.strip() for c in row)
                if not group:
                    raise ValueError(f"row {line_no}: empty group label")
                if _CONTROL_CHARACTER.search(group):
                    raise ValueError(f"row {line_no}: group label {group!r} holds a control character")
                try:
                    score = float(score_s)
                except ValueError:
                    raise ValueError(f"row {line_no}: score {score_s!r} is not a number") from None
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"row {line_no}: score {score_s} outside [0, 1]")
                if outcome_s not in ("0", "1"):
                    raise ValueError(f"row {line_no}: outcome {outcome_s!r} must be 0 or 1")
                if decision_s not in ("", "0", "1"):
                    raise ValueError(f"row {line_no}: decision {decision_s!r} must be empty, 0, or 1")
                groups.append(group)
                scores.append(score)
                outcomes.append(int(outcome_s))
                decisions.append(NO_DECISION if decision_s == "" else int(decision_s))
        except csv.Error as exc:
            # line_no is the last row read, so the reader failed on the next one.
            raise ValueError(f"row {line_no + 1}: {exc}") from None
    if not groups:
        raise ValueError("CSV contains no data rows")
    return AuditDataset(
        group=groups,
        score=np.array(scores),
        outcome=np.array(outcomes, dtype=np.int8),
        decision=np.array(decisions, dtype=np.int8),
    )


def conditional_rate(num, den) -> np.ndarray:
    """``num / den`` entry by entry, undefined where ``den`` is 0: a rate
    conditioned on a level, which an empty level does not define."""
    den = np.asarray(den)
    return np.divide(num, den, out=np.full(den.shape, UNDEFINED), where=den > 0)


def apply_score_map(pop: PopulationModel, group: str, score_map: ScoreMap) -> PopulationModel:
    """Population in which the group's displayed score is transformed cell-wise.

    Each cell's mass moves, per outcome class, to the cell containing its
    mapped score, so class totals are conserved up to float rounding.
    """
    csd = pop.group(group)
    if score_map.grid_size != csd.grid_size:
        raise ValueError("score map grid does not match population grid")
    targets = score_map.target_cells()

    def transport(density: ScoreDensity) -> ScoreDensity:
        moved = np.zeros(density.grid_size)
        np.add.at(moved, targets, density.weights)
        return ScoreDensity(moved)

    return pop.with_group(group, ConditionalScoreDensity(f0=transport(csd.f0), f1=transport(csd.f1)))


#: Largest |sum(p) - 1| that ``draw_categorical`` accepts: numpy's tolerance
#: in ``Generator.choice``.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def draw_categorical(rng: np.random.Generator, p, n: int) -> np.ndarray:
    """n indices drawn with probabilities p: exactly ``rng.choice(len(p),
    size=n, p=p)``, leaving ``rng`` in the same state.

    It inverts the same CDF (``p.cumsum() / its last entry``) at the same
    ``rng.random(n)`` draws, so index i is the count of CDF entries <= u_i.
    The count is found by indexed search (Chen and Asau, 1974): with m a
    power of two >= 4 len(p), ``u*m`` is exact, so a draw lies in bucket
    j = floor(u*m) of [j/m, (j+1)/m), and its index is the count of entries
    <= j/m, plus one if the bucket's single entry is <= u. Draws in the few
    buckets that hold two or more entries fall back to a binary search. p is
    used as given (it is not normalized again), and NaN, infinite or
    negative entries, or a sum off 1 by more than numpy allows, raise
    ValueError before anything is drawn.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty 1-d array")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > _SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    m = 4 << (p.size - 1).bit_length()
    below = cdf.searchsorted(np.arange(m + 1) / m, "right")  # entries <= j/m
    first = below[:-1]
    bucket = (u * m).astype(np.intp)
    idx = first[bucket]
    idx += cdf[first][bucket] <= u
    crowded = np.diff(below) > 1
    if crowded.any():
        hard = crowded[bucket]
        idx[hard] = cdf.searchsorted(u[hard], "right")
    return idx


def sample(pop: PopulationModel, n: int, seed: int, rule=None) -> AuditDataset:
    """Draw n i.i.d. records from the population.

    Each of the k groups is drawn with probability 1/k; (score, outcome)
    pairs follow each group's conditional density, with scores uniform within
    their grid cell.

    Args:
        pop: population to sample from.
        n: number of records, at least 1.
        seed: RNG seed; equal seeds give equal datasets.
        rule: optional decision rule; when given, each record also gets a
            decision drawn against the rule's decision probability at the
            sampled score.

    Returns:
        An AuditDataset with n records, whose decisions are drawn if a rule
        was given and missing (``NO_DECISION``) otherwise.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    labels = pop.labels
    pvec = np.full(len(labels), 1.0 / len(labels))
    # k copies of 1/k need not sum to 1.0 (they do not for k = 6); seeded
    # records are pinned to the draw over this vector divided by its sum.
    gidx = draw_categorical(rng, pvec / pvec.sum(), n)

    score_col = np.empty(n)
    outcome_col = np.empty(n, dtype=np.int8)
    decision_col = np.full(n, NO_DECISION, dtype=np.int8)

    first_record: dict[int, int] = {}
    for gi, label in enumerate(labels):
        mask = gidx == gi
        k = int(mask.sum())
        if k == 0:
            continue
        first_record[gi] = int(np.argmax(mask))
        csd = pop.group(label)
        g = csd.grid_size
        joint = np.concatenate([csd.f0.weights, csd.f1.weights])
        joint = joint / joint.sum()
        draw = draw_categorical(rng, joint, k)
        outcome = (draw >= g).astype(np.int8)
        cells = draw % g
        scores = (cells + rng.random(k)) / g
        score_col[mask] = scores
        outcome_col[mask] = outcome
        if rule is not None:
            probs = rule.for_group(label).probability(scores)
            decision_col[mask] = (rng.random(k) < probs).astype(np.int8)

    order = sorted(first_record, key=first_record.__getitem__)
    renumber = np.zeros(len(labels), dtype=np.int32)
    renumber[order] = np.arange(len(order))
    return AuditDataset._from_codes(
        renumber[gidx], [labels[gi] for gi in order], score_col, outcome_col, decision_col
    )


def integrate(density: ScoreDensity, weight) -> float:
    """Midpoint-rule integral of weight(s) against the density.

    Exact for integrands linear within each cell; O(grid^-2) error for smooth
    integrands. ``weight`` maps the array of cell midpoints to an array of
    values.
    """
    return float(np.sum(density.weights * weight(density.midpoints())) * density.cell_width)
