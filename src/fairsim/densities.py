"""Piecewise-constant score densities, populations, and score transformations.

Analytic objects live on a uniform grid over [0, 1]: a density stores one
nonnegative value per cell. Masses of threshold events ({s > t}) are computed
in exact rational arithmetic -- cell values are binary floats, hence dyadic
rationals -- from the integer numerators of one exact core.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import stat
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

DEFAULT_GRID = 1024

#: In-band marker for conditional probabilities whose conditioning event has
#: zero mass. Rendered as "undefined" in serialized reports.
UNDEFINED = float("nan")


def is_defined(value: float) -> bool:
    """True unless ``value`` is the undefined marker."""
    return not math.isnan(value)


def cell_index(scores, grid_size: int):
    """Grid cell containing each score; cell k covers [k/G, (k+1)/G), 1.0 maps to the last cell.

    The product is cast to int as it is stored and then clipped in place, so
    the result is the one array made. The cast truncates, which is the floor
    wherever the clip keeps the cell. A scalar score gives a scalar."""
    scores = np.asarray(scores, dtype=float)
    idx = np.multiply(scores, grid_size, out=np.empty(scores.shape, int), casting="unsafe")
    return np.clip(idx, 0, grid_size - 1, out=idx)[()]


def cell_midpoints(grid_size: int) -> np.ndarray:
    """Midpoint of each grid cell, (k + 1/2) / G for k = 0, ..., G - 1."""
    return (np.arange(grid_size) + 0.5) / grid_size


def group_index(labels: tuple[str, ...], label: str) -> int:
    """Position of ``label`` in ``labels``; a KeyError names the known groups."""
    if label not in labels:
        raise KeyError(f"unknown group {label!r}; known groups: {sorted(labels)}")
    return labels.index(label)


#: Bits per limb of the exact core. A cell's scaled numerator spans at most
#: three limbs, so each limb column of suffix sums stays below 2**63 for any
#: grid below 2**31.
_LIMB = 32
_LIMB_MASK = (1 << _LIMB) - 1
#: The bits of a float64 other than its sign, and the 52 stored mantissa bits.
_MAGNITUDE = (1 << 63) - 1
_MANTISSA = (1 << 52) - 1


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

    def midpoints(self) -> np.ndarray:
        return cell_midpoints(self.weights.size)

    @cached_property
    def _suffix_limbs(self) -> tuple[np.ndarray, int, int]:
        """``(suffix, drop, denominator)``: the one integer form every exact read uses.

        A weight is read as its bits: ``num`` is its 53-bit integer mantissa,
        with the hidden bit, and ``shift`` its exponent field above ``low``, the
        field of the least nonzero weight (at least 1, which subnormals share,
        and at most 1075, where a weight's last bit is worth 1). So every weight
        is ``(num << shift) * 2**(low - 1075)``. The sign bit is cleared, so a
        ``-0.0`` weight is a zero, and a zero has shift 0. Each ``num << shift``
        is split into 32-bit limbs, and the decode is not kept.

        ``suffix`` is a ``(G + 1, rows)`` int64 matrix whose row k holds the
        limb sums of the cells from k on, so boundary k's numerator is
        ``sum(suffix[k, j] << 32 * j) >> drop``, over ``denominator``: G
        times the least power of two that makes every cell an integer.
        ``drop`` counts the trailing zero bits common to every cell, as far as
        ``low`` allows, so the cells over ``2**(1075 - low - drop)`` are the
        least integers."""
        bits = self.weights.view(np.int64) & _MAGNITUDE
        expo = bits >> 52  # the biased exponent: 0 for zero and subnormal weights
        num = (bits & _MANTISSA) | (np.minimum(expo, 1) << 52)
        least = int((bits - 1).view(np.uint64).min()) + 1  # a zero wraps to the largest value
        low = max(1, min(1075, least >> 52))
        shift = np.maximum(expo, low) - low
        grid = num.size
        drop = 0
        if low < 1075:
            # A least-exponent cell has shift 0 and at most 52 trailing zero bits,
            # so the low 64 bits of the cells hold their common trailing zeros.
            tail = int(np.bitwise_or.reduce(num.view(np.uint64) << shift.view(np.uint64)))
            drop = min((tail & -tail).bit_length() - 1, 1075 - low)
        r = shift & (_LIMB - 1)
        rows = int(shift.max()) // _LIMB + 3
        # Cell k fills row G - k, so a cumulative sum down the rows adds up
        # the cells from k on; row 0 stays the empty suffix. When every
        # offset is below 32 bits, the cells fill limbs 0-2 of their rows in
        # place; else they are scattered to their limbs.
        limbs = np.zeros((grid + 1, rows), np.int64)
        parts = limbs[:0:-1].T if rows == 3 else np.empty((3, grid), np.int64)
        # The low 64 bits of num << r are limbs 0 and 1 of the shifted cell,
        # the rest (below 2**21) limb 2.
        head = num.view(np.uint64) << r.view(np.uint64)
        np.bitwise_and(head, _LIMB_MASK, out=parts[0])
        np.right_shift(head, _LIMB, out=parts[1])
        np.right_shift(num, 2 * _LIMB - r, out=parts[2])  # a shift by 64 gives 0
        if rows > 3:
            at = np.arange(grid * rows, 0, -rows) + shift // _LIMB
            limbs.reshape(-1)[at + np.arange(3)[:, None]] = parts
        limbs.cumsum(axis=0, out=limbs)
        return limbs[::-1], drop, grid << (1075 - low - drop)

    def boundary_numerator(self, k: int) -> int:
        """Entry k of ``boundary_numerators()``, read off its row of limbs
        alone; an IndexError names the range 0..G."""
        suffix, drop, _ = self._suffix_limbs
        if not 0 <= k < len(suffix):
            raise IndexError(f"boundary {k} outside 0..{len(suffix) - 1}")
        n = 0
        for limb in reversed(suffix[k].tolist()):
            n = (n << _LIMB) + limb
        return n >> drop

    def boundary_numerators(self) -> tuple[int, ...]:
        """Integer numerators over ``exact_denominator`` of the exact mass of
        [k/G, 1], for k = 0..G; entry G is 0.

        The mass of cell k is ``(n[k] - n[k+1]) / exact_denominator``, so
        exact scans can compare integers and build rationals only where they
        need one. Each call reads the whole limb matrix into G + 1 Python
        ints and caches nothing, so a caller reads it once;
        ``boundary_numerator(k)`` reads one entry in O(1).
        """
        suffix, drop, _ = self._suffix_limbs
        rows, cols = suffix.shape
        # Each column carries into the next and keeps its low 32 bits through
        # the cast below; the top column is below G * 2**21 before its carry,
        # so one spare column takes what it carries out.
        limbs = np.zeros((rows, cols + 1), np.int64)
        limbs[:, :cols] = suffix
        for j in range(cols):
            limbs[:, j + 1] += limbs[:, j] >> _LIMB
        # each row, as little-endian 32-bit limbs, is the bytes of its numerator
        numerators = limbs.astype("<u4").view(f"V{4 * (cols + 1)}").ravel().tolist()
        return tuple(int.from_bytes(row, "little") >> drop for row in numerators)

    @property
    def exact_denominator(self) -> int:
        """Common denominator of ``boundary_numerators()``: a power of two times G."""
        return self._suffix_limbs[2]

    @cached_property
    def _exact_total(self) -> Fraction:
        return Fraction(self.boundary_numerator(0), self.exact_denominator)

    def exact_total(self) -> Fraction:
        return self._exact_total

    def exact_mass_above(self, threshold) -> Fraction:
        """Exact mass of {s > threshold} under the piecewise-constant model."""
        a, b = (threshold if isinstance(threshold, Fraction) else float(threshold)).as_integer_ratio()
        if a <= 0:
            return self.exact_total()
        if a >= b:
            return Fraction(0)
        # t = a/b lies in cell j: the cells above it, plus cell j's part over
        # [t, (j+1)/G], all over denominator * b
        grid = self.weights.size
        j = a * grid // b
        rest = self.boundary_numerator(j + 1)
        cell = self.boundary_numerator(j) - rest
        return Fraction(rest * b + cell * ((j + 1) * b - a * grid), self.exact_denominator * b)

    def exact_mass_below(self, threshold) -> Fraction:
        """Exact mass of {s <= threshold}."""
        return self.exact_total() - self.exact_mass_above(threshold)

    def total_mass(self) -> float:
        return float(self._exact_total)  # one int / int division, correctly rounded

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

    @classmethod
    def calibrated(cls, marginal: ScoreDensity) -> "ConditionalScoreDensity":
        """Split a normalized marginal score density so the score is calibrated.

        Puts mass proportional to s into the outcome-1 component and 1-s into
        the outcome-0 component, cell by cell, so P(Y=1 | S=s) = s wherever
        the marginal has mass, up to float rounding of each cell's weights.
        f0 + f1 is the marginal, so their joint mass check enforces a normalized one.
        """
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

#: A Unicode control character (category Cc), or U+2028 or U+2029, on which
#: ``str.splitlines`` also breaks: each could forge a report line.
CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")
#: A lone surrogate (category Cs), which UTF-8 cannot encode.
SURROGATE = re.compile("[\ud800-\udfff]")


#: Characters of input text that an error message echoes at most.
ECHO_LIMIT = 40


def echo(text: str, show=repr) -> str:
    """``show(text)`` for an error message, cut after ``ECHO_LIMIT`` characters with ``…``."""
    return show(text) if len(text) <= ECHO_LIMIT else show(text[:ECHO_LIMIT]) + "…"


def _is_plain_label(label) -> bool:
    """True for a group label that a record file gives back as it is: a
    non-empty ``str`` with no surrounding space, no control character and no
    surrogate."""
    return (
        isinstance(label, str)
        and label != ""
        and label == label.strip()
        and not CONTROL_CHARACTER.search(label)
        and not SURROGATE.search(label)
    )


#: Records per tile of the export path: ``draw_categorical`` draws,
#: ``sample`` fills its columns and ``to_csv`` formats this many at a time,
#: so that each step's temporaries stay in cache and the text held at once
#: is bounded. ``to_csv`` formats its tiles on two threads, which hand the
#: interpreter lock over at each numpy call, so the gain grows with the
#: records per call: formatting 1e6 sampled records on two threads took
#: 247, 165, 132 and 123 ms at 2**12, 2**13, 2**14 and 2**15 records a
#: tile, against 190-207 ms on one (2 vCPUs). 2**14 takes most of that gain
#: while each of the two tiles in work holds about 2 MB.
_WRITE_CHUNK = 1 << 14


def _cells(matrix: np.ndarray, columns: slice) -> np.ndarray:
    """``matrix[:, columns]`` as one opaque (void) item per row, a view.
    numpy gathers and copies such items several times faster than rows of
    small ones."""
    part = matrix[:, columns]
    return part.view(f"V{part.shape[1] * part.itemsize}")[:, 0]


#: 10**k for k = 0..22, each an exact double.
_POW10 = np.array([float(10**k) for k in range(23)])


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into two 26-bit halves, whose products with
    the halves of another split double are exact; the two arrays it returns
    are the only ones it makes."""
    high = np.multiply(a, float(2**27 + 1))
    low = np.subtract(high, a)
    high -= low
    return high, np.subtract(a, high, out=low)


_POW10_HIGH, _POW10_LOW = _dekker_split(_POW10)
#: 10**k for k = 0..18 as int64, the bounds of an n-digit integer.
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)

#: Relative distance from a decision's bound below which the kernel does
#: not trust its rounded residual, whose own error is about 1e-16.
_CERTAINTY = 1e-9
#: Bytes of a score cell in ``to_csv``'s byte matrix: ``repr`` of a double in
#: [0, 1] has at most 23 characters. A kernel-written cell is ``0.`` at bytes
#: 2-3, then 20 zero-padded digits.
_SCORE_BYTES = 24
#: The first word of a kernel-written cell: two bytes it does not keep, ``0.``.
_ZERO_POINT = np.frombuffer(b"\x00\x000.", dtype=np.uint32)[0]
#: "0000" to "9999", four ASCII digits to a word: the rows of the index
#: grid of a 10 x 10 x 10 x 10 array are the digits of 0..9999.
_DIGIT_WORDS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32)[:, 0]
#: The bytes a score cell keeps when it holds ``0.`` and k fraction digits,
#: at entry k - 14: its first 8 bytes and its last 16, each as one opaque
#: item (see ``_cells``), which numpy copies whole.
_SCORE_MASKS = np.array([[False, False, True, True] + [j >= 20 - k for j in range(20)] for k in range(14, 21)])
_SCORE_HEAD, _SCORE_TAIL = (_cells(_SCORE_MASKS, columns).copy() for columns in (slice(8), slice(8, None)))


def _decimal_residual(x, half_ulp, k, count=None):
    """``(count, residual, passes, certain)`` for an integer D = high + low
    near x * 10**k, given as ``count = (high, low)``, two integer-valued
    doubles, or by default the integer nearest x * 10**k: the residual
    r = D - x * 10**k, whether D / 10**k reads back as x, and whether that
    answer is certain. The one residual kernel of ``to_csv`` and the reader.

    x * 10**k is formed exactly as a double-double, ``product + error``
    (Dekker's product), and high - product is exact (Sterbenz), so r comes
    with two roundings of small terms. D / 10**k reads back as
    x = m * 2**e, m in [1/2, 1), iff |r| is below half an ulp of x, scaled:
    2**(e - 54) * 10**k. Where the kernel picks the nearest D, a tie for
    nearest is not certain either."""
    scale = _POW10[k]
    high10, low10 = _POW10_HIGH[k], _POW10_LOW[k]
    # Temporaries are reused in place once spent, so the kernel holds seven
    # arrays of x's size at most.
    x_high, x_low = _dekker_split(x)
    product = x * scale
    error = x_high * high10
    error -= product
    error += np.multiply(x_high, low10, out=x_high)
    error += np.multiply(x_low, high10, out=high10)
    error += np.multiply(x_low, low10, out=x_low)
    nearest = count is None
    if nearest:
        high = np.rint(product, out=x_high)
        low = np.rint(np.add(np.subtract(product, high, out=high10), error, out=high10), out=high10)
    else:
        high, low = count
    residual = np.subtract(high, product, out=product)
    residual -= error
    residual += low
    size = np.abs(residual, out=x_low)
    bound = np.multiply(scale, half_ulp, out=scale)
    gap = np.abs(np.subtract(size, bound, out=error), out=error)
    certain = gap > np.multiply(bound, _CERTAINTY, out=low10)
    if nearest:
        gap = np.abs(np.subtract(size, 0.5, out=error), out=error)
        certain &= gap > _CERTAINTY  # else a tie for nearest
    return (high, low), residual, size < bound, certain


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(digits, places, certified)`` for scores ``x``: where ``certified``,
    ``repr(x[i])`` is ``0.`` followed by ``digits[i]`` zero-padded to
    ``places[i]`` characters.

    ``repr`` writes the shortest decimal that reads back as x, the nearest
    to x if several are that short (Steele & White; Ryu, Adams, PLDI 2018);
    for x in [1e-4, 1) it writes ``0.`` and the fraction digits. With E the
    decade of x, the n-digit decimals near x are D / 10**k, k = n - 1 - E,
    and ``_decimal_residual`` tests the nearest one. If an n-digit decimal
    reads back, so does the nearest (n + 1)-digit one, so the shortest count
    is the least n in 17, 16, 15 that passes, and its D ends in no zero.
    Every score is tested at n = 16 first; then n = 17 only where 16 fails,
    n = 15 only where 16 passes, and n = 14 only where 15 passes, about 2.1
    tests per score rather than 4.

    A score is certified unless it is outside [1e-4, 1), its significand is
    a power of two (its interval is lopsided), a test it takes is uncertain,
    its D has the wrong digit count (a misjudged decade), or 14 digits pass
    too (fewer might).
    """
    m, e = np.frexp(x)
    certified = (x >= 1e-4) & (x < 1.0) & (m != 0.5)
    half_ulp = np.ldexp(1.0, e - 54, out=m)
    decade = (x >= 1e-3).astype(np.int8)  # E + 4 on [1e-4, 1)
    decade += x >= 1e-2
    decade += x >= 1e-1

    def test(n: int, rows):
        """``(k, D, passes)`` of the n-digit test on ``x[rows]``; an uncertain
        answer uncertifies its score."""
        xs = x[rows]
        k = n + 3 - decade[rows]
        (high, low), _, passes, certain = _decimal_residual(xs, half_ulp[rows], k)
        count = high.astype(np.int64)
        count += low.astype(np.int64)
        certified[rows] &= certain
        return k, count, passes

    def keep(n: int, rows: np.ndarray) -> np.ndarray:
        """Where the n-digit test on ``x[rows]`` passes, its D and k become
        the score's; returns where it passes."""
        k, count, passes = test(n, rows)
        kept = rows[passes]
        digits[kept], places[kept] = count[passes], k[passes]
        return passes

    places, digits, passes = test(16, slice(None))
    rows = np.flatnonzero(~passes)
    certified[rows[~keep(17, rows)]] = False  # no count passes
    rows = np.flatnonzero(passes)
    rows = rows[keep(15, rows)]
    certified[rows] &= ~test(14, rows)[2]
    n = places + decade - 3
    certified &= digits >= _INT_POW10[n - 1]
    certified &= digits < _INT_POW10[n]
    digits[~certified] = 0  # keeps table indices in range
    return digits, places, certified


def _score_cells(x: np.ndarray, shortest: tuple, words: np.ndarray, keep: np.ndarray) -> None:
    """Write each score's ``repr`` as UTF-8 into one row of ``words`` (six
    uint32 columns) and mark its bytes in ``keep`` (24 bool columns), given
    ``shortest``, the result of ``_shortest_digits(x)``.

    Certified scores take the kernel's digits; every other score takes
    ``repr`` itself, left-aligned."""
    digits, places, certified = shortest
    at = places - 14
    _cells(keep, slice(8))[:] = np.take(_SCORE_HEAD, at)
    _cells(keep, slice(8, None))[:] = np.take(_SCORE_TAIL, at)
    words[:, 0] = _ZERO_POINT
    # Four digits a word, from the last: each divmod gives a word's digits
    # and the digits before them, in place after the first.
    rest, group = np.divmod(digits, 10**4)
    words[:, 5] = _DIGIT_WORDS[group]
    for j in (4, 3, 2):
        np.divmod(rest, 10**4, out=(rest, group))
        words[:, j] = _DIGIT_WORDS[group]
    words[:, 1] = _DIGIT_WORDS[rest]
    rest = np.flatnonzero(~certified)
    if len(rest):
        text = np.array([repr(v).encode() for v in x[rest].tolist()], dtype=f"S{_SCORE_BYTES}")
        words[rest] = text.view(np.uint32).reshape(len(rest), -1)
        keep[rest] = text.view(np.uint8).reshape(len(rest), -1) != 0


def _byte_table(pieces: list[bytes]) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(text, starts, masks, mask_starts, lengths)`` for ``_put_pieces``, in
    memory that grows with the pieces' total length: ``text`` holds them back
    to back, piece i from byte 8 * starts[i], each NUL-padded to a multiple of
    8 bytes, then m zero bytes, m the longest rounded up to 8. Row r of the 8
    rows of 2m + 8 ``masks`` holds m + r ones, then zeros, so the window from
    byte 8 * mask_starts[i] holds as many ones as piece i has bytes."""
    lengths = np.array([len(piece) for piece in pieces])
    spans = -(-lengths // 8)
    m = 8 * int(spans.max())
    text = b"".join([piece.ljust((len(piece) + 7) & -8, b"\0") for piece in pieces]) + bytes(m)
    masks = np.arange(2 * m + 8) < m + np.arange(8)[:, None]
    mask_starts = lengths % 8 * (m // 4 + 1) + m // 8 - lengths // 8
    return text, np.cumsum(spans) - spans, masks.ravel(), mask_starts, lengths


def _put_pieces(table, rows: np.ndarray, words: np.ndarray, keep: np.ndarray) -> None:
    """Write piece ``rows[i]`` of a ``_byte_table`` into row i of ``words``
    (uint32, a multiple of 8 bytes wide) and mark its bytes in ``keep``: the
    text's window at the piece's start, and the masks' window that drops the
    bytes past it. Windows start at multiples of 8 bytes, where numpy copies
    8- and 16-byte items whole; they are indexed, as ``np.take`` would first
    copy every window."""
    text, starts, masks, mask_starts, _ = table
    width = 4 * words.shape[1]
    for buffer, at, out in ((text, starts, words), (masks, mask_starts, keep)):
        windows = np.ndarray(((len(buffer) - width) // 8 + 1,), f"V{width}", buffer, strides=(8,))
        _cells(out, slice(None))[:] = windows[at[rows]]


def _write_chunks(codes: np.ndarray, widths: np.ndarray, tail: int):
    """``(part, width)`` for each tile of ``to_csv``, in record order: a
    tile's rows are ``width`` words of prefix, then ``tail`` more.

    ``width`` is the widest prefix among the tile's own codes, and ``part``
    takes the most records whose rows of ``width + tail`` words (at least 16)
    fit in ``_WRITE_CHUNK`` rows of 16 words, so a long label shortens only
    the tiles that hold it. The scan reads only as many codes as the first
    record's row admits, which bounds the count, as the width never falls."""
    start = 0
    while start < len(codes):
        window = _WRITE_CHUNK * 16 // max(16, int(widths[codes[start]]) + tail)
        wide = np.maximum.accumulate(widths[codes[start : start + max(1, window)]])
        fits = np.maximum(16, wide + tail) * np.arange(1, len(wide) + 1) <= _WRITE_CHUNK * 16
        count = max(1, int(np.count_nonzero(fits)))
        yield slice(start, start + count), int(wide[count - 1])
        start += count


def _all_in(values: np.ndarray, allowed: range) -> bool:
    """Whether every value equals one of the integers ``allowed``, as
    ``np.isin`` decides it: by the range of an integer or boolean column,
    else by equality."""
    if values.dtype.kind in "biu":
        return bool(allowed[0] <= values.min() and values.max() <= allowed[-1])
    return bool(np.logical_or.reduce([values == a for a in allowed]).all())


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
                shown = echo(label) if isinstance(label, str) else echo(repr(label), str)
                raise ValueError(
                    f"group label {shown} must be non-empty UTF-8 text with no surrounding space or control character"
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
        if not _all_in(outcome, range(2)):
            raise ValueError("outcomes must be 0 or 1")
        object.__setattr__(self, "codes", np.asarray(codes, dtype=np.int32))
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "outcome", outcome.astype(np.int8, copy=False))
        decision = np.asarray(decision)
        if len(decision) != n:
            raise ValueError("decision column length mismatch")
        if not _all_in(decision, range(NO_DECISION, 2)):
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

        A row is three runs of bytes: its group's prefix (the label cell as
        ``csv.writer`` quotes it, then a comma, in UTF-8), the ``repr`` of its
        score, and one of six suffixes ``",{outcome},{decision}\\n"``, at index
        ``3 * outcome + decision + 1``, where a missing decision (-1) has an
        empty cell. Scores are formatted in numpy to ``repr``'s own bytes;
        ``repr`` itself writes each score that kernel cannot certify (see
        ``_shortest_digits``). Each tile of at most ``_WRITE_CHUNK`` records
        (see ``_write_chunks``) fills a matrix of uint32 words, one row per
        record as wide as the tile's widest prefix rounded up to 8 bytes, and
        a mask of the bytes each row keeps, and gives the kept bytes, so a
        tile's temporaries stay in cache and memory stays bounded. Tiles are
        formatted two at a time, on the calling thread and one helper (see
        ``_InOrder``), and the calling thread writes them in record order, so
        the bytes do not depend on thread scheduling: a traced peak of
        4.5 MB for 200,000 records."""
        prefixes = _byte_table([_csv_line((label, ""))[:-1].encode() for label in self.labels])
        suffixes = _byte_table([f",{y},{d}\n".encode() for y in (0, 1) for d in ("", "0", "1")])
        q = -(-int(suffixes[-1].max()) // 4)
        tiles = _write_chunks(self.codes, 2 * -(-prefixes[-1] // 8), _SCORE_BYTES // 4 + q)
        with open(path, "wb") as fh:
            fh.write(_csv_line(CSV_HEADER).encode())
            _InOrder(tiles, partial(self._tile_bytes, prefixes, suffixes, q)).run(fh.write)

    def _tile_bytes(self, prefixes, suffixes, q: int, tile: tuple[slice, int]) -> np.ndarray:
        """The bytes ``to_csv`` writes for the records of one ``(part, p)``
        tile of ``_write_chunks``, whose rows have ``p`` words of prefix and
        ``q`` of suffix."""
        part, p = tile
        s = p + _SCORE_BYTES // 4  # a row's words: prefix [0, p), score [p, s), suffix [s, s + q)
        score = self.score[part]
        shortest = _shortest_digits(score)  # before the rows, so as not to hold both
        words = np.empty((len(score), s + q), np.uint32)
        keep = np.empty((len(score), 4 * (s + q)), bool)
        _put_pieces(prefixes, self.codes[part], words[:, :p], keep[:, : 4 * p])
        _score_cells(score, shortest, words[:, p:s], keep[:, 4 * p : 4 * s])
        _put_pieces(suffixes, 3 * self.outcome[part] + self.decision[part] + 1, words[:, s:], keep[:, 4 * s :])
        return words.view(np.uint8)[keep]

    @classmethod
    def from_csv(cls, path) -> "AuditDataset":
        """Read a ``group,score,outcome,decision`` file, UTF-8 with or without
        a byte-order mark.

        A numpy tokenizer reads a regular file whose records each fill one
        line, their cells as ``csv.writer`` writes them: the label bare, or
        quoted when it holds a comma or a quote, then the score, then
        ``,outcome,decision`` unpadded. Lines may end in LF, CR LF or a lone
        CR, and blank lines are skipped. It reads blocks of whole lines
        (``_READ_BLOCK`` bytes) with plain reads, tokenizes two in flight at
        once, on the calling thread and one helper (see ``_InOrder``), and
        codes their labels on the calling thread in file order; the result
        does not depend on thread scheduling. Its memory is the columns, 14
        bytes per record in blocks, joined one column at a time, each
        column's blocks let go once it is joined, plus two blocks' work: a
        traced peak of 9.8-10.2 MB for 200,000 records. Any other file
        (padded cells, other quoting, bad tokens, over-long cells, a record
        spread over lines, bytes that are not UTF-8, no records, a pipe) is
        read row by row; that reader's result, or its line-numbered error,
        defines the format.
        """
        data = _read_columns(path)
        return data if data is not None else _read_rows(path)


def _factorize(values: list) -> tuple[tuple, np.ndarray]:
    """The distinct values in first-seen order, and each value's index among them."""
    index = dict.fromkeys(values)
    for k, value in enumerate(index):
        index[value] = k
    return tuple(index), np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))


def _csv_line(values) -> str:
    """``values`` as ``csv.writer`` renders them as one row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


#: Bytes per block of the record tokenizer. A block ends after the last line
#: break among them, or grows to the end of its one line, so the tokenizer's
#: memory stays bounded whatever the file's length.
_READ_BLOCK = 448 << 10
#: Zero bytes on each side of a block in the tokenizer's buffer, so that each
#: window it reads lies inside: 24 bytes before a score cell's end, 16 from a
#: label cell's start.
_PAD = 24
_LINE_BREAK = re.compile(rb"[\r\n]")
#: A score cell that ``float`` reads, row by row: digits, points, exponents
#: and signs only, so no space, quote or other text that ``csv`` or ``strip``
#: would change.
_NUMBER = re.compile(rb"[0-9.eE+-]*")
#: For a score cell ``0.`` plus n digits, n = 0..19, that ends a 24-byte
#: window: the window's last n bytes, its digits, as three uint64 words of
#: 0xFF bytes, and the byte "0" everywhere else, which parses as a zero digit.
_DIGIT_PLACES = np.arange(24) >= 24 - np.arange(20)[:, None]
_DIGIT_MASKS = (_DIGIT_PLACES * np.uint8(0xFF)).view("V24")[:, 0]
_ZERO_FILL = np.where(_DIGIT_PLACES, 0, ord("0")).astype(np.uint8).view("V24")[:, 0]
#: For a label cell of L bytes, L = 0..16: the bytes of a 16-byte window
#: that hold it, from its start (``_HEAD_MASKS``) and to its end
#: (``_TAIL_MASKS``), as 0xFF bytes.
_HEAD_MASKS = ((np.arange(16) < np.arange(17)[:, None]) * np.uint8(0xFF)).view("V16")[:, 0]
_TAIL_MASKS = ((np.arange(16) >= 16 - np.arange(17)[:, None]) * np.uint8(0xFF)).view("V16")[:, 0]
#: Odd multipliers of a label cell's key words in its hash.
_KEY_HASH = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93, 0xA0761D6478BD642F], np.uint64
)


def _windows(buf: np.ndarray, dtype) -> np.ndarray:
    """Each run of ``dtype``'s size in bytes of ``buf`` as one item, one
    from each byte, a view: indexing it copies the runs at given starts."""
    dtype = np.dtype(dtype)
    return np.ndarray((len(buf) - dtype.itemsize + 1,), dtype, buf, strides=(1,))


def _words(items: np.ndarray) -> np.ndarray:
    """Opaque items as rows of little-endian uint64 words, a view, so that a
    word's first byte is its lowest on any platform."""
    return items.view("<u8").reshape(len(items), items.itemsize // 8)


def _cell_digits(cells: np.ndarray, places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(value, digits)``: the number that the last ``places[i]`` bytes of
    each 24-byte cell spell as ASCII digits, below 10**19 for up to 19
    places, and whether they are all digits.

    The cell's other bytes become "0", and each of its three uint64 words is
    read by Lemire's SWAR parse ("Number parsing at a gigabyte per second",
    arXiv:2101.11408): two multiplies join pairs, then quads. The words are
    parsed in place, so ``cells`` is overwritten, beside one temporary."""
    words = _words(cells)
    words &= _words(_DIGIT_MASKS[places])
    words |= _words(_ZERO_FILL[places])
    high = words + 0x0606060606060606
    high &= 0xF0F0F0F0F0F0F0F0
    high >>= 4
    high |= words & 0xF0F0F0F0F0F0F0F0
    high ^= 0x3333333333333333  # zero where all eight bytes are digits
    digits = (high[:, 0] | high[:, 1] | high[:, 2]) == 0
    words -= 0x3030303030303030
    rest = np.right_shift(words, 8, out=high)
    words *= 10
    words += rest  # each byte pair's value, in its low byte
    rest = np.right_shift(words, 16, out=rest)
    rest &= 0xFF000000FF
    rest *= 1 + (10000 << 32)
    words &= 0xFF000000FF
    words *= 100 + (1000000 << 32)
    words += rest
    words >>= 32  # each word's eight digits
    return words[:, 0] * 10**16 + words[:, 1] * 10**8 + words[:, 2], digits


def _last_comma(cells: np.ndarray) -> np.ndarray:
    """The index of the last comma in each row of the byte matrix ``cells``,
    or -1: the top set bit of the last of the row's words that holds one,
    which ``frexp`` reads off the word as a double."""
    flags = (cells == ord(",")).view("<u8")
    last = np.full(len(cells), -1)
    for j in range(flags.shape[1]):
        word = flags[:, j]
        np.copyto(last, (np.frexp(word.astype(np.float64))[1] - 1) // 8 + 8 * j, where=word != 0)
    return last


def _decimal_scores(digits: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x, certified)``: where certified, x is the double nearest to
    digits / 10**k, for uint64 ``digits`` below 10**19 and k <= 19.

    Below 2**53, digits is an exact double, as is 10**k, so one division
    rounds once (Clinger's fast path, PLDI 1990). Above, the quotient of the
    rounded digits lies within about an ulp. ``_decimal_residual`` certifies
    it, or else its one correction by the residual, against half an ulp; a
    power of two, whose rounding interval is lopsided, is not certified."""
    high = digits.astype(np.float64)
    x = high / _POW10[k]
    certified = digits < 2**53
    rows = np.flatnonzero(~certified)
    guess = x[rows]
    for _ in range(2):
        if not len(rows):
            break
        count = (high[rows], (digits[rows] - high[rows].astype(np.uint64)).view(np.int64).astype(np.float64))
        m, e = np.frexp(guess)
        _, residual, passes, certain = _decimal_residual(guess, np.ldexp(1.0, e - 54), k[rows], count)
        done = passes & certain & (m != 0.5)
        x[rows[done]] = guess[done]
        certified[rows[done]] = True
        guess = (guess + residual / _POW10[k[rows]])[~done]
        rows = rows[~done]
    return x, certified


def _cell_label(cell: bytes) -> str | None:
    """The group label of a label cell written exactly as ``csv.writer``
    writes it, which the row reader reads back as it is; else None."""
    try:
        text = cell.decode()
    except UnicodeDecodeError:
        return None
    label = text[1:-1].replace('""', '"') if text.startswith('"') else text
    return label if _is_plain_label(label) and _csv_line((label, "")) == f"{text},\n" else None


class _Refused(Exception):
    """A block of a record file that the tokenizer leaves to the row reader."""


def _runs(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(firsts, within, runs)``: the runs ``data[starts[i] : starts[i] +
    lengths[i]]`` back to back in ``runs``, run i from ``firsts[i]``, and
    each byte's place in its run."""
    firsts = np.cumsum(lengths) - lengths
    within = np.arange(lengths.sum()) - np.repeat(firsts, lengths)
    return firsts, within, data[np.repeat(starts, lengths) + within]


def _label_keys(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key and the hash of each label cell ``buf[starts[i] : starts[i] +
    lengths[i]]`` (see ``_LabelCodes``)."""
    windows = _windows(buf, "V16")
    short = np.minimum(lengths, 16)
    keys = np.empty((len(starts), 5), np.uint64)
    keys[:, 0] = lengths
    keys[:, 1:3] = _words(windows[starts])
    keys[:, 1:3] &= _words(_HEAD_MASKS[short])
    keys[:, 3:] = _words(windows[starts + lengths - 16])
    keys[:, 3:] &= _words(_TAIL_MASKS[short])
    hashes = keys @ _KEY_HASH
    # A cell of more than 32 bytes adds its middle bytes to its hash, so
    # that cells differing only there are two labels.
    long = np.flatnonzero(lengths > 32)
    if len(long):
        firsts, within, middles = _runs(buf, starts[long] + 16, lengths[long] - 32)
        powers = np.cumprod(np.full(int(within.max()) + 1, _KEY_HASH[0]))
        hashes[long] += np.add.reduceat(middles * powers[within], firsts)
    return keys, hashes


class _LabelCodes:
    """The group codes of a record file's label cells, read block by block
    in file order, with ``labels`` in first-seen order.

    A cell's key is its length and its first and last 16 bytes, which fix a
    cell of up to 32 bytes; a longer cell's hash covers its middle bytes
    too. Each block makes its keys and hashes (see ``_label_keys``), and the
    calling thread looks the hashes up among those of the known labels, a
    block at a time, in file order; a cell it misses is decoded and checked
    once, as a new label. Each row's key, and a longer cell's middle bytes,
    are then compared with its label's first cell, so a hash collision
    refuses the file rather than merge two labels. The first cells are kept
    back to back in ``text``, from ``starts``, and the hashes sorted, with
    the code of each."""

    def __init__(self):
        self.labels, self.cells = (), ()
        self.keys, self.hashes = np.empty((0, 5), np.uint64), np.empty(0, np.uint64)
        self._learn([], self.keys, self.hashes)

    def _learn(self, cells: list[bytes], keys: np.ndarray, hashes: np.ndarray) -> None:
        """Add the labels of new ``cells``, in order; ``_Refused`` if one is refused."""
        labels = tuple(map(_cell_label, cells))
        if None in labels:
            raise _Refused
        self.labels, self.cells = self.labels + labels, self.cells + tuple(cells)
        self.keys, self.hashes = np.concatenate([self.keys, keys]), np.concatenate([self.hashes, hashes])
        order = np.argsort(self.hashes)
        self.sorted, self.order = self.hashes[order], order.astype(np.int32)
        lengths = np.array([len(cell) for cell in self.cells], np.int64)
        self.text = np.frombuffer(b"".join(self.cells), np.uint8)
        self.starts = np.cumsum(lengths) - lengths

    def codes(
        self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, keys: np.ndarray, hashes: np.ndarray
    ) -> np.ndarray:
        """The code of each label cell ``buf[starts[i] : starts[i] + lengths[i]]``,
        whose key and hash are ``keys[i]`` and ``hashes[i]`` (see
        ``_label_keys``), learning the labels of new cells; ``_Refused`` if a
        cell is refused."""
        missing = np.flatnonzero(~np.isin(hashes, self.sorted))
        if len(missing):
            rows = missing[np.sort(np.unique(hashes[missing], return_index=True)[1])]
            cells = [buf[a : a + n].tobytes() for a, n in zip(starts[rows].tolist(), lengths[rows].tolist())]
            self._learn(cells, keys[rows], hashes[rows])
        codes = self.order[np.searchsorted(self.sorted, hashes)]
        diff = _words(self.keys.view("V40")[codes, 0])
        diff ^= keys  # zero where each row's key, so its length too, is its label's
        if diff.any():
            raise _Refused
        long = np.flatnonzero(lengths > 32)
        ours = _runs(buf, starts[long] + 16, lengths[long] - 32)[2]
        if not np.array_equal(ours, _runs(self.text, self.starts[codes[long]] + 16, lengths[long] - 32)[2]):
            raise _Refused
        return codes


def _score_column(buf: np.ndarray, cells: np.ndarray, cuts: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The score of each record, whose cell lies between the comma at
    ``cuts`` and the tail at ``tails`` of ``buf``, and ends the 24 bytes of
    its row of ``cells``; ``_Refused`` if a cell is not a number in [0, 1]
    that ``float`` reads from it as it is.

    A cell ``0.`` plus 1-19 digits is parsed from its window (see
    ``_cell_digits`` and ``_decimal_scores``); ``float`` reads any other
    cell, and any the kernel cannot certify, if it holds only ``_NUMBER``
    characters."""
    widths = tails - cuts - 1
    score = np.empty(len(cuts))
    certified = np.zeros(len(cuts), bool)
    pairs = _windows(buf, "<u2")[cuts + 1]
    rows = np.flatnonzero((widths >= 3) & (widths <= 21) & (pairs == 0x2E30))  # "0." then 1-19 digits
    places = widths[rows] - 2
    value, digits = _cell_digits(cells[rows], places)
    rows, places = rows[digits], places[digits]
    score[rows], certified[rows] = _decimal_scores(value[digits], places)
    rest = np.flatnonzero(~certified)
    text = buf.tobytes() if len(rest) else b""
    for i, a, b in zip(rest.tolist(), (cuts[rest] + 1).tolist(), tails[rest].tolist()):
        cell = text[a:b]
        if not _NUMBER.fullmatch(cell):
            raise _Refused
        try:
            score[i] = number = float(cell)
        except ValueError:
            raise _Refused from None
        if not 0.0 <= number <= 1.0:
            raise _Refused
    return score


def _block_records(buf: np.ndarray, last: bool, limit: int) -> tuple:
    """``(labels, score, outcome, decision)`` of the records in one block of
    whole lines, which ``buf`` holds between ``_PAD`` zero bytes on each
    side, where ``labels`` is ``(buf, starts, lengths, keys, hashes)`` of
    the label cells, the arguments of ``_LabelCodes.codes``; ``_Refused``
    unless every line is blank or a record that the row reader reads the
    same. ``last`` tells whether the block ends the file, where the last
    line may lack its line break. The result depends on the block's bytes
    alone.

    A record is a label cell as ``csv.writer`` writes it (see
    ``_cell_label``), a comma, a score cell (see ``_score_column``), then
    ``,outcome,decision`` exactly, read from the line's end. The score cell
    starts after the last comma before that tail, so a quoted label may hold
    commas."""
    end = len(buf) - _PAD
    controls = np.flatnonzero(buf[_PAD:end] < 32) + _PAD
    ends = buf[controls]
    if not np.all((ends == 10) | (ends == 13)):
        raise _Refused  # a control character, which the row reader refuses or strips
    if last and (not len(controls) or controls[-1] != end - 1):
        controls = np.append(controls, end)
    starts = np.concatenate(([_PAD], controls[:-1] + 1))
    lines = controls > starts  # a line break right after another ends a blank line
    starts, ends = starts[lines], controls[lines]
    tail = _windows(buf, "<u4")[ends - 4]
    decided = (tail >> 24) != ord(",")
    tail = np.where(decided, tail, tail >> 8)  # the bytes ",o," then d (or 0)
    outcome = ((tail >> 8) & 0xFF) - ord("0")
    decision = (tail >> 24) - ord("0")
    if not np.all(((tail & 0xFF00FF) == 0x2C002C) & (outcome < 2) & ((decision < 2) | ~decided)):
        raise _Refused
    tails = ends - 3 - decided
    cells = _windows(buf, "V24")[tails - 24]  # the 24 bytes before each tail
    cuts = tails - 24 + _last_comma(cells.view(np.uint8).reshape(len(cells), 24))
    far = np.flatnonzero(cuts < tails - 24)  # no comma in the window: a long cell
    if len(far):
        text = buf.tobytes()
        cuts[far] = [text.rfind(b",", a, b) for a, b in zip(starts[far].tolist(), tails[far].tolist())]
    if not np.all(cuts > starts) or max(1, int((tails - cuts - 1).max(initial=0))) > limit:
        raise _Refused  # no label cell, or a cell the csv field limit refuses
    score = _score_column(buf, cells, cuts, tails)
    labels = (buf, starts, cuts - starts)
    decision = np.where(decided, decision.astype(np.int8), np.int8(NO_DECISION))
    return (*labels, *_label_keys(*labels)), score, outcome.astype(np.int8), decision


def _line_blocks(fh, longest: int):
    """Each block of whole lines of the binary file ``fh``, from where it
    stands, as ``(buf, last)``: ``buf`` holds the block between ``_PAD`` zero
    bytes on each side, and ``last`` tells whether it ends the file.

    A block is the part line that the block before it left, then
    ``_READ_BLOCK`` bytes read into the same buffer, up to the last line
    break among them, or, where they hold none, as far as its one line goes;
    ``_Refused`` at a line longer than any record."""
    rest = b""
    while True:
        buf = bytearray(len(rest) + _READ_BLOCK + 2 * _PAD)
        buf[_PAD : _PAD + len(rest)] = rest
        size = len(rest) + fh.readinto(memoryview(buf)[_PAD + len(rest) : -_PAD])
        while (cut := max(buf.rfind(b"\n", _PAD, _PAD + size), buf.rfind(b"\r", _PAD, _PAD + size))) < 0:
            if size < len(buf) - 2 * _PAD:
                break  # a short read: the end of the file
            if size >= longest:
                raise _Refused
            buf[-_PAD:] = bytes(min(size, longest - size) + _PAD)  # twice the room, up to a longest line
            size += fh.readinto(memoryview(buf)[_PAD + size : -_PAD])
        last = size < len(buf) - 2 * _PAD
        end = _PAD + size if last else cut + 1
        if end == _PAD:
            return
        rest = buf[end : _PAD + size]
        buf[end : end + _PAD] = bytes(_PAD)
        yield np.frombuffer(buf, np.uint8, end + _PAD), last


class _InOrder:
    """``use(work(task))`` for each task of the iterator ``tasks``, in
    order, with ``work`` on two threads: the calling thread and one helper.
    The one two-thread mechanism of the record reader and the writer.

    Either thread takes the next task while fewer than two items are out
    (taken and not yet used), so at most two items' work is held at once.
    ``next(tasks)`` runs under the lock, so tasks are made one at a time, in
    order, whichever thread takes them: the record reader reads its file
    there. ``use`` runs on the calling thread only, in task order, so
    what it makes does not depend on which thread did which item, or when.
    An item that raises, in ``next(tasks)`` or in ``work``, stops the taking
    of tasks, and its exception is raised at its place in the order. The
    helper is joined before ``run`` returns or raises."""

    def __init__(self, tasks, work):
        self._tasks, self._work = tasks, work
        self._state = threading.Condition()
        self._done: dict[int, tuple] = {}  # index -> (exception or None, result), for items not yet used
        self._taken = self._used = 0
        self._stopped = False  # no task is left, one failed, or run has ended

    def run(self, use) -> None:
        helper = threading.Thread(target=self._help)
        helper.start()
        try:
            while (item := self._next()) is not None:
                exc, result = item
                if exc is not None:
                    raise exc
                use(result)
                with self._state:
                    self._used += 1
                    self._state.notify_all()
        finally:
            with self._state:
                self._stopped = True
                self._state.notify_all()
            helper.join()

    def _take(self) -> tuple | None:
        """Under the lock: ``(index, task)`` of the next task, or None while
        two items are out, or when none is left to take."""
        if self._stopped or self._taken - self._used >= 2:
            return None
        index = self._taken
        try:
            task = next(self._tasks)
        except StopIteration:
            self._stopped = True
            return None
        except Exception as exc:
            self._taken += 1
            self._put(index, (exc, None))
            return None
        self._taken += 1
        return index, task

    def _put(self, index: int, done: tuple) -> None:
        """Under the lock: item ``index``'s ``(exception or None, result)``."""
        self._done[index] = done
        self._stopped |= done[0] is not None
        self._state.notify_all()

    def _do(self, index: int, task) -> None:
        try:
            done = None, self._work(task)
        except Exception as exc:  # raised again at its place in the order
            done = exc, None
        with self._state:
            self._put(index, done)

    def _help(self) -> None:
        while True:
            with self._state:
                while (task := self._take()) is None:
                    if self._stopped:
                        return
                    self._state.wait()
            self._do(*task)

    def _next(self) -> tuple | None:
        """On the calling thread: the next item's ``(exception or None,
        result)``, doing tasks while it is not done; None when every item is
        used."""
        while True:
            with self._state:
                task = None
                while self._used not in self._done and (task := self._take()) is None:
                    if self._used == self._taken:
                        return None
                    self._state.wait()
                if task is None:
                    return self._done.pop(self._used)
            self._do(*task)


def _read_columns(path) -> AuditDataset | None:
    """The records of ``path`` read by a numpy byte tokenizer, or None when
    the row reader must decide: on any line or cell that the tokenizer
    cannot prove the row reader reads as it does, and on a file with no
    record, or one that is not a regular file, which could be read only once.

    The header is read by ``csv`` and must fill the first line. The lines
    after it are read in blocks of whole lines (see ``_line_blocks``) and
    tokenized on two threads (see ``_InOrder``); the calling thread codes
    their labels in file order (see ``_LabelCodes``) and joins the columns
    one at a time, letting go of each block's part of a column once it is
    joined. A record must lie on one line, as a line ends at LF, CR LF or a
    lone CR, so a cell spread over lines, or quoted other than as
    ``csv.writer`` quotes it, leaves the file to the row reader. So does a
    cell longer than the csv field-size limit, a byte that is not UTF-8, a
    number ``float`` refuses or a score outside [0, 1].
    """
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe is not opened here: its data can be read only once
        return None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except (ValueError, csv.Error):
            return None
        if header is None or reader.line_num != 1 or tuple(h.strip() for h in header) != CSV_HEADER:
            return None
    limit = csv.field_size_limit()
    # A record line holds at most 4 * limit + 2 bytes of label cell, limit of
    # score, 5 of separators and tail, and its line break.
    longest = 5 * limit + 8
    labels = _LabelCodes()
    columns = ([], [], [], [])  # codes, score, outcome, decision, by block

    def gather(part) -> None:
        cells, *rest = part
        for column, values in zip(columns, (labels.codes(*cells), *rest)):
            column.append(values)

    with open(path, "rb") as fh:
        found = _LINE_BREAK.search(fh.readline(longest))
        if found is None:  # no line break after the header
            return None
        fh.seek(found.end())
        try:
            _InOrder(_line_blocks(fh, longest), lambda block: _block_records(*block, limit)).run(gather)
        except _Refused:
            return None
    if not columns[0]:  # no line after the header
        return None
    joined = []
    for column in columns:
        joined.append(np.concatenate(column))
        column.clear()
    codes, score, outcome, decision = joined
    try:
        return AuditDataset._from_codes(codes, labels.labels, score, outcome, decision)
    except ValueError:  # no record, or a label that the constructor refuses
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
            if any(map(SURROGATE.search, header)):
                raise ValueError("row 1: a cell holds bytes that are not UTF-8")
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise ValueError(f"expected header {','.join(CSV_HEADER)!r}, got {echo(repr(header), str)}")
            line_no = 1
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if any(map(SURROGATE.search, row)):
                    raise ValueError(f"row {line_no}: a cell holds bytes that are not UTF-8")
                if len(row) != 4:
                    raise ValueError(f"row {line_no}: expected 4 columns, got {len(row)}")
                group, score_s, outcome_s, decision_s = (c.strip() for c in row)
                if not group:
                    raise ValueError(f"row {line_no}: empty group label")
                if CONTROL_CHARACTER.search(group):
                    raise ValueError(f"row {line_no}: group label {echo(group)} holds a control character")
                try:
                    score = float(score_s)
                except ValueError:
                    raise ValueError(f"row {line_no}: score {echo(score_s)} is not a number") from None
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"row {line_no}: score {echo(score_s, str)} outside [0, 1]")
                if outcome_s not in ("0", "1"):
                    raise ValueError(f"row {line_no}: outcome {echo(outcome_s)} must be 0 or 1")
                if decision_s not in ("", "0", "1"):
                    raise ValueError(f"row {line_no}: decision {echo(decision_s)} must be empty, 0, or 1")
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
    f0, f1 = (ScoreDensity(np.bincount(targets, d.weights, csd.grid_size)) for d in (csd.f0, csd.f1))
    return pop.with_group(group, ConditionalScoreDensity(f0=f0, f1=f1))


#: Largest |sum(p) - 1| that ``draw_categorical`` accepts: numpy's tolerance
#: in ``Generator.choice``.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def draw_categorical(rng: np.random.Generator, p, n: int) -> np.ndarray:
    """n indices drawn with probabilities p: exactly ``rng.choice(len(p),
    size=n, p=p)``, leaving ``rng`` in the same state.

    It inverts the same CDF (``p.cumsum() / its last entry``) at the same
    ``rng.random(n)`` draws, so index i is the count of CDF entries <= u_i.
    The draws are taken one tile of ``_WRITE_CHUNK`` at a time, as
    consecutive ``Generator.random`` calls give the doubles of one call. The
    count is found by indexed search (Chen and Asau, 1974): with m a power
    of two >= 4 len(p), ``u*m`` is exact, so a draw lies in bucket
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
    m = 4 << (p.size - 1).bit_length()
    below = cdf.searchsorted(np.arange(m + 1) / m, "right")  # entries <= j/m
    first = below[:-1]
    cut = cdf[first]
    crowded = np.diff(below) > 1
    search = crowded.any()
    idx = np.empty(n, np.intp)
    for start in range(0, n, _WRITE_CHUNK):
        u = rng.random(min(_WRITE_CHUNK, n - start))
        bucket = (u * m).astype(np.intp)
        out = idx[start : start + len(u)]
        np.take(first, bucket, out=out)
        out += cut[bucket] <= u
        if search:
            hard = crowded[bucket]
            out[hard] = cdf.searchsorted(u[hard], "right")
    return idx


def sample(pop: PopulationModel, n: int, seed: int, rule=None) -> AuditDataset:
    """Draw n i.i.d. records from the population.

    Each of the k groups is drawn with probability 1/k; (score, outcome)
    pairs follow each group's conditional density, with scores uniform within
    their grid cell. One stream gives, in order, every record's group, then
    group by group its records' cells and outcomes, score offsets and, with
    a rule, decisions. Each group's rows are written through one index
    array, one tile of ``_WRITE_CHUNK`` records at a time.

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
        rows = np.flatnonzero(gidx == gi)
        k = len(rows)
        if k == 0:
            continue
        first_record[gi] = int(rows[0])
        csd = pop.group(label)
        g = csd.grid_size
        joint = np.concatenate([csd.f0.weights, csd.f1.weights])
        joint = joint / joint.sum()
        draw = draw_categorical(rng, joint, k)
        tiles = [slice(start, start + _WRITE_CHUNK) for start in range(0, k, _WRITE_CHUNK)]
        for tile in tiles:
            at, cells = rows[tile], draw[tile]  # outcome * g + cell
            outcome_col[at] = cells >= g
            cells %= g
            score_col[at] = (cells + rng.random(len(at))) / g
        if rule is not None:
            policy = rule.for_group(label)
            for tile in tiles:
                at = rows[tile]
                decision_col[at] = rng.random(len(at)) < policy.probability(score_col[at])

    order = sorted(first_record, key=first_record.__getitem__)
    renumber = np.zeros(len(labels), dtype=np.int32)
    renumber[order] = np.arange(len(order))
    return AuditDataset._from_codes(
        renumber[gidx], [labels[gi] for gi in order], score_col, outcome_col, decision_col
    )

