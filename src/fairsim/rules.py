"""Threshold decision policies, the exact confusion table a policy gives on a
group, and solvers for rate- and harm-parity targets.

Decisions are binary: decide 1 exactly when the score strictly exceeds a
threshold. Randomized policies mix two thresholds, which reaches any point on
a chord of the group's ROC curve. Solvers work in exact rational arithmetic
(thresholds and mixes may be `fractions.Fraction`), so a solved rule
re-measures to its target rates exactly, not merely within a tolerance.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .densities import UNDEFINED, ConditionalScoreDensity, PopulationModel, ScoreDensity, echo, is_defined


class InfeasibleRuleError(ValueError):
    """Raised when no threshold policy can reach the requested target."""


def _check_unit(value, name: str) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {float(value)!r}")


class _ThresholdMix:
    """A policy that uses one of its thresholds at random: ``mixture()`` lists
    ``(weight, threshold)`` pairs whose exact weights sum to 1, and each
    threshold decides 1 exactly when the score strictly exceeds it."""

    def probability(self, score):
        """Probability of deciding 1 at a score, or at each of an array of scores.

        Weights and thresholds count as floats. A randomized policy gives the
        bits of ``q*(s > lower) + (1.0 - q)*(s > upper)``: where both terms
        count, ``q + float(1 - q)`` rounds to 1.0 just as ``q + (1.0 - q)`` does.
        """
        s = np.asarray(score, dtype=float)
        p = sum(float(w) * (s > float(t)) for w, t in self.mixture())
        return float(p) if p.ndim == 0 else p

    def decided_mass(self, density: ScoreDensity) -> Fraction:
        """Exact mass of the density on which the policy decides 1; a weight-1
        term costs no Fraction product and a lone term no sum."""
        first, *rest = (
            density.exact_mass_above(t) if w == 1 else w * density.exact_mass_above(t) for w, t in self.mixture()
        )
        return sum(rest, first)


@dataclass(frozen=True)
class DeterministicThreshold(_ThresholdMix):
    """Decide 1 iff score > threshold."""

    threshold: float | Fraction

    def __post_init__(self):
        _check_unit(self.threshold, "threshold")

    def mixture(self) -> tuple[tuple[int, float | Fraction]]:
        return ((1, self.threshold),)


@dataclass(frozen=True)
class RandomizedThreshold(_ThresholdMix):
    """Mix of two deterministic thresholds: use ``lower`` with probability ``mix``."""

    lower: float | Fraction
    upper: float | Fraction
    mix: float | Fraction

    def __post_init__(self):
        _check_unit(self.lower, "lower")
        _check_unit(self.upper, "upper")
        _check_unit(self.mix, "mix")
        if self.lower > self.upper:
            raise ValueError("lower threshold must not exceed upper threshold")

    def mixture(self) -> tuple[tuple[Fraction, float | Fraction], ...]:
        q = self.mix if isinstance(self.mix, Fraction) else Fraction(float(self.mix))
        return ((q, self.lower), (1 - q, self.upper))


Policy = DeterministicThreshold | RandomizedThreshold


@dataclass(frozen=True)
class DecisionRule:
    """Per-group threshold policy."""

    policies: dict[str, Policy]

    def __post_init__(self):
        if not self.policies:
            raise ValueError("a decision rule needs at least one group policy")

    def for_group(self, label: str) -> Policy:
        try:
            return self.policies[label]
        except KeyError:
            raise KeyError(
                f"rule has no policy for group {label!r}; covered groups: {sorted(self.policies)}"
            ) from None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.policies)

    @classmethod
    def shared(cls, threshold, labels) -> "DecisionRule":
        """Same deterministic threshold for every listed group."""
        return cls({g: DeterministicThreshold(threshold) for g in labels})

    def serialize(self) -> str:
        """Rule text that ``parse`` reads back to the same values: a
        ``Fraction`` as ``n/d`` and any other number as the ``repr`` of its
        float. A label that holds whitespace cannot be written, since a rule
        line is whitespace-separated."""
        lines = []
        for label, pol in self.policies.items():
            if any(c.isspace() for c in label):
                raise ValueError(f"group label {label!r} holds whitespace, which rule text cannot carry")
            if isinstance(pol, DeterministicThreshold):
                lines.append(f"group={label} kind=det t1={_number_text(pol.threshold)}")
            else:
                lines.append(
                    f"group={label} kind=rand t1={_number_text(pol.lower)} "
                    f"t2={_number_text(pol.upper)} q={_number_text(pol.mix)}"
                )
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "DecisionRule":
        """Rule from ``serialize`` text; every error names its line."""
        lines = [(line_no, line) for line_no, line in enumerate(text.splitlines(), start=1) if line.strip()]
        if not lines:
            raise ValueError("line 1: no rule lines")
        policies: dict[str, Policy] = {}
        for line_no, line in lines:
            try:
                label, policy = _parse_rule_line(line)
            except KeyError as exc:
                raise ValueError(f"line {line_no}: malformed rule line {echo(line)}") from exc
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            if label in policies:
                raise ValueError(f"line {line_no}: group {echo(label)} is repeated")
            policies[label] = policy
        return cls(policies)


def _number_text(value) -> str:
    """``value`` as rule text: ``n/d`` for a ``Fraction``, else its float's ``repr``."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


#: The keys a rule line of each kind holds, as ``serialize`` writes them.
_RULE_KEYS = {"det": {"group", "kind", "t1"}, "rand": {"group", "kind", "t1", "t2", "q"}}


def _parse_rule_line(line: str) -> tuple[str, Policy]:
    fields = {}
    for item in line.split():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"token {echo(item)} is not of the form key=value")
        if key in fields:
            raise ValueError(f"key {echo(key)} is repeated")
        fields[key] = value

    def number(key: str) -> float | Fraction:
        value = fields[key]
        try:
            return Fraction(value) if "/" in value else float(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{key} {echo(value)} is not a number") from None

    kind = fields["kind"]
    if kind not in _RULE_KEYS:
        raise KeyError(kind)
    unknown = sorted(fields.keys() - _RULE_KEYS[kind])
    if unknown:
        raise ValueError(f"unknown key {echo(unknown[0])} for kind={kind}")
    if kind == "det":
        return fields["group"], DeterministicThreshold(number("t1"))
    return fields["group"], RandomizedThreshold(lower=number("t1"), upper=number("t2"), mix=number("q"))


@dataclass(frozen=True)
class PayoffMatrix:
    """Utilities of acting, by outcome, and the value of not acting.

    ``u11`` applies on (d=1, y=1), ``u10`` on (d=1, y=0). ``outside`` is the
    flat value of declining, whatever the outcome.
    """

    u11: float
    u10: float
    outside: float

    def __post_init__(self):
        for name in ("u11", "u10", "outside"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def recommender(cls, outside: float = 0.0) -> "PayoffMatrix":
        """+1 for an enjoyed pick, -1 for a dud; declining yields the outside value."""
        return cls(u11=1.0, u10=-1.0, outside=outside)


def _rate(num, den) -> Fraction | float:
    """num / den as an exact rate, or the undefined marker when the
    conditioning event is empty."""
    return Fraction(num) / Fraction(den) if den else UNDEFINED


@dataclass(frozen=True)
class ConfusionCounts:
    """Cells of a 2x2 decision-vs-outcome table, and the exact conditional
    rates read off them.

    Cells are exact: integers for empirical data, rationals for analytic
    masses. ``tp`` counts (d=1, y=1), ``fp`` (d=1, y=0), ``fn`` (d=0, y=1),
    ``tn`` (d=0, y=0). Each rate is a ``Fraction``, or the undefined marker
    when its conditioning class is empty.
    """

    tp: int | Fraction
    fp: int | Fraction
    fn: int | Fraction
    tn: int | Fraction

    def __post_init__(self):
        if any(c < 0 for c in (self.tp, self.fp, self.fn, self.tn)):
            raise ValueError("confusion cells must be nonnegative")

    @classmethod
    def of(cls, csd: ConditionalScoreDensity, policy: Policy) -> "ConfusionCounts":
        """One group's exact masses under its policy: the one analytic
        measurement of a policy, which the solvers and every metric read."""
        tp = policy.decided_mass(csd.f1)
        fp = policy.decided_mass(csd.f0)
        return cls(tp=tp, fp=fp, fn=csd.f1.exact_total() - tp, tn=csd.f0.exact_total() - fp)

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    @property
    def fpr(self) -> Fraction | float:
        """P(D=1 | Y=0) = fp/(fp+tn)."""
        return _rate(self.fp, self.fp + self.tn)

    @property
    def fnr(self) -> Fraction | float:
        """P(D=0 | Y=1) = fn/(fn+tp)."""
        return _rate(self.fn, self.fn + self.tp)

    @property
    def pos_given_r1(self) -> Fraction | float:
        """P(Y=1 | D=1) = tp/(tp+fp)."""
        return _rate(self.tp, self.tp + self.fp)

    @property
    def pos_given_r0(self) -> Fraction | float:
        """P(Y=1 | D=0) = fn/(fn+tn), the false omission rate."""
        return _rate(self.fn, self.fn + self.tn)


#: Relative margin, and absolute floor, under which the float pre-scan of the
#: ROC walk leaves a boundary's sign to exact arithmetic. ``_suffix_sums`` of G
#: nonnegative floats err by at most (G - 1) * 2**-53 relative (Rump, BIT 52,
#: 2012; Jeannerod and Rump, SIAM J. Matrix Anal. Appl. 34, 2013), under 2**-22
#: for G below 2**31; the targets, products and difference add 3 * 2**-53, in
#: all about a quarter of the margin. The floor is far above the underflow of
#: the targets and products, about G * 2**-1074, as a group's sums are at most G.
_PRESCAN_MARGIN = 2.0**-20
_PRESCAN_FLOOR = 2.0**-1000


def _roc_point_policy(csd: ConditionalScoreDensity, fpr_target: Fraction, tpr_target: Fraction) -> Policy:
    """Policy whose exact (fpr, tpr) equals the target point.

    Walks the group's ROC polyline (piecewise linear in the threshold) from
    threshold 0 upward and stops at its first crossing with the ray from (0,0)
    through the target, then mixes that threshold with the always-decline
    threshold 1. Both decided masses only shrink as the threshold rises, so
    the first crossing reaches farthest along the ray. The mix scales the
    crossing point back onto the target, which therefore must lie on or below
    the ROC. A target on an axis takes the same walk along that axis.
    """
    grid = csd.grid_size
    d1, d0 = csd.f1.exact_denominator, csd.f0.exact_denominator
    p1 = csd.f1.exact_total()
    p0 = csd.f0.exact_total()
    if p1 == 0 or p0 == 0:
        raise InfeasibleRuleError("group has a degenerate outcome class; rates undefined")
    if fpr_target == 0 and tpr_target == 0:
        return DeterministicThreshold(1.0)
    if fpr_target == 1 and tpr_target == 1:
        return DeterministicThreshold(0.0)

    c1 = fpr_target * p0
    c0 = tpr_target * p1

    # h[k] = a1[k]*c1 - a0[k]*c0, with a_y[k] the mass of f_y above boundary
    # k, is the integer n1[k]*x1 - n0[k]*x0 over a positive denominator. The
    # ROC meets the ray where h is 0; h[grid] is 0, so the walk always stops,
    # at the first boundary where h is 0 or its sign differs from h[0]'s.
    x1 = c1.numerator * c0.denominator * d0
    x0 = c0.numerator * c1.denominator * d1
    n1, n0 = csd.f1.boundary_numerator, csd.f0.boundary_numerator
    h0 = n1(0) * x1 - n0(0) * x0
    for k in _walk_plan(csd, c1, c0, h0):
        a1, a0 = n1(k), n0(k)
        h = a1 * x1 - a0 * x0
        if h == 0:
            t, mass1, mass0 = Fraction(k, grid), Fraction(a1, d1), Fraction(a0, d0)
            break
        if (h > 0) != (h0 > 0):
            w1, w0 = Fraction(csd.f1.weights[k - 1]), Fraction(csd.f0.weights[k - 1])
            # within cell k - 1: masses are linear in u = k/grid - t
            u = Fraction(-h, d1 * d0 * c1.denominator * c0.denominator) / (w1 * c1 - w0 * c0)
            t, mass1, mass0 = Fraction(k, grid) - u, Fraction(a1, d1) + w1 * u, Fraction(a0, d0) + w0 * u
            break

    # achieved rate over target rate along the ray, read on the tpr axis
    # unless the target lies on the fpr axis
    lam = mass1 / c0 if c0 else mass0 / c1
    if lam < 1:
        raise InfeasibleRuleError(
            f"target (fpr={float(fpr_target):.6g}, tpr={float(tpr_target):.6g}) lies above the "
            f"group's ROC curve (best reach {float(lam):.6g} of the target along its ray)"
        )
    if lam == 1:
        return DeterministicThreshold(t)
    return RandomizedThreshold(lower=t, upper=Fraction(1), mix=1 / lam)


def _suffix_sums(density: ScoreDensity) -> np.ndarray:
    """G times the mass of [k/G, 1], k = 0..G: the float sum of the weights
    from k on, added from the top; entry G, and every sum of zeros, is 0.0."""
    return np.cumsum(np.append(density.weights, 0.0)[::-1])[::-1]


def _walk_plan(csd: ConditionalScoreDensity, c1: Fraction, c0: Fraction, h0: int) -> list[int]:
    """The boundaries the exact ROC walk must visit, in order.

    h[k] has the sign of a1[k]*c1 - a0[k]*c0, which a float pre-scan reads
    off each class's ``_suffix_sums``, G times a1 and a0. A boundary whose
    float value exceeds the margin and floor has a certain sign. The scan
    settles each such boundary of h[0]'s sign, where the walk cannot stop,
    and ends the plan at the first of the other sign, where it must. A
    target on an axis makes c1 or c0 exactly 0.0, and h[0] = 0 leaves
    boundary 0 unsettled, so one scan serves every target."""
    a1 = _suffix_sums(csd.f1) * float(c1)
    a0 = _suffix_sums(csd.f0) * float(c0)
    h = a1 - a0
    certain = np.abs(h) > (a1 + a0) * _PRESCAN_MARGIN + _PRESCAN_FLOOR
    first = (h > 0) == (h0 > 0)
    crossed = np.flatnonzero(certain & ~first)
    end = crossed[0] + 1 if crossed.size else h.size
    return np.flatnonzero(~(certain & first)[:end]).tolist()


def solve_equalized_odds(pop: PopulationModel, reference: str, threshold) -> DecisionRule:
    """Rule matching every group's false positive and false negative rates
    to the reference group's rates under its deterministic threshold.

    Non-reference groups get (possibly randomized) thresholds whose exact
    rates equal the reference point. Raises InfeasibleRuleError when a
    group's ROC curve passes below the reference point.
    """
    ref_policy = DeterministicThreshold(threshold)
    ref = ConfusionCounts.of(pop.group(reference), ref_policy)
    fpr, fnr = ref.fpr, ref.fnr
    if not (is_defined(fpr) and is_defined(fnr)):
        raise ValueError("reference group has a degenerate outcome class; rates undefined")

    policies: dict[str, Policy] = {reference: ref_policy}
    for label, csd in pop.groups.items():
        if label == reference:
            continue
        try:
            policies[label] = _roc_point_policy(csd, fpr, 1 - fnr)
        except InfeasibleRuleError as exc:
            raise InfeasibleRuleError(f"group {label!r}: {exc}") from None
    return DecisionRule(policies)


def solve_parity_ratio(pop: PopulationModel, reference: str, threshold) -> DecisionRule:
    """Rule equalizing the mass declined despite outcome 1 across groups.

    The reference group keeps its deterministic threshold; every other group
    gets the threshold at which its declined outcome-1 mass exactly equals the
    reference group's. Infeasible when the target exceeds a group's base rate.
    """
    ref_policy = DeterministicThreshold(threshold)
    target = ConfusionCounts.of(pop.group(reference), ref_policy).fn

    policies: dict[str, Policy] = {reference: ref_policy}
    for label, csd in pop.groups.items():
        if label == reference:
            continue
        total1 = csd.f1.exact_total()
        if target > total1:
            raise InfeasibleRuleError(
                f"group {label!r}: target declined-positive mass {float(target):.6g} exceeds "
                f"the group's base rate {float(total1):.6g}"
            )
        policies[label] = DeterministicThreshold(_threshold_for_below_mass(csd.f1, target))
    return DecisionRule(policies)


def _threshold_for_below_mass(density: ScoreDensity, target: Fraction) -> Fraction:
    """Threshold t with exact mass of {s <= t} equal to target: the largest
    grid boundary where that mass is reached, else a point inside the cell
    after the last boundary below it."""
    if target == 0:
        return Fraction(0)
    grid = density.grid_size
    n, den = density.boundary_numerator, density.exact_denominator
    total = n(0)
    # mass of {s <= k/grid} is (n(0) - n(k)) / den; compare it to target
    # as the integers (n(0) - n(k)) * target.den and target.num * den.
    # lo is the largest boundary with below <= target.
    lo = bisect.bisect_right(
        range(grid + 1), target.numerator * den, key=lambda k: (total - n(k)) * target.denominator
    ) - 1
    rest = n(lo)
    below = Fraction(total - rest, den)
    if below == target:
        return Fraction(lo, grid)
    return Fraction(lo, grid) + (target - below) / Fraction(density.weights[lo])
