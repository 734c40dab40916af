"""Structural guards over the package source.

Exact arithmetic lives in one integer core in ``densities``, which caches
one integer form per density, its limb suffix matrix, and its total; every
other module goes through its public API (``boundary_numerator``,
``boundary_numerators``, ``exact_denominator``, ``exact_total``,
``exact_mass_above`` and friends). A total, a one-threshold mass, a
calibrated build and both solvers, on any target and any weight spread,
read single rows of that matrix; only the judge's ROC series and the two
exact expected-utility reads call ``boundary_numerators()``, which reads all
G + 1 rows.
Weighted draws go through one sampler, decisions through one policy path,
dataset records through one tally that only the two table builders call
(``confusion_tables`` and ``level_tables``), confusion masses through one
table builder and the solvers, no module reaches into another's private
names, no import is left unused, and no export is left that only tests
use."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairsim
from fairsim import (
    ConditionalScoreDensity,
    ConfusionCounts,
    DeterministicThreshold,
    InfeasibleRuleError,
    PopulationModel,
    ScoreDensity,
    solve_equalized_odds,
    solve_parity_ratio,
)
from _helpers import random_equalized_odds_instance

PRIVATE = {"_suffix_limbs", "_exact_total"}


def test_only_densities_touches_the_private_exact_core():
    package = Path(fairsim.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package) == Path("densities.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in PRIVATE:
                offenders.append(f"{path.relative_to(package)}:{node.lineno}: {name}")
    assert offenders == []


def test_a_density_caches_one_integer_form():
    """A density keeps one integer form, its limb suffix matrix, and its
    total: after every public read, ``boundary_numerators()`` included, its
    cached private names are exactly those two, and neither the bit decode
    the matrix was built from nor the numerators read off it is kept."""
    density = ScoreDensity(np.random.default_rng(5).uniform(0.2, 1.0, 1024))
    density.boundary_numerator(7)
    density.boundary_numerators()
    density.exact_denominator
    density.exact_total()
    density.exact_mass_above(0.3)
    density.exact_mass_below(Fraction(1, 3))
    density.total_mass()
    density.is_normalized()
    density.normalized()
    density.midpoints()
    density.grid_size
    assert {name for name in vars(density) if name.startswith("_")} == PRIVATE


def test_only_the_roc_series_and_the_exact_utility_read_every_boundary():
    """``boundary_numerators()`` reads all G + 1 rows of the limb matrix, so
    only the judge's ROC series and the two exact expected-utility reads call
    it, once each per call; every other exact read takes one row."""
    assert _callers("boundary_numerators") == {
        "experiments.py": {"_roc_series"},
        "utility.py": {"long_run_eu", "classify_cases"},
    }


def _forbid_full_reads(monkeypatch) -> None:
    """Makes ``ScoreDensity.boundary_numerators`` fail the test if called."""

    def forbidden(density):
        raise AssertionError("read every boundary numerator")

    monkeypatch.setattr(ScoreDensity, "boundary_numerators", forbidden)


def test_a_calibrated_build_builds_no_boundary_tuple(monkeypatch):
    """Building a calibrated group reads one total from the raw weights, to
    normalize them, and from its f0 and f1, to check their joint mass; each
    reads it off its limb suffix matrix, and none reads its G + 1 Python-int
    boundary numerators. The normalized marginal is never read exactly, so
    it builds no limb matrix."""
    _forbid_full_reads(monkeypatch)
    grid = 4096
    rng = np.random.default_rng(3)
    raw = ScoreDensity(rng.uniform(0.2, 1.0, grid) * (1.0 - 0.8 * ((np.arange(grid) + 0.5) / grid - 0.5)))
    marginal = raw.normalized()
    csd = ConditionalScoreDensity.calibrated(marginal)
    for density in (raw, csd.f0, csd.f1):
        assert "_suffix_limbs" in density.__dict__
    assert not {name for name in vars(marginal) if name.startswith("_")}


def _scaled_marginal(grid: int, total: float) -> ScoreDensity:
    weights = ScoreDensity(np.random.default_rng(grid).uniform(0.2, 1.0, grid)).normalized().weights
    return ScoreDensity(weights * total)


@pytest.mark.parametrize("grid", [7, 1000, 4096])
@pytest.mark.parametrize("total", [0.0, 0.5, 2.0, 1 - 1e-8, 1 + 1e-8])
def test_calibrated_refuses_a_marginal_that_is_not_normalized(grid, total):
    """The joint mass check on f0 + f1 is the one check of a calibrated
    build's mass, and it refuses every marginal whose total is off 1."""
    with pytest.raises(ValueError, match="f0 and f1 masses must sum to 1"):
        ConditionalScoreDensity.calibrated(_scaled_marginal(grid, total))


@pytest.mark.parametrize("grid", [7, 1000, 4096])
@pytest.mark.parametrize("total", [1 - 1e-12, 1 + 1e-12])
def test_calibrated_accepts_a_marginal_within_rounding_of_normalized(grid, total):
    csd = ConditionalScoreDensity.calibrated(_scaled_marginal(grid, total))
    assert csd.f0.exact_total() + csd.f1.exact_total() == pytest.approx(total, abs=1e-15)


def test_a_calibrated_group_reads_cells_and_tails_off_its_limbs():
    """The f0 and f1 of a calibrated group hold numerators wider than 64
    bits. Each boundary numerator is one read off the limb suffix matrix, a
    cell is the difference of two, and the full read agrees with every one."""
    grid = 1000
    csd = ConditionalScoreDensity.from_base_rate(0.3, grid)
    for density in (csd.f0, csd.f1):
        den = density.exact_denominator
        reads = [density.boundary_numerator(k) for k in range(grid + 1)]
        assert reads[0].bit_length() > 64
        cells = [Fraction(w) / grid for w in density.weights.tolist()]
        assert [Fraction(reads[k] - reads[k + 1], den) for k in range(grid)] == cells
        # 1/3 lies in cell 333, two thirds of which lie above it
        assert density.exact_mass_above(Fraction(1, 3)) == sum(cells[334:]) + cells[333] * Fraction(2, 3)
        assert list(density.boundary_numerators()) == reads


def test_a_three_level_density_reads_one_threshold_without_the_boundary_tuple(monkeypatch):
    """A three-level density, the shape of an appendix reshape: its mass
    below a threshold, its total and a policy's decided mass are O(1) reads
    of its limb suffix matrix; none reads the G + 1 boundary numerators."""
    _forbid_full_reads(monkeypatch)
    grid = 1024
    weights = np.repeat([0.7 / 0.3, 0.25 / 0.45, 0.05 / 0.25], [307, 461, 256])
    density = ScoreDensity(weights)
    below = density.exact_mass_below(0.5)
    total = density.exact_total()
    decided = DeterministicThreshold(0.5).decided_mass(density)
    cells = [Fraction(w) for w in weights.tolist()]
    assert total == sum(cells) / grid
    assert decided == sum(cells[grid // 2 :]) / grid
    assert below == total - decided


#: One-entry reads of ``boundary_numerator`` that a solve at grid 4096 may
#: make: the reference's rates, the walk's boundary 0 and stop, or the parity
#: bisection (at most 18 were seen). A walk that the pre-scan did not settle
#: would read 2 * 4097.
SOLVE_READS = 24


def _count_reads(monkeypatch) -> list[int]:
    """Counts each call of ``ScoreDensity.boundary_numerator`` into the one
    entry of the returned list, and fails on a read of every boundary."""
    _forbid_full_reads(monkeypatch)
    reads = [0]
    read = ScoreDensity.boundary_numerator

    def counted(density, k):
        reads[0] += 1
        return read(density, k)

    monkeypatch.setattr(ScoreDensity, "boundary_numerator", counted)
    return reads


def _solve_reads(reads: list[int], solve, pop: PopulationModel, reference: str, threshold) -> int:
    """The reads that one solve makes, whether it finds a rule or not."""
    reads[0] = 0
    try:
        solve(pop, reference, threshold)
    except InfeasibleRuleError:
        pass
    return reads[0]


def test_both_solvers_build_no_boundary_tuple(monkeypatch):
    """The equalized-odds walk settles its boundaries with the float
    pre-scan and reads the rest one entry at a time, and the parity solver
    bisects on one-entry reads: neither reads every boundary, and each solve
    makes a few reads."""
    pop, _ = random_equalized_odds_instance(np.random.default_rng(11), grid=4096)
    reads = _count_reads(monkeypatch)
    for solve in (solve_equalized_odds, solve_parity_ratio):
        for reference in pop.labels:
            assert _solve_reads(reads, solve, pop, reference, 0.5) <= SOLVE_READS


def test_axis_targets_and_subnormal_cells_build_no_boundary_tuple(monkeypatch):
    """A reference with no outcome-0 (or outcome-1) mass above 1/2 puts the
    target at threshold 3/4 on the tpr (or fpr) axis, and a group with
    subnormal cells has suffix sums over a 1074-bit exponent span; the walk
    pre-scans them like any other target and group, reading no boundary
    tuple and making a few reads."""
    grid = 4096
    rng = np.random.default_rng(12)
    top = np.arange(grid) >= grid // 2

    def group(w0, w1):
        scale = grid / (w0.sum() + w1.sum())
        return ConditionalScoreDensity(f0=ScoreDensity(w0 * scale), f1=ScoreDensity(w1 * scale))

    def draw():
        return rng.uniform(0.2, 1.0, grid), rng.uniform(0.2, 1.0, grid)

    def no_fp(w0, w1):
        return group(np.where(top, 0.0, w0), w1)

    def no_tp(w0, w1):
        return group(w0, np.where(top, 0.0, w1))

    tiny = rng.random((2, grid)) < 0.1
    subnormal = group(*np.where(tiny, rng.integers(1, 1 << 20, (2, grid)) * 5e-324, draw()))
    assert 0 < subnormal.f0.weights.min() < 2.0**-1022
    cases = [
        (no_fp(*draw()), no_fp(*draw()), 0.75),
        (no_tp(*draw()), no_tp(*draw()), 0.75),
        (group(*draw()), subnormal, 0.5),
    ]
    on_tpr_axis, on_fpr_axis = (ConfusionCounts.of(ref, DeterministicThreshold(t)) for ref, _, t in cases[:2])
    assert on_tpr_axis.fpr == 0 < on_tpr_axis.fnr < 1 and on_fpr_axis.fnr == 1 > on_fpr_axis.fpr > 0
    reads = _count_reads(monkeypatch)
    for ref, other, threshold in cases:
        pop = PopulationModel({"ref": ref, "other": other})
        for solve in (solve_equalized_odds, solve_parity_ratio):
            assert _solve_reads(reads, solve, pop, "ref", threshold) <= SOLVE_READS


def test_only_draw_categorical_draws_weighted_choices():
    """Every weighted draw goes through ``densities.draw_categorical``, which
    reproduces ``Generator.choice(p=...)``; no module calls ``.choice`` with
    ``p=`` itself."""
    package = Path(fairsim.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "choice"
                and any(kw.arg == "p" for kw in node.keywords)
            ):
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []


def _callers(name: str) -> dict[str, set[str]]:
    """Each package module that calls ``name``, by plain name or attribute,
    with the top-level definitions the calls sit in (None for module level)."""
    package = Path(fairsim.__file__).parent
    callers = {}
    for path in sorted(package.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                        callers.setdefault(str(path.relative_to(package)), set()).add(getattr(top, "name", None))
    return callers


def test_one_analytic_measurement_reads_decided_masses():
    """A policy on a group is measured one way: only ``ConfusionCounts.of``
    calls ``decided_mass``, and the solvers and every metric read its rates."""
    assert _callers("decided_mass") == {"rules.py": {"ConfusionCounts"}}


def test_only_the_two_table_builders_tally_records():
    """Every pass over a dataset's records goes through the two tables: no
    module outside ``metrics.py`` calls ``tally``, and inside it only the
    builders of ``confusion_tables`` and ``level_tables`` do."""
    assert _callers("tally") == {"metrics.py": {"confusion_tables", "level_tables"}}


def test_every_export_is_used_or_documented():
    """Each name the package re-exports is used somewhere in the package
    outside its own definition, or named in a code span of the README: an
    export that only tests reach is code to delete. A use inside the
    definition of such an export does not count, so a name that only dead
    code uses is dead too."""
    package = Path(fairsim.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    uses = []  # (name of a top-level definition, or None, and the names it uses)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            owner = getattr(top, "name", None)
            names = {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None) for node in ast.walk(top)}
            uses.append((owner, names - {owner}))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)}
    dead, previous = set(), None
    while dead != previous:
        previous = dead
        used = set().union(*(names for owner, names in uses if owner not in dead))
        dead = {name for name in exported if name not in used | documented}
    assert sorted(dead) == []


def _private_names(tree: ast.Module) -> set[str]:
    """The single-underscore (not dunder) names a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` reads: '' for the package
    itself, None for a module outside it."""
    dotted = "." * node.level + (node.module or "")
    if dotted == "fairsim" or dotted.startswith("fairsim."):
        return dotted[len("fairsim.") :]
    return dotted[1:] if node.level == 1 else None


def test_no_module_reaches_into_another_modules_private_names():
    """A single-underscore name defined at the top of one fairsim module is
    that module's own: no other module imports it, or reads it off the
    module as an attribute."""
    package = Path(fairsim.__file__).parent
    paths = sorted(package.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    private = {name: _private_names(tree) for name, tree in trees.items()}
    offenders = []
    for name, tree in trees.items():
        modules = {}  # a name bound in this module to a package module -> that module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("fairsim.") and alias.name[len("fairsim.") :] in trees:
                        modules[alias.asname or alias.name] = alias.name[len("fairsim.") :]
            elif isinstance(node, ast.ImportFrom) and (source := _package_module(node)) is not None:
                for alias in node.names:
                    if source == "" and alias.name in trees:
                        modules[alias.asname or alias.name] = alias.name
                    elif source != name and alias.name in private.get(source or "__init__", ()):
                        offenders.append(f"{name}.py:{alias.lineno}: {alias.name}")
        for node in ast.walk(tree):
            owner = modules.get(ast.unparse(node.value)) if isinstance(node, ast.Attribute) else None
            if owner not in (None, name) and node.attr in private[owner]:
                offenders.append(f"{name}.py:{node.lineno}: {node.attr}")
    assert offenders == []


POLICY_KINDS = {"DeterministicThreshold", "RandomizedThreshold"}


def test_only_rules_tells_policy_kinds_apart():
    """Every policy decides through its ``mixture()``, so no module outside
    ``rules.py`` asks which kind of policy it holds."""
    package = Path(fairsim.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package) == Path("rules.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                continue
            named = {
                n.id if isinstance(n, ast.Name) else n.attr
                for arg in node.args[1:]
                for n in ast.walk(arg)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if named & POLICY_KINDS:
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []


def test_every_import_is_used():
    """Each name a module imports is referenced in it; with no linter in the
    toolchain, this catches an import left behind by a deletion. The package
    ``__init__.py`` imports to re-export, so it is skipped."""
    package = Path(fairsim.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(package)}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []
