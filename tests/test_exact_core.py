"""Structural guards over the package source.

Exact arithmetic lives in one integer core in ``densities``; every other
module goes through its public API (``boundary_numerators``,
``exact_denominator``, ``exact_mass_above`` and friends), and a total or a
one-threshold mass of an int64-scaled density is read without building the
boundary numerators. Weighted draws go through one sampler, decisions
through one policy path, dataset records through one tally that only the
two table builders call (``confusion_tables`` and ``level_tables``),
confusion masses through one table builder and the solvers, no module
reaches into another's private names, no import is left unused, and no
export is left that only tests use."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import fairsim
from fairsim import ConditionalScoreDensity, DeterministicThreshold, ScoreDensity

PRIVATE = {"_integer_form", "_scaled_numerators", "_tail"}


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


def test_a_calibrated_build_leaves_the_marginals_without_a_suffix():
    """Building a calibrated group reads one total from the raw and the
    normalized marginal; neither builds its G + 1 boundary numerators."""
    grid = 4096
    rng = np.random.default_rng(3)
    raw = ScoreDensity(rng.uniform(0.2, 1.0, grid) * (1.0 - 0.8 * ((np.arange(grid) + 0.5) / grid - 0.5)))
    marginal = raw.normalized()
    ConditionalScoreDensity.calibrated(marginal)
    for density in (raw, marginal):
        assert "_scaled_numerators" in density.__dict__
        assert "_integer_form" not in density.__dict__


def test_a_calibrated_group_keeps_only_the_suffix_of_its_python_int_cells():
    """The f0 and f1 of a calibrated group overflow int64, so their integer
    form is the G + 1 boundary numerators alone: no array of cell
    numerators is kept beside it, and a cell is the difference of two."""
    grid = 1000
    csd = ConditionalScoreDensity.from_base_rate(0.3, grid)
    for density in (csd.f0, csd.f1):
        scaled, den, total = density._scaled_numerators
        assert total is None and isinstance(scaled, tuple) and len(scaled) == grid + 1
        assert density.boundary_numerators() is scaled
        cells = [Fraction(w) / grid for w in density.weights.tolist()]
        assert [Fraction(scaled[k] - scaled[k + 1], den) for k in range(grid)] == cells
        # 1/3 lies in cell 333, two thirds of which lie above it
        assert density.exact_mass_above(Fraction(1, 3)) == sum(cells[334:]) + cells[333] * Fraction(2, 3)


def test_a_three_level_density_reads_one_threshold_without_a_suffix():
    """A three-level density, the shape of an appendix reshape, scales within
    int64, so its mass below a threshold, its total and a policy's decided
    mass are tail sums of its cell numerators; none builds the G + 1
    boundary numerators."""
    grid = 1024
    weights = np.repeat([0.7 / 0.3, 0.25 / 0.45, 0.05 / 0.25], [307, 461, 256])
    density = ScoreDensity(weights)
    below = density.exact_mass_below(0.5)
    total = density.exact_total()
    decided = DeterministicThreshold(0.5).decided_mass(density)
    assert "_integer_form" not in density.__dict__
    assert density._scaled_numerators[0].dtype == np.int64
    cells = [Fraction(w) for w in weights.tolist()]
    assert total == sum(cells) / grid
    assert decided == sum(cells[grid // 2 :]) / grid
    assert below == total - decided


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
