"""Structural guards over the package source.

Exact arithmetic lives in one integer core in ``densities``; every other
module goes through its public API (``boundary_numerators``,
``exact_denominator``, ``exact_mass_above`` and friends), and a total is
read without building the boundary numerators. Weighted draws go
through one sampler, decisions through one policy path, dataset records
through one tally, and no import is left unused."""

import ast
from pathlib import Path

import numpy as np

import fairsim
from fairsim import ConditionalScoreDensity, ScoreDensity

PRIVATE = {"_integer_form", "_total_form", "_scaled_numerators", "_suffix_form"}


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
        assert "_total_form" in density.__dict__
        assert "_integer_form" not in density.__dict__


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


def test_only_densities_uses_group_mask():
    """Empirical metrics count records through one all-group tally in
    ``metrics``; no module outside ``densities.py`` builds a per-group mask."""
    package = Path(fairsim.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package) == Path("densities.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "group_mask":
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
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
