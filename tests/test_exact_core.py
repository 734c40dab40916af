"""Exact arithmetic lives in one integer core in ``densities``; every other
module goes through its public API (``boundary_numerators``,
``exact_denominator``, ``exact_mass_above`` and friends)."""

import ast
from pathlib import Path

import fairsim

PRIVATE = {"_exact", "_ExactMass"}


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
