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
