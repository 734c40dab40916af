import re
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from fairsim import is_defined, run_equal_rates_unequal_utility, sample, solve_equalized_odds
from fairsim.cli import audit
from fairsim.experiments import EXPERIMENTS
from fairsim.reports import flatten, format_value, render_doc, render_text, write_series_csv

from _helpers import judge_population


def test_format_value_uses_twelve_significant_digits():
    assert format_value(1 / 3) == "0.333333333333"
    assert format_value(0.25) == "0.25"
    assert format_value(1.23456789012345e-7) == "1.23456789012e-07"


def test_format_value_special_cases():
    assert format_value(float("nan")) == "undefined"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.0) == "0"
    assert format_value(-0.0) == "0"
    assert format_value(7) == "7"
    assert format_value("per-outcome") == "per-outcome"


#: Fractions in [-1, 1] with numerators of up to 80 digits, as a solved rule's.
_LONG_FRACTIONS = st.integers(1, 10**80).flatmap(lambda d: st.builds(Fraction, st.integers(-d, d), st.just(d)))


@given(st.one_of(st.just(Fraction(0)), st.fractions(-1, 1), _LONG_FRACTIONS))
@example(
    Fraction(
        13945316800732055790447772735759563055614363597935983456868017129295886172700522463,
        16881163595718587546986913366478853751204660348084425882481108276824267029508816000,
    )
)
def test_format_value_rounds_a_fraction_once_to_its_float(x):
    assert format_value(x) == format_value(float(x))


def test_flatten_preserves_order_and_paths():
    nested = {"b": {"x": 1, "a": {"deep": 2}}, "a": 3}
    flat = flatten(nested)
    assert list(flat) == ["b.x", "b.a.deep", "a"]


def test_render_doc_layout():
    doc = render_doc({"m": {"gap": 0.5, "state": float("nan")}})
    assert doc == "m.gap = 0.5\nm.state = undefined\n"


def test_render_text_contains_every_key():
    text = render_text("title", {"a": 1, "b": {"c": True}})
    assert text.startswith("title\n-----\n")
    assert "b.c" in text and "true" in text


def test_write_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, [(0.0, -1.0), (1.0, 1.0)])
    assert path.read_bytes() == b"x,y\n0,-1\n1,1\n"


def test_experiment_report_write_is_reproducible(tmp_path):
    report = run_equal_rates_unequal_utility(0.1, 0.4, 0.1)
    first = report.write(tmp_path / "one", fmt="doc")
    second = report.write(tmp_path / "two", fmt="doc")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "one" / "report.doc").exists()
    assert (tmp_path / "one" / "series_false_decision_loss.csv").exists()


def test_experiment_report_text_format(tmp_path):
    report = run_equal_rates_unequal_utility(0.1, 0.4, 0.1)
    written = report.write(tmp_path, fmt="text")
    assert written[0].name == "report.txt"
    with pytest.raises(ValueError):
        report.write(tmp_path, fmt="yaml")


def test_verdicts_carry_their_magnitudes():
    report = run_equal_rates_unequal_utility(0.1, 0.4, 0.1)
    doc = report.to_doc()
    assert "verdicts.equal_utility.holds = false" in doc
    assert "verdicts.equal_utility.magnitude = 0.06" in doc
    assert "verdicts.equal_utility.tolerance = 1e-06" in doc


# -- every reported number states its basis by its type ----------------------------


def _readme_key_lists():
    """The exact-value and float-view key globs that README lists under
    "Reported numbers come in two kinds"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Reported numbers come in two kinds", 1)[1].split("\n- ", 1)[0]
    exact, view = section.split("- *Float views*")
    return [re.findall(r"`([^`]+)`", part.split("Keys:", 1)[1]) for part in (exact, view)]


def _simulate_reports():
    """Every ``simulate`` experiment at its defaults, the judge under both
    rules and on equal base rates, each small enough to run fast."""
    runs = [
        ("recommender", {"samples": 1000}),
        ("equal-rates", {}),
        ("judge", {"convention": "per-outcome"}),
        ("judge", {"convention": "per-person", "rule": "parity-ratio"}),
        ("judge", {"convention": "per-outcome", "base_rate_m": 0.4, "base_rate_f": 0.4}),
        ("appendix", {"reshapes": 3}),
    ]
    assert {name for name, _ in runs} == set(EXPERIMENTS)
    for name, values in runs:
        spec = EXPERIMENTS[name]
        yield spec.run({n: p.default for n, p in spec.params.items() if p.default is not p.empty} | values)


def test_every_reported_number_holds_the_type_of_its_readme_basis(tmp_path):
    """Each number under an exact-value key is a ``Fraction`` or undefined,
    each under a float-view key a ``float``, and each count an ``int`` under
    neither; every README key matches some number, and no report line but a
    rule's prints an ``n/d``."""
    exact_keys, view_keys = _readme_key_lists()
    pop = judge_population(256)
    with_decisions, without = tmp_path / "decided.csv", tmp_path / "undecided.csv"
    sample(pop, 2000, seed=3, rule=solve_equalized_odds(pop, "men", 0.5)).to_csv(with_decisions)
    sample(pop, 500, seed=4).to_csv(without)

    flats, docs = [], []
    for report in _simulate_reports():
        magnitudes = {name: {"magnitude": v.magnitude} for name, v in report.verdicts.items()}
        flats.append(flatten({"metrics": report.metrics, "verdicts": magnitudes}))
        docs.append(report.to_doc())
    for path in (with_decisions, without):
        mapping = audit(str(path))
        flats.append(flatten(mapping))
        docs.append(render_doc(mapping))

    matched = set()
    for flat in flats:
        for key, value in flat.items():
            if isinstance(value, (bool, str)):
                continue  # judgements and text, not numbers
            exact = [g for g in exact_keys if fnmatchcase(key, g)]
            view = [g for g in view_keys if fnmatchcase(key, g)]
            matched.update(exact, view)
            if type(value) is int:
                assert not exact and not view, f"count {key} is listed"
            elif exact:
                assert not view, f"{key} is listed as both kinds"
                assert type(value) is Fraction or (type(value) is float and not is_defined(value)), key
            else:
                assert view, f"{key} is in neither README list"
                assert type(value) is float, key
    assert matched == set(exact_keys) | set(view_keys)

    for doc in docs:
        for line in doc.splitlines():
            key, value = line.split(" = ", 1)
            if not key.startswith(("metrics.rule.", "input.path")):
                assert not re.search(r"\d/\d", value), line
