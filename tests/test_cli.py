import functools
import inspect
from typing import Literal, get_args, get_origin

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fairsim import sample, solve_equalized_odds
from fairsim import experiments
from fairsim.cli import (
    MAX_BINS,
    MAX_GRID,
    MAX_RESHAPES,
    MAX_SAMPLES,
    SIZE_BOUNDS,
    _build_parser,
    build_config,
    main,
)
from _helpers import judge_population


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_values(out: str) -> dict[str, str]:
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            values[key] = val
    return values


def write_four_cell_file(path):
    rows = ["group,score,outcome,decision"]
    for g in ("a", "b"):
        rows += [f"{g},0.9,1,1", f"{g},0.9,0,1", f"{g},0.1,1,0", f"{g},0.1,0,0"]
    path.write_text("\n".join(rows) + "\n")


def test_audit_echoes_exact_rational_rates(tmp_path, capsys):
    path = tmp_path / "four.csv"
    write_four_cell_file(path)
    code, out, _ = run_cli(capsys, "audit", "--input", str(path), "--format", "doc")
    assert code == 0
    values = doc_values(out)
    assert values["rates.a.fpr"] == "0.5"
    assert values["rates.a.fnr"] == "0.5"
    assert values["separation.fpr_gap"] == "0"
    assert values["sufficiency.gap_r1"] == "0"


def test_audit_flags_malformed_scores(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("group,score,outcome,decision\na,0.5,1,\nb,1.2,0,\n")
    code, _, err = run_cli(capsys, "audit", "--input", str(path))
    assert code == 1
    assert "row 3" in err


def test_audit_keeps_a_trailing_nul_label_apart(tmp_path, capsys):
    path = tmp_path / "nul.csv"
    path.write_text("group,score,outcome,decision\na\x00,0.9,1,1\na\x00,0.1,0,0\nb,0.9,1,1\nb,0.2,1,0\n")
    code, out, err = run_cli(capsys, "audit", "--input", str(path), "--format", "doc")
    assert code == 0, err
    values = doc_values(out)
    assert values["input.groups"] == "2"
    assert (values["base_rate.a\x00"], values["base_rate.b"]) == ("0.5", "1")
    with path.open("a") as fh:
        fh.write("a,0.9,0,1\n")
    code, out, err = run_cli(capsys, "audit", "--input", str(path), "--format", "doc")
    assert code == 0, err
    values = doc_values(out)
    assert values["input.groups"] == "3"
    assert (values["base_rate.a\x00"], values["base_rate.a"]) == ("0.5", "0")


def test_audit_reports_an_oversized_field_on_one_line(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("group,score,outcome,decision\na,0.5,1,1\n" + "x" * 131_073 + ",0.5,1,1\n")
    code, out, err = run_cli(capsys, "audit", "--input", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("audit error: row 3: field larger than field limit")


@pytest.mark.parametrize("bins", ["0", "-3", str(MAX_BINS + 1), str(10**18)])
def test_audit_rejects_bins_outside_the_cap_before_reading(tmp_path, capsys, bins):
    # The input does not exist: the error names the bins, so nothing was read
    # and nothing sized by the bin count was allocated.
    code, out, err = run_cli(capsys, "audit", "--input", str(tmp_path / "absent.csv"), "--bins", bins)
    assert code == 1
    assert out == ""
    assert err == f"audit error: bins must be between 1 and {MAX_BINS}, got {int(bins)}\n"


def test_audit_rejects_single_group(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("group,score,outcome,decision\na,0.5,1,\na,0.2,0,\n")
    code, _, err = run_cli(capsys, "audit", "--input", str(path))
    assert code == 1
    assert "2 groups" in err


def test_audit_without_decisions_skips_rate_metrics(tmp_path, capsys):
    path = tmp_path / "nodecision.csv"
    path.write_text("group,score,outcome,decision\na,0.5,1,\nb,0.2,0,\n")
    code, out, _ = run_cli(capsys, "audit", "--input", str(path), "--format", "doc")
    assert code == 0
    values = doc_values(out)
    assert values["rates.available"] == "false"
    assert "separation.fpr_gap" not in values


def test_audit_writes_report_file(tmp_path, capsys):
    path = tmp_path / "four.csv"
    write_four_cell_file(path)
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "audit", "--input", str(path), "--format", "doc", "--out", str(outdir))
    assert code == 0
    assert (outdir / "audit.doc").read_text() == out


def test_audit_of_a_sampled_judge_population(tmp_path, capsys):
    pop = judge_population(1024)
    rule = solve_equalized_odds(pop, "men", 0.5)
    data = sample(pop, 120_000, seed=42, rule=rule)
    path = tmp_path / "judge.csv"
    data.to_csv(path)
    code, out, _ = run_cli(capsys, "audit", "--input", str(path), "--format", "doc")
    assert code == 0
    values = {k: float(v) for k, v in doc_values(out).items() if v not in ("true", "false", "undefined") and not k.startswith("input.path")}
    assert values["separation.fpr_gap"] < 0.01
    assert values["separation.fnr_gap"] < 0.01
    assert values["sufficiency.gap_r1"] > 0.02


def test_simulate_recommender_defaults(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "recommender", "samples=50000",
        "--out", str(tmp_path / "rec"), "--format", "doc",
    )
    assert code == 0
    values = doc_values(out)
    assert abs(float(values["metrics.eu.analytic.women"]) - 0.25) <= 1e-4
    assert (tmp_path / "rec" / "report.doc").exists()


def test_simulate_appendix_defaults(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "appendix", "reshapes=10",
        "--out", str(tmp_path / "app"), "--format", "doc",
    )
    assert code == 0
    values = doc_values(out)
    assert float(values["metrics.popA.missed_positive_gap"]) <= 1e-6
    assert float(values["metrics.popB.missed_positive_gap"]) <= 1e-6
    assert float(values["metrics.false_omission.men_shift"]) > 0.01


def test_simulate_judge_requires_convention(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "judge", "--out", str(tmp_path))
    assert code == 2
    assert "convention" in err
    code, out, _ = run_cli(
        capsys, "simulate", "judge", "--convention", "per-outcome", "--out", str(tmp_path / "j")
    )
    assert code == 0


def test_simulate_unknown_experiment_lists_valid_ids(capsys):
    code, _, err = run_cli(capsys, "simulate", "nosuch")
    assert code == 2
    for name in ("recommender", "equal-rates", "judge", "appendix"):
        assert name in err


def test_simulate_rejects_unknown_override(capsys):
    code, _, err = run_cli(capsys, "simulate", "equal-rates", "p_cats=0.2")
    assert code == 2
    assert "p_men" in err


def test_simulate_rejects_badly_typed_override(capsys):
    code, _, err = run_cli(capsys, "simulate", "equal-rates", "p_men=lots")
    assert code == 2
    assert "float" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recommender", "--grid", str(MAX_GRID + 1)],
        ["recommender", f"grid={10**30}"],
        ["judge", "grid=1", "--convention", "per-outcome"],
        ["recommender", f"samples={MAX_SAMPLES + 1}"],
        ["recommender", "--samples", "0"],
        ["appendix", f"reshapes={MAX_RESHAPES + 1}"],
        ["appendix", "reshapes=-1"],
    ],
)
def test_simulate_rejects_sizes_outside_their_bounds(tmp_path, capsys, monkeypatch, argv):
    calls = []
    for spec in experiments.EXPERIMENTS.values():
        runner = getattr(experiments, spec.runner)
        monkeypatch.setattr(experiments, spec.runner, functools.wraps(runner)(lambda **values: calls.append(values)))
    code, out, err = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("simulate error: ") and "must be between" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_size_bounds_admit_defaults_and_large_grids():
    for name, spec in experiments.EXPERIMENTS.items():
        required = [f"{k}={spec.params[k].default}" for k in spec.cli_required]
        for extra in ([], ["--grid", "16384"], ["--grid", str(MAX_GRID)]):
            config = build_config(_build_parser().parse_args(["simulate", name, *required, *extra]))
            assert config.overrides.keys() == spec.params.keys()


def test_simulate_outputs_are_byte_identical(tmp_path, capsys):
    args = ["simulate", "recommender", "samples=20000", "--format", "doc"]
    run_cli(capsys, *args, "--out", str(tmp_path / "one"))
    run_cli(capsys, *args, "--out", str(tmp_path / "two"))
    for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_list_command(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for name in ("recommender", "equal-rates", "judge", "appendix"):
        assert name in out


GOLDEN_LIST = """\
recommender  self-serving decisions on displayed scores; one group's scores transformed
             defaults: map=constant map_value=0.9 grid=1024 samples=1000000 seed=42
equal-rates  equal error rates with unequal per-decision utility loss
             defaults: p_men=0.1 p_women=0.4 fp_mass=0.1
judge        group-specific thresholds equalizing error rates or expected harm
             defaults: base_rate_m=0.3 base_rate_f=0.6 reference_t=0.5 grid=1024 convention=per-outcome rule=equalized-odds reference=men
appendix     harm parity preserved under negative-class reshapes that change declined-case composition
             defaults: grid=1024 reshapes=100 seed=7
"""


def test_list_output_is_pinned(capsys):
    assert run_cli(capsys, "list") == (0, GOLDEN_LIST, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equal-rates", "p_cats=0.2"],
         "unknown parameter 'p_cats' for experiment 'equal-rates'; valid parameters: p_men, p_women, fp_mass"),
        (["equal-rates", "p_men=lots"], "parameter 'p_men' expects float, got 'lots'"),
        (["appendix", "grid=1.5"], "parameter 'grid' expects int, got '1.5'"),
        (["judge", "convention=bogus"],
         "parameter 'convention' must be one of ('per-outcome', 'per-person'), got 'bogus'"),
        (["judge", "rule=bogus", "--convention", "per-outcome"],
         "parameter 'rule' must be one of ('equalized-odds', 'parity-ratio'), got 'bogus'"),
        (["judge", "reference=bogus", "--convention", "per-outcome"],
         "parameter 'reference' must be one of ('men', 'women'), got 'bogus'"),
        (["recommender", "map=bogus"],
         "parameter 'map' must be one of ('identity', 'constant', 'flip', 'compress'), got 'bogus'"),
        (["judge"], "experiment 'judge' requires explicit convention (flag --convention or convention=...)"),
        (["judge", "noeq", "--convention", "per-outcome"], "override 'noeq' is not of the form key=value"),
        (["appendix", "reshapes=0"], "reshapes must be between 1 and 10000, got 0"),
        (["appendix", "grid=2"], "grid 2 is too small for the reshaped negative density"),
    ],
)
def test_simulate_error_lines_are_pinned(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"simulate error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_every_experiment_parameter_is_one_the_cli_can_resolve():
    names = set()
    for spec in experiments.EXPERIMENTS.values():
        params = spec.params
        for name, param in params.items():
            kind = param.annotation
            assert param.default is not inspect.Parameter.empty, (spec.name, name)
            if get_origin(kind) is Literal:
                assert all(isinstance(choice, str) for choice in get_args(kind)), (spec.name, name)
                assert param.default in get_args(kind), (spec.name, name)
            else:
                assert kind in (int, float, str), (spec.name, name, kind)
                assert type(param.default) is kind, (spec.name, name)
        assert set(spec.cli_required) <= params.keys(), spec.name
        names |= params.keys()
    assert SIZE_BOUNDS.keys() <= names


_PARAMS = [p for spec in experiments.EXPERIMENTS.values() for p in spec.params.values()]
_OVERRIDE_KEYS = sorted({p.name for p in _PARAMS}) + ["", "n_mc"]
_OVERRIDE_VALUES = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "16", "1.5", "0.25", "1e400", "nan", "0x10", "10" * 40, "9" * 5000]),
    st.sampled_from(sorted({choice for p in _PARAMS for choice in get_args(p.annotation)})),
    st.text(max_size=8),
)
_OVERRIDES = st.one_of(
    st.builds("{}={}".format, st.sampled_from(_OVERRIDE_KEYS), _OVERRIDE_VALUES),
    st.text(alphabet="abc_", max_size=5),
)
_FLAGS = st.sampled_from([[], ["--convention", "per-outcome"], ["--grid", "16"], ["--samples", "0"], ["--seed", "-3"]])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(sorted(experiments.EXPERIMENTS)),
    pairs=st.lists(_OVERRIDES, max_size=4),
    flags=_FLAGS,
)
def test_simulate_resolves_any_override_or_fails_on_one_line(tmp_path, capsys, monkeypatch, name, pairs, flags):
    spec = experiments.EXPERIMENTS[name]
    calls = []

    def stub(**values):
        calls.append(values)
        return experiments.ExperimentReport(name, values, {}, {})

    with monkeypatch.context() as patch:
        patch.setattr(experiments, spec.runner, functools.wraps(getattr(experiments, spec.runner))(stub))
        code, out, err = run_cli(capsys, "simulate", name, *pairs, *flags, "--out", str(tmp_path / "out"))
    if code == 0:
        assert len(calls) == 1 and calls[0].keys() == spec.params.keys()
        assert out.startswith(f"experiment.id = {name}\n")
    else:
        assert code == 2 and calls == [] and out == ""
        assert err.count("\n") == 1 and err.startswith("simulate error: "), err
