import csv
import functools
import inspect
import shlex
from pathlib import Path
from typing import Literal, get_args, get_origin

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from fairsim import AuditDataset, sample, solve_equalized_odds
from fairsim import experiments, metrics
from fairsim.experiments import ExperimentReport
from fairsim.cli import (
    MAX_BINS,
    MAX_GRID,
    MAX_LEVEL_CELLS,
    MAX_RESHAPES,
    MAX_SAMPLES,
    SIZE_BOUNDS,
    _build_parser,
    _parse_overrides,
    audit,
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


@pytest.mark.parametrize(
    "label",
    ["a\nb = 9", "x\x01y", "a\x00", "a\x9fb"],
    ids=["forged-key", "raw-byte", "trailing-nul", "c1-control"],
)
def test_audit_rejects_a_label_that_holds_a_control_character(tmp_path, capsys, label):
    # Printed as is, the first label would add the report line "b = 9 = 1".
    path = tmp_path / "control.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [("group", "score", "outcome", "decision"), ("b", 0.9, 1, 1), (label, 0.9, 1, 1), (label, 0.1, 0, 0)]
        )
    code, out, err = run_cli(capsys, "audit", "--input", str(path), "--format", "doc")
    assert (code, out) == (1, "")
    assert err == f"audit error: row 3: group label {label!r} holds a control character\n"


def test_audit_reports_an_oversized_field_on_one_line(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("group,score,outcome,decision\na,0.5,1,1\n" + "x" * 131_073 + ",0.5,1,1\n")
    code, out, err = run_cli(capsys, "audit", "--input", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("audit error: row 3: field larger than field limit")


def test_audit_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"group,score,outcome,decision\na,0.5,1,1\n\xe9,0.5,1,1\nb,0.1,0,0\n")
    code, out, err = run_cli(capsys, "audit", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "audit error: row 3: a cell holds bytes that are not UTF-8\n"


@pytest.mark.parametrize("bins", ["0", "-3", str(MAX_BINS + 1), str(10**18)])
def test_audit_rejects_bins_outside_the_cap_before_reading(tmp_path, capsys, bins):
    # The input does not exist: the error names the bins, so nothing was read
    # and nothing sized by the bin count was allocated.
    code, out, err = run_cli(capsys, "audit", "--input", str(tmp_path / "absent.csv"), "--bins", bins)
    assert code == 1
    assert out == ""
    assert err == f"audit error: bins must be between 1 and {MAX_BINS}, got {int(bins)}\n"


@pytest.mark.parametrize("groups", [20, 21])
def test_audit_caps_groups_times_bins_after_reading(tmp_path, capsys, groups):
    # MAX_BINS bounds one group's calibration arrays; MAX_LEVEL_CELLS bounds
    # every group's together, before any tally is built.
    path = tmp_path / "groups.csv"
    path.write_text("group,score,outcome,decision\n" + "".join(f"g{k},0.5,{k % 2},\n" for k in range(groups)))
    code, out, err = run_cli(capsys, "audit", "--input", str(path), "--bins", str(MAX_BINS))
    if groups * MAX_BINS <= MAX_LEVEL_CELLS:
        assert (code, err) == (0, "")
        assert out.startswith("audit: ")
    else:
        assert (code, out) == (1, "")
        assert err == (
            f"audit error: {groups} groups at {MAX_BINS} bins make {groups * MAX_BINS:,} calibration cells, "
            f"over the cap of {MAX_LEVEL_CELLS:,}\n"
        )


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-1e-300"])
def test_audit_rejects_a_tol_that_is_not_finite_and_nonnegative_before_reading(tmp_path, capsys, tol):
    # Such a tol draws ``holds = false`` under every gap, even a gap of 0.
    code, out, err = run_cli(capsys, "audit", "--input", str(tmp_path / "absent.csv"), f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert err == f"audit error: tol must be a finite number of at least 0, got {float(tol)}\n"


def test_audit_accepts_a_tol_of_zero(tmp_path, capsys):
    path = tmp_path / "four.csv"
    write_four_cell_file(path)
    code, out, _ = run_cli(capsys, "audit", "--input", str(path), "--format", "doc", "--tol", "0")
    assert code == 0
    assert doc_values(out)["separation.holds"] == "true"


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


def test_audit_passes_over_the_records_as_often_for_six_groups_as_for_two(tmp_path, monkeypatch):
    """Every metric of one ``audit`` reads all groups from one level table
    and one confusion table, so the number of record tallies does not grow
    with the number of groups."""
    calls = []
    tally = metrics.tally

    def counted(*args):
        calls.append(args)
        return tally(*args)

    monkeypatch.setattr(metrics, "tally", counted)
    rng = np.random.default_rng(5)
    made = {}
    for groups in (2, 6):
        n = 600
        data = AuditDataset(
            group=[f"g{i}" for i in rng.integers(0, groups, n)],
            score=rng.random(n),
            outcome=rng.integers(0, 2, n),
            decision=rng.integers(0, 2, n),
        )
        assert len(data.labels) == groups
        path = tmp_path / f"{groups}.csv"
        data.to_csv(path)
        calls.clear()
        audit(str(path), bins=10)
        made[groups] = len(calls)
    assert made[6] == made[2], made


def test_audit_tallies_the_recorded_decisions_once(tmp_path, monkeypatch):
    """Separation and sufficiency are views of one confusion table, so an
    audit with decisions makes one tally of its 6 decision cells per group.
    Base rates and both calibrations are views of one level table, which
    takes 2 tallies: 3 in all with decisions, 2 without."""
    calls = []
    tally = metrics.tally

    def counted(*args):
        calls.append(args)
        return tally(*args)

    monkeypatch.setattr(metrics, "tally", counted)
    path = tmp_path / "four.csv"
    write_four_cell_file(path)
    assert "separation" in audit(str(path))
    assert [args[2] for args in calls].count(6) == 1
    assert len(calls) == 3
    calls.clear()
    path.write_text("group,score,outcome,decision\na,0.9,1,\na,0.1,0,\nb,0.9,1,\nb,0.1,0,\n")
    assert audit(str(path))["rates"] == {"available": False}
    assert len(calls) == 2


def test_audit_writes_report_file(tmp_path, capsys):
    path = tmp_path / "four.csv"
    write_four_cell_file(path)
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "audit", "--input", str(path), "--format", "doc", "--out", str(outdir))
    assert code == 0
    assert (outdir / "audit.doc").read_text() == out


@pytest.mark.parametrize("command", [["audit", "--input", "{records}"], ["simulate", "equal-rates"]])
def test_out_naming_a_file_fails_by_one_error_line(tmp_path, capsys, command):
    """An ``--out`` that cannot be made a directory is an I/O error: one
    ``<command> error:`` line and exit 1, nothing on stdout, the file intact."""
    path = tmp_path / "four.csv"
    write_four_cell_file(path)
    before = path.read_bytes()
    code, out, err = run_cli(capsys, *(a.format(records=path) for a in command), "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"{command[0]} error: ")
    assert path.read_bytes() == before


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


def stub_runners(monkeypatch) -> list[dict]:
    """Replace every experiment runner by one that records its keywords and
    returns an empty report; returns the list of recorded calls."""
    calls = []
    for spec in experiments.EXPERIMENTS.values():

        def stub(name=spec.name, **values):
            calls.append(values)
            return ExperimentReport(name, values, {}, {})

        monkeypatch.setattr(experiments, spec.runner, functools.wraps(getattr(experiments, spec.runner))(stub))
    return calls


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
    calls = stub_runners(monkeypatch)
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
            args = _build_parser().parse_args(["simulate", name, *required, *extra])
            assert _parse_overrides(spec, args).keys() == spec.params.keys()


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
        (["recommender", "seed=-1"], "seed must be a non-negative integer, got -1"),
        (["appendix", "--seed", "-3"], "seed must be a non-negative integer, got -3"),
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
    data=st.data(),
)
def test_simulate_resolves_any_override_or_fails_on_one_line(tmp_path, capsys, monkeypatch, name, pairs, flags, data):
    spec = experiments.EXPERIMENTS[name]
    at = data.draw(st.integers(0, len(pairs)), label="flag position")
    argv = [*pairs[:at], *flags, *pairs[at:]]
    with monkeypatch.context() as patch:
        calls = stub_runners(patch)
        code, out, err = run_cli(capsys, "simulate", name, *argv, "--out", str(tmp_path / "out"))
    if code == 0:
        assert len(calls) == 1 and calls[0].keys() == spec.params.keys()
        assert out.startswith(f"experiment.id = {name}\n")
    else:
        assert code == 2 and calls == [] and out == ""
        assert err.count("\n") == 1 and err.startswith("simulate error: "), err


def test_a_pair_after_a_flag_counts_as_one_before_it(tmp_path, capsys, monkeypatch):
    calls = stub_runners(monkeypatch)
    out = ["--out", str(tmp_path / "out")]
    for argv in (
        ["judge", "rule=parity-ratio", "--convention", "per-outcome"],
        ["judge", "--convention", "per-outcome", "rule=parity-ratio"],
        ["judge", "--convention", "per-outcome", *out, "rule=parity-ratio"],
    ):
        assert run_cli(capsys, "simulate", *argv, *out)[0] == 0, argv
    assert calls[0]["rule"] == "parity-ratio" and calls[0]["convention"] == "per-outcome"
    assert calls == [calls[0]] * 3
    calls.clear()
    for argv in (["appendix", "--grid", "16", "grid=32"], ["appendix", "grid=32", "--grid", "16"]):
        assert run_cli(capsys, "simulate", *argv, *out)[0] == 0, argv
    assert [values["grid"] for values in calls] == [32, 32]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "judge", "--convention", "per-outcome", "rule=parity-ratio", "--bogus"],
        ["simulate", "judge", "--convention", "per-outcome", "-x"],
        ["list", "extra"],
        ["audit", "--input", "records.csv", "extra"],
    ],
)
def test_unmatched_arguments_keep_the_argparse_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    unmatched = argv[4:] if argv[0] == "simulate" else argv[-1:]
    assert err.endswith(f"fairsim: error: unrecognized arguments: {' '.join(unmatched)}\n")


def readme_cli_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fairsim ")]


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_four_cell_file(tmp_path / "records.csv")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
