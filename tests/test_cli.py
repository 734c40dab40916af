import dataclasses

import pytest

from fairsim import sample, solve_equalized_odds
from fairsim import experiments
from fairsim.cli import MAX_BINS, MAX_GRID, MAX_RESHAPES, MAX_SAMPLES, _build_parser, build_config, main
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
    for name, spec in experiments.EXPERIMENTS.items():
        monkeypatch.setitem(experiments.EXPERIMENTS, name, dataclasses.replace(spec, run=calls.append))
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
