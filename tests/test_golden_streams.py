"""Golden values that pin fairsim's random streams.

Seeded records and Monte Carlo estimates are part of what fairsim promises to
reproduce. These values were recorded from the implementation that drew
through ``Generator.choice(p=...)``; if a change alters any draw, they fail.
"""

import hashlib

from fairsim import PayoffMatrix, ScoreDensity, ScoreMap, mc_long_run_eu, sample, solve_equalized_odds
from _helpers import judge_population

SAMPLE_CSV_SHA256 = "fbd55a84712cf6e7687e715acf68936a01b56cac3fda5ebd2c50667650afeb57"
MC_EST = float.fromhex("0x1.fe9b7bf1e8e61p-3")  # 0.24932
MC_STDERR = float.fromhex("0x1.84080ce08d732p-10")  # 0.0014802224979013176


def test_seeded_sample_csv_bytes_are_pinned(tmp_path):
    pop = judge_population(64)
    rule = solve_equalized_odds(pop, "men", 0.5)
    path = tmp_path / "sample.csv"
    sample(pop, 5_000, seed=3, rule=rule).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAMPLE_CSV_SHA256


def test_seeded_sample_csv_bytes_do_not_depend_on_the_write_chunk(tmp_path, monkeypatch):
    # 5,000 records in chunks of 7: 714 full chunks and a last one of 2.
    monkeypatch.setattr("fairsim.densities._WRITE_CHUNK", 7)
    test_seeded_sample_csv_bytes_are_pinned(tmp_path)


def test_seeded_monte_carlo_estimate_is_pinned():
    est, stderr = mc_long_run_eu(
        ScoreDensity.uniform(1024), ScoreMap.identity(1024), PayoffMatrix.recommender(), 0.5, n=200_000, seed=11
    )
    assert (est, stderr) == (MC_EST, MC_STDERR)
