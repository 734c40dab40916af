import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairsim import (
    AuditDataset,
    CalibrationReport,
    ConditionalScoreDensity,
    PayoffMatrix,
    PopulationModel,
    ScoreDensity,
    ScoreMap,
    apply_score_map,
    is_defined,
    mc_long_run_eu,
    sample,
)
from fairsim import densities
from fairsim.cli import MAX_GRID
from fairsim.densities import NO_DECISION, draw_categorical, group_index
from fairsim.metrics import level_tables
from fairsim.rules import _PRESCAN_MARGIN, _suffix_sums
from _helpers import calibrated_uniform_pair, judge_population

GRID = 1024


@pytest.mark.parametrize("grid", [1, 7, 10, 1024])
def test_cell_index_is_the_clipped_floor_of_the_scaled_score(grid):
    edges = np.arange(grid + 1) / grid
    scores = np.concatenate(
        [edges, np.nextafter(edges, -1), np.nextafter(edges, 2), [-0.0, -0.5, -1.0, -3.0, 1.5, 5e-324, 1 - 2**-53]]
    )
    scores = np.concatenate([scores, np.random.default_rng(grid).random(1000)])
    want = np.clip(np.floor(scores * grid).astype(int), 0, grid - 1)
    got = densities.cell_index(scores, grid)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [type(densities.cell_index(x, grid)) for x in (0.3, 1.0)] == [np.int64, np.int64]


def test_weights_must_be_nonnegative_and_finite():
    with pytest.raises(ValueError):
        ScoreDensity(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        ScoreDensity(np.array([np.inf, 1.0]))
    with pytest.raises(ValueError):
        ScoreDensity(np.array([]))


def test_uniform_is_normalized():
    d = ScoreDensity.uniform(GRID)
    assert d.is_normalized()
    assert d.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_conditional_density_must_sum_to_one():
    half = ScoreDensity(np.full(4, 0.5))
    ConditionalScoreDensity(f0=half, f1=half)  # 0.5 + 0.5 = 1
    with pytest.raises(ValueError):
        ConditionalScoreDensity(f0=half, f1=ScoreDensity(np.full(4, 0.6)))
    with pytest.raises(ValueError):
        ConditionalScoreDensity(f0=half, f1=ScoreDensity(np.full(8, 0.5)))


def test_population_needs_two_groups_and_one_grid():
    csd = ConditionalScoreDensity.calibrated(ScoreDensity.uniform(8))
    with pytest.raises(ValueError):
        PopulationModel(groups={"only": csd})
    other = ConditionalScoreDensity.calibrated(ScoreDensity.uniform(16))
    with pytest.raises(ValueError):
        PopulationModel(groups={"a": csd, "b": other})


# -- base rate and per-cell calibration ------------------------------------------


def test_base_rate_zero_when_no_positive_mass():
    pop = PopulationModel(
        groups={
            "a": ConditionalScoreDensity(f0=ScoreDensity.uniform(GRID), f1=ScoreDensity(np.zeros(GRID))),
            "b": ConditionalScoreDensity.calibrated(ScoreDensity.uniform(GRID)),
        }
    )
    assert pop.group("a").f1.total_mass() == 0.0


def test_base_rate_calibrated_uniform_is_half():
    pop = calibrated_uniform_pair(GRID)
    assert pop.group("a").f1.total_mass() == pytest.approx(0.5, abs=1e-12)


def test_base_rate_matches_score_mean_when_calibrated():
    # for a calibrated group, mass of f1 equals the mean of the marginal
    csd = ConditionalScoreDensity.from_base_rate(0.3, GRID)
    marginal = ScoreDensity(csd.f0.weights + csd.f1.weights)
    mean = float(np.dot(marginal.weights, marginal.midpoints())) / GRID
    assert csd.f1.total_mass() == pytest.approx(mean, abs=1e-6)


def test_base_rate_unknown_group():
    pop = calibrated_uniform_pair(64)
    with pytest.raises(KeyError):
        pop.group("nope").f1.total_mass()


def test_calibration_curve_of_calibrated_group_is_identity():
    pop = calibrated_uniform_pair(GRID)
    report = CalibrationReport.of(level_tables(pop))
    assert np.max(np.abs(report.group_rates["a"] - report.levels)) <= 1e-12


def test_calibration_curve_zero_when_f1_empty():
    pop = PopulationModel(
        groups={
            "a": ConditionalScoreDensity(f0=ScoreDensity.uniform(GRID), f1=ScoreDensity(np.zeros(GRID))),
            "b": ConditionalScoreDensity.calibrated(ScoreDensity.uniform(GRID)),
        }
    )
    report = CalibrationReport.of(level_tables(pop))
    assert np.all(report.group_rates["a"] == 0.0)


def test_calibration_curve_detects_inflated_positive_mass():
    mids = (np.arange(GRID) + 0.5) / GRID
    f1 = 2.0 * mids  # doubled against the calibrated shape
    f0 = 1.0 - mids
    total = f1.sum() / GRID + f0.sum() / GRID
    csd = ConditionalScoreDensity(f0=ScoreDensity(f0 / total), f1=ScoreDensity(f1 / total))
    pop = PopulationModel(groups={"a": csd, "b": csd})
    report = CalibrationReport.of(level_tables(pop))
    interior = (report.levels > 0.1) & (report.levels < 0.9)
    assert np.max(np.abs(report.group_rates["a"][interior] - report.levels[interior])) > 0.05


@settings(max_examples=50, deadline=None)
@given(weights=st.lists(st.floats(0.01, 10.0), min_size=4, max_size=64))
def test_calibrated_split_is_a_fixed_point_of_the_curve(weights):
    marginal = ScoreDensity(np.array(weights)).normalized()
    csd = ConditionalScoreDensity.calibrated(marginal)
    pop = PopulationModel(groups={"a": csd, "b": csd})
    report = CalibrationReport.of(level_tables(pop))
    assert np.max(np.abs(report.group_rates["a"] - report.levels)) <= 1e-12


def test_calibration_curve_marks_empty_cells_undefined():
    w = np.zeros(8)
    w[2] = 8.0
    csd = ConditionalScoreDensity(f0=ScoreDensity(w * 0.5), f1=ScoreDensity(w * 0.5))
    pop = PopulationModel(groups={"a": csd, "b": csd})
    report = CalibrationReport.of(level_tables(pop))
    assert not is_defined(report.group_rates["a"][0])
    assert report.group_rates["a"][2] == pytest.approx(0.5)


# -- score maps ----------------------------------------------------------------


def test_identity_map_leaves_population_unchanged():
    pop = calibrated_uniform_pair(GRID)
    mapped = apply_score_map(pop, "a", ScoreMap.identity(GRID))
    for attr in ("f0", "f1"):
        before = getattr(pop.group("a"), attr).weights
        after = getattr(mapped.group("a"), attr).weights
        assert np.max(np.abs(before - after)) <= 1e-12


def test_constant_map_concentrates_mass_and_conserves_class_totals():
    pop = calibrated_uniform_pair(GRID)
    mapped = apply_score_map(pop, "a", ScoreMap.constant(0.9, GRID))
    g = mapped.group("a")
    target = int(0.9 * GRID)
    assert np.count_nonzero(g.f1.weights) == 1
    assert g.f1.weights[target] > 0
    assert g.f0.total_mass() == pytest.approx(pop.group("a").f0.total_mass(), abs=1e-9)
    assert g.f1.total_mass() == pytest.approx(pop.group("a").f1.total_mass(), abs=1e-9)


def test_flip_map_inverts_the_calibration_curve():
    pop = calibrated_uniform_pair(GRID)
    mapped = apply_score_map(pop, "a", ScoreMap.from_callable(lambda p: 1.0 - p, GRID))
    report = CalibrationReport.of(level_tables(mapped))
    assert np.max(np.abs(report.group_rates["a"] - (1.0 - report.levels))) <= 1e-12


def test_score_map_rejects_values_outside_unit_interval():
    with pytest.raises(ValueError):
        ScoreMap(np.array([0.2, 1.2]))
    with pytest.raises(ValueError):
        ScoreMap.from_callable(lambda p: p * 1.5, 16)


@settings(max_examples=50, deadline=None)
@given(
    w0=st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8),
    w1=st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8),
    targets=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
)
def test_any_score_map_conserves_class_masses(w0, w1, targets):
    total = (sum(w0) + sum(w1)) / 8
    if total <= 0:
        return
    csd = ConditionalScoreDensity(
        f0=ScoreDensity(np.array(w0) / total), f1=ScoreDensity(np.array(w1) / total)
    )
    pop = PopulationModel(groups={"a": csd, "b": csd})
    mapped = apply_score_map(pop, "a", ScoreMap(np.array(targets)))
    assert mapped.group("a").f0.total_mass() == pytest.approx(csd.f0.total_mass(), abs=1e-9)
    assert mapped.group("a").f1.total_mass() == pytest.approx(csd.f1.total_mass(), abs=1e-9)


# -- sampling -------------------------------------------------------------------


def test_sampling_is_deterministic(tmp_path):
    groups = calibrated_uniform_pair(64).groups
    pop = PopulationModel(groups)
    a = sample(pop, 10, seed=123)
    b = sample(pop, 10, seed=123)
    assert list(a.group) == list(b.group)
    assert np.array_equal(a.score, b.score)
    assert np.array_equal(a.outcome, b.outcome)
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sampling_rejects_empty_draw():
    with pytest.raises(ValueError):
        sample(calibrated_uniform_pair(64), 0, seed=1)


def test_sampling_without_positive_mass_yields_zero_outcomes():
    pop = PopulationModel(
        groups={
            "a": ConditionalScoreDensity(f0=ScoreDensity.uniform(64), f1=ScoreDensity(np.zeros(64))),
            "b": ConditionalScoreDensity(f0=ScoreDensity.uniform(64), f1=ScoreDensity(np.zeros(64))),
        }
    )
    data = sample(pop, 500, seed=5)
    assert np.all(data.outcome == 0)


def test_sampling_converges_to_analytic_base_rate():
    pop = calibrated_uniform_pair(GRID)
    data = sample(pop, 1_000_000, seed=42)
    assert abs(float(data.outcome.mean()) - 0.5) < 0.005
    for g in ("a", "b"):
        mask = data.codes == group_index(data.labels, g)
        assert abs(float(data.outcome[mask].mean()) - 0.5) < 0.005


def test_sampling_draws_each_of_three_groups_with_share_one_third():
    groups = {g: ConditionalScoreDensity.from_base_rate(rate, 64) for g, rate in zip("abc", (0.3, 0.5, 0.7))}
    n = 100_000
    data = sample(PopulationModel(groups), n, seed=9)
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))  # binomial standard deviation of one group's count
    for g in groups:
        assert abs(np.count_nonzero(data.group == g) - n / 3) <= 5 * sigma


# -- draw_categorical ------------------------------------------------------------


def _shaped_weights(shape: str, grid: int, weight_seed: int, knob: float, hot: int) -> np.ndarray:
    w = np.random.default_rng(weight_seed).random(grid)
    hot %= grid
    if shape == "zeros":  # a knob-sized share of empty cells, the hot one kept
        w[w < knob] = 0.0
        w[hot] = 1.0
    elif shape == "one_hot":
        w = np.zeros(grid)
        w[hot] = 1.0
    elif shape == "near_one_hot":  # every other cell ~1e-16 of the hot one
        w = w * 10.0 ** (-16.0 * knob - 1.0)
        w[hot] = 1.0
    elif shape == "subnormal":  # a tail of subnormal weights
        w = np.floor(w * 64.0) * 5e-324
        w[hot] = 1.0
    elif shape == "pow8":
        w = w**8
        w[hot] += knob
    return w


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(["uniform", "random", "zeros", "one_hot", "near_one_hot", "subnormal", "pow8"]),
    grid=st.one_of(st.sampled_from([1, 2, 3, 4, 5, 64, 100, 1000, 1024, 2048, 4095, 4096]), st.integers(1, 4096)),
    n=st.one_of(st.integers(1, 64), st.integers(1, 50_000)),
    weight_seed=st.integers(0, 2**32 - 1),
    knob=st.floats(0.0, 1.0),
    hot=st.integers(0, 4095),
    seed=st.integers(0, 2**63 - 1),
)
# Around a tile's edge and over a partial last tile, crowded buckets included.
@example(shape="random", grid=1024, n=densities._WRITE_CHUNK - 1, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="random", grid=1024, n=densities._WRITE_CHUNK, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="random", grid=1024, n=densities._WRITE_CHUNK + 1, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="random", grid=1024, n=3 * densities._WRITE_CHUNK + 7, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="near_one_hot", grid=1024, n=densities._WRITE_CHUNK - 1, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="near_one_hot", grid=1024, n=densities._WRITE_CHUNK, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="near_one_hot", grid=1024, n=densities._WRITE_CHUNK + 1, weight_seed=36, knob=0.5, hot=100, seed=36)
@example(shape="near_one_hot", grid=1024, n=3 * densities._WRITE_CHUNK + 7, weight_seed=36, knob=0.5, hot=100, seed=36)
def test_draw_categorical_reproduces_generator_choice(shape, grid, n, weight_seed, knob, hot, seed):
    w = np.ones(grid) if shape == "uniform" else _shaped_weights(shape, grid, weight_seed, knob, hot)
    p = w / w.sum()
    expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = expected_rng.choice(grid, size=n, p=p)
    got = draw_categorical(rng, p, n)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert rng.random() == expected_rng.random()


@pytest.mark.parametrize(
    "p", [[0.5, np.nan, 0.5], [1.5, -0.5], [np.inf, 1.0], [0.5, 0.4], [0.0, 0.0], [], [[1.0]]]
)
def test_draw_categorical_rejects_invalid_probabilities_before_drawing(p):
    rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(ValueError):
        draw_categorical(rng, np.array(p, dtype=float), 10)
    assert rng.random() == fresh.random()


@pytest.mark.filterwarnings("error")
def test_monte_carlo_of_a_zero_mass_density_raises():
    with pytest.raises(ValueError, match="true-probability density must integrate to 1"):
        mc_long_run_eu(ScoreDensity(np.zeros(16)), ScoreMap.identity(16), PayoffMatrix.recommender(), 0.5, n=10, seed=1)


# -- audit dataset CSV ------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    pop = judge_population(64)
    data = sample(pop, 200, seed=3)
    path = tmp_path / "records.csv"
    data.to_csv(path)
    back = AuditDataset.from_csv(path)
    assert list(back.group) == list(data.group)
    assert np.array_equal(back.score, data.score)
    assert np.array_equal(back.outcome, data.outcome)
    assert np.array_equal(back.decision, data.decision)
    assert np.all(data.decision == NO_DECISION)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,score,label,decision\na,0.5,1,\n")
    with pytest.raises(ValueError, match="header"):
        AuditDataset.from_csv(path)


def test_csv_names_offending_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,score,outcome,decision\na,0.5,1,\na,1.2,0,\n")
    with pytest.raises(ValueError, match="row 3"):
        AuditDataset.from_csv(path)


def test_csv_validates_outcome_and_decision(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,score,outcome,decision\na,0.5,2,\n")
    with pytest.raises(ValueError, match="row 2"):
        AuditDataset.from_csv(path)
    path.write_text("group,score,outcome,decision\na,0.5,1,7\n")
    with pytest.raises(ValueError, match="row 2"):
        AuditDataset.from_csv(path)


def test_dataset_validates_score_range():
    with pytest.raises(ValueError):
        AuditDataset(group=np.array(["a"]), score=np.array([1.5]), outcome=np.array([1]))


def test_dataset_rejects_an_outcome_that_int8_would_wrap_into_range():
    # 257 wraps to 1 in int8; the value is checked as given, not as stored
    with pytest.raises(ValueError, match="outcomes must be 0 or 1"):
        AuditDataset(group=["a", "a"], score=[0.5, 0.5], outcome=np.array([257, 0]))


def test_dataset_rejects_a_decision_that_int8_would_wrap_to_missing():
    # 255 wraps to -1, the missing-decision marker
    with pytest.raises(ValueError, match="decisions must be 0, 1, or missing"):
        AuditDataset(group=["a", "a"], score=[0.5, 0.5], outcome=[1, 0], decision=np.array([255, 0]))


def test_dataset_rejects_an_out_of_range_python_int_with_a_value_error():
    # not the OverflowError of casting 257 to int8
    with pytest.raises(ValueError, match="outcomes must be 0 or 1"):
        AuditDataset(group=["a", "a"], score=[0.5, 0.5], outcome=[257, 0])
    with pytest.raises(ValueError, match="decisions must be 0, 1, or missing"):
        AuditDataset(group=["a", "a"], score=[0.5, 0.5], outcome=[1, 0], decision=[1, 255])


EXACT_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 3 * 5e-324, 2.0**-1022, 2.0**70, 1.0, 0.1, 1e300]),
    st.floats(0.0, 1e10),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1080, 80)),
)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(EXACT_WEIGHTS, min_size=1, max_size=24),
    threshold=st.one_of(st.floats(-0.5, 1.5), st.fractions(0, 1)),
)
def test_boundary_numerators_are_the_exact_suffix_masses(weights, threshold):
    density = ScoreDensity(np.array(weights))
    numerators, denominator = density.boundary_numerators(), density.exact_denominator
    grid = len(weights)
    assert len(numerators) == grid + 1
    assert all(type(n) is int for n in numerators) and type(denominator) is int
    for k in range(grid + 1):
        assert Fraction(numerators[k], denominator) == sum(map(Fraction, weights[k:]), Fraction(0)) / grid
        assert density.boundary_numerator(k) == numerators[k]
    # the least denominator: G times the largest denominator of a weight
    assert denominator == grid * max(Fraction(w).denominator for w in weights)
    # cell j covers [j/G, (j+1)/G); the part above t has length (j+1)/G - max(t, j/G)
    t = Fraction(threshold)
    above = sum(
        (Fraction(w) * max(Fraction(0), Fraction(j + 1, grid) - max(t, Fraction(j, grid))) for j, w in enumerate(weights)),
        Fraction(0),
    )
    assert density.exact_mass_above(threshold) == above


def test_boundary_numerator_rejects_an_index_outside_0_to_g():
    """Boundaries run 0..G: a negative index does not wrap to one from the
    end, and G + 1 is past the last."""
    density = ScoreDensity(np.array([1.0, 2.0, 3.0]))
    assert [density.boundary_numerator(k) for k in range(4)] == list(density.boundary_numerators())
    for k in (-1, -2, 4):
        with pytest.raises(IndexError, match=rf"^boundary {k} outside 0\.\.3$"):
            density.boundary_numerator(k)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(EXACT_WEIGHTS, min_size=1, max_size=24))
def test_the_pre_scan_sums_lie_within_the_summation_bound(weights):
    """The premise of the ROC pre-scan's margin: each float suffix sum of G
    weights, subnormals and zeros included, lies within (G - 1) * 2**-53 of
    its exact value, relative, and is 0.0 exactly where that is 0. The margin
    covers that error at any grid below 2**31, with the 3 * 2**-53 of the
    targets, the products and the difference."""
    grid = len(weights)
    sums = _suffix_sums(ScoreDensity(np.array(weights))).tolist()
    assert len(sums) == grid + 1
    for k, v in enumerate(sums):
        exact = sum(map(Fraction, weights[k:]), Fraction(0))
        assert abs(Fraction(v) - exact) <= (grid - 1) * Fraction(2) ** -53 * exact
        assert (v == 0.0) == (exact == 0)
    assert _PRESCAN_MARGIN > (2**31 + 2) * 2.0**-53


def test_a_negative_zero_weight_is_a_zero():
    """``ScoreDensity`` accepts ``-0.0``; the exact core reads weights as bits,
    so it must not read that sign bit: every exact value is that of ``0.0``."""
    for weights in ([0.5, -0.0, 0.25, 3.0], [-0.0, 5e-324, 2.0**-30, 1.0], [-0.0, -0.0], [7.0, -0.0]):
        signed = ScoreDensity(np.array(weights))
        plain = ScoreDensity(np.array([0.0 if w == 0 else w for w in weights]))
        assert np.signbit(signed.weights).any()
        assert signed.exact_denominator == plain.exact_denominator
        assert signed.exact_total() == plain.exact_total()
        assert signed.total_mass().hex() == plain.total_mass().hex()
        assert signed.boundary_numerators() == plain.boundary_numerators()
        grid = len(weights)
        assert [signed.boundary_numerator(k) for k in range(grid + 1)] == list(plain.boundary_numerators())
        for t in (0.0, 0.3, Fraction(1, 3), 0.5, 1.0):
            assert signed.exact_mass_above(t) == plain.exact_mass_above(t)


def test_the_widest_spread_at_the_grid_cap_is_exact_in_bounded_memory():
    """The widest exponent spread a grid can hold: ``MAX_GRID`` cells
    alternating the least subnormal and 1.7e308, with every tenth cell a
    random mantissa at a random exponent. The exact total and a tail match
    ``Fraction`` sums, and the build stays within 64 MiB."""
    rng = np.random.default_rng(2026)
    weights = np.tile([5e-324, 1.7e308], MAX_GRID // 2)
    mixed = rng.random(MAX_GRID) < 0.1
    weights[mixed] = np.ldexp(rng.uniform(0.5, 1.0, int(mixed.sum())), rng.integers(-1074, 1024, int(mixed.sum())))
    density = ScoreDensity(weights)
    tracemalloc.start()
    start = time.perf_counter()
    total = density.exact_total()
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # every weight over 2**1074: an integer, so the reference is one int sum
    scaled = [n * (2**1074 // d) for n, d in map(float.as_integer_ratio, weights.tolist())]
    assert total == Fraction(sum(scaled), 2**1074 * MAX_GRID)
    assert density.exact_denominator == 2**1074 * MAX_GRID
    half = MAX_GRID // 2
    assert density.exact_mass_above(0.5) == Fraction(sum(scaled[half:]), 2**1074 * MAX_GRID)
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB in {elapsed:.3f} s"


@settings(max_examples=120, deadline=None)
@given(
    grid=st.one_of(st.sampled_from([1, 2, 3, 1000, 4095, 4096]), st.integers(1, 4096)),
    palette=st.lists(EXACT_WEIGHTS, min_size=1, max_size=6),
    share=st.floats(0.0, 1.0),
    low=st.integers(-1080, 80),
    span=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.one_of(st.floats(-0.5, 1.5), st.fractions(0, 1)),
)
def test_exact_total_is_the_suffix_head_before_and_after_the_suffix(grid, palette, share, low, span, seed, threshold):
    # cells drawn from the palette, the rest full mantissas over exponents
    # low..low+span: a narrow span fills three limbs per boundary, a palette
    # of far-apart exponents many more
    rng = np.random.default_rng(seed)
    spread = np.ldexp(rng.uniform(0.5, 1.0, grid), rng.integers(low, low + span + 1, grid))
    picked = np.array(palette)[rng.integers(len(palette), size=grid)]
    weights = np.where(rng.random(grid) < share, picked, spread)
    exact = sum(map(Fraction, weights.tolist()), Fraction(0)) / grid
    # t in cell j: the cells above j, plus cell j's part over [t, (j+1)/G]
    t = min(max(Fraction(threshold), Fraction(0)), Fraction(1))
    j = min(int(t * grid), grid - 1)
    above = sum(map(Fraction, weights[j + 1 :].tolist()), Fraction(0)) / grid + Fraction(weights[j]) * (
        Fraction(j + 1, grid) - t
    )

    first_total = ScoreDensity(weights)
    total = first_total.total_mass()
    assert first_total.exact_total() == exact
    assert first_total.exact_mass_above(threshold) == above
    assert first_total.exact_mass_below(threshold) == exact - above
    numerators, denominator = first_total.boundary_numerators(), first_total.exact_denominator
    assert Fraction(numerators[0], denominator) == exact
    assert (numerators[0] / denominator).hex() == total.hex()

    first_suffix = ScoreDensity(weights)
    first_suffix.boundary_numerators()
    assert first_suffix.total_mass().hex() == total.hex()
    assert first_suffix.exact_total() == exact
    assert first_suffix.exact_mass_above(threshold) == above
    assert first_suffix.exact_mass_below(threshold) == exact - above
