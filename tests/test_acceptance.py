"""Acceptance suite: the nine exit criteria, one test per criterion.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line (run pytest with -s to
see them all) and then asserts. Monte Carlo sample counts follow the stated
protocol where it pins them (criteria 1-4); the sweep criteria (5-6) leave
the count open and use 1500/800 samples per point, which puts ~3 standard
errors well inside the asserted margins.
"""

import time

import numpy as np
import pytest

from arcpose.conic import (
    cone_matrices,
    decompose_cones,
    fit_ellipses,
    plane_intercepts,
    section_normals,
)
from arcpose.frames import rotations_from_angles
from arcpose.harness import (
    ExperimentConfig,
    e_loc_rows,
    e_pos_rows,
    run_monte_carlo,
    summarize_by_algorithm,
    sweep,
    write_results,
)

from conftest import random_visible_scene


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} - {detail}")


def stats_of(records, algorithm):
    return summarize_by_algorithm(records.e_loc_by_algorithm())[algorithm]


# --- criterion 1: zero-noise exactness ---------------------------------------------

def test_criterion_1_zero_noise_exactness():
    """V-PCA is exact at sigma=0 (error budget entirely noise-driven); the
    point-correspondence baseline converges to machine-level error too."""
    cfg = ExperimentConfig(
        samples=1000, sigma=0.0, scenario=("complete", "semicircle"),
        algorithms=("VPCA", "PNP"), seed=101,
    )
    start = time.perf_counter()
    records = run_monte_carlo(cfg)
    elapsed = time.perf_counter() - start

    e_loc = records.e_loc_by_algorithm()
    ok = bool((records.error == "").all())
    max_loc, max_pnp = e_loc["VPCA"].max(), e_loc["PNP"].max()
    max_pos = records.e_pos[:, records.algorithms.index("VPCA")].max()
    passed = (
        ok and max_loc < 1e-6 and max_pos < 1e-8 and max_pnp < 1e-4
        and elapsed < 30.0
    )
    report(1, passed, (
        f"VPCA max E_loc {max_loc:.2e} m (<1e-6), max E_pos {max_pos:.2e} "
        f"(<1e-8), PnP max E_loc {max_pnp:.2e} m (<1e-4), {elapsed:.1f}s (<30s)"
    ))
    assert ok
    assert max_loc < 1e-6
    assert max_pos < 1e-8
    assert max_pnp < 1e-4
    assert elapsed < 30.0


# --- criterion 2: arcs-only zero-noise bias ------------------------------------------

def test_criterion_2_oavpa_zero_noise_bias():
    """The ellipse-center approximation leaves a small but strictly positive
    bias at sigma=0 (reported ~0.7 cm; accepted up to 2 cm)."""
    cfg = ExperimentConfig(
        samples=1000, sigma=0.0, scenario=("semicircle", "semicircle"),
        algorithms=("OAVPA",), seed=102,
    )
    start = time.perf_counter()
    records = run_monte_carlo(cfg)
    elapsed = time.perf_counter() - start
    stats = stats_of(records, "OAVPA")
    passed = 0.0 < stats.mean <= 0.02 and elapsed < 30.0
    report(2, passed, (
        f"mean E_loc {100 * stats.mean:.3f} cm in (0, 2], "
        f"failures {stats.n_failed}, {elapsed:.1f}s (<30s)"
    ))
    assert 0.0 < stats.mean <= 0.02
    assert elapsed < 30.0


# --- criterion 3: headline CDF --------------------------------------------------------

SMOKE_CFG = ExperimentConfig(
    samples=1000, sigma=2.0, scenario="mixed", algorithms=("VPA",), seed=103,
)


@pytest.fixture(scope="module")
def smoke_records():
    return run_monte_carlo(SMOKE_CFG)


def test_criterion_3_headline_cdf_smoke(smoke_records):
    """1,000-sample smoke version with the widened [4, 18] cm band."""
    stats = stats_of(smoke_records, "VPA")
    p90 = stats.percentiles[90]
    passed = 0.04 <= p90 <= 0.18
    report(3, passed, (
        f"smoke p90 E_loc {100 * p90:.2f} cm in [4, 18], "
        f"failures {stats.n_failed}/1000"
    ))
    assert 0.04 <= p90 <= 0.18


def test_criterion_3_headline_cdf_full():
    """Full protocol: 10,000 samples, 90th percentile within [5, 15] cm."""
    cfg = ExperimentConfig(
        samples=10_000, sigma=2.0, scenario="mixed", algorithms=("VPA",), seed=103,
    )
    start = time.perf_counter()
    stats = stats_of(run_monte_carlo(cfg), "VPA")
    elapsed = time.perf_counter() - start
    p90 = stats.percentiles[90]
    passed = 0.05 <= p90 <= 0.15 and elapsed < 600.0
    report(3, passed, (
        f"full p90 E_loc {100 * p90:.2f} cm in [5, 15], "
        f"failures {stats.n_failed}/10000, {elapsed:.0f}s (<600s)"
    ))
    assert 0.05 <= p90 <= 0.15
    assert elapsed < 600.0


# --- criterion 4: circle-and-arc CDF ---------------------------------------------------

@pytest.mark.parametrize("scenario", [
    ("complete", "complete"), ("complete", "semicircle"),
])
def test_criterion_4_vpca_cdf(scenario):
    """97th percentile of the circle-and-arc solver within [5, 15] cm."""
    cfg = ExperimentConfig(
        samples=10_000, sigma=2.0, scenario=scenario, algorithms=("VPCA",), seed=104,
    )
    stats = stats_of(run_monte_carlo(cfg), "VPCA")
    p97 = stats.percentiles[97]
    passed = 0.05 <= p97 <= 0.15
    report(4, passed, (
        f"{'+'.join(scenario)} p97 E_loc {100 * p97:.2f} cm in [5, 15], "
        f"failures {stats.n_failed}/10000"
    ))
    assert 0.05 <= p97 <= 0.15


# --- criterion 5: noise sweep shape ------------------------------------------------------

def test_criterion_5_noise_sweep_shape():
    """Dispatcher error grows with noise, stays <= 20 cm at sigma=4, and the
    baseline is at least twice as bad there."""
    cfg = ExperimentConfig(
        samples=1500, scenario="mixed", algorithms=("VPA", "PNP"), seed=105,
    )
    results = sweep(cfg, "noise", [0.0, 1.0, 2.0, 3.0, 4.0])
    vpa_means = [results[s]["VPA"].mean for s in (0.0, 1.0, 2.0, 3.0, 4.0)]
    monotone = all(a <= b for a, b in zip(vpa_means, vpa_means[1:]))
    vpa_at_4 = results[4.0]["VPA"].mean
    pnp_at_4 = results[4.0]["PNP"].mean
    ratio = pnp_at_4 / vpa_at_4
    passed = monotone and vpa_at_4 <= 0.20 and ratio >= 2.0
    report(5, passed, (
        f"VPA means {[f'{100 * m:.2f}' for m in vpa_means]} cm monotone={monotone}, "
        f"VPA(4px) {100 * vpa_at_4:.2f} cm (<=20), PnP/VPA ratio {ratio:.2f} (>=2)"
    ))
    assert monotone
    assert vpa_at_4 <= 0.20
    assert ratio >= 2.0


# --- criterion 6: radius sweep shape -------------------------------------------------------

def test_criterion_6_radius_sweep_shape():
    """Bigger luminaires help both solvers (within 3 SE) and the
    circle-and-arc solver dominates the arcs-only one at every radius."""
    radii = [0.06, 0.08, 0.10, 0.12, 0.14, 0.16]
    cfg_v = ExperimentConfig(
        samples=800, sigma=2.0, scenario=("complete", "semicircle"),
        algorithms=("VPCA",), seed=106,
    )
    cfg_o = ExperimentConfig(
        samples=800, sigma=2.0, scenario=("semicircle", "semicircle"),
        algorithms=("OAVPA",), seed=106,
    )
    res_v = sweep(cfg_v, "radius", radii)
    res_o = sweep(cfg_o, "radius", radii)

    def nonincreasing(stats_list):
        return all(
            b.mean <= a.mean + 3.0 * np.hypot(a.std_err, b.std_err)
            for a, b in zip(stats_list, stats_list[1:])
        )

    v_stats = [res_v[r]["VPCA"] for r in radii]
    o_stats = [res_o[r]["OAVPA"] for r in radii]
    v_mono = nonincreasing(v_stats)
    o_mono = nonincreasing(o_stats)
    ordered = all(v.mean <= o.mean for v, o in zip(v_stats, o_stats))
    passed = v_mono and o_mono and ordered
    report(6, passed, (
        f"VPCA means {[f'{100 * s.mean:.1f}' for s in v_stats]} cm mono={v_mono}; "
        f"OAVPA means {[f'{100 * s.mean:.1f}' for s in o_stats]} cm mono={o_mono}; "
        f"VPCA<=OAVPA everywhere: {ordered}"
    ))
    assert v_mono
    assert o_mono
    assert ordered


# --- criterion 7: oracle equivalence of the conic chain --------------------------------------

def test_criterion_7_conic_chain_oracle(intrinsics):
    """Fit -> cone -> decomposition -> candidates contains the true ceiling
    normal for 500 random scenes; the plane intercept ignores the probe."""
    rng = np.random.default_rng(107)
    worst_normal = 0.0
    worst_probe = 0.0
    for _ in range(500):
        lum, pose, contour = random_visible_scene(rng, intrinsics)
        fit = fit_ellipses(contour[None], [len(contour)])
        assert fit.error(0) is None
        q = cone_matrices(fit.coefficients, intrinsics.f)
        lambdas, r_a_c, _, not_cone = decompose_cones(q)
        assert not not_cone[0]
        slopes, normals = section_normals(lambdas, r_a_c)
        n_true = pose.rotation.T @ np.array([0.0, 0.0, -1.0])
        gaps = np.linalg.norm(normals[0] - n_true, axis=1)
        worst_normal = max(worst_normal, gaps.min())
        k_sel = slopes[:, gaps.argmin()]
        planes = [plane_intercepts(lambdas, k_sel, lum.radius, probe_b=b)
                  for b in (0.1, 1.0, 10.0)]
        assert not any(parallel[0] for _, parallel in planes)
        b_values = [b_led[0] for b_led, _ in planes]
        worst_probe = max(worst_probe, max(b_values) - min(b_values))
    passed = worst_normal < 1e-6 and worst_probe < 1e-10
    report(7, passed, (
        f"worst candidate-normal gap {worst_normal:.2e} (<1e-6), "
        f"worst probe spread {worst_probe:.2e} m (<1e-10), 500 scenes"
    ))
    assert worst_normal < 1e-6
    assert worst_probe < 1e-10


# --- criterion 8: metric sanity ------------------------------------------------------------

def test_criterion_8_metric_sanity():
    """Quaternion metric and Euclidean metric agree with hand arithmetic."""
    r_quarter = rotations_from_angles([0.0], [0.0], [np.pi / 2])
    value = e_pos_rows(np.eye(3)[None], r_quarter)[0]
    loc = e_loc_rows([[0.0, 0.0, 0.0]], [[0.06, 0.08, 0.0]])[0]
    passed = abs(value - 0.7654) <= 1e-4 and loc == 0.10
    report(8, passed, (
        f"e_pos(I, quarter-turn) {value:.6f} (0.7654 +- 1e-4), "
        f"e_loc 3-4-5 case {loc} (== 0.10)"
    ))
    assert value == pytest.approx(0.7654, abs=1e-4)
    assert loc == pytest.approx(0.10, abs=1e-15)


# --- criterion 9: determinism -----------------------------------------------------------------

def test_criterion_9_determinism(tmp_path, smoke_records):
    """Same config and seed give byte-identical record CSVs. The runner
    derives every sample's generator from (seed, index), so the result is
    schedule-independent by construction."""
    rerun = run_monte_carlo(SMOKE_CFG)
    stats_a = summarize_by_algorithm(smoke_records.e_loc_by_algorithm())
    stats_b = summarize_by_algorithm(rerun.e_loc_by_algorithm())
    paths_a = write_results(smoke_records, stats_a, tmp_path / "a", SMOKE_CFG)
    paths_b = write_results(rerun, stats_b, tmp_path / "b", SMOKE_CFG)
    identical = (
        paths_a["records"].read_bytes() == paths_b["records"].read_bytes()
        and paths_a["cdf"].read_bytes() == paths_b["cdf"].read_bytes()
    )
    report(9, identical, "two identical-seed runs produce identical CSV bytes")
    assert identical
