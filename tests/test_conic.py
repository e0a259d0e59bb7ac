"""Ellipse fitting, cone decomposition, candidate normals, plane recovery.

Derived expectations come from hand-expanded circle equations and from an
independent forward model (conftest projects world discs through the
frames-level pinhole chain; nothing here round-trips through the simulator).
The cone functions take batches; these tests mostly pass batches of one.
"""

import numpy as np
import pytest

from arcpose.conic import (
    EllipseCoeffs,
    cone_matrices,
    decompose_cones,
    ellipse_centers,
    fit_ellipse,
    lift_to_planes,
    plane_intercepts,
    section_normals,
)
from arcpose.errors import DegenerateConicError, TooFewPointsError
from arcpose.frames import embed_on_image_plane, pixel_to_image, world_to_camera

from conftest import project_world_pixels, random_visible_scene


def circle_points_2d(cx, cy, r, n=36):
    a = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack([cx + r * np.cos(a), cy + r * np.sin(a)], axis=-1)


def center_of(e):
    return ellipse_centers(e.coefficients[None])[0][0]


def decompose(e, f):
    """Eigenvalues and rotation of the viewing cone of one ellipse."""
    lambdas, r_a_c, _, not_cone = decompose_cones(cone_matrices(e.coefficients[None], f))
    assert not not_cone[0]
    return lambdas[0], r_a_c[0]


def candidates(lambdas, r_a_c):
    slopes, normals = section_normals(lambdas[None], r_a_c[None])
    return slopes[0], normals[0]


def plane(lambdas, k, radius, probe_b=1.0):
    b_led, parallel = plane_intercepts(lambdas[None], np.array([k]), radius, probe_b)
    assert not parallel[0]
    return b_led[0]


def lift(pixel, k, b_led, r_a_c, intrinsics):
    """Camera point of one pixel on the plane z = k*x + b_led, and the
    behind-camera flag."""
    point, along, behind = lift_to_planes(pixel_to_image(pixel, intrinsics)[None],
                                          k, b_led, r_a_c[None], intrinsics.f)
    assert not along[0]
    return point[0], behind[0]


# --- fit_ellipse -----------------------------------------------------------------

def test_fit_unit_circle():
    # x^2 + y^2 - 1 = 0 scaled to constant 1 is -x^2 - y^2 + 1 = 0.
    e = fit_ellipse(circle_points_2d(0, 0, 1))
    assert np.allclose([e.a, e.b, e.c, e.d, e.e], [-1, 0, -1, 0, 0], atol=1e-9)


def test_fit_shifted_circle_center_recovery():
    # (x-0.3)^2 + (y+0.2)^2 = 0.25 expands to x^2+y^2-0.6x+0.4y-0.12 = 0;
    # dividing by -0.12 gives a=c=-8.3333, d=5, e=-3.3333.
    e = fit_ellipse(circle_points_2d(0.3, -0.2, 0.5))
    assert np.allclose([e.a, e.c], [-1 / 0.12, -1 / 0.12], atol=1e-8)
    assert np.allclose([e.d, e.e], [0.6 / 0.12, -0.4 / 0.12], atol=1e-8)
    assert np.allclose(center_of(e), [0.3, -0.2], atol=1e-9)


def test_fit_rejects_too_few_points():
    with pytest.raises(TooFewPointsError):
        fit_ellipse(circle_points_2d(0, 0, 1)[:4])


def test_fit_rejects_collinear_points():
    x = np.linspace(0, 1, 20)
    with pytest.raises(DegenerateConicError):
        fit_ellipse(np.stack([x, 2 * x + 0.1], axis=-1))


def test_fit_exact_on_partial_arc():
    full = fit_ellipse(circle_points_2d(0.1, 0.05, 0.4, n=360))
    arc = fit_ellipse(circle_points_2d(0.1, 0.05, 0.4, n=360)[40:155])
    assert np.allclose(
        [full.a, full.b, full.c, full.d, full.e],
        [arc.a, arc.b, arc.c, arc.d, arc.e],
        rtol=1e-7, atol=1e-9,
    )


def test_ellipse_coeffs_reject_hyperbola():
    with pytest.raises(DegenerateConicError):
        EllipseCoeffs(a=1.0, b=0.0, c=-1.0, d=0.0, e=0.0)


# --- ellipse_centers ----------------------------------------------------------------

def test_center_of_origin_conics():
    e = fit_ellipse(circle_points_2d(0, 0, 1))
    assert np.allclose(center_of(e), [0, 0], atol=1e-12)
    # x^2/4 + y^2 - 1 = 0, normalized to constant +1.
    e2 = EllipseCoeffs(a=-0.25, b=0.0, c=-1.0, d=0.0, e=0.0)
    assert np.allclose(center_of(e2), [0, 0])
    # A parabola-like row (4ac - b^2 = 0) has no finite center.
    with np.errstate(invalid="ignore"):
        assert ellipse_centers([[1.0, 2.0, 1.0, 0.0, 0.0]])[1][0]


# --- cone_matrices ----------------------------------------------------------------

HEIGHT = 2.0
RADIUS = 0.15
F = 0.4


def head_on_ellipse():
    # Ceiling disc of radius R seen head-on from distance h: the image is a
    # circle of radius f*R/h cm.
    return fit_ellipse(circle_points_2d(0, 0, F * RADIUS / HEIGHT, n=36))


def test_head_on_cone_matrix():
    q = cone_matrices(head_on_ellipse().coefficients[None], F)
    expected = np.diag([HEIGHT ** 2 / RADIUS ** 2, HEIGHT ** 2 / RADIUS ** 2, -1.0])
    # The fitted constant term is +1, so the cone comes out as -Q.
    assert decompose_cones(q)[2][0]
    assert np.abs(-q[0] - expected).max() < 1e-6 * np.abs(expected).max()


def test_cone_symmetric_and_signature(intrinsics):
    rng = np.random.default_rng(10)
    for _ in range(50):
        _, pose, contour = random_visible_scene(rng, intrinsics)
        q = cone_matrices(fit_ellipse(contour).coefficients[None], intrinsics.f)
        _, _, flipped, not_cone = decompose_cones(q)
        assert np.abs(q[0] - q[0].T).max() == 0.0
        assert not not_cone[0]
        assert np.sum(np.linalg.eigvalsh(-q[0] if flipped[0] else q[0]) < 0) == 1


def test_contour_points_lie_on_cone(intrinsics):
    rng = np.random.default_rng(11)
    _, _, contour = random_visible_scene(rng, intrinsics)
    q = cone_matrices(fit_ellipse(contour).coefficients[None], intrinsics.f)[0]
    v = embed_on_image_plane(contour, intrinsics)
    residuals = np.einsum("ni,ij,nj->n", v, q, v)
    assert np.abs(residuals).max() < 1e-8 * np.abs(q).max()


# --- decompose_cones ----------------------------------------------------------------

def test_decompose_diagonal_cone():
    lambdas, r_a_c, flipped, not_cone = decompose_cones(np.diag([4.0, 2.0, -1.0])[None])
    assert not flipped[0] and not not_cone[0]
    assert np.allclose(lambdas[0], [4.0, 2.0, -1.0])
    assert np.allclose(r_a_c[0], np.eye(3))
    # -Q is the same cone.
    lambdas, r_a_c, flipped, _ = decompose_cones(np.diag([-4.0, -2.0, 1.0])[None])
    assert flipped[0]
    assert np.allclose(lambdas[0], [4.0, 2.0, -1.0])
    assert np.allclose(r_a_c[0], np.eye(3))


def test_decompose_head_on_cone():
    lambdas, _ = decompose(head_on_ellipse(), F)
    ratio = HEIGHT ** 2 / RADIUS ** 2
    assert np.allclose(lambdas, [ratio, ratio, -1.0], rtol=1e-6)


def test_decompose_reconstruction_bulk():
    rng = np.random.default_rng(12)
    qs = []
    for _ in range(1000):
        # Random proper cone built from a random rotation and eigenvalues.
        a = rng.standard_normal((3, 3))
        qr, _ = np.linalg.qr(a)
        if np.linalg.det(qr) < 0:
            qr[:, 0] = -qr[:, 0]
        lams = np.array([rng.uniform(1, 5), rng.uniform(0.5, 1), -rng.uniform(0.2, 3)])
        qs.append(qr @ np.diag(lams) @ qr.T)
    all_lambdas, all_r, flipped, not_cone = decompose_cones(np.array(qs))
    assert not flipped.any() and not not_cone.any()
    for q, lambdas, r_a_c in zip(qs, all_lambdas, all_r):
        rebuilt = r_a_c @ np.diag(lambdas) @ r_a_c.T
        assert np.abs(rebuilt - q).max() < 1e-8 * np.abs(q).max()
        assert lambdas[0] >= lambdas[1] > 0 > lambdas[2]
        assert r_a_c[2, 2] >= 0
        assert abs(np.linalg.det(r_a_c) - 1) < 1e-10


def test_decompose_rejects_degenerate():
    _, _, _, not_cone = decompose_cones(np.array([
        np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 1.0]), np.diag([-1.0, -1.0, -1.0]),
        np.diag([1.0, 2.0, -1.0]),
    ]))
    assert not_cone.tolist() == [True, True, True, False]


# --- section_normals ----------------------------------------------------------------

def test_head_on_candidates_collapse():
    slopes, normals = candidates(*decompose(head_on_ellipse(), F))
    assert slopes[0] == pytest.approx(0.0, abs=1e-6)
    assert np.allclose(normals[0], normals[1], atol=1e-6)
    assert np.allclose(normals[0], [0, 0, -1], atol=1e-6)


def test_candidate_slopes_are_mirrored(intrinsics):
    rng = np.random.default_rng(13)
    for _ in range(20):
        _, _, contour = random_visible_scene(rng, intrinsics)
        slopes, normals = candidates(*decompose(fit_ellipse(contour), intrinsics.f))
        assert slopes[0] == pytest.approx(-slopes[1], rel=1e-12)
        assert normals[0][2] <= 0 and normals[1][2] <= 0
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)


def test_true_normal_among_candidates(intrinsics):
    rng = np.random.default_rng(14)
    for _ in range(200):
        _, pose, contour = random_visible_scene(rng, intrinsics)
        _, normals = candidates(*decompose(fit_ellipse(contour), intrinsics.f))
        n_true = pose.rotation.T @ np.array([0.0, 0.0, -1.0])
        assert np.linalg.norm(normals - n_true, axis=1).min() < 1e-6


def true_candidate(e, f, pose):
    """Decomposition of one ellipse's cone and the slope of the candidate
    closest to the pose's true ceiling normal."""
    lambdas, r_a_c = decompose(e, f)
    slopes, normals = candidates(lambdas, r_a_c)
    n_true = pose.rotation.T @ np.array([0.0, 0.0, -1.0])
    return lambdas, r_a_c, slopes[np.linalg.norm(normals - n_true, axis=1).argmin()]


# --- plane_intercepts ----------------------------------------------------------------

def test_head_on_plane_intercept_is_height():
    lambdas, _ = decompose(head_on_ellipse(), F)
    assert plane(lambdas, 0.0, RADIUS) == pytest.approx(HEIGHT, rel=1e-9)


def test_plane_invariant_to_probe(intrinsics):
    rng = np.random.default_rng(15)
    _, _, contour = random_visible_scene(rng, intrinsics)
    lambdas, r_a_c = decompose(fit_ellipse(contour), intrinsics.f)
    k_sel = candidates(lambdas, r_a_c)[0][0]
    values = [plane(lambdas, k_sel, 0.15, probe_b=b) for b in (0.1, 1.0, 10.0)]
    assert max(values) - min(values) < 1e-10 * values[0]


def test_plane_contains_true_center(intrinsics):
    rng = np.random.default_rng(16)
    for _ in range(50):
        lum, pose, contour = random_visible_scene(rng, intrinsics)
        lambdas, r_a_c, k_sel = true_candidate(fit_ellipse(contour), intrinsics.f, pose)
        b_led = plane(lambdas, k_sel, lum.radius)
        center_a = r_a_c.T @ world_to_camera(lum.center_w, pose)
        assert abs(center_a[2] - (k_sel * center_a[0] + b_led)) < 1e-6


def test_parallel_plane_error():
    lambdas = np.array([[4.0, 2.0, -1.0], [4.0, 2.0, -1.0]])
    # The boundary slope is exactly sqrt(4/1) = 2.
    with np.errstate(divide="ignore"):
        _, parallel = plane_intercepts(lambdas, np.array([2.0, 1.9]), 0.15)
    assert parallel.tolist() == [True, False]


# --- lift_to_planes ----------------------------------------------------------------

def test_head_on_backprojection(intrinsics):
    lambdas, r_a_c = decompose(head_on_ellipse(), F)
    point_c, behind = lift([320.0, 240.0], 0.0, plane(lambdas, 0.0, RADIUS), r_a_c,
                           intrinsics)
    assert not behind
    assert np.allclose(point_c, [0, 0, HEIGHT], atol=1e-9)


def test_backprojection_recovers_scene_points(intrinsics):
    rng = np.random.default_rng(17)
    for _ in range(50):
        lum, pose, contour = random_visible_scene(rng, intrinsics)
        lambdas, r_a_c, k_sel = true_candidate(fit_ellipse(contour), intrinsics.f, pose)
        center_pix = project_world_pixels(lum.center_w, pose, intrinsics)
        center_c, behind = lift(center_pix, k_sel, plane(lambdas, k_sel, lum.radius),
                                r_a_c, intrinsics)
        assert not behind
        assert np.linalg.norm(center_c - world_to_camera(lum.center_w, pose)) < 1e-6


def test_backprojection_reprojects_to_input(intrinsics):
    from arcpose.frames import image_to_pixel, project_to_image

    rng = np.random.default_rng(18)
    _, _, contour = random_visible_scene(rng, intrinsics)
    lambdas, r_a_c = decompose(fit_ellipse(contour), intrinsics.f)
    k_sel = candidates(lambdas, r_a_c)[0][0]
    pix = image_to_pixel(contour[7], intrinsics)
    point_c, _ = lift(pix, k_sel, plane(lambdas, k_sel, 0.15), r_a_c, intrinsics)
    assert np.allclose(project_to_image(point_c, intrinsics), contour[7], atol=1e-9)


def test_backprojection_behind_camera(intrinsics):
    # Steep section slope: the ray of a far-off-axis pixel satisfies
    # z - k*x < 0, so the line meets the plane on the negative side.
    lambdas = np.array([4.0, 2.0, -1.0])
    _, behind = lift([500.0, 240.0], 1.9, plane(lambdas, 1.9, 0.15), np.eye(3),
                     intrinsics)
    assert behind


# --- diagonal form of the cone in ACS ----------------------------------------------

def test_contour_satisfies_diagonal_form(intrinsics):
    rng = np.random.default_rng(19)
    for _ in range(20):
        _, _, contour = random_visible_scene(rng, intrinsics)
        lambdas, r_a_c = decompose(fit_ellipse(contour), intrinsics.f)
        pts_a = embed_on_image_plane(contour, intrinsics) @ r_a_c
        residual = (pts_a ** 2) @ lambdas
        assert np.abs(residual).max() < 1e-7 * np.abs(lambdas).max()
