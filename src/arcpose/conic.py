"""Ellipse fitting and the elliptical-cone geometry behind circle pose.

A circular luminaire projects to an ellipse on the image plane,

    a*x^2 + b*x*y + c*y^2 + d*x + e*y + 1 = 0      (x, y in cm, ICS),

with the constant term normalized to 1. Together with the camera origin the
ellipse spans an elliptical cone; diagonalizing the cone's symmetric matrix
gives an auxiliary coordinate system (ACS) in which the cone is
lambda1*x^2 + lambda2*y^2 + lambda3*z^2 = 0 with lambda3 < 0 < lambda2 <=
lambda1. Cutting the cone with the two circle-section plane slopes
k = +-sqrt((l1-l2)/(l2-l3)) yields the two candidate orientations of the
luminaire; the known physical radius then fixes the plane offset and lets any
image point be lifted onto the luminaire plane.

The cone functions take batches, M cones or points at once, and report each
row's failures as masks; `solver.solve_pairs` chains them and turns the first
failure of a row into its error. All directions here live in the camera frame
(CCS) or the auxiliary frame (ACS); lengths on the image plane are cm, lifted
points are meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConicError, TooFewPointsError

# Slack on the strict ellipse discriminant test b^2 - 4ac < 0.
DISCRIMINANT_SLACK = 1e-12


@dataclass(frozen=True)
class EllipseCoeffs:
    """General-conic coefficients with the constant term normalized to 1."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        coeffs = (self.a, self.b, self.c, self.d, self.e)
        if not all(np.isfinite(coeffs)):
            raise DegenerateConicError("non-finite conic coefficients")
        if self.discriminant >= DISCRIMINANT_SLACK:
            raise DegenerateConicError(
                f"discriminant b^2-4ac = {self.discriminant:g} is not negative"
            )

    @property
    def coefficients(self) -> np.ndarray:
        """The row (a, b, c, d, e) that the batched cone functions take."""
        return np.array([self.a, self.b, self.c, self.d, self.e])

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c


def fit_ellipse(points) -> EllipseCoeffs:
    """Least-squares conic through image-plane points, constant term = 1.

    Minimizes the algebraic residual of the conic equation. Points are
    centered and scaled before solving to keep the normal equations well
    conditioned; the coefficients are mapped back afterwards.

    Raises TooFewPointsError for fewer than 5 points and DegenerateConicError
    when the minimizer is not an ellipse (collinear or too-noisy input, or an
    ellipse through the ICS origin, which the F=1 form cannot represent).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 5:
        raise TooFewPointsError(f"need at least 5 points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DegenerateConicError("non-finite contour points")

    mean = pts.mean(axis=0)
    centered = pts - mean
    scale = np.sqrt((centered ** 2).sum(axis=1).mean())
    if scale <= 0:
        raise DegenerateConicError("all points coincide")
    xs, ys = centered[:, 0] / scale, centered[:, 1] / scale

    design = np.column_stack([xs * xs, xs * ys, ys * ys, xs, ys])
    rhs = -np.ones(pts.shape[0])
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 5:
        raise DegenerateConicError("contour points do not determine a conic")
    ap, bp, cp, dp, ep = sol

    # Undo x' = (x - mx)/s, y' = (y - my)/s and re-normalize the constant to 1.
    mx, my = mean
    s2 = scale * scale
    a, b, c = ap / s2, bp / s2, cp / s2
    d = -(2 * ap * mx + bp * my) / s2 + dp / scale
    e = -(bp * mx + 2 * cp * my) / s2 + ep / scale
    const = (
        (ap * mx * mx + bp * mx * my + cp * my * my) / s2
        - (dp * mx + ep * my) / scale + 1.0
    )
    if abs(const) < 1e-12 * max(abs(a), abs(c), 1.0):
        raise DegenerateConicError("conic passes through the ICS origin")
    return EllipseCoeffs(a / const, b / const, c / const, d / const, e / const)


def ellipse_centers(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Centers (M, 2) in ICS (cm) of ellipses given as (M, 5) rows
    (a, b, c, d, e), and a mask of the conics with no finite center."""
    co = np.asarray(coeffs, dtype=float)
    a, b, c, _, _ = co.T
    den = 4.0 * a * c - b * b
    flat = np.abs(den) < 1e-14 * np.maximum(np.maximum(a * a, c * c), 1.0)
    # (b*e - 2*c*d, b*d - 2*a*e) / den
    num = b[:, None] * co[:, [4, 3]] - 2.0 * co[:, [2, 0]] * co[:, [3, 4]]
    return num / den[:, None], flat


# Cone matrix entries, row-major, as indices into (a*f^2, b*f^2/2, c*f^2,
# d*f/2, e*f/2, 1).
_CONE_ENTRIES = np.array([0, 1, 3, 1, 2, 4, 3, 4, 5])
_HALVES = np.array([1.0, 0.5, 1.0, 0.5, 0.5])
_YZX, _ZXY = np.array([1, 2, 0]), np.array([2, 0, 1])
_PLUS_MINUS = np.array([1.0, -1.0])


def cone_matrices(coeffs, f: float) -> np.ndarray:
    """Viewing-cone matrices (M, 3, 3) of ellipses given as (M, 5) rows
    (a, b, c, d, e); a camera point v lies on a cone iff v.T @ Q @ v = 0.

    The sign is left as it comes; `decompose_cones` normalizes it.
    """
    c = np.asarray(coeffs, dtype=float)
    entries = np.ones((len(c), 6))
    entries[:, :5] = c * f
    entries[:, :3] *= f
    entries[:, :5] *= _HALVES
    return entries[:, _CONE_ENTRIES].reshape(-1, 3, 3)


def decompose_cones(q) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize cone matrices (M, 3, 3) into auxiliary coordinate systems.

    Q and -Q are the same cone, so a matrix with two negative eigenvalues is
    decomposed as -Q. Returns the eigenvalues (M, 3) ordered
    lambda1 >= lambda2 > 0 > lambda3, the right-handed rotations r_a_c
    (M, 3, 3) whose third column (the cone axis) points toward positive z in
    the camera frame, a mask of the matrices taken as -Q, and a mask of the
    matrices that are no elliptical cone (a numerically zero eigenvalue, or
    a signature other than (+, +, -) up to sign).
    """
    w, v = np.linalg.eigh(q)
    w0, w1, w2 = w.T
    flipped = (w1 < 0) & (w2 >= 0)
    size = np.abs(w)
    not_cone = ~((w0 < 0) & (w2 >= 0)) | (
        size <= 1e-10 * size.sum(axis=1, keepdims=True)
    ).any(axis=1)
    # eigh sorts ascending and -Q has the spectrum -w with Q's eigenvectors,
    # so (e1, e3) are Q's last and first eigenvectors, or -Q's first and last.
    lambdas = np.where(flipped[:, None], -w, w[:, ::-1])
    ends = np.where(flipped[:, None, None], v[:, :, ::2], v[:, :, ::-2])
    # The axis points to positive z; the transverse axis gets a canonical
    # sign (its largest component positive) so repeated runs agree bit for bit.
    e1 = ends[:, :, 0]
    lead = e1[np.arange(len(w)), np.abs(e1).argmax(axis=1)]
    ends = np.where(np.array([lead, ends[:, 2, 1]]).T[:, None] < 0, -ends, ends)
    e1, e3 = ends[:, :, 0], ends[:, :, 1]
    e2 = e3[:, _YZX] * e1[:, _ZXY] - e3[:, _ZXY] * e1[:, _YZX]
    r_a_c = np.concatenate([ends[:, :, :1], e2[:, :, None], ends[:, :, 1:]], axis=2)
    return lambdas, r_a_c, flipped, not_cone


def section_normals(lambdas, r_a_c) -> tuple[np.ndarray, np.ndarray]:
    """The two circle sections of decomposed cones: slopes (M, 2) = (k, -k)
    with k = sqrt((l1-l2)/(l2-l3)), and unit normals (M, 2, 3) in the camera
    frame, r_a_c @ (k, 0, -1)/sqrt(k^2+1) flipped to a negative z-component
    (a ceiling luminaire faces down toward the camera)."""
    l1, l2, l3 = np.asarray(lambdas).T
    k = np.sqrt(np.maximum(0.0, (l1 - l2) / (l2 - l3)))
    slopes = np.multiply.outer(k, _PLUS_MINUS)
    n = slopes[:, :, None] * r_a_c[:, None, :, 0] - r_a_c[:, None, :, 2]
    n /= np.sqrt(slopes * slopes + 1.0)[:, :, None]
    return slopes, np.where(n[:, :, 2:] > 0, -n, n)


def plane_intercepts(lambdas, k, r_lum, probe_b: float = 1.0):
    """Intercepts b_led (m) of the planes z = k*x + b_led in ACS that cut
    decomposed cones in circles of radius r_lum, and a mask of slopes
    parallel to a cone generator (no finite chord). Arrays of M rows.

    Cuts the cone's x-z silhouette lines z = +-m*x, m = sqrt(-l1/l3), with
    the probe plane z = k*x + probe_b; the probe chord scales to the true
    diameter 2R, so b_led = 2*R*probe_b/|chord|, whatever probe_b is.
    """
    m = np.sqrt(-lambdas[:, 0] / lambdas[:, 2])
    parallel = np.abs(m - np.abs(k)) <= 1e-9 * m
    x1, x2 = probe_b / (m - k), probe_b / (m + k)
    chord = np.hypot(x1 + x2, m * x1 - m * x2)
    return 2.0 * r_lum * probe_b / chord, parallel


def lift_to_planes(xy, k, b_led, r_a_c, f: float):
    """Intersect the viewing rays of image points (M, 2) (cm) with the
    planes z = k*x + b_led in ACS.

    Returns the intersections (M, 3) in the camera frame (m), a mask of rays
    that run along their plane and a mask of intersections with z <= 0
    (behind the camera).
    """
    embedded = np.empty((len(xy), 3, 1))
    embedded[:, :2, 0] = xy
    embedded[:, 2] = f
    ray = (r_a_c.transpose(0, 2, 1) @ embedded)[:, :, 0]
    denom = ray[:, 2] - k * ray[:, 0]
    parallel = np.abs(denom) <= 1e-12 * np.sqrt((ray * ray).sum(axis=1))
    point = (r_a_c @ ((b_led / denom)[:, None] * ray)[:, :, None])[:, :, 0]
    return point, parallel, point[:, 2] <= 0
