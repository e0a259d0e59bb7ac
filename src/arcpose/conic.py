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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConicError, TooFewPointsError

# Slack on the strict ellipse discriminant test b^2 - 4ac < 0.
DISCRIMINANT_SLACK = 1e-12


class _KernelRows:
    """Read-only per-row arrays of a batched kernel, whose `failure` column
    indexes the `CHECKS` entry each row failed (-1: passed). A message may
    name fields of the row, which `_details` supplies."""

    CHECKS: tuple = ()

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False

    def _details(self, row: int) -> dict:
        return {}

    def error(self, row: int) -> Exception | None:
        code = self.failure[row]
        if code < 0:
            return None
        cls, message = self.CHECKS[code]
        return cls(message.format(**self._details(row)))


# Every check of `fit_ellipses`, in the order the scalar fit ran them; the
# arithmetic's range is checked after each of the three stages that can fail.
_OUT_OF_RANGE = (DegenerateConicError,
                 "contour points out of floating-point range: overflow or underflow")
FIT_CHECKS = (
    (TooFewPointsError, "need at least 5 points, got {count}"),
    (DegenerateConicError, "non-finite contour points"),
    _OUT_OF_RANGE,
    (DegenerateConicError, "all points coincide"),
    (DegenerateConicError, "contour points do not determine a conic"),
    _OUT_OF_RANGE,
    (DegenerateConicError, "conic passes through the ICS origin"),
    _OUT_OF_RANGE,
    (DegenerateConicError, "discriminant b^2-4ac = {discriminant:g} is not negative"),
)


@dataclass(frozen=True)
class EllipseFits(_KernelRows):
    """Conics fitted to M contours, one row each: `coefficients` (M, 5) rows
    (a, b, c, d, e), the number of points `count` and `failure`, the
    FIT_CHECKS entry a row failed (-1: an ellipse; the coefficients of a
    failed row mean nothing)."""

    CHECKS = FIT_CHECKS
    coefficients: np.ndarray
    count: np.ndarray
    failure: np.ndarray

    def _details(self, row: int) -> dict:
        a, b, c = self.coefficients[row, :3]
        return {"count": self.count[row], "discriminant": b * b - 4.0 * a * c}


# The normal equations need the point sums of 14 monomials of the centered,
# scaled points, held in this column order: x, y, x^2, xy, y^2, then x^2
# times each of those five, then xy and y^2 times y, then xy and y^2 times
# y^2. `_GRAM` and `_RHS` place the sums in the Gram matrix of the design
# columns (x^2, xy, y^2, x, y) and its right side.
_GRAM = np.array([[7, 8, 9, 5, 6],
                  [8, 9, 12, 6, 10],
                  [9, 12, 13, 10, 11],
                  [5, 6, 10, 2, 3],
                  [6, 10, 11, 3, 4]])
_RHS = np.array([2, 3, 4, 0, 1])
_EPS = np.finfo(float).eps


def _column_sums(columns) -> np.ndarray:
    """Sums (K, M) of K >= 2 columns (K, N, M) over their N points, each
    adding its values in point order, so that trailing zeros leave it
    bit-identical. NumPy's reduction down an axis that is not the innermost
    adds one point at a time: few rows (M < 4) are summed down a small
    point-major copy (N, M, K), whose inner loop runs along all K columns;
    more are summed in place, the inner loop running along the rows."""
    if columns.shape[2] < 4:
        return np.ascontiguousarray(columns.transpose(1, 2, 0)).sum(axis=0).T
    return columns.sum(axis=1)


def fit_ellipses(points, counts) -> EllipseFits:
    """Least-squares conics through M contours at once, constant term = 1.

    Row m's image-plane points are the first `counts[m]` of `points`
    (M, N, 2); the padding is never read. Each row minimizes the algebraic
    residual of the conic equation on its points, centered and scaled to
    keep the problem well conditioned, and its coefficients are mapped back
    afterwards. The (M, 5, 5) normal equations come from point sums taken
    in point order, so a row is bit-identical whatever rows are fitted with
    it, and one batched `eigh` solves them; its eigenvalues give the rank
    test. A row fails with the first FIT_CHECKS entry it does not pass.
    """
    pts = np.asarray(points, dtype=float)
    count = np.array(counts, dtype=int)
    valid = np.arange(pts.shape[1])[:, None] < count  # (N, M)
    # The 14 monomial columns (14, N, M); x and y are zero past each row's
    # count, and so is every product of them.
    cols = np.empty((14, *valid.shape))
    x, y, xy = cols[0], cols[1], cols[:2]
    xy.fill(0.0)
    np.copyto(xy, pts.transpose(2, 1, 0), where=valid)
    with np.errstate(all="ignore"):
        few = count < 5
        bad = ~np.isfinite(pts)
        nonfinite = (bad.any(axis=2) & valid.T).any(axis=1) if bad.any() else np.zeros(len(few), bool)
        points_or_one = np.maximum(count, 1)
        mean = _column_sums(xy) / points_or_one
        np.subtract(xy, mean[:, None], out=xy, where=valid)
        squares = _column_sums(np.multiply(xy, xy, out=cols[2:4]))
        scale = np.sqrt((squares[0] + squares[1]) / points_or_one)
        range_1 = ~np.isfinite(mean).all(axis=0) | ~np.isfinite(scale)
        # Rows that failed already go on as the unit circle: eigh must see no
        # NaN, and a raised floating-point flag costs microseconds a call.
        coincide = ~(scale > 0)
        early = few | nonfinite | range_1 | coincide
        if early.any():
            turn = 2.0 * np.pi * np.arange(len(x)) / len(x)
            x[:, early], y[:, early] = np.cos(turn)[:, None], np.sin(turn)[:, None]
            mean[:, early], scale[early] = 0.0, 1.0
        xy /= scale
        np.multiply(x, xy, out=cols[2:4])
        np.multiply(y, y, out=cols[4])
        np.multiply(cols[2], cols[:5], out=cols[5:10])
        np.multiply(cols[3:5], y, out=cols[10:12])
        np.multiply(cols[3:5], cols[4], out=cols[12:14])
        sums = _column_sums(cols).T
        w, v = np.linalg.eigh(sums[:, _GRAM])
        rank = w[:, 0] <= _EPS * np.maximum(count, 5) * w[:, -1]
        sol = v @ ((v.transpose(0, 2, 1) @ -sums[:, _RHS, None]) / w[:, :, None])
    checks = np.array([few, nonfinite, range_1, coincide, rank])
    failure = np.where(checks.any(axis=0), checks.argmax(axis=0), -1)
    coefficients = np.full((len(count), 5), np.nan)
    # The mapping back costs a few dozen operations a row, cheaper on Python
    # floats than as NumPy calls on short arrays; the arithmetic is the same.
    rows = (failure < 0).nonzero()[0]
    if len(rows):
        args = np.concatenate([sol[rows, :, 0], mean[:, rows].T, scale[rows, None]], axis=1).tolist()
        mapped = np.array([_map_back(*row) for row in args])
        failure[rows], coefficients[rows] = mapped[:, 0], mapped[:, 1:]
    return EllipseFits(coefficients=coefficients, count=count, failure=failure)


def _map_back(ap, bp, cp, dp, ep, mx, my, scale):
    """Undo x' = (x - mx)/s, y' = (y - my)/s on a conic fitted to centered,
    scaled points and re-normalize its constant to 1, with the last four
    FIT_CHECKS. Returns the failed check (-1: an ellipse) and the
    coefficients a, b, c, d, e."""
    nan = (math.nan,) * 5
    s2 = scale * scale
    if s2 == 0.0:  # the division by s2 would fail
        return 5, *nan
    a, b, c = ap / s2, bp / s2, cp / s2
    d = -(2 * ap * mx + bp * my) / s2 + dp / scale
    e = -(bp * mx + 2 * cp * my) / s2 + ep / scale
    const = (
        (ap * mx * mx + bp * mx * my + cp * my * my) / s2
        - (dp * mx + ep * my) / scale + 1.0
    )
    if not all(map(math.isfinite, (s2, a, b, c, d, e, const))):
        return 5, *nan
    if abs(const) < 1e-12 * max(abs(a), abs(c), 1.0):
        return 6, *nan
    coefficients = (a / const, b / const, c / const, d / const, e / const)
    a, b, c = coefficients[:3]
    discriminant = b * b - 4.0 * a * c
    if not all(map(math.isfinite, (*coefficients, discriminant))):
        return 7, *coefficients
    return (8 if discriminant >= DISCRIMINANT_SLACK else -1), *coefficients


def ellipse_centers(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Centers (M, 2) in ICS (cm) of ellipses given as (M, 5) rows
    (a, b, c, d, e), and a mask of the conics with no finite center."""
    co = np.asarray(coeffs, dtype=float)
    a, b, c, _, _ = co.T
    den = 4.0 * a * c - b * b
    flat = np.abs(den) < 1e-14 * np.maximum(np.maximum(a * a, c * c), 1.0)
    # (b*e - 2*c*d, b*d - 2*a*e) / den
    num = b[:, None] * co[:, 4:2:-1] - 2.0 * co[:, 2::-2] * co[:, 3:]
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
