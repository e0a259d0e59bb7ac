"""The batched conic fit `fit_ellipses`: agreement with the scalar `lstsq`
fit it replaced, rows that do not depend on the block they are fitted in,
and the same error per failed row as that fit.

The arcs are noisy contours of seeded simulator poses, cut the way each
capture mode cuts them, so they cover the arcs the experiments fit.
"""

import math
import re

import numpy as np
import pytest

from arcpose.conic import fit_ellipse, fit_ellipses
from arcpose.frames import pixel_to_image
from arcpose.sim import (
    ARC_MODES,
    default_intrinsics,
    default_scene,
    luminaire_points,
    sample_poses,
)

from oracles import capture_observation_scalar, fit_ellipse_lstsq


def arcs(mode, sigma, count=30, seed=21):
    """Image-plane contours (cm) of `mode` at pixel noise `sigma`, from the
    pairs of seeded poses; image_bounds takes only luminaires cut by the
    image edge."""
    scene, k = default_scene(), default_intrinsics()
    rngs = [np.random.default_rng([seed, ARC_MODES.index(mode), i]) for i in range(200)]
    drawn = sample_poses(scene, rngs, k, luminaire_points(scene.luminaires, 360),
                         mode != "image_bounds")
    out = []
    for sampled, rng in zip(drawn, rngs):
        for vis in (sampled.visibility[i] for i in sampled.pair):
            if mode == "image_bounds" and vis.fraction == 1.0:
                continue
            obs = capture_observation_scalar(vis, mode, sigma / math.sqrt(20), k, rng)
            out.append(pixel_to_image(obs.contour_pixels, k))
            if len(out) == count:
                return out
    raise AssertionError(f"only {len(out)} {mode} arcs")


def block(contours):
    """Contours zero-padded into one (M, N, 2) block, and their counts."""
    width = max(len(c) for c in contours)
    points = np.zeros((len(contours), width, 2))
    for row, contour in zip(points, contours):
        row[:len(contour)] = contour
    return points, [len(c) for c in contours]


@pytest.mark.parametrize("sigma", [0.0, 2.0])
@pytest.mark.parametrize("mode", ARC_MODES)
def test_fit_matches_lstsq_reference(mode, sigma):
    contours = arcs(mode, sigma)
    fits = fit_ellipses(*block(contours))
    assert (fits.failure == -1).all()
    for row, contour in zip(fits.coefficients, contours):
        reference = fit_ellipse_lstsq(contour).coefficients
        assert np.abs(row - reference).max() <= 1e-9 * np.abs(reference).max()


def circle(cx, cy, r, n=36):
    t = 2.0 * np.pi * np.arange(n) / n
    return np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1)


def failing_contours():
    """Point sets the fit rejects, one per check: too few points, a point
    that is not finite, coincident points, collinear points (no conic), a
    circle through the origin, points that overflow, a hyperbola, and no
    points at all."""
    nan = circle(0.1, 0.05, 0.02)
    nan[7, 1] = np.nan
    x = np.linspace(0.0, 0.3, 20)
    t = np.linspace(-1.0, 1.0, 25)
    return [
        circle(0.1, 0.05, 0.02)[:4],
        nan,
        np.full((12, 2), 0.25),
        np.stack([x, 2.0 * x + 0.1], axis=1),
        circle(0.1, 0.0, 0.1),
        circle(0.0, 0.0, 1e300),
        np.stack([0.5 + 0.2 * np.cosh(t), 0.3 + 0.1 * np.sinh(t)], axis=1),
        np.zeros((0, 2)),
    ]


def test_row_in_a_block_is_the_row_fitted_alone():
    # Complete, half, 60% and edge-cut arcs and every failure, mixed in one
    # block of rows of different lengths, and in a block of three.
    contours = [c for mode in ARC_MODES for c in arcs(mode, 2.0, count=6)]
    contours += failing_contours()
    order = np.random.default_rng(5).permutation(len(contours))
    contours = [contours[i] for i in order]
    fits = fit_ellipses(*block(contours))
    three = fit_ellipses(*block(contours[:3]))
    assert (fits.failure >= 0).sum() == len(failing_contours())
    for i, contour in enumerate(contours):
        alone = fit_ellipses(contour[None], [len(contour)])
        assert fits.failure[i] == alone.failure[0]
        assert np.array_equal(fits.coefficients[i], alone.coefficients[0], equal_nan=True)
        if i < 3:
            assert np.array_equal(three.coefficients[i], alone.coefficients[0],
                                  equal_nan=True)
        if alone.failure[0] < 0:
            assert np.array_equal(fit_ellipse(contour).coefficients, alone.coefficients[0])


def test_failures_match_the_reference_row_by_row():
    contours = failing_contours()
    good = arcs("superior_arc", 2.0, count=2)
    contours = [good[0], *contours, good[1]]
    fits = fit_ellipses(*block(contours))
    assert fits.error(0) is None and fits.error(len(contours) - 1) is None
    # One FIT_CHECKS entry each.
    assert fits.failure[1:-1].tolist() == [0, 1, 3, 4, 6, 2, 8, 0]
    for row, contour in enumerate(contours[1:-1], start=1):
        with pytest.raises(Exception) as reference:
            fit_ellipse_lstsq(contour)
        error = fits.error(row)
        assert type(error) is reference.type
        expected = str(reference.value)
        if expected.startswith("contour points out of floating-point range"):
            # The scalar fit names the NumPy operation that overflowed; a
            # batch finds the non-finite result instead.
            expected = expected.split(":")[0]
            assert str(error).split(":")[0] == expected
        else:
            assert str(error) == expected
        # fit_ellipse raises the row's error.
        with pytest.raises(type(error), match=re.escape(str(error))):
            fit_ellipse(contour)
