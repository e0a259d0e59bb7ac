"""Observation frames for the solve_stream workload, made from the seed.

The generator follows the simulator's default (`mixed`) protocol with plain
NumPy, so that it does not depend on simulator internals that later changes
are expected to rewrite: rejection-sample a pose that sees at least two
luminaires with half their contour in the image, rank the luminaires by the
pixel length of their visible contour, pair the best complete one (whole
contour plus centre and mark in the image) with the best other one, average
`images_per_location` noisy images of each, and keep the in-image points of
a partial luminaire. Rotation is Rz(psi) @ Ry(theta) @ Rx(phi) and a world
point P is seen at (P - t) @ R in the camera frame, as in `arcpose.frames`.

Frames are kept as arrays; `frame_dict` turns one into an observation-file
mapping (plain lists, as `json.load` would give) just before it is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HEIGHT_RANGE = (0.5, 2.0)
MAX_TILT = math.radians(45.0)
MIN_FRACTION = 0.5


@dataclass
class Frame:
    translation: np.ndarray
    observations: list  # (luminaire_id, contour (n, 2), complete, center, mark)


def _rotation(phi, theta, psi):
    cx, sx = math.cos(phi), math.sin(phi)
    cy, sy = math.cos(theta), math.sin(theta)
    cz, sz = math.cos(psi), math.sin(psi)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _project(points, rotation, translation, k):
    cam = (points - translation) @ rotation
    z = cam[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(z > 0, k["f"] * cam[..., 0] / z / k["dx"] + k["u0"], np.nan)
        v = np.where(z > 0, k["f"] * cam[..., 1] / z / k["dy"] + k["v0"], np.nan)
    return np.stack([u, v], axis=-1)


def _inside(pixels, k):
    u, v = pixels[..., 0], pixels[..., 1]
    with np.errstate(invalid="ignore"):
        return (u >= 0) & (u <= k["width"]) & (v >= 0) & (v <= k["height"])


def protocol(defaults: dict) -> dict:
    """The generator's settings from an experiment config (defaults.json)."""
    radius = defaults["radius"]
    return {
        "intrinsics": defaults["intrinsics"],
        "room": defaults["scene"]["room"],
        "luminaires": [(lum["id"], lum["center"], radius or lum["radius"])
                       for lum in defaults["scene"]["luminaires"]],
        "contour_samples": defaults["contour_samples"],
        "sigma": defaults["sigma"],
        "images_per_location": defaults["images_per_location"],
    }


def make_frames(settings: dict, seed: int, count: int) -> list[Frame]:
    """`count` frames from the settings `protocol()` returns."""
    k = settings["intrinsics"]
    length, width, _ = settings["room"]
    n = settings["contour_samples"]
    sigma = settings["sigma"]
    n_img = settings["images_per_location"]
    lums = settings["luminaires"]  # (id, center, radius)
    angles = 2.0 * math.pi * np.arange(n) / n
    ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], axis=-1)
    rings = np.stack([np.asarray(c) + r * ring for _, c, r in lums])
    anchors = np.stack(
        [np.stack([np.asarray(c), np.asarray(c) + [0.0, r, 0.0]]) for _, c, r in lums]
    )

    rng = np.random.default_rng([seed, 0x5EED])
    frames = []
    while len(frames) < count:
        d = rng.uniform(size=6)
        t = np.array([
            d[0] * length, d[1] * width,
            HEIGHT_RANGE[0] + d[2] * (HEIGHT_RANGE[1] - HEIGHT_RANGE[0]),
        ])
        rot = _rotation((2 * d[3] - 1) * MAX_TILT, (2 * d[4] - 1) * MAX_TILT,
                        (2 * d[5] - 1) * math.pi)
        pixels = _project(rings, rot, t, k)
        inside = _inside(pixels, k)
        fractions = inside.mean(axis=1)
        if (fractions >= MIN_FRACTION).sum() < 2:
            continue
        anchor_px = _project(anchors, rot, t, k)
        complete = (fractions == 1.0) & _inside(anchor_px, k).all(axis=1)
        seg = np.linalg.norm(np.roll(pixels, -1, axis=1) - pixels, axis=2)
        both = inside & np.roll(inside, -1, axis=1)
        length_px = np.where(both, np.nan_to_num(seg), 0.0).sum(axis=1)
        ranked = sorted(range(len(lums)), key=lambda i: (-length_px[i], lums[i][0]))
        full = [i for i in ranked if complete[i]]
        if full:
            chosen = [full[0], next(i for i in ranked if i != full[0])]
        else:
            chosen = ranked[:2]

        observations = []
        for i in chosen:
            noise = rng.standard_normal((n_img, n, 2)).mean(axis=0) * sigma
            keep = slice(None) if complete[i] else inside[i]
            contour = (pixels[i] + noise)[keep]
            if len(contour) < 5:
                break
            center, mark = (anchor_px[i] if complete[i] else (None, None))
            observations.append((lums[i][0], contour, bool(complete[i]), center, mark))
        if len(observations) == 2:
            frames.append(Frame(translation=t, observations=observations))
    return frames


def frame_dict(frame: Frame, intrinsics: dict) -> dict:
    items = []
    for lum_id, contour, complete, center, mark in frame.observations:
        item = {"luminaire_id": lum_id, "contour_pixels": contour.tolist(),
                "complete": complete}
        if complete:
            item["center_proj"] = center.tolist()
            item["mark_proj"] = mark.tolist()
        items.append(item)
    return {"schema_version": 1, "intrinsics": dict(intrinsics), "observations": items}
