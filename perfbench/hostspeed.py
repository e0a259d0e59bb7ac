"""Host-speed calibration for a shared machine whose speed drifts.

On a shared 2-core host the same fixed Monte Carlo chunk takes 3.7 to 8.8 ms
per sample within one minute, and CPU time tracks wall time, so the host
itself runs slower at times. A fixed kernel owned by the benchmark, with the
same mix of interpreter work and small NumPy/LAPACK calls as arcpose, is
timed right after each measured chunk; every time the benchmark reports is
scaled by REFERENCE_S / (that kernel's time). Values therefore read as times
at the host's reference speed, and the raw wall-clock figures are printed
next to them. The kernel does not touch arcpose, so a change to the program
moves the scaled figures by the full amount of its effect.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure for one `measure()` on the 2-core shared host the baseline was
# taken on, where it reads 8 to 13 ms as the host's speed drifts. A constant,
# so that scaled figures from two commits compare directly.
REFERENCE_S = 0.0100

_rng = np.random.default_rng(12345)
_POINTS = _rng.standard_normal((360, 3))
_ROT = np.linalg.qr(_rng.standard_normal((3, 3)))[0]
_DESIGN = _rng.standard_normal((360, 5))
_RHS = _rng.standard_normal(360)
_SYM = _rng.standard_normal((3, 3))
_SYM = _SYM + _SYM.T


def _kernel(rounds: int) -> float:
    acc = 0.0
    for _ in range(rounds):
        cam = (_POINTS - _ROT[0]) @ _ROT
        z = cam[:, 2]
        u = np.where(z > 0, cam[:, 0] / z, np.nan)
        w, _ = np.linalg.eigh(_SYM)
        x, *_ = np.linalg.lstsq(_DESIGN, _RHS, rcond=None)
        acc += float(np.linalg.norm(u[:5])) + float(w[0]) + float(x[0])
        pairs = tuple((j, j * 0.5) for j in range(20))
        acc += sum(a for a, _ in pairs)
    return acc


def measure(rounds: int = 150) -> float:
    """Seconds one calibration slice takes now."""
    start = time.perf_counter()
    _kernel(rounds)
    return time.perf_counter() - start


def scale(calibration_s: float) -> float:
    """Factor that turns a raw time into a time at the reference speed."""
    return REFERENCE_S / calibration_s


def smoothed(calibrations: list[float], half_width: int = 3) -> list[float]:
    """Running median over neighbouring slices: one 10 ms slice is noisy,
    the drift it tracks is slower than a few chunks."""
    n = len(calibrations)
    return [statistics.median(calibrations[max(0, i - half_width):i + half_width + 1])
            for i in range(n)]
