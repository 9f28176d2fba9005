"""Unit-quaternion and matrix helpers.

Quaternions are scalar-first numpy arrays q = [q0, q1, q2, q3]; every
operation returning a quaternion renormalizes.
"""

from __future__ import annotations

import math

import numpy as np


def normalize(q: np.ndarray) -> np.ndarray:
    """Rescale a 4-vector to unit norm."""
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return q / n


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion [cos(angle/2), axis*sin(angle/2)] for a unit axis."""
    h = 0.5 * angle
    return normalize(np.concatenate([[math.cos(h)], math.sin(h) * np.asarray(axis, dtype=float)]))


def spectral_norm(a: np.ndarray) -> float:
    """Matrix 2-norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))
