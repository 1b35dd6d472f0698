"""Fixed-sphere candidate selection for the maximum-likelihood decoder.

With dense constellations (64-QAM and beyond) evaluating the KDE likelihood of
every lattice point for every subcarrier is wasteful.  Following the paper
(section 4.2), the decoder only considers lattice points inside a sphere of
radius ``R`` centred at the *centroid* of the ``P`` per-segment observations;
the centroid is a robust first guess of where the transmitted point lies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.constellation import Constellation
from repro.utils.validation import require_positive

__all__ = ["SphereCandidates", "select_sphere_candidates", "centroid"]


def centroid(observations: np.ndarray, axis: int = -1) -> np.ndarray:
    """Centroid (arithmetic mean of real and imaginary parts) of observations."""
    return np.mean(np.asarray(observations, dtype=complex), axis=axis)


@dataclass(frozen=True)
class SphereCandidates:
    """Candidate lattice points per subcarrier.

    Attributes
    ----------
    indices:
        Integer array of shape ``(n_subcarriers, k)``: the ``k`` lattice
        points nearest each centre, nearest first.
    valid:
        Boolean mask of the same shape: ``True`` where the point lies within
        the sphere, and always in slot 0, so that every row has a candidate.
        Distances never decrease along a row, so the ``True`` entries of a
        row are a prefix: its ``m = valid.sum(axis=1)`` in-sphere candidates
        are its first ``m`` slots.  ``False`` slots must not win the
        likelihood comparison.
    points:
        Complex lattice coordinates of ``indices``.
    """

    indices: np.ndarray
    valid: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)

    @property
    def n_candidates(self) -> int:
        """Number of candidate slots per subcarrier, in the sphere or not."""
        return int(self.indices.shape[1])


def select_sphere_candidates(
    constellation: Constellation,
    centers: np.ndarray,
    radius: float,
    max_candidates: int = 16,
) -> SphereCandidates:
    """Select the lattice points within ``radius`` of each centre.

    Parameters
    ----------
    centers:
        Complex array of shape ``(n_subcarriers,)`` — typically the centroid
        of the per-segment observations of each subcarrier.
    radius:
        Sphere radius in constellation units.
    max_candidates:
        Cap on the number of candidates kept per subcarrier (nearest first).

    Each row keeps the ``k = min(max_candidates, order)`` nearest points,
    nearest first, and marks those beyond ``radius`` invalid, so a row's
    in-sphere candidates are a prefix of it.  The nearest lattice point is
    always valid, even when it lies outside the sphere, so that decoding
    never fails.  ``indices`` is a compact ``(n, k)`` copy, so holding the
    result never keeps the full ``(n, order)`` distance sort alive.
    """
    require_positive(radius, "radius")
    if max_candidates < 1:
        raise ValueError("max_candidates must be at least 1")
    centers = np.asarray(centers, dtype=complex).reshape(-1)
    distances = np.abs(centers[:, None] - constellation.points[None, :])
    order = np.argsort(distances, axis=1)
    k = min(max_candidates, constellation.order)
    indices = np.ascontiguousarray(order[:, :k])
    sorted_distances = np.take_along_axis(distances, indices, axis=1)
    valid = sorted_distances <= radius
    valid[:, 0] = True  # the nearest point is always a candidate
    points = constellation.points[indices]
    return SphereCandidates(indices=indices, valid=valid, points=points)
