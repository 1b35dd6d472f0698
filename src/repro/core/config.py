"""Configuration of the CPRecycle receiver (the paper's tunable parameters)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_non_negative, require_positive, require_positive_int

__all__ = ["CPRecycleConfig"]


@dataclass(frozen=True)
class CPRecycleConfig:
    """Tunable parameters of the CPRecycle receiver (Algorithm 1).

    Attributes
    ----------
    n_segments:
        Number of FFT segments ``P`` to use.  ``None`` uses every ISI-free
        cyclic prefix sample reported by the front end (capped by
        ``max_segments``).  Lower values trade interference mitigation for
        computation and degrade gracefully to the standard receiver at 1
        (paper section 6 / Fig. 14).
    max_segments:
        Upper bound on ``P`` when ``n_segments`` is ``None``.
    sphere_radius_scale:
        Radius ``R`` of the fixed-sphere candidate search, expressed as a
        multiple of the constellation's minimum lattice distance.  The sphere
        is centred at the centroid of the ``P`` observations (paper Fig. 6c).
    max_candidates:
        Hard cap on the number of lattice points evaluated per subcarrier —
        bounds the decoder's per-symbol cost for dense constellations.
    bandwidth_amplitude / bandwidth_phase:
        Kernel bandwidths ``Ba`` and ``Bphi`` of the bivariate Gaussian
        product kernel density estimate (paper Eq. 4).  ``None`` selects them
        per subcarrier with Silverman's rule from the preamble samples (the
        paper's data-driven choice).
    amplitude_weight / phase_weight:
        Relative weights of the amplitude and phase kernels, the paper's
        tuning knob for decoupling amplitude and phase effects.
    min_bandwidth_amplitude / min_bandwidth_phase:
        Floors applied to the data-driven bandwidths so that an
        interference-free preamble (all deviations almost identical) does not
        collapse the density into a delta function.
    model_scope:
        ``"per-segment"`` (default) keeps one density per (subcarrier, FFT
        segment), built for an interferer whose clean/dirty segment pattern
        persists from the preamble to the data symbols.  In this simulator
        it does not: the preamble's best segment is a data symbol's best
        4.6-7.2% of the time, against 1/16 by chance (measured in
        :mod:`repro.core.interference_model`).  ``"pooled"`` pools all
        segments into one density per subcarrier — the literal construction
        of the paper's Eq. 4.
    kde_chunk_elements:
        Memory budget of the KDE evaluation, counted in kernel evaluations
        (query points times training samples per density) per block, and
        forwarded to :class:`repro.core.kde.GaussianProductKde`.  The decoder
        scores candidates in blocks of whole symbols (or, for large frames, of
        subcarrier slices) within this budget; results do not depend on it.
        ``None`` uses ``GaussianProductKde.DEFAULT_CHUNK_ELEMENTS`` (2**16).
    """

    n_segments: int | None = None
    max_segments: int = 16
    sphere_radius_scale: float = 2.5
    max_candidates: int = 16
    bandwidth_amplitude: float | None = None
    bandwidth_phase: float | None = None
    amplitude_weight: float = 1.0
    phase_weight: float = 0.25
    min_bandwidth_amplitude: float = 0.02
    min_bandwidth_phase: float = 0.5
    model_scope: str = "per-segment"
    kde_chunk_elements: int | None = None

    def __post_init__(self) -> None:
        if self.n_segments is not None:
            require_positive_int(self.n_segments, "n_segments")
        require_positive_int(self.max_segments, "max_segments")
        require_positive(self.sphere_radius_scale, "sphere_radius_scale")
        require_positive_int(self.max_candidates, "max_candidates")
        for label in ("bandwidth_amplitude", "bandwidth_phase"):
            if getattr(self, label) is not None:
                require_positive(getattr(self, label), label)
        require_non_negative(self.amplitude_weight, "amplitude_weight")
        require_non_negative(self.phase_weight, "phase_weight")
        if self.amplitude_weight == 0 and self.phase_weight == 0:
            raise ValueError("at least one of the kernel weights must be positive")
        require_positive(self.min_bandwidth_amplitude, "min_bandwidth_amplitude")
        require_positive(self.min_bandwidth_phase, "min_bandwidth_phase")
        if self.model_scope not in ("pooled", "per-segment"):
            raise ValueError(
                f"model_scope must be 'pooled' or 'per-segment', got {self.model_scope!r}"
            )
        if self.kde_chunk_elements is not None:
            require_positive_int(self.kde_chunk_elements, "kde_chunk_elements")
