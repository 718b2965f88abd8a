"""Shared domain types, the subcarrier grid, geometry, and the gain kernel.

Conventions used throughout the package:

* element indices are 1-based in formulas and 0-based in storage, so every
  phase progression carries an explicit ``(r - 1)`` offset;
* angles are radians, the normalized direction ``nu = sin(chi) - sin(psi)``
  is dimensionless, frequencies are Hz, distances are meters, delays are
  seconds -- no implicit unit conversion anywhere;
* the ULA lies along the +x axis and all geometry is 2-D;
* every type is immutable after construction and every operation is a pure
  function, so concurrent use needs no synchronization.

One phase convention serves both regimes. The beam gain of phase profile phi
and delay profile tau toward a target at frequency f is

    |sum_r exp(j [phi_r - (1 + f/f_c) P_r - 2 pi f tau_r])|

where P_r is the frequency-flat path phase of element r. In the far field
P_r = pi (r-1) nu: the half-wavelength progression, so the spacing ``d`` is
ignored there (ROADMAP item 1). In the near field
P_r = (2 pi / lambda_c)(d_r^BR + d_r^target), from the exact distances.

The kernel splits each term into an element weight and a path factor:
w_r = exp(j [phi_r - 2 pi f tau_r]) depends only on the design and the
frequency, E_r = exp(-j (1 + f/f_c) P_r) only on the frequency and the target.
In the far field P_r is linear in r, so E_r = z^(r-1) with
z = exp(-j pi (1 + f/f_c) nu): the array factor is a polynomial in z
(Schelkunoff, 1943), and its powers cost one exp and R - 1 complex multiplies
per (frequency, direction) instead of R exps. Their rounding grows with r but
stays below that of the phases themselves: against the Dirichlet closed form,
the far gain at R = 1024 over nu in [-2, 2] errs by at most 3.3e-10 (3.2e-10
with one exp per element), and normalized far gains differ from one exp per
element by at most 8.4e-14. Angle sweeps skip this kernel: on their uniform nu
grid, an arc of the unit circle, one chirp-z transform per frequency evaluates
the polynomial in O((N + R) log(N + R)) instead of O(N R) (see
``farfield._far_grid_gain``). At R = 1024 over nu in [-2, 2] at step 1e-4 it
errs from the Dirichlet form by at most 7.4e-10 (the kernel: 6.2e-10), and its
normalized gains differ from the kernel's by at most 6.8e-13.

In the near field the path factor forms the turns t = s d_r of each leg,
with s = (1 + f/f_c) / lambda_c in turns per meter, subtracts their nearest
integers (exact steps) and takes exp(-j 2 pi t) of an argument within
[-pi, pi], which costs less than the exp of 2 pi s d at some 10^4 rad. The
BS leg d_r^BR, the same for every target, is reduced on its own and added to
the target leg's turns, so the summed distance d_r^BR + d_r^target is never
rounded. The distances are sqrt((x - x_r)^2 + (y - y_0)^2). Against a
long-double oracle from raw coordinates, the fig6 and fig8 heatmap grids
(R = 64, lowest subcarrier) err by at most 7.0e-13 R and 7.3e-13 R (1.2e-12 R
for both with the exp of the whole path). Over that grid and 3,000 points
around the user, at the band edges and the carrier, both designs err by at
most 1.5e-12 R, 8.7e-13 R and 4.1e-13 R at R = 16, 64 and 256 (2.3e-12 R,
1.3e-12 R and 5.9e-13 R).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in m/s (exact SI value)."""

TWO_PI = 2.0 * np.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WidebandConfig:
    """OFDM-style wideband configuration around a carrier.

    Attributes:
        carrier_hz: carrier frequency f_c > 0, Hz.
        bandwidth_hz: total bandwidth B > 0, Hz; must satisfy B < 2 f_c so the
            lowest subcarrier stays positive.
        n_subcarriers: number of subcarriers M >= 1.
    """

    carrier_hz: float
    bandwidth_hz: float
    n_subcarriers: int

    def __post_init__(self):
        if not (np.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")
        if not (np.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if self.bandwidth_hz >= 2 * self.carrier_hz:
            raise ValueError(
                "bandwidth_hz must be < 2 * carrier_hz so the lowest subcarrier "
                f"frequency stays positive (B={self.bandwidth_hz}, f_c={self.carrier_hz})"
            )
        if int(self.n_subcarriers) != self.n_subcarriers or self.n_subcarriers < 1:
            raise ValueError(f"n_subcarriers must be an integer >= 1, got {self.n_subcarriers}")

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength, derived so wavelength * carrier == c identically."""
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.n_subcarriers


@dataclass(frozen=True)
class IrsArray:
    """Uniform linear IRS: element count and inter-element spacing."""

    n_elements: int
    spacing_m: float

    def __post_init__(self):
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise ValueError(f"n_elements must be an integer >= 1, got {self.n_elements}")
        if not (np.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError(f"spacing_m must be positive, got {self.spacing_m}")

    @classmethod
    def half_wavelength(cls, cfg: WidebandConfig, n_elements: int) -> "IrsArray":
        """Default construction: spacing of half the carrier wavelength."""
        return cls(n_elements=n_elements, spacing_m=cfg.wavelength_m / 2.0)


@dataclass(frozen=True)
class FarFieldTarget:
    """Far-field link direction: AoA chi, AoD psi, and nu = sin(chi) - sin(psi).

    Either representation may be populated; when both are, they must agree to
    1e-12. ``direction`` (nu) is the quantity every far-field operation
    consumes.
    """

    direction: float
    arrival_rad: float | None = None
    departure_rad: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.direction) or abs(self.direction) > 2.0:
            raise ValueError(f"direction must lie in [-2, 2], got {self.direction}")
        if (self.arrival_rad is None) != (self.departure_rad is None):
            raise ValueError("arrival_rad and departure_rad must be given together")
        if self.arrival_rad is not None:
            nu = np.sin(self.arrival_rad) - np.sin(self.departure_rad)
            if abs(nu - self.direction) > 1e-12:
                raise ValueError(
                    f"direction {self.direction} inconsistent with angles "
                    f"(sin(chi) - sin(psi) = {nu})"
                )

    @classmethod
    def from_angles(cls, arrival_rad: float, departure_rad: float) -> "FarFieldTarget":
        nu = float(np.sin(arrival_rad) - np.sin(departure_rad))
        return cls(direction=nu, arrival_rad=arrival_rad, departure_rad=departure_rad)


@dataclass(frozen=True)
class NearFieldGeometry:
    """BS, user and IRS element coordinates for the near-field (spherical) model.

    Element r (1-based) sits at ``(x_origin + (r-1) * spacing, y_origin)``.
    Construction rejects a BS or user coincident with any element, and keeps
    the element x-coordinates and the element-to-BS and element-to-user
    distances (each of length R).
    """

    bs_xy: tuple[float, float]
    user_xy: tuple[float, float]
    irs_origin_xy: tuple[float, float]
    array: IrsArray
    element_x: np.ndarray = field(init=False, repr=False, compare=False)
    bs_distances: np.ndarray = field(init=False, repr=False, compare=False)
    user_distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("bs_xy", "user_xy", "irs_origin_xy"):
            px, py = getattr(self, name)
            object.__setattr__(self, name, (float(px), float(py)))
        x = self.irs_origin_xy[0] + np.arange(self.array.n_elements) * self.array.spacing_m
        object.__setattr__(self, "element_x", _readonly(x))
        for label, point in (("BS", self.bs_xy), ("user", self.user_xy)):
            try:
                distances = self.element_distances(point)
            except ValueError as exc:
                raise ValueError(f"{label} {exc}") from None
            object.__setattr__(self, f"{label.lower()}_distances", _readonly(distances))

    def element_distances(self, points_xy) -> np.ndarray:
        """Euclidean distance from every element to each point.

        ``points_xy`` is one ``[x, y]`` point, giving shape (R,), or an (N, 2)
        array of points, giving (N, R). Raises on a point that is not finite,
        coincides with an element, or is so far away that its squared
        distance overflows. The distance is the sqrt of the summed squared
        offsets, so below about 1e-154 m it loses precision to underflow in
        the squares, and below about 1e-162 m it reads 0: such a point counts
        as coincident.
        """
        points = np.asarray(points_xy, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow is reported below, naming the point
            d = np.subtract(points[..., 0, None], self.element_x)
            np.square(d, out=d)
            d += np.square(points[..., 1, None] - self.irs_origin_xy[1])
        np.sqrt(d, out=d)
        if d.size and not (d.min() > 0.0 and d.max() < np.inf):  # also false on NaN
            rows, points = d.reshape(-1, d.shape[-1]), points.reshape(-1, 2)
            for bad, reason in (
                (~np.isfinite(points).all(axis=1), "is not finite"),
                (rows.min(axis=1) <= 0.0, "coincides with an IRS element"),
                (rows.max(axis=1) == np.inf, "is so far away that its squared distance overflows"),
            ):
                if bad.any():
                    raise ValueError(f"point {tuple(points[np.argmax(bad)].tolist())} {reason}")
        return d


@dataclass(frozen=True)
class PhaseProfile:
    """Per-element reflection phase shifts, canonicalized into [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        if phases.ndim != 1 or phases.size < 1:
            raise ValueError("phases must be a non-empty 1-D vector")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        wrapped = np.mod(phases, TWO_PI)
        # mod can round up to exactly 2*pi for tiny negative inputs
        wrapped[wrapped >= TWO_PI] = 0.0
        object.__setattr__(self, "phases", _readonly(wrapped))

    def __len__(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class DelayProfile:
    """Per-element true-time delays in seconds; all entries must be >= 0."""

    delays: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=np.float64)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("delays must be a non-empty 1-D vector")
        if not np.all(np.isfinite(delays)):
            raise ValueError("delays must be finite")
        if np.any(delays < 0.0):
            raise ValueError("delays must be non-negative (physical realizability)")
        object.__setattr__(self, "delays", _readonly(delays))

    def __len__(self) -> int:
        return self.delays.size


@dataclass(frozen=True)
class Design:
    """Phase profile, delay profile (None for phase-only, set for DAM) and summary.

    ``summary`` is a read-only copy of the scalars artifacts record: the far
    ``design_direction``, or the near ``focus_xy`` plus, for DAM, ``common_delay_s``.
    """

    phases: PhaseProfile
    delays: DelayProfile | None
    summary: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(self, "summary", MappingProxyType(dict(self.summary)))


@dataclass(frozen=True)
class Axis:
    """One named, unit-carrying axis of a GainMap."""

    name: str
    unit: str
    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points)
        if points.ndim != 1 or points.size < 1:
            raise ValueError(f"axis '{self.name}' must have a non-empty 1-D point list")
        object.__setattr__(self, "points", _readonly(points))


NORMALIZED_GAIN_SLACK = 1e-9


@dataclass(frozen=True)
class GainMap:
    """Sampled normalized beam-gain surface over one or more axes.

    Values are gains divided by the element count R, so the analytic peak is
    1; construction rejects NaN and values below 0 or above 1 (plus rounding slack).
    """

    axes: tuple[Axis, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        shape = tuple(ax.points.size for ax in self.axes)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match axes {shape}")
        if not (values >= 0.0).all():  # written so that NaN fails
            raise ValueError("gain values must be non-negative, not NaN")
        if not (values <= 1.0 + NORMALIZED_GAIN_SLACK).all():
            raise ValueError("normalized gain values must not exceed 1")
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "values", _readonly(values))

    def argmax_cell(self) -> tuple[int, ...]:
        """Index of the maximum value; ties break to the lowest row-major index."""
        return tuple(int(i) for i in np.unravel_index(np.argmax(self.values), self.values.shape))


def subcarrier_frequencies(cfg: WidebandConfig) -> np.ndarray:
    """All M subcarrier frequencies, symmetric about the carrier.

    f_m = f_c + (B/M) * (m - 1 - (M-1)/2) for m = 1..M; the spacing is exactly
    B/M and f_m + f_{M+1-m} = 2 f_c.
    """
    m = np.arange(1, cfg.n_subcarriers + 1, dtype=np.float64)
    return _readonly(
        cfg.carrier_hz + cfg.subcarrier_spacing_hz * (m - 1 - (cfg.n_subcarriers - 1) / 2.0)
    )


def subcarrier_frequency(cfg: WidebandConfig, index: int) -> float:
    """Frequency of subcarrier ``index`` (1-based).

    Index 0 selects the exact carrier f_c, which for even M is not itself a
    grid point; sweeps use it for their center row.
    """
    if index == 0:
        return cfg.carrier_hz
    if not 1 <= index <= cfg.n_subcarriers:
        raise ValueError(
            f"subcarrier index must be 0 (carrier) or 1..{cfg.n_subcarriers}, got {index}"
        )
    return float(subcarrier_frequencies(cfg)[index - 1])


def resolve_subcarrier(cfg: WidebandConfig, index: int) -> int:
    """Resolve the -1 shorthand for the highest subcarrier M; other indices pass."""
    return cfg.n_subcarriers if index == -1 else index


def fraunhofer_distance(aperture_m: float, cfg: WidebandConfig) -> float:
    """Far-field boundary 2 D^2 / lambda_c for an aperture of size D."""
    if not np.isfinite(aperture_m) or aperture_m <= 0:
        raise ValueError(f"aperture_m must be positive, got {aperture_m}")
    return 2.0 * aperture_m * aperture_m / cfg.wavelength_m


def checked_frequencies(freq_hz) -> np.ndarray:
    """``freq_hz`` as a float array; raises unless every entry is finite and > 0."""
    freqs = np.asarray(freq_hz, dtype=np.float64)
    if freqs.size and not (freqs.min() > 0 and freqs.max() < np.inf):  # also false on NaN
        raise ValueError(f"freq_hz must be positive and finite, got {freq_hz}")
    return freqs


KERNEL_CHUNK = 2**14
"""Element evaluations per chunk of the gain kernel; bounds its temporaries."""


def _gain_scales(cfg, n_elements, freqs_hz, wavenumber, phases, delays) -> tuple:
    """Frequencies, checked and flattened, and their scales s = wavenumber (1 + f/f_c);
    raises on a bad frequency or a profile whose length is not ``n_elements``."""
    freqs = checked_frequencies(freqs_hz).reshape(-1)
    for kind, profile in (("phase", phases), ("delay", delays)):
        if profile is not None and len(profile) != n_elements:
            raise ValueError(
                f"{kind} profile length {len(profile)} does not match array R={n_elements}"
            )
    return freqs, wavenumber * (1.0 + freqs / cfg.carrier_hz)


def _element_weights(freqs, phases: PhaseProfile, delays: DelayProfile | None) -> np.ndarray:
    """w[f, r] = exp(j [phi_r - 2 pi f tau_r]); shape (F, R), or (1, R) without delays."""
    exponent = phases.phases[None, :]
    if delays is not None:
        exponent = exponent - TWO_PI * freqs[:, None] * delays.delays
    return np.exp(1j * exponent)


def _array_gain(
    cfg: WidebandConfig,
    n_elements: int,
    freqs_hz,
    n_targets: int,
    path_factor,
    wavenumber: float,
    phases: PhaseProfile,
    delays: DelayProfile | None = None,
) -> np.ndarray:
    """The beam gain of the module docstring on an (F, N) frequency x target grid.

    gain[f, n] = |sum_r w[f, r] E[f, n, r]|. The weights w are computed once
    per block of frequencies: R exps, or R per frequency with a delay profile.
    ``path_factor(lo, hi, s, out)`` writes E of targets lo..hi-1 at the scales
    s = wavenumber (1 + f/f_c) of the block into ``out``, shape
    (len(s), hi - lo, R): the powers of z = exp(-j s nu) in the far field
    (wavenumber pi), exp(-j 2 pi s d) of the exact distances d in the near field
    (wavenumber 1/lambda_c, in turns per meter). Each chunk contracts
    E with w in one matmul and holds about KERNEL_CHUNK element evaluations:
    a block of targets, and for short blocks several frequencies. All chunks
    share one ``out`` buffer: a fresh one per chunk is often handed back to the
    OS on release and page-faulted in again by the next chunk. A grid of at
    most KERNEL_CHUNK evaluations is one chunk, with no loops and no buffer.
    """
    freqs, scale = _gain_scales(cfg, n_elements, freqs_hz, wavenumber, phases, delays)
    if freqs.size * n_targets * n_elements <= KERNEL_CHUNK:
        factor = np.empty((freqs.size, n_targets, n_elements), np.complex128)
        path_factor(0, n_targets, scale, factor)
        weights = _element_weights(freqs, phases, delays)
        return np.abs(factor @ weights[..., None])[..., 0]
    out = np.empty((freqs.size, n_targets))
    n_rows = max(1, min(n_targets, KERNEL_CHUNK // n_elements))
    n_freqs = max(1, KERNEL_CHUNK // (n_rows * n_elements))
    buf = np.empty(min(n_freqs, freqs.size) * n_rows * n_elements, np.complex128)
    for f0 in range(0, freqs.size, n_freqs):
        f = slice(f0, f0 + n_freqs)
        s = scale[f]
        weights = _element_weights(freqs[f], phases, delays)[..., None]
        for lo in range(0, n_targets, n_rows):
            hi = min(lo + n_rows, n_targets)
            factor = buf[: s.size * (hi - lo) * n_elements].reshape(s.size, hi - lo, n_elements)
            path_factor(lo, hi, s, factor)
            out[f, lo:hi] = np.abs(np.matmul(factor, weights)[..., 0])
    return out
