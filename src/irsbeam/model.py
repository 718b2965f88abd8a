"""Shared domain types, the subcarrier grid, the gain kernel and the design rules.

Conventions used throughout the package:

* element indices are 1-based in formulas and 0-based in storage, so every
  phase progression carries an explicit ``(r - 1)`` offset;
* angles are radians, the normalized direction ``nu = sin(chi) - sin(psi)``
  is dimensionless, frequencies are Hz, distances are meters, delays are
  seconds -- no implicit unit conversion anywhere;
* a far-field link is its direction nu, a plain float: a scenario's angles
  chi and psi enter the gain only through nu, and become nu once, at load;
* the ULA lies along the +x axis and all geometry is 2-D;
* every type is immutable after construction and every operation is a pure
  function, so concurrent use needs no synchronization.

One phase convention serves both regimes. The beam gain of phase profile phi
and delay profile tau toward a target at frequency f is

    |sum_r exp(j [phi_r - (1 + f/f_c) P_r - 2 pi f tau_r])|

where P_r is the frequency-flat path phase of element r. In the far field
P_r = pi (r-1) nu: the half-wavelength progression, so the spacing ``d`` is
ignored there (the ROADMAP item on honouring ``d``). In the near field
P_r = (2 pi / lambda_c)(d_r^BR + d_r^target), from the exact distances (its
path factor and its accuracy: :mod:`irsbeam.nearfield`).

The kernel splits each term into an element weight and a path factor:
w_r = exp(j [phi_r - 2 pi f tau_r]) depends only on the design and the
frequency, E_r = exp(-j (1 + f/f_c) P_r) only on the frequency and the target.
In the far field P_r is linear in r, so E_r = z^(r-1) with
z = exp(-j pi (1 + f/f_c) nu): the array factor is a polynomial in z
(Schelkunoff, 1943), and its powers cost one exp and R - 1 complex multiplies
per (frequency, direction) instead of R exps. One driver, ``_gain_blocks``,
runs every gain: it checks the inputs once, holds the (F, N) result and
forms each block of frequencies' scales and weights, and hands them to one
of two evaluators. ``_array_gain`` contracts w with a path factor in chunked
matmuls. ``farfield._far_grid_gain`` serves the angle sweeps: on their
uniform nu grid, an arc of the unit circle, chirp-z transforms evaluate the
polynomial in O((N + R) log(N + R)) per frequency instead of O(N R). Both
routes meet the Dirichlet closed form, and each other, within 1e-9.

One design rule per remedy serves both regimes, in the path turns
t_r = P_r / 2 pi at the design point. The phase-only design cancels the path
phase at f_c, 2 P_r: phi_r = 2 pi (2 t_r). The DAM design cancels it at every
f: phi_r = 2 pi t_r = P_r takes the part flat in f, and the delay
tau_r = (max t - t_r) / f_c, the common delay max t / f_c less P_r / (2 pi f_c),
the part f P_r / f_c. Each regime gives only its turns, in ``np.longdouble``:
(r-1) nu0 / 2 in the far field (exact for R <= 2^11) and
(d_r^BR + d_r^RU) f_c / c in the near field, reduced to one turn there before
the 2 pi scale. Far design phases lie within 2 ulp of 2 pi of an exact rational
oracle, near ones within 8 ulp of their largest unreduced phase.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in m/s (exact SI value)."""

TWO_PI = 2.0 * np.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _kept(a: np.ndarray) -> np.ndarray:
    """``a`` to keep: itself if it is read-only, else a read-only copy, so the
    caller's own array stays writable."""
    return a if not a.flags.writeable else _readonly(a.copy())


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _shown(value, form=repr) -> str:
    """``form(value)`` for a message, ``repr`` by default, or where that would pass
    Python's int-to-str digit limit, a description by bit length that cannot raise."""
    try:
        return form(value)
    except ValueError:  # an int past the limit, or a container that holds one
        return (f"an integer of {value.bit_length()} bits" if isinstance(value, int)
                else f"a {type(value).__name__} holding an integer too long to print")


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
        if not _is_integer(self.n_subcarriers) or self.n_subcarriers < 1:
            raise ValueError(
                f"n_subcarriers must be an integer >= 1, got {_shown(self.n_subcarriers, str)}")

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
        if not _is_integer(self.n_elements) or self.n_elements < 1:
            raise ValueError(
                f"n_elements must be an integer >= 1, got {_shown(self.n_elements, str)}")
        if not (np.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError(f"spacing_m must be positive, got {self.spacing_m}")

    @classmethod
    def half_wavelength(cls, cfg: WidebandConfig, n_elements: int) -> "IrsArray":
        """Default construction: spacing of half the carrier wavelength."""
        return cls(n_elements=n_elements, spacing_m=cfg.wavelength_m / 2.0)


def _checked_profile(values, kind: str) -> np.ndarray:
    """``values`` as a fresh float array, so the caller's own stays writable; raises,
    naming ``kind``, unless it is 1-D, non-empty and finite."""
    values = np.array(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise ValueError(f"{kind} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{kind} must be finite")
    return values


@dataclass(frozen=True)
class PhaseProfile:
    """Per-element reflection phase shifts, canonicalized into [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        wrapped = np.mod(_checked_profile(self.phases, "phases"), TWO_PI)
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
        delays = _checked_profile(self.delays, "delays")
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


def _turn_phases(turns: np.ndarray) -> PhaseProfile:
    """The phases 2 pi t of np.longdouble turns t, reduced to one turn before the 2 pi scale."""
    return PhaseProfile(TWO_PI * (turns - np.rint(turns)).astype(np.float64))


def _phase_only_phases(turns: np.ndarray) -> PhaseProfile:
    """phi_r = 2 pi (2 t_r) of the path turns t_r = P_r / 2 pi at the design point."""
    return _turn_phases(2 * turns)


def _dam_design(turns: np.ndarray, carrier_hz: float, summary: Mapping[str, object]) -> Design:
    """phi_r = 2 pi t_r and tau_r = (max t - t_r) / f_c of the path turns t_r at the
    design point; every delay is >= 0, and that of the element with the most turns is 0."""
    delays = (turns.max() - turns) / np.longdouble(carrier_hz)
    return Design(_turn_phases(turns), DelayProfile(delays.astype(np.float64)), summary)


@dataclass(frozen=True)
class Axis:
    """One named, unit-carrying axis of a GainMap; it keeps read-only points as
    they are and a read-only copy of writable ones (``_kept``)."""

    name: str
    unit: str
    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points)
        if points.ndim != 1 or points.size < 1:
            raise ValueError(f"axis '{self.name}' must have a non-empty 1-D point list")
        object.__setattr__(self, "points", _kept(points))


NORMALIZED_GAIN_SLACK = 1e-9


@dataclass(frozen=True)
class GainMap:
    """Sampled normalized beam-gain surface over one or more axes.

    Values are gains divided by the element count R, so the analytic peak is
    1; construction rejects NaN and values below 0 or above 1 (plus rounding slack).
    It keeps a read-only array as it is and a read-only copy of a writable
    one, so the caller's own stays writable (``_kept``).
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
        object.__setattr__(self, "values", _kept(values))

    def argmax_cell(self) -> tuple[int, ...]:
        """Index of the maximum value; ties break to the lowest row-major index."""
        return tuple(int(i) for i in np.unravel_index(np.argmax(self.values), self.values.shape))


def _subcarrier_frequency(cfg: WidebandConfig, m):
    """f_m = f_c + (B/M) * (m - 1 - (M-1)/2) of the 1-based index ``m``, a number or an
    array; a Python int ``m`` gives a Python float, which overflows without a warning."""
    return cfg.carrier_hz + cfg.subcarrier_spacing_hz * (m - 1 - (cfg.n_subcarriers - 1) / 2.0)


def subcarrier_frequencies(cfg: WidebandConfig) -> np.ndarray:
    """All M subcarrier frequencies f_m (``_subcarrier_frequency``), symmetric about
    the carrier: the spacing is exactly B/M and f_m + f_{M+1-m} = 2 f_c."""
    m = np.arange(1, cfg.n_subcarriers + 1, dtype=np.float64)
    return _readonly(_subcarrier_frequency(cfg, m))


def resolve_subcarrier(cfg: WidebandConfig, index: int) -> int:
    """Resolve the -1 shorthand for the highest subcarrier M; raises unless
    the index is an integer, not a bool, that is then 0 (carrier) or 1..M."""
    if not _is_integer(index):
        raise ValueError(f"subcarrier index must be an integer, got {_shown(index)}")
    resolved = cfg.n_subcarriers if index == -1 else index
    if not 0 <= resolved <= cfg.n_subcarriers:  # int(): a numpy integer shown by its digits
        raise ValueError(f"subcarrier index must be 0 (carrier) or 1..{cfg.n_subcarriers}, "
                         f"got {_shown(int(index))}")
    return resolved


def fraunhofer_distance(aperture_m: float, cfg: WidebandConfig) -> float:
    """Far-field boundary 2 D^2 / lambda_c for an aperture of size D; raises unless
    D is finite and positive and the boundary is too, neither overflowing nor
    underflowing to 0."""
    if not np.isfinite(aperture_m) or aperture_m <= 0:
        raise ValueError(f"aperture_m must be positive, got {aperture_m}")
    distance = 2.0 * aperture_m * aperture_m / cfg.wavelength_m
    if not 0.0 < distance < np.inf:
        raise ValueError(f"the Fraunhofer distance of aperture_m {aperture_m} is {distance}")
    return distance


def checked_frequencies(freq_hz) -> np.ndarray:
    """``freq_hz`` as a float array; raises unless every entry is finite and > 0."""
    freqs = np.asarray(freq_hz, dtype=np.float64)
    if freqs.size and not (freqs.min() > 0 and freqs.max() < np.inf):  # also false on NaN
        raise ValueError(f"freq_hz must be positive and finite, got {freq_hz}")
    return freqs


KERNEL_CHUNK = 2**14
"""Element evaluations per chunk of the gain kernel; bounds its temporaries."""

UFUNC_BUFFER = 256
"""numpy's ufunc buffer size, in items, inside the gain driver ``_gain_blocks``
(numpy's own is 8192): a ufunc allocates an iterator buffer of that many items
for each broadcast or strided operand, so that an evaluator writes its
broadcasts as broadcasts."""


def _element_weights(freqs, phases: PhaseProfile, delays: DelayProfile | None) -> np.ndarray:
    """w[f, r] = exp(j [phi_r - 2 pi f tau_r]); shape (F, R), or (1, R) without delays.

    The exponent is formed in the imaginary half of the zeroed result and the exp
    taken in place, so beside the result a call holds no (F, R) temporary: only
    the iterator buffer of a broadcast ufunc, one at a time, of numpy's buffer
    size: inside the gain driver ``UFUNC_BUFFER`` items, elsewhere up to 64 KiB.
    """
    weights = np.zeros((1 if delays is None else freqs.size, len(phases)), np.complex128)
    exponent = weights.imag
    if delays is not None:
        np.copyto(exponent, delays.delays)
        exponent *= (TWO_PI * freqs)[:, None]
    np.subtract(phases.phases, exponent, out=exponent)
    return np.exp(weights, out=weights)


def _gain_blocks(cfg, n_elements, freqs_hz, n_targets, n_freqs, wavenumber, phases, delays,
                 evaluate) -> np.ndarray:
    """The (F, N) gain of every evaluator, run block by block of frequencies.

    It checks the frequencies and raises on a profile whose length is not
    ``n_elements``, before it allocates anything. Then for each block of
    ``n_freqs`` frequencies it calls ``evaluate(s, w, rows)`` with the block's
    scales s = wavenumber (1 + f/f_c), its element weights w
    (``_element_weights``) and its rows of the result, which the call fills.
    The scales and the weights are released when the call returns, so one
    block's are held at a time and no F-sized array lives through the loop.
    The blocks run with numpy's ufunc buffer size set to ``UFUNC_BUFFER``
    items, which leaving ``np.errstate`` restores, also when ``evaluate``
    raises: each broadcast or strided operand then takes an iterator buffer of
    2 or 4 KiB, not 64 or 128.
    """
    freqs = checked_frequencies(freqs_hz).reshape(-1)
    for kind, profile in (("phase", phases), ("delay", delays)):
        if profile is not None and len(profile) != n_elements:
            raise ValueError(
                f"{kind} profile length {len(profile)} does not match array R={n_elements}"
            )
    out = np.empty((freqs.size, n_targets))
    with np.errstate():  # restores the caller's buffer size on leaving (numpy >= 2.0)
        np.setbufsize(UFUNC_BUFFER)
        for f0 in range(0, freqs.size, n_freqs):
            block = freqs[f0 : f0 + n_freqs]
            evaluate(wavenumber * (1.0 + block / cfg.carrier_hz),
                     _element_weights(block, phases, delays), out[f0 : f0 + n_freqs])
    return out


def _array_gain(cfg: WidebandConfig, n_elements: int, freqs_hz, n_targets: int, path_factor,
                wavenumber: float, phases: PhaseProfile,
                delays: DelayProfile | None = None) -> np.ndarray:
    """The beam gain of the module docstring on an (F, N) frequency x target grid,
    by chunked matmuls over a path factor, one evaluator of ``_gain_blocks``.

    gain[f, n] = |sum_r w[f, r] E[f, n, r]|, with the weights w of each block of
    frequencies. ``path_factor(lo, hi, s, out)`` writes E of targets lo..hi-1 at
    the scales s = wavenumber (1 + f/f_c) of the block into ``out``, shape
    (len(s), hi - lo, R): the powers of z = exp(-j s nu) in the far field
    (wavenumber pi), exp(-j 2 pi s d) of the exact distances d in the near field
    (wavenumber f_c / c, in turns per meter). Each chunk contracts
    E with w in one matmul and holds about KERNEL_CHUNK element evaluations:
    a block of targets, and for short blocks several frequencies.

    Beside what ``_gain_blocks`` holds, the (F, N) result and one block's scales
    and weights, a call holds one complex chunk buffer, 16 B per evaluation,
    that every chunk's ``out`` shares: a fresh one per chunk is often handed back
    to the OS on release and page-faulted in again by the next chunk. It is
    allocated at the first block, the largest, once the inputs are checked. Per
    chunk the call holds the matmul product and its modulus, a few values per
    target. Anything more is the path factor's.
    """
    n_rows = max(1, min(n_targets, KERNEL_CHUNK // n_elements))
    n_freqs = max(1, KERNEL_CHUNK // (n_rows * n_elements))
    buf = None

    def contract(s, weights, rows):
        nonlocal buf
        if buf is None:  # the first block is the largest
            buf = np.empty(s.size * n_rows * n_elements, np.complex128)
        for lo in range(0, n_targets, n_rows):
            hi = min(lo + n_rows, n_targets)
            factor = buf[: s.size * (hi - lo) * n_elements].reshape(s.size, hi - lo, n_elements)
            path_factor(lo, hi, s, factor)
            rows[:, lo:hi] = np.abs(np.matmul(factor, weights[..., None])[..., 0])

    return _gain_blocks(cfg, n_elements, freqs_hz, n_targets, n_freqs, wavenumber, phases,
                        delays, contract)
