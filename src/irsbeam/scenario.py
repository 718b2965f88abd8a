"""Scenario files: a JSON description of one simulation setup.

A scenario names the regime (far or near field), the wideband configuration,
the array, the link geometry, the design kind (phase-only or joint
phase/delay), and optional sweep parameters. All frequencies are plain Hz
numbers, distances are meters and angles radians; there is no unit-suffix
parsing. The machine-readable schema is published in docs/scenario.schema.json.

Minimal far-field example::

    {"f_c": 200e9, "B": 6e9, "R": 64, "nu0": 0.5}

Minimal near-field example::

    {"f_c": 200e9, "B": 6e9, "R": 64,
     "bs": [0, 0], "user": [3, 0], "irs_origin": [1, 1]}
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import IrsArray, NearFieldGeometry, WidebandConfig, resolve_subcarrier
from .scan import (
    DEFAULT_HEATMAP_HALF_SPAN_M,
    DEFAULT_HEATMAP_STEP_M,
    DEFAULT_NU_GRID,
    DEFAULT_THRESHOLD,
)

DEFAULT_N_SUBCARRIERS = 128

_TOP_KEYS = {
    "regime", "f_c", "B", "M", "R", "d", "nu0", "chi", "psi",
    "bs", "user", "irs_origin", "design", "sweep", "threshold", "format",
    "description",
}
_SWEEP_KEYS = {
    "nu_start", "nu_stop", "nu_step", "subcarriers",
    "half_span_m", "step_m", "subcarrier",
}
_DESIGNS = ("phases_only", "dam")
_FORMATS = ("csv", "json")


class ScenarioError(ValueError):
    """A scenario file failed to parse or violated an invariant."""


@dataclass(frozen=True)
class SweepSpec:
    """Sweep parameters; angle-grid fields drive far sweeps, the span/step and
    single-subcarrier fields drive near-field heatmaps."""

    nu_start: float = DEFAULT_NU_GRID[0]
    nu_stop: float = DEFAULT_NU_GRID[1]
    nu_step: float = DEFAULT_NU_GRID[2]
    subcarriers: tuple[int, ...] = (1, 0, -1)
    half_span_m: float = DEFAULT_HEATMAP_HALF_SPAN_M
    step_m: float = DEFAULT_HEATMAP_STEP_M
    subcarrier: int = 0


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation setup loaded from (or writable to) JSON."""

    regime: str
    config: WidebandConfig
    n_elements: int
    spacing_m: float
    design: str = "phases_only"
    nu0: float | None = None
    arrival_rad: float | None = None
    departure_rad: float | None = None
    bs_xy: tuple[float, float] | None = None
    user_xy: tuple[float, float] | None = None
    irs_origin_xy: tuple[float, float] | None = None
    sweep: SweepSpec = SweepSpec()
    threshold: float = DEFAULT_THRESHOLD
    out_format: str = "csv"

    def make_array(self) -> IrsArray:
        return IrsArray(n_elements=self.n_elements, spacing_m=self.spacing_m)

    def make_geometry(self) -> NearFieldGeometry:
        if self.regime != "near":
            raise ScenarioError("geometry is only defined for near-field scenarios")
        return NearFieldGeometry(
            bs_xy=self.bs_xy,
            user_xy=self.user_xy,
            irs_origin_xy=self.irs_origin_xy,
            array=self.make_array(),
        )

    def direction(self) -> float:
        """The far-field design direction nu0 (possibly derived from angles)."""
        if self.regime != "far":
            raise ScenarioError("direction is only defined for far-field scenarios")
        if self.nu0 is not None:
            return self.nu0
        return float(np.sin(self.arrival_rad) - np.sin(self.departure_rad))

    def to_dict(self) -> dict:
        out = {
            "regime": self.regime,
            "f_c": self.config.carrier_hz,
            "B": self.config.bandwidth_hz,
            "M": self.config.n_subcarriers,
            "R": self.n_elements,
            "d": self.spacing_m,
            "design": self.design,
            "sweep": asdict(self.sweep) | {"subcarriers": list(self.sweep.subcarriers)},
            "threshold": self.threshold,
            "format": self.out_format,
        }
        if self.regime == "far":
            if self.nu0 is not None:
                out["nu0"] = self.nu0
            if self.arrival_rad is not None:
                out["chi"] = self.arrival_rad
                out["psi"] = self.departure_rad
        else:
            out["bs"] = list(self.bs_xy)
            out["user"] = list(self.user_xy)
            out["irs_origin"] = list(self.irs_origin_xy)
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _require_number(raw: dict, key: str, positive: bool = False) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"field '{key}' must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ScenarioError(f"field '{key}' must be positive, got {value}")
    return float(value)


def _require_point(raw: dict, key: str) -> tuple[float, float]:
    value = raw[key]
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        or not all(math.isfinite(v) for v in value)
    ):
        raise ScenarioError(f"field '{key}' must be a finite [x, y] pair, got {value!r}")
    return (float(value[0]), float(value[1]))


def _parse_sweep(raw) -> SweepSpec:
    if not isinstance(raw, dict):
        raise ScenarioError(f"field 'sweep' must be an object, got {raw!r}")
    unknown = set(raw) - _SWEEP_KEYS
    if unknown:
        raise ScenarioError(f"unknown sweep field(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for key in ("nu_start", "nu_stop", "nu_step", "half_span_m", "step_m"):
        if key in raw:
            kwargs[key] = _require_number(raw, key, positive=key not in ("nu_start", "nu_stop"))
    if "subcarriers" in raw:
        subs = raw["subcarriers"]
        if not isinstance(subs, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in subs
        ):
            raise ScenarioError("sweep field 'subcarriers' must be a list of integers")
        kwargs["subcarriers"] = tuple(subs)
    if "subcarrier" in raw:
        sub = raw["subcarrier"]
        if not isinstance(sub, int) or isinstance(sub, bool):
            raise ScenarioError("sweep field 'subcarrier' must be an integer")
        kwargs["subcarrier"] = sub
    return SweepSpec(**kwargs)


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a parsed scenario document and resolve defaults.

    Raises :class:`ScenarioError` naming the offending field or invariant.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for key in ("f_c", "B", "R"):
        if key not in raw:
            raise ScenarioError(f"required field '{key}' is missing")

    f_c = _require_number(raw, "f_c", positive=True)
    bandwidth = _require_number(raw, "B", positive=True)
    m = raw.get("M", DEFAULT_N_SUBCARRIERS)
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ScenarioError(f"field 'M' must be an integer >= 1, got {m!r}")
    try:
        config = WidebandConfig(carrier_hz=f_c, bandwidth_hz=bandwidth, n_subcarriers=m)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    n_elements = raw["R"]
    if isinstance(n_elements, bool) or not isinstance(n_elements, int) or n_elements < 1:
        raise ScenarioError(f"field 'R' must be an integer >= 1, got {n_elements!r}")
    spacing = (
        _require_number(raw, "d", positive=True) if "d" in raw else config.wavelength_m / 2.0
    )

    has_far = ("nu0" in raw) or ("chi" in raw) or ("psi" in raw)
    has_near = ("bs" in raw) or ("user" in raw) or ("irs_origin" in raw)
    if has_far and has_near:
        raise ScenarioError("exactly one regime's geometry may be present, got both")
    if not has_far and not has_near:
        raise ScenarioError(
            "no geometry given: set 'nu0' (or 'chi'/'psi') for far field, "
            "or 'bs'/'user'/'irs_origin' for near field"
        )
    regime = "far" if has_far else "near"
    if "regime" in raw and raw["regime"] != regime:
        raise ScenarioError(
            f"field 'regime' says {raw['regime']!r} but the geometry fields imply {regime!r}"
        )

    nu0 = arrival = departure = None
    bs = user = origin = None
    if regime == "far":
        if ("chi" in raw) != ("psi" in raw):
            raise ScenarioError("fields 'chi' and 'psi' must be given together")
        if "chi" in raw:
            arrival = _require_number(raw, "chi")
            departure = _require_number(raw, "psi")
        if "nu0" in raw:
            nu0 = _require_number(raw, "nu0")
            if abs(nu0) > 2.0:
                raise ScenarioError(f"field 'nu0' must lie in [-2, 2], got {nu0}")
            if arrival is not None:
                derived = float(np.sin(arrival) - np.sin(departure))
                if abs(derived - nu0) > 1e-12:
                    raise ScenarioError(
                        f"'nu0' ({nu0}) inconsistent with 'chi'/'psi' "
                        f"(sin(chi) - sin(psi) = {derived})"
                    )
    else:
        for key in ("bs", "user", "irs_origin"):
            if key not in raw:
                raise ScenarioError(f"near-field scenario requires field '{key}'")
        bs = _require_point(raw, "bs")
        user = _require_point(raw, "user")
        origin = _require_point(raw, "irs_origin")
        try:
            NearFieldGeometry(
                bs_xy=bs, user_xy=user, irs_origin_xy=origin,
                array=IrsArray(n_elements=n_elements, spacing_m=spacing),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    design = raw.get("design", "phases_only")
    if design not in _DESIGNS:
        raise ScenarioError(f"field 'design' must be one of {_DESIGNS}, got {design!r}")
    out_format = raw.get("format", "csv")
    if out_format not in _FORMATS:
        raise ScenarioError(f"field 'format' must be one of {_FORMATS}, got {out_format!r}")
    threshold = _require_number(raw, "threshold") if "threshold" in raw else DEFAULT_THRESHOLD
    if not 0.0 < threshold < 1.0:
        raise ScenarioError(f"field 'threshold' must lie in (0, 1), got {threshold}")

    sweep = _parse_sweep(raw["sweep"]) if "sweep" in raw else SweepSpec()
    # resolve the -1 shorthand for "highest subcarrier" now that M is known
    resolved_rows = tuple(resolve_subcarrier(config, s) for s in sweep.subcarriers)
    resolved_row = resolve_subcarrier(config, sweep.subcarrier)
    for s in resolved_rows + (resolved_row,):
        if not 0 <= s <= m:
            raise ScenarioError(f"sweep subcarrier index {s} outside 0..{m}")
    sweep = replace(sweep, subcarriers=resolved_rows, subcarrier=resolved_row)

    return Scenario(
        regime=regime,
        config=config,
        n_elements=n_elements,
        spacing_m=spacing,
        design=design,
        nu0=nu0,
        arrival_rad=arrival,
        departure_rad=departure,
        bs_xy=bs,
        user_xy=user,
        irs_origin_xy=origin,
        sweep=sweep,
        threshold=float(threshold),
        out_format=out_format,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file.

    Parse failures report the line and column; validation failures name the
    violated field or invariant.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return scenario_from_dict(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
