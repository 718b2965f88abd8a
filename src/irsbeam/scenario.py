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

from .model import FarFieldTarget, IrsArray, NearFieldGeometry, WidebandConfig, resolve_subcarrier
from .scan import (
    DEFAULT_HEATMAP_HALF_SPAN_M,
    DEFAULT_HEATMAP_STEP_M,
    DEFAULT_NU_GRID,
    DEFAULT_THRESHOLD,
    check_threshold,
    grid_size,
)

DEFAULT_N_SUBCARRIERS = 128
MAX_COUNT = 2**20
"""Largest element count R and subcarrier count M a scenario may ask for."""
MAX_GRID_POINTS = 2**22
"""Most cells a scenario's sweep grid may have: rows x directions (far), x x y (near)."""

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
    target: FarFieldTarget | None = None
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
        return self.target.direction

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
            out["nu0"] = self.target.direction
            if self.target.arrival_rad is not None:
                out["chi"] = self.target.arrival_rad
                out["psi"] = self.target.departure_rad
        else:
            out["bs"] = list(self.bs_xy)
            out["user"] = list(self.user_xy)
            out["irs_origin"] = list(self.irs_origin_xy)
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _finite(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal too large for a float
        return None
    return number if math.isfinite(number) else None


def _require_number(raw: dict, key: str, positive: bool = False) -> float:
    value = _finite(raw[key])
    if value is None:
        raise ScenarioError(f"field '{key}' must be a finite number, got {raw[key]!r}")
    if positive and not value > 0:
        raise ScenarioError(f"field '{key}' must be positive, got {value}")
    return value


def _require_count(raw: dict, key: str, default: int | None = None) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_COUNT:
        raise ScenarioError(f"field '{key}' must be an integer in 1..{MAX_COUNT}, got {value!r}")
    return value


def _require_point(raw: dict, key: str) -> tuple[float, float]:
    value = raw[key]
    point = tuple(map(_finite, value)) if isinstance(value, (list, tuple)) else ()
    if len(point) != 2 or None in point:
        raise ScenarioError(f"field '{key}' must be a finite [x, y] pair, got {value!r}")
    return point


def _far_target(raw: dict) -> FarFieldTarget:
    """The direction of the 'nu0' field, the 'chi'/'psi' angles, or both."""
    if ("chi" in raw) != ("psi" in raw):
        raise ScenarioError("fields 'chi' and 'psi' must be given together")
    angles = (_require_number(raw, "chi"), _require_number(raw, "psi")) if "chi" in raw else ()
    nu0 = _require_number(raw, "nu0") if "nu0" in raw else None
    try:
        if nu0 is None:
            return FarFieldTarget.from_angles(*angles)
        return FarFieldTarget(nu0, *angles)
    except ValueError as exc:
        named = ", ".join(f"'{k}'" for k in ("nu0", "chi", "psi") if k in raw)
        raise ScenarioError(f"far-field target from {named}: {exc}") from exc


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
        if not isinstance(subs, list) or not subs or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in subs
        ):
            raise ScenarioError("sweep field 'subcarriers' must be a non-empty list of integers")
        kwargs["subcarriers"] = tuple(subs)
    if "subcarrier" in raw:
        sub = raw["subcarrier"]
        if not isinstance(sub, int) or isinstance(sub, bool):
            raise ScenarioError("sweep field 'subcarrier' must be an integer")
        kwargs["subcarrier"] = sub
    return SweepSpec(**kwargs)


def _check_sweep_grid(s: SweepSpec, far: bool) -> None:
    """Reject the regime's sweep grid, before anything is allocated, unless its
    step divides the span and it has at most MAX_GRID_POINTS cells. Errors name
    the regime's step field."""
    name = "field 'nu_step'" if far else "field 'step_m'"
    try:
        if far:  # subcarrier rows x directions
            cells = len(s.subcarriers) * grid_size(s.nu_start, s.nu_stop, s.nu_step)
        else:  # x x y
            cells = grid_size(-s.half_span_m, s.half_span_m, s.step_m) ** 2
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    if cells > MAX_GRID_POINTS:
        raise ScenarioError(f"{name} gives a sweep grid of {cells} cells, over {MAX_GRID_POINTS}")


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
    m = _require_count(raw, "M", DEFAULT_N_SUBCARRIERS)
    try:
        config = WidebandConfig(carrier_hz=f_c, bandwidth_hz=bandwidth, n_subcarriers=m)
    except ValueError as exc:
        raise ScenarioError(f"fields 'f_c', 'B', 'M': {exc}") from exc

    n_elements = _require_count(raw, "R")
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

    target = bs = user = origin = None
    if regime == "far":
        target = _far_target(raw)
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
        except ValueError as exc:  # the message opens with the point's label, "BS" or "user"
            key = "bs" if str(exc).startswith("BS ") else "user"
            raise ScenarioError(f"field '{key}': {exc}") from exc

    design = raw.get("design", "phases_only")
    if design not in _DESIGNS:
        raise ScenarioError(f"field 'design' must be one of {_DESIGNS}, got {design!r}")
    out_format = raw.get("format", "csv")
    if out_format not in _FORMATS:
        raise ScenarioError(f"field 'format' must be one of {_FORMATS}, got {out_format!r}")
    threshold = _require_number(raw, "threshold") if "threshold" in raw else DEFAULT_THRESHOLD
    try:
        check_threshold(threshold)
    except ValueError as exc:
        raise ScenarioError(f"field 'threshold': {exc}") from None

    sweep = _parse_sweep(raw["sweep"]) if "sweep" in raw else SweepSpec()
    # resolve the -1 shorthand for "highest subcarrier" now that M is known
    resolved_rows = tuple(resolve_subcarrier(config, s) for s in sweep.subcarriers)
    resolved_row = resolve_subcarrier(config, sweep.subcarrier)
    for s in resolved_rows + (resolved_row,):
        if not 0 <= s <= m:
            raise ScenarioError(f"sweep subcarrier index {s} outside 0..{m}")
    sweep = replace(sweep, subcarriers=resolved_rows, subcarrier=resolved_row)
    _check_sweep_grid(sweep, regime == "far")

    return Scenario(
        regime=regime,
        config=config,
        n_elements=n_elements,
        spacing_m=spacing,
        design=design,
        target=target,
        bs_xy=bs,
        user_xy=user,
        irs_origin_xy=origin,
        sweep=sweep,
        threshold=float(threshold),
        out_format=out_format,
    )


def _parse_int(literal: str) -> int | float:
    """A JSON integer literal as an int, or as an infinite float, which every field rejects."""
    try:
        return int(literal)
    except ValueError:  # over Python's 4,300-digit limit for int()
        return float(literal)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file.

    Parse failures report the line and column; validation failures name the
    violated field or invariant.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return scenario_from_dict(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
