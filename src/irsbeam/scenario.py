"""Scenario files: a JSON description of one simulation setup.

A scenario names the regime (far or near field), the wideband configuration,
the array, the link geometry, the design kind (phase-only or joint
phase/delay), and optional sweep parameters of its regime. All frequencies
are plain Hz numbers, distances are meters and angles radians; there is no
unit-suffix parsing. The machine-readable schema is published in
docs/scenario.schema.json.

Minimal far-field example::

    {"f_c": 200e9, "B": 6e9, "R": 64, "nu0": 0.5}

Minimal near-field example::

    {"f_c": 200e9, "B": 6e9, "R": 64,
     "bs": [0, 0], "user": [3, 0], "irs_origin": [1, 1]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (IrsArray, WidebandConfig, _shown, _subcarrier_frequency,
                    fraunhofer_distance, resolve_subcarrier)
from .nearfield import NearFieldGeometry
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
MAX_ELEMENT_EVALS = 2**30
"""Most element evaluations, points x R, that one sweep of a scenario may make."""

_FAR_KEYS = ("nu0", "chi", "psi")
_NEAR_KEYS = ("bs", "user", "irs_origin")
_DESIGNS = ("phases_only", "dam")
_FORMATS = ("csv", "json")


class ScenarioError(ValueError):
    """A scenario file failed to parse or violated an invariant."""


@dataclass(frozen=True)
class SweepSpec:
    """Sweep parameters; angle-grid fields drive far sweeps, the span/step and
    single-subcarrier fields drive near-field heatmaps. A scenario file may
    set only its own regime's fields; the others keep their defaults."""

    nu_start: float = DEFAULT_NU_GRID[0]
    nu_stop: float = DEFAULT_NU_GRID[1]
    nu_step: float = DEFAULT_NU_GRID[2]
    subcarriers: tuple[int, ...] = (1, 0, -1)
    half_span_m: float = DEFAULT_HEATMAP_HALF_SPAN_M
    step_m: float = DEFAULT_HEATMAP_STEP_M
    subcarrier: int = 0


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation setup loaded from JSON.

    ``link`` is the checked far-field direction nu, a float in [-2, 2] given by
    the file's 'nu0' or its 'chi'/'psi' angles, or the near-field geometry
    built on ``array``. Its type fixes the regime.
    """

    config: WidebandConfig
    array: IrsArray
    link: float | NearFieldGeometry
    design: str = "phases_only"
    sweep: SweepSpec = SweepSpec()
    threshold: float = DEFAULT_THRESHOLD
    out_format: str = "csv"

    @property
    def regime(self) -> str:
        return "near" if isinstance(self.link, NearFieldGeometry) else "far"

    @property
    def n_elements(self) -> int:
        return self.array.n_elements

    @property
    def user_xy(self) -> tuple[float, float] | None:
        """The near-field user point; None for a far-field scenario."""
        return self.link.user_xy if self.regime == "near" else None

    def make_array(self) -> IrsArray:
        return self.array

    def make_geometry(self) -> NearFieldGeometry:
        if self.regime != "near":
            raise ScenarioError("geometry is only defined for near-field scenarios")
        return self.link

    def direction(self) -> float:
        """The far-field design direction nu0 (possibly derived from angles)."""
        if self.regime != "far":
            raise ScenarioError("direction is only defined for far-field scenarios")
        return self.link

    def to_dict(self) -> dict:
        """The scenario as a JSON-ready document that loads back to an equal Scenario."""
        out = {
            "regime": self.regime,
            "f_c": self.config.carrier_hz,
            "B": self.config.bandwidth_hz,
            "M": self.config.n_subcarriers,
            "R": self.array.n_elements,
            "d": self.array.spacing_m,
            "design": self.design,
            "sweep": {key: getattr(self.sweep, key) for key in _SWEEP_KEYS[self.regime]},
            "threshold": self.threshold,
            "format": self.out_format,
        }
        link = self.link
        if self.regime == "far":
            out["sweep"]["subcarriers"] = list(self.sweep.subcarriers)
            out["nu0"] = link
        else:
            out |= {"bs": list(link.bs_xy), "user": list(link.user_xy),
                    "irs_origin": list(link.irs_origin_xy)}
        return out


def _finite(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal too large for a float
        return None
    return number if math.isfinite(number) else None


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pair(value) -> tuple[float, float] | None:
    point = tuple(map(_finite, value)) if isinstance(value, (list, tuple)) else ()
    return point if len(point) == 2 and None not in point else None


def _parser(rule: str, parse, first=lambda key, value: value):
    """A field parser ``(key, value)``: ``parse`` of the value that ``first`` parses,
    or a ScenarioError naming the field and ``rule`` if that is None."""

    def parser(key: str, value):
        value = first(key, value)
        parsed = parse(value)
        if parsed is None:
            raise ScenarioError(f"field '{key}' must be {rule}, got {_shown(value)}")
        return parsed

    return parser


def _one_of(choices: tuple):
    return _parser(f"one of {choices}", lambda v: v if v in choices else None)


_number = _parser("a finite number", _finite)
_positive = _parser("positive", lambda v: v if v > 0 else None, first=_number)
_count = _parser(f"an integer in 1..{MAX_COUNT}",
                 lambda v: v if _integer(v) and 1 <= v <= MAX_COUNT else None)
_point = _parser("a finite [x, y] pair", _pair)

# every top-level field and its parser; the first pass of the loader parses them
_FIELDS = {
    "description": _parser("a string", lambda v: v if isinstance(v, str) else None),
    "f_c": _positive, "B": _positive, "M": _count, "R": _count, "d": _positive,
    "regime": _one_of(("far", "near")),
    "nu0": _number, "chi": _number, "psi": _number,
    "bs": _point, "user": _point, "irs_origin": _point,
    "design": _one_of(_DESIGNS), "format": _one_of(_FORMATS), "threshold": _number,
    "sweep": _parser("an object", lambda v: v if isinstance(v, dict) else None),
}
# each regime's sweep fields, in SweepSpec order, and their parsers; the second pass
_SWEEP_FIELDS = {
    "far": {"nu_start": _number, "nu_stop": _number, "nu_step": _positive,
            "subcarriers": _parser("a non-empty list of integers", lambda v: tuple(v) if (
                isinstance(v, list) and v and all(map(_integer, v))) else None)},
    "near": {"half_span_m": _positive, "step_m": _positive,
             "subcarrier": _parser("an integer", lambda v: v if _integer(v) else None)},
}
_TOP_KEYS = set(_FIELDS)
_SWEEP_KEYS = {regime: tuple(fields) for regime, fields in _SWEEP_FIELDS.items()}


def _named(raw: dict, keys) -> str:
    """The ``keys`` present in ``raw``, quoted and comma-separated."""
    return ", ".join(f"'{k}'" for k in keys if k in raw)


def _far_target(doc: dict) -> float:
    """The direction nu of the parsed 'nu0' field, the 'chi'/'psi' angles, or both."""
    if ("chi" in doc) != ("psi" in doc):
        raise ScenarioError("fields 'chi' and 'psi' must be given together")
    nu = float(np.sin(doc["chi"]) - np.sin(doc["psi"])) if "chi" in doc else None
    direction = doc.get("nu0", nu)
    where = f"far-field target from {_named(doc, _FAR_KEYS)}"
    if not abs(direction) <= 2.0:
        raise ScenarioError(f"{where}: direction must lie in [-2, 2], got {direction}")
    if nu is not None and abs(nu - direction) > 1e-12:
        raise ScenarioError(f"{where}: direction {direction} inconsistent with angles "
                            f"(sin(chi) - sin(psi) = {nu})")
    return direction


def _near_geometry(doc: dict, array: IrsArray) -> NearFieldGeometry:
    """The geometry of the parsed 'bs', 'user' and 'irs_origin' fields, built on ``array``."""
    for key in _NEAR_KEYS:
        if key not in doc:
            raise ScenarioError(f"near-field scenario requires field '{key}'")
    try:  # bs_xy, user_xy and irs_origin_xy, in the order of _NEAR_KEYS
        return NearFieldGeometry(*(doc[key] for key in _NEAR_KEYS), array=array)
    except ValueError as exc:  # the message opens with the point's label, "BS" or "user"
        key = "bs" if str(exc).startswith("BS ") else "user"
        raise ScenarioError(f"field '{key}': {exc} (IRS elements from fields 'irs_origin', "
                            "'R' and 'd')") from exc


def _check_sweep_grid(s: SweepSpec, far: bool, n_elements: int, n_subcarriers: int) -> None:
    """Reject the regime's sweep grid, before anything is allocated, unless its
    step divides the span and it has at most MAX_GRID_POINTS cells, and reject
    the grid or the M-point subcarrier sweep if it makes more than
    MAX_ELEMENT_EVALS element evaluations. Errors name the fields at fault:
    the step first, then the span."""
    try:
        if far:  # subcarrier rows x directions
            step, span = "nu_step", "fields 'nu_start' and 'nu_stop'"
            cells = len(s.subcarriers) * grid_size(s.nu_start, s.nu_stop, s.nu_step)
        else:  # x x y
            step, span = "step_m", "field 'half_span_m'"
            cells = grid_size(-s.half_span_m, s.half_span_m, s.step_m) ** 2
    except ValueError as exc:
        raise ScenarioError(f"field '{step}': {exc} of {span}") from None
    if cells > MAX_GRID_POINTS:
        raise ScenarioError(f"field '{step}' gives a sweep grid of {cells} cells with {span}, "
                            f"over {MAX_GRID_POINTS}")
    for key, points, tail in ((step, cells, f" with {span}"), ("M", n_subcarriers, "")):
        if points * n_elements > MAX_ELEMENT_EVALS:
            raise ScenarioError(f"fields 'R' and '{key}' give {points * n_elements} element "
                                f"evaluations in one sweep{tail}, over {MAX_ELEMENT_EVALS}")


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a parsed scenario document and resolve defaults.

    Every top-level field present is parsed by its entry of ``_FIELDS`` first,
    the sweep's fields by ``_SWEEP_FIELDS`` once the regime is known; the
    semantic checks then read the parsed values. Raises :class:`ScenarioError`
    naming the offending field or invariant.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown field(s): {_named(raw, sorted(unknown))}")
    for key in ("f_c", "B", "R"):
        if key not in raw:
            raise ScenarioError(f"required field '{key}' is missing")
    doc = {key: parse(key, raw[key]) for key, parse in _FIELDS.items() if key in raw}

    f_c, m = doc["f_c"], doc.get("M", DEFAULT_N_SUBCARRIERS)
    try:
        config = WidebandConfig(carrier_hz=f_c, bandwidth_hz=doc["B"], n_subcarriers=m)
    except ValueError as exc:
        raise ScenarioError(f"fields 'f_c', 'B', 'M': {exc}") from exc

    # c / f_c finite also bounds the largest DAM delay, a spread of at most R - 1
    # turns over f_c (far) or a difference of finite distances over c (near)
    if not math.isfinite(config.wavelength_m):
        raise ScenarioError(f"field 'f_c': the carrier wavelength c / f_c is "
                            f"{config.wavelength_m} m")
    top = _subcarrier_frequency(config, m)  # f_M
    if not math.isfinite(2.0 * math.pi * top):
        raise ScenarioError(f"fields 'f_c' and 'B': 2 pi times the highest subcarrier "
                            f"frequency, {top} Hz, overflows")

    array = (IrsArray(doc["R"], doc["d"]) if "d" in doc
             else IrsArray.half_wavelength(config, doc["R"]))

    far_keys, near_keys = _named(doc, _FAR_KEYS), _named(doc, _NEAR_KEYS)
    if far_keys and near_keys:
        raise ScenarioError(f"exactly one regime's geometry may be present, "
                            f"got both: {far_keys} and {near_keys}")
    if not far_keys and not near_keys:
        raise ScenarioError("no geometry given: set 'nu0' (or 'chi'/'psi') for far field, "
                            "or 'bs'/'user'/'irs_origin' for near field")
    regime = "far" if far_keys else "near"
    if doc.get("regime", regime) != regime:
        raise ScenarioError(f"field 'regime' says {doc['regime']!r} but the geometry fields "
                            f"imply {regime!r}")
    link = _far_target(doc) if regime == "far" else _near_geometry(doc, array)
    aperture = (array.n_elements - 1) * array.spacing_m
    try:
        if aperture > 0:  # one element has no aperture and no boundary
            fraunhofer_distance(aperture, config)
    except ValueError as exc:
        raise ScenarioError(f"field 'd': the aperture (R - 1) d = {aperture} m with field "
                            "'f_c' has no finite, positive Fraunhofer distance 2 D^2 / lambda_c"
                            ) from exc

    threshold = doc.get("threshold", DEFAULT_THRESHOLD)
    try:
        check_threshold(threshold)
    except ValueError as exc:
        raise ScenarioError(f"field 'threshold': {exc}") from None

    fields, given = _SWEEP_FIELDS[regime], doc.get("sweep", {})
    stray = sorted(set(given) - set(fields))  # unknown, or the other regime's
    if stray:
        raise ScenarioError(f"field 'sweep' of a {regime}-field scenario does not take "
                            f"{_named(given, stray)}")
    sweep = SweepSpec(**{key: parse(key, given[key]) for key, parse in fields.items()
                         if key in given})

    def resolve(key: str, s: int) -> int:
        # resolve the -1 shorthand for "highest subcarrier" now that M is known
        try:
            return resolve_subcarrier(config, s)
        except ValueError:
            raise ScenarioError(f"sweep field '{key}': index {_shown(s)} outside 0..{m}") from None

    rows = tuple(resolve("subcarriers", s) for s in sweep.subcarriers)
    sweep = replace(sweep, subcarriers=rows, subcarrier=resolve("subcarrier", sweep.subcarrier))
    _check_sweep_grid(sweep, regime == "far", array.n_elements, m)

    return Scenario(config, array, link, doc.get("design", "phases_only"), sweep, threshold,
                    doc.get("format", "csv"))


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
