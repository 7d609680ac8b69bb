"""Run-configuration loading and validation.

A run is described by a single JSON file: the uncertain plant (coefficient
expressions over declared parameters), the design frequencies, the two
tracking models, optional per-frequency sensitivity caps, the stability
margin, the phase-grid density, design options, an optional prefilter, and
an optional brute-force oracle box.  Validation failures name the offending
field by its JSON path so a config typo is a one-line fix; a key the schema
does not know is such a failure, not silently ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .bounds import TrackingSpec
from .errors import ConfigError, InvalidM, QftError
from .expr import parse_coefficient_expr
from .lti import RationalTransferFunction
from .plant import ParameterSpec, UncertainPlant
from .verify import GainAxis, OracleBox

__all__ = [
    "DesignOptions",
    "DesignConfig",
    "load_config",
    "parse_config_dict",
]

_KINDS = ("pid", "pi", "pd")
_ROOT_FIELDS = (
    "plant", "frequencies", "tracking", "disturbance", "stability",
    "phase_grid_count", "design", "prefilter", "oracle",
)


@dataclass(frozen=True)
class DesignOptions:
    """Controller-search options.

    ``pair`` selects the two anchor frequencies by 1-based position in the
    frequency list (matching the subscript convention used everywhere else
    in this package's reports); ``None`` means the default rule that
    :meth:`DesignConfig.pair_indices` applies.
    """

    kind: str = "pid"
    tau: Optional[float] = None
    pair: Optional[Tuple[int, int]] = None
    use_hull: bool = True


@dataclass(frozen=True)
class DesignConfig:
    """Everything one run needs, fully validated."""

    plant: UncertainPlant
    frequencies: Tuple[float, ...]
    tracking: TrackingSpec
    disturbance: Dict[float, float]  # sensitivity cap per capped frequency
    m_value: float
    delta_hf_override: Optional[float]
    phase_grid_count: int
    design: DesignOptions
    prefilter: Optional[RationalTransferFunction]
    oracle: Optional[OracleBox]

    def pair_indices(self) -> Tuple[int, int]:
        """The anchor pair as 0-based indices into ``frequencies``; without a
        configured pair, positions (2, N-2), or (2, N) where those coincide."""
        n = len(self.frequencies)
        if self.design.pair is None:
            if n < 2:
                raise ConfigError("config.frequencies: need at least two for a phase-pair design")
            k, l = 2, max(n - 2, 1)
            if k == l:
                l = n
        else:
            k, l = self.design.pair
        for label, idx in (("config.design.pair[0]", k), ("config.design.pair[1]", l)):
            if not 1 <= idx <= n:
                raise ConfigError(f"{label}: position {idx} outside 1..{n}")
        if k == l:
            raise ConfigError("config.design.pair: the two positions must differ")
        return (k - 1, l - 1)


def _expect(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return obj[key]


def _as_number(value: Any, path: str) -> float:
    """A finite JSON number; Python's JSON reader also accepts NaN and
    Infinity, which no field of a run configuration can take."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number}")
    return number


def _as_positive_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    if value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _as_list(value: Any, path: str) -> List[Any]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _as_object(value: Any, path: str, fields: Sequence[str]) -> Mapping[str, Any]:
    """A JSON object whose keys are all among ``fields``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    for key in value:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field, expected one of {', '.join(fields)}")
    return value


def _parse_tf(obj: Any, path: str) -> RationalTransferFunction:
    mapping = _as_object(obj, path, ("num", "den"))
    num = [_as_number(c, f"{path}.num[{i}]") for i, c in enumerate(_as_list(_expect(mapping, "num", path), f"{path}.num"))]
    den = [_as_number(c, f"{path}.den[{i}]") for i, c in enumerate(_as_list(_expect(mapping, "den", path), f"{path}.den"))]
    try:
        return RationalTransferFunction(num, den)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_plant(obj: Any, path: str) -> UncertainPlant:
    mapping = _as_object(obj, path, ("numerator", "denominator", "parameters", "nominal"))
    raw_params = _as_list(_expect(mapping, "parameters", path), f"{path}.parameters")
    params: List[ParameterSpec] = []
    for i, entry in enumerate(raw_params):
        p_path = f"{path}.parameters[{i}]"
        entry = _as_object(entry, p_path, ("name", "min", "max", "grid"))
        name = _expect(entry, "name", p_path)
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{p_path}.name: expected a non-empty string")
        try:  # a name no coefficient could reference would only multiply the family
            usable = parse_coefficient_expr(name, [name]).program == (name,)
        except QftError:
            usable = False
        if not usable:
            raise ConfigError(f"{p_path}.name: {name!r} is not an identifier")
        try:
            params.append(
                ParameterSpec(
                    name=name,
                    minimum=_as_number(_expect(entry, "min", p_path), f"{p_path}.min"),
                    maximum=_as_number(_expect(entry, "max", p_path), f"{p_path}.max"),
                    grid_points=_as_positive_int(entry.get("grid", 10), f"{p_path}.grid"),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{p_path}: {exc}") from exc
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}.parameters: duplicate parameter name")

    def coeffs(key: str) -> Tuple:
        texts = _as_list(_expect(mapping, key, path), f"{path}.{key}")
        out = []
        for i, text in enumerate(texts):
            c_path = f"{path}.{key}[{i}]"
            if isinstance(text, (int, float)) and not isinstance(text, bool):
                text = repr(_as_number(text, c_path))
            if not isinstance(text, str):
                raise ConfigError(f"{c_path}: expected an expression string or number")
            try:
                out.append(parse_coefficient_expr(text, names))
            except QftError as exc:
                raise ConfigError(f"{c_path}: {exc}") from exc
        return tuple(out)

    nominal_obj = _as_object(_expect(mapping, "nominal", path), f"{path}.nominal", names)
    nominal = {
        key: _as_number(value, f"{path}.nominal.{key}") for key, value in nominal_obj.items()
    }
    missing = set(names) - set(nominal)
    if missing:
        raise ConfigError(f"{path}.nominal: missing value for {sorted(missing)}")
    num, den = coeffs("numerator"), coeffs("denominator")
    try:
        return UncertainPlant(
            num=num,
            den=den,
            params=tuple(params),
            nominal=nominal,
        )
    except (ValueError, QftError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_axis(obj: Any, path: str) -> GainAxis:
    triple = _as_list(obj, path)
    if len(triple) != 3:
        raise ConfigError(f"{path}: expected [lo, hi, step]")
    lo, hi, step = (_as_number(v, path) for v in triple)
    try:
        return GainAxis(lo, hi, step)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config_dict(raw: Mapping[str, Any]) -> DesignConfig:
    """Validate a parsed JSON object into a DesignConfig."""
    root = _as_object(raw, "config", _ROOT_FIELDS)

    plant = _parse_plant(_expect(root, "plant", "config"), "config.plant")

    freq_list = _as_list(_expect(root, "frequencies", "config"), "config.frequencies")
    if len(freq_list) < 1:
        raise ConfigError("config.frequencies: must not be empty")
    frequencies: List[float] = []
    for i, value in enumerate(freq_list):
        omega = _as_number(value, f"config.frequencies[{i}]")
        if omega <= 0.0:
            raise ConfigError(f"config.frequencies[{i}]: must be positive, got {omega:g}")
        if frequencies and omega <= frequencies[-1]:
            raise ConfigError(
                f"config.frequencies[{i}]: must exceed frequencies[{i - 1}] "
                f"({omega:g} vs {frequencies[-1]:g})"
            )
        frequencies.append(omega)

    tracking_obj = _as_object(
        _expect(root, "tracking", "config"), "config.tracking", ("lower", "upper")
    )
    lower = _parse_tf(_expect(tracking_obj, "lower", "config.tracking"), "config.tracking.lower")
    upper = _parse_tf(_expect(tracking_obj, "upper", "config.tracking"), "config.tracking.upper")
    try:
        tracking = TrackingSpec(lower=lower, upper=upper)
    except ValueError as exc:
        raise ConfigError(f"config.tracking: {exc}") from exc

    caps: Dict[float, float] = {}
    if root.get("disturbance") is not None:
        entries = _as_list(root["disturbance"], "config.disturbance")
        for i, entry in enumerate(entries):
            d_path = f"config.disturbance[{i}]"
            entry = _as_object(entry, d_path, ("omega", "cap"))
            omega = _as_number(_expect(entry, "omega", d_path), f"{d_path}.omega")
            cap = _as_number(_expect(entry, "cap", d_path), f"{d_path}.cap")
            if omega not in frequencies:
                raise ConfigError(f"{d_path}.omega: {omega:g} is not a design frequency")
            if omega in caps:
                raise ConfigError(f"{d_path}.omega: duplicate disturbance frequency {omega:g}")
            if not cap > 0.0:
                raise ConfigError(f"{d_path}.cap: must be positive, got {cap:g}")
            caps[omega] = cap

    stability = _as_object(
        _expect(root, "stability", "config"), "config.stability", ("m", "delta_hf_db")
    )
    m_value = _as_number(_expect(stability, "m", "config.stability"), "config.stability.m")
    if not m_value > 1.0:
        raise InvalidM(f"config.stability.m: must exceed 1, got {m_value:g}")
    delta_hf_override = None
    if stability.get("delta_hf_db") is not None:
        delta_hf_override = _as_number(stability["delta_hf_db"], "config.stability.delta_hf_db")
        if delta_hf_override < 0.0:
            raise ConfigError("config.stability.delta_hf_db: must be non-negative")

    phase_grid_count = _as_positive_int(
        _expect(root, "phase_grid_count", "config"), "config.phase_grid_count"
    )
    if phase_grid_count < 10:
        raise ConfigError(
            f"config.phase_grid_count: must be at least 10, got {phase_grid_count}"
        )

    design = DesignOptions()
    if root.get("design") is not None:
        d = _as_object(root["design"], "config.design", ("kind", "tau", "pair", "use_hull"))
        pair = None
        if d.get("pair") is not None:
            pair_list = _as_list(d["pair"], "config.design.pair")
            if len(pair_list) != 2:
                raise ConfigError("config.design.pair: expected two 1-based positions")
            pair = (
                _as_positive_int(pair_list[0], "config.design.pair[0]"),
                _as_positive_int(pair_list[1], "config.design.pair[1]"),
            )
        kind = d.get("kind", "pid")
        if not isinstance(kind, str):
            raise ConfigError("config.design.kind: expected a string")
        kind = kind.lower()
        if kind not in _KINDS:
            raise ConfigError(f"config.design.kind: must be one of {_KINDS}, got {kind!r}")
        tau = None
        if d.get("tau") is not None:
            tau = _as_number(d["tau"], "config.design.tau")
            if not tau > 0.0:
                raise ConfigError(f"config.design.tau: must be positive, got {tau}")
        use_hull = d.get("use_hull", True)
        if not isinstance(use_hull, bool):
            raise ConfigError("config.design.use_hull: expected true/false")
        design = DesignOptions(kind=kind, tau=tau, pair=pair, use_hull=use_hull)

    prefilter = None
    if root.get("prefilter") is not None:
        prefilter = _parse_tf(root["prefilter"], "config.prefilter")

    oracle = None
    if root.get("oracle") is not None:
        o = _as_object(root["oracle"], "config.oracle", ("kp", "ki", "kd"))
        oracle = OracleBox(
            kp=_parse_axis(_expect(o, "kp", "config.oracle"), "config.oracle.kp"),
            ki=_parse_axis(_expect(o, "ki", "config.oracle"), "config.oracle.ki"),
            kd=_parse_axis(_expect(o, "kd", "config.oracle"), "config.oracle.kd"),
        )

    config = DesignConfig(
        plant=plant,
        frequencies=tuple(frequencies),
        tracking=tracking,
        disturbance=caps,
        m_value=m_value,
        delta_hf_override=delta_hf_override,
        phase_grid_count=phase_grid_count,
        design=design,
        prefilter=prefilter,
        oracle=oracle,
    )
    config.pair_indices()  # resolve the pair eagerly so a bad pair fails at load time
    return config


def load_config(path: str) -> DesignConfig:
    """Read and validate a JSON run configuration.  A key repeated within
    one object is an error, not a silent override by the last value."""

    def unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
        obj: Dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config {path} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config_dict(raw)
