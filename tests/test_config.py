"""Config loading, validation paths and defaults."""

from __future__ import annotations

import copy
import math
import json
import re

import pytest

from qft_forge.config import DesignOptions, load_config, parse_config_dict
from qft_forge.errors import ConfigError, InvalidM
from qft_forge.plant import evaluate_plant_array

from conftest import SERVO_CONFIG_PATH


@pytest.fixture
def servo_dict():
    return json.loads(SERVO_CONFIG_PATH.read_text())


class TestServoConfig:
    def test_scalar_fields(self, servo_config):
        assert servo_config.m_value == 1.2
        assert servo_config.phase_grid_count == 360
        assert servo_config.delta_hf_override is None
        assert servo_config.disturbance is None
        assert servo_config.oracle is None

    def test_frequencies(self, servo_config):
        assert servo_config.frequencies == (0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0)

    def test_design_options(self, servo_config):
        assert servo_config.design.kind == "pid"
        assert servo_config.design.pair == (2, 6)
        assert servo_config.design.tau is None
        assert servo_config.design.use_hull is True
        assert servo_config.pair_indices() == (1, 5)

    def test_prefilter(self, servo_config):
        assert servo_config.prefilter is not None
        assert servo_config.prefilter.num == (26.25,)
        assert servo_config.prefilter.den == (1.0, 11.0, 26.25)

    def test_plant(self, servo_config):
        plant = servo_config.plant
        assert tuple(p.name for p in plant.params) == ("a", "k")
        assert all(p.grid_points == 10 for p in plant.params)
        assert plant.nominal == {"a": 1.0, "k": 1.0}
        assert evaluate_plant_array(plant, {"a": 2.0, "k": 5.0}, [1j])[0] == pytest.approx(
            10.0 / (-1.0 + 2.0j), abs=1e-12
        )

    def test_tracking_models(self, servo_config):
        assert servo_config.tracking.lower.num == (0.6585, 19.755)
        assert servo_config.tracking.lower.den == (1.0, 4.0, 19.753961)
        assert servo_config.tracking.upper.num == (8400.0,)
        assert servo_config.tracking.upper.den == (1.0, 87.0, 1272.0, 5860.0, 8400.0)


class TestRoundTrip:
    def test_all_optional_fields(self, servo_dict):
        full = copy.deepcopy(servo_dict)
        full["plant"] = {
            "numerator": ["k"],
            "denominator": ["1", "a", "0"],
            "parameters": [
                {"name": "a", "min": 1, "max": 2, "grid": 3},
                {"name": "k", "min": 1, "max": 2, "grid": 3},
            ],
            "nominal": {"a": 1, "k": 1},
        }
        full["frequencies"] = [1.0, 3.0, 10.0]
        full["stability"] = {"m": 1.3, "delta_hf_db": 12.5}
        full["phase_grid_count"] = 24
        full["design"] = {
            "kind": "pd",
            "tau": 0.01,
            "pair": [1, 3],
            "use_hull": False,
        }
        full["disturbance"] = [{"omega": 3.0, "cap": 0.5}]
        full["prefilter"] = {"num": [1.0], "den": [1.0, 1.0]}
        full["oracle"] = {"kp": [0, 10, 0.5], "ki": [0, 0, 1], "kd": [0, 5, 0.5]}

        config = parse_config_dict(full)
        assert config.design.kind == "pd"
        assert config.design.tau == 0.01
        assert config.design.use_hull is False
        assert config.delta_hf_override == 12.5
        assert config.disturbance.caps == {3.0: 0.5}
        assert config.oracle.kp.step == 0.5
        assert config.pair_indices() == (0, 2)
        assert config.prefilter.den == (1.0, 1.0)

    def test_numeric_coefficients_accepted(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        d["plant"]["numerator"] = [2]
        config = parse_config_dict(d)
        assert config.plant.num[0].evaluate({"a": 1.0, "k": 1.0}) == 2.0


class TestPairDefaults:
    @pytest.mark.parametrize(
        "count, expected",
        [(8, (1, 5)), (4, (1, 3)), (3, (1, 0)), (2, (1, 0))],
    )
    def test_default_rule(self, count, expected):
        assert DesignOptions().pair_indices(count) == expected

    def test_single_frequency_rejected(self):
        with pytest.raises(ConfigError, match="at least two"):
            DesignOptions().pair_indices(1)

    def test_explicit_pair_out_of_range(self):
        with pytest.raises(ConfigError, match="outside 1..4"):
            DesignOptions(pair=(1, 5)).pair_indices(4)

    def test_explicit_pair_equal(self):
        with pytest.raises(ConfigError, match="must differ"):
            DesignOptions(pair=(3, 3)).pair_indices(8)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="design.kind"):
            DesignOptions(kind="lead")

    def test_bad_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            DesignOptions(tau=0.0)


class TestValidationErrors:
    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config_dict([])

    def test_missing_plant(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        del d["plant"]
        with pytest.raises(ConfigError, match="config.plant: required field"):
            parse_config_dict(d)

    def test_missing_tracking_upper(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        del d["tracking"]["upper"]
        with pytest.raises(ConfigError, match="config.tracking.upper"):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "freqs, message",
        [
            ([], "must not be empty"),
            ([0.0, 1.0], "must be positive"),
            ([1.0, 1.0], "must exceed"),
            ([2.0, 1.0], "must exceed"),
        ],
    )
    def test_bad_frequencies(self, servo_dict, freqs, message):
        d = copy.deepcopy(servo_dict)
        d["frequencies"] = freqs
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(d)

    @pytest.mark.parametrize("m", [0.9, 1.0, -2.0])
    def test_bad_m(self, servo_dict, m):
        d = copy.deepcopy(servo_dict)
        d["stability"]["m"] = m
        with pytest.raises(InvalidM, match="must exceed 1"):
            parse_config_dict(d)

    def test_negative_delta_override(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        d["stability"]["delta_hf_db"] = -1.0
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config_dict(d)

    @pytest.mark.parametrize("count", [5, 9, 0, -10])
    def test_sparse_phase_grid(self, servo_dict, count):
        d = copy.deepcopy(servo_dict)
        d["phase_grid_count"] = count
        with pytest.raises(ConfigError, match="phase_grid_count"):
            parse_config_dict(d)

    @pytest.mark.parametrize("count", [12.5, "360", True])
    def test_non_integer_phase_grid(self, servo_dict, count):
        d = copy.deepcopy(servo_dict)
        d["phase_grid_count"] = count
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "design, message",
        [
            ({"kind": "lowpass"}, "design.kind"),
            ({"tau": 0}, "must be positive"),
            ({"pair": [1]}, "two 1-based positions"),
            ({"pair": [0, 2]}, "must be positive"),
            ({"pair": [2, 2]}, "must differ"),
            ({"pair": [1, 99]}, "outside 1..8"),
            ({"use_hull": "yes"}, "true/false"),
            ({"kind": 7}, "expected a string"),
        ],
    )
    def test_bad_design_options(self, servo_dict, design, message):
        d = copy.deepcopy(servo_dict)
        d["design"] = design
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"omega": 7.0, "cap": 0.5}], "not a design frequency"),
            ([{"omega": 3.0, "cap": 0.0}], "cap: must be positive"),
            ([{"omega": 3.0}], "cap: required field"),
            ({"omega": 3.0, "cap": 0.5}, "expected a list"),
        ],
    )
    def test_bad_disturbance(self, servo_dict, entries, message):
        d = copy.deepcopy(servo_dict)
        d["disturbance"] = entries
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(d)

    def test_biproper_tracking_model(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        d["tracking"]["lower"] = {"num": [1.0, 2.0], "den": [1.0, 3.0]}
        with pytest.raises(ConfigError, match="config.tracking"):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "numerator, message",
        [
            (["a +* k"], r"config\.plant\.numerator\[0\]"),
            (["b*k"], r"config\.plant\.numerator\[0\]"),
            ([True], "expression string or number"),
        ],
    )
    def test_bad_plant_expression(self, servo_dict, numerator, message):
        d = copy.deepcopy(servo_dict)
        d["plant"]["numerator"] = numerator
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(d)

    def test_missing_nominal_value(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        del d["plant"]["nominal"]["k"]
        with pytest.raises(ConfigError, match=r"missing value for \['k'\]"):
            parse_config_dict(d)

    def test_duplicate_parameter(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        d["plant"]["parameters"].append(
            {"name": "a", "min": 1.0, "max": 2.0, "grid": 10}
        )
        with pytest.raises(ConfigError, match="duplicate parameter name"):
            parse_config_dict(d)

    def test_inverted_parameter_interval(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        d["plant"]["parameters"][0] = {"name": "a", "min": 5.0, "max": 1.0, "grid": 10}
        with pytest.raises(ConfigError, match=r"config\.plant\.parameters\[0\]"):
            parse_config_dict(d)

    def test_bad_prefilter(self, servo_dict):
        d = copy.deepcopy(servo_dict)
        d["prefilter"] = {"num": [1.0], "den": [0.0, 1.0]}
        with pytest.raises(ConfigError, match="config.prefilter"):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("frequencies", 0), math.nan),
            (("frequencies", 7), math.inf),
            (("plant", "parameters", 0, "max"), math.inf),
            (("plant", "parameters", 1, "min"), -math.inf),
            (("plant", "nominal", "a"), math.nan),
            (("stability", "m"), math.inf),
            (("stability", "delta_hf_db"), math.nan),
            (("design", "tau"), math.inf),
            (("tracking", "lower", "num", 0), math.nan),
            (("tracking", "upper", "den", 1), math.inf),
            (("prefilter", "den", 2), -math.inf),
        ],
    )
    def test_non_finite_number(self, servo_dict, path, value):
        d = copy.deepcopy(servo_dict)
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        where = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        with pytest.raises(ConfigError, match=re.escape(f"{where}: must be finite")):
            parse_config_dict(d)

    UNKNOWN_FIELDS = [
        (("disturbence",), [{"omega": 1.0, "cap": 1e-6}]),
        (("plant", "numerators"), ["k"]),
        (("plant", "parameters", 0, "step"), 1.0),
        (("plant", "nominal", "b"), 1.0),
        (("tracking", "middle"), {"num": [1.0], "den": [1.0, 1.0]}),
        (("tracking", "lower", "gain"), 1.0),
        (("tracking", "upper", "dem"), [1.0, 1.0]),
        (("disturbance", 0, "phase"), -180.0),
        (("stability", "delta_hf"), 1.0),
        (("design", "exact_bound_recompute"), False),
        (("prefilter", "delay"), 0.0),
        (("oracle", "kx"), [0, 1, 1]),
    ]

    @pytest.mark.parametrize(
        "path, value", UNKNOWN_FIELDS, ids=[".".join(map(str, p)) for p, _ in UNKNOWN_FIELDS]
    )
    def test_unknown_field(self, servo_dict, path, value):
        d = copy.deepcopy(servo_dict)
        d["disturbance"] = [{"omega": 3.0, "cap": 0.5}]
        d["oracle"] = {"kp": [0, 1, 1], "ki": [0, 1, 1], "kd": [0, 1, 1]}
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        where = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        with pytest.raises(ConfigError, match=re.escape(f"{where}: unknown field")):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "entry, field",
        [({"omega": math.inf, "cap": 0.5}, "omega"), ({"omega": 3.0, "cap": math.nan}, "cap")],
    )
    def test_non_finite_disturbance(self, servo_dict, entry, field):
        d = copy.deepcopy(servo_dict)
        d["disturbance"] = [entry]
        message = rf"config\.disturbance\[0\]\.{field}: must be finite"
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(d)

    @pytest.mark.parametrize(
        "axis, message",
        [
            ([0, 10], r"expected \[lo, hi, step\]"),
            ([5, 1, 1], "config.oracle.kp"),
            ([-1, 1, 1], "config.oracle.kp"),
            ([math.nan, 1, 0.5], "config.oracle.kp"),
            ([0, math.inf, 0.5], "config.oracle.kp"),
            ([0, 1, math.inf], "config.oracle.kp"),
        ],
    )
    def test_bad_oracle_axis(self, servo_dict, axis, message):
        d = copy.deepcopy(servo_dict)
        d["oracle"] = {"kp": axis, "ki": [0, 1, 1], "kd": [0, 1, 1]}
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(d)


class TestLoadConfig:
    def test_servo_file_loads(self):
        config = load_config(str(SERVO_CONFIG_PATH))
        assert config.m_value == 1.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))
