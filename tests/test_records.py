"""The record types are named tuples: frozen, compared and hashed by their
fields, shown in keyword form, and checked on construction where they hold
inputs (``ModelParams``, ``SimConfig``)."""

import json

import numpy as np
import pytest

import treemajority.cli as cli
from treemajority.dynamics import (
    FixedPoint,
    FixedPointSet,
    ThresholdResult,
    Trajectory,
    find_fixed_points,
    iterate_dynamics,
    solve_threshold,
)
from treemajority.mc import SimConfig, SimResult
from treemajority.model import ModelParams
from treemajority.update_map import UpdateMap

PARAMS = ModelParams(3, 0.8, 0.6)
CONFIG = dict(params=PARAMS, depth=4, horizon=2, pi_0=0.5, seed=7, replications=3)


def _records() -> list:
    """Two independently built, equal instances of each of the eight record types."""

    def build():
        config = SimConfig(**CONFIG)
        return [
            ModelParams(3, 0.8, 0.6),
            UpdateMap.from_params(ModelParams(3, 0.8, 0.6)),
            find_fixed_points(PARAMS).points[0],
            find_fixed_points(PARAMS),
            iterate_dynamics(PARAMS, 0.3),
            solve_threshold(5),
            config,
            SimResult(config, (0.5, 0.25), (0.1, 0.1), 0.0, 3, (0.5, 0.5, 0.5)),
        ]

    return list(zip(build(), build()))


RECORDS = _records()
IDS = [type(a).__name__ for a, _ in RECORDS]


@pytest.mark.parametrize("a,b", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned(self, a, b):
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
        assert a == b

    def test_equal_fields_equal_and_hashable(self, a, b):
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_keyword_form(self, a, b):
        name = type(a).__name__
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields)
        assert repr(a) == repr(b) == f"{name}({fields})"


class TestUpdateMapRows:
    """``rows`` is not a field: equality, hash and repr read ``params`` and ``coeffs`` alone."""

    def test_rows_ignored(self):
        a = UpdateMap.from_params(PARAMS)
        b = UpdateMap.from_params(PARAMS)
        b.rows = ([], [])
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a._fields == ("params", "coeffs") and "rows" not in repr(a)

    def test_other_params_differ(self):
        assert UpdateMap.from_params(PARAMS) != UpdateMap.from_params(ModelParams(3, 0.8, 0.5))


# (positional arguments, message) of every refused ModelParams
MODEL_REFUSED = [
    ((2.5, 0.5, 0.5), r"^m must be an integer, got 2\.5$"),
    ((1, 0.5, 0.5), r"^m must be at least 2, got 1$"),
    ((65, 0.5, 0.5), r"^m must be at most 64, got 65$"),
    ((3, 1.5, 0.5), r"^p_b must lie in \[0, 1\], got 1\.5$"),
    ((3, 0.5, -0.1), r"^p_r must lie in \[0, 1\], got -0\.1$"),
    ((3, float("nan"), 0.5), r"^p_b must lie in \[0, 1\], got nan$"),
    ((1, 2.0, 0.5), r"^m must be at least 2, got 1$"),
]

# (changes to CONFIG, message) of every refused SimConfig
CONFIG_REFUSED = [
    (dict(depth=0, horizon=0), r"^depth must be at least 1, got 0$"),
    (dict(depth=4, horizon=5), r"^horizon must be at most 4, got 5$"),
    (dict(pi_0=1.5), r"^pi_0 must lie in \[0, 1\], got 1\.5$"),
    (dict(replications=0), r"^replications must be at least 1, got 0$"),
    (dict(replications=2.5), r"^replications must be an integer, got 2\.5$"),
    (dict(seed=-1), r"^seed must fit in 64 unsigned bits$"),
    (dict(seed=2**64), r"^seed must fit in 64 unsigned bits$"),
    (dict(params=ModelParams(64, 0.5, 0.5), depth=5, horizon=1), r"^m\*\*depth = 64\*\*5 exceeds the 1e\+08 leaf guard$"),
    (dict(horizon=5, pi_0=2.0, seed=-1, replications=0), r"^horizon must be at most 4, got 5$"),
    # CONFIG's trees have 121 vertices, and R * 121 positions must fit a stream's 2**64
    (
        dict(replications=-(-(2**64) // 121)),
        rf"^replications \* vertices = {-(-(2**64) // 121)} \* 121 reaches a stream's 2\*\*64 positions$",
    ),
]


class TestValidatedRecords:
    def test_model_params_coerced(self):
        for p in (ModelParams(np.int64(3), np.float32(0.25), 1), ModelParams(p_r=1, p_b=0.25, m=3.0)):
            assert p == (3, 0.25, 1.0)
            assert [type(v) for v in p] == [int, float, float]

    @pytest.mark.parametrize("args,message", MODEL_REFUSED)
    def test_model_params_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            ModelParams(*args)
        with pytest.raises(ValueError, match=message):
            ModelParams(**dict(zip(ModelParams._fields, args)))
        with pytest.raises(ValueError, match=message):
            PARAMS._replace(**dict(zip(ModelParams._fields, args)))

    def test_sim_config_coerced(self):
        changes = dict(depth=np.int64(4), horizon=2.0, pi_0=1, seed=np.uint64(7), replications=3.0)
        for config in (SimConfig(**{**CONFIG, **changes}), SimConfig(*{**CONFIG, **changes}.values())):
            assert config == SimConfig(**{**CONFIG, "pi_0": 1.0})
            assert [type(v) for v in config[1:]] == [int, int, float, int, int]

    @pytest.mark.parametrize("changes,message", CONFIG_REFUSED)
    def test_sim_config_refused(self, changes, message):
        fields = {**CONFIG, **changes}
        with pytest.raises(ValueError, match=message):
            SimConfig(**fields)
        with pytest.raises(ValueError, match=message):
            SimConfig(*fields.values())
        with pytest.raises(ValueError, match=message):
            SimConfig(**CONFIG)._replace(**changes)


def test_threshold_at_boundary_defaults_false():
    assert ThresholdResult(3, 0.5, 0.0, 10).at_boundary is False
    assert solve_threshold(2).at_boundary is True


def test_trajectory_limit_has_no_default():
    with pytest.raises(TypeError):
        Trajectory((0.5,), True)


def _report(capsys, *argv) -> dict:
    assert cli.main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    del report["spec"]
    return report


def test_asdict_order_is_report_order(capsys):
    points = _report(capsys, "fixed-points", "--m", "3", "--p", "0.9")["points"]
    assert [list(p) for p in points] == [list(FixedPoint._fields)] * 3
    assert list(find_fixed_points(ModelParams.symmetric(3, 0.9)).points[0]._asdict()) == list(points[0])
    threshold = _report(capsys, "threshold", "--m", "3")
    assert list(threshold) == list(ThresholdResult._fields) == list(solve_threshold(3)._asdict())


def test_fixed_point_set_values():
    fps = find_fixed_points(ModelParams.symmetric(3, 0.9))
    assert fps.values == tuple(fp.value for fp in fps.points)
    assert FixedPointSet(*fps) == fps
