import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import treemajority.cli as cli
from treemajority.dynamics import SolverError, m3_pb1_closed_form


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolicyCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "policy", "--m", "3", "--p-b", "1", "--p-r", "0.4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,f"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values, [0.108, 0.6, 1.0, 1.0], atol=1e-15)

    def test_json_keyed_by_k(self, capsys):
        code, out, _ = run_cli(capsys, "policy", "--m", "4", "--p", "0", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report["policy"]) == {"0", "1", "2", "3", "4"}
        assert all(v == 0.5 for v in report["policy"].values())

    def test_m_cap_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "policy", "--m", "70", "--p", "0.5")
        assert code == 2 and "64" in err

    def test_p_flags_mutually_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "policy", "--m", "3", "--p", "0.5", "--p-b", "0.2")
        assert code == 2

    def test_missing_probability_flags(self, capsys):
        code, _, err = run_cli(capsys, "policy", "--m", "3")
        assert code == 2


class TestGmapCommand:
    def test_identity_curve_m2_p1(self, capsys):
        code, out, _ = run_cli(capsys, "gmap", "--m", "2", "--p", "1", "--grid", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,g,gprime,gdoubleprime"
        for line in lines[1:]:
            x, g, *_ = (float(v) for v in line.split(","))
            assert g == pytest.approx(x, abs=1e-15)

    def test_constant_half_at_p0(self, capsys):
        code, out, _ = run_cli(capsys, "gmap", "--m", "3", "--p", "0", "--grid", "10")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[1]) == pytest.approx(0.5, abs=1e-15)

    def test_matches_closed_cubic(self, capsys):
        code, out, _ = run_cli(
            capsys, "gmap", "--m", "3", "--p-b", "1", "--p-r", "0.5", "--grid", "100"
        )
        assert code == 0
        q = 0.5
        for line in out.strip().splitlines()[1:]:
            x, g, *_ = (float(v) for v in line.split(","))
            expected = 0.5 * q**3 * (1 - x) ** 3 + 3 * q * x * (1 - x) ** 2 + 3 * x**2 * (1 - x) + x**3
            assert g == pytest.approx(expected, abs=1e-13)

    def test_bad_grid_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "gmap", "--m", "3", "--p", "0.5", "--grid", "0")
        assert code == 2

    def test_csv_17_digit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "gmap", "--m", "5", "--p", "0.37", "--grid", "7")
        assert code == 0
        from treemajority.model import ModelParams
        from treemajority.update_map import UpdateMap, g_eval

        gm = UpdateMap.from_params(ModelParams.symmetric(5, 0.37))
        xs = np.linspace(0.0, 1.0, 8)
        expected = [g_eval(gm, x) for x in xs]
        parsed_x, parsed_g = [], []
        for line in out.strip().splitlines()[1:]:
            x, g, *_ = (float(v) for v in line.split(","))
            parsed_x.append(x)
            parsed_g.append(g)
        # 17 significant digits reparse to the exact doubles that were written
        assert parsed_x == list(xs)
        assert parsed_g == list(expected)


class TestFixedPointsCommand:
    def test_tangent_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-points", "--m", "3", "--p-b", "1", "--p-r", repr(math.sqrt(3) - 1)
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 2
        assert report["points"][0]["tangent"] is True
        assert report["points"][0]["value"] == pytest.approx(
            2 / 3 - 1 / math.sqrt(3), abs=1e-6
        )

    def test_just_above_tangency_report(self, capsys):
        # 0.732050808 is 4.3e-10 above sqrt3 - 1: the double root has split in two
        code, out, _ = run_cli(
            capsys, "fixed-points", "--m", "3", "--p-b", "1", "--p-r", "0.732050808"
        )
        assert code == 0
        report = json.loads(out)
        closed = m3_pb1_closed_form(0.732050808)
        assert report["count"] == len(closed.points) == 3
        for got, want in zip(report["points"], closed.points):
            assert got["value"] == pytest.approx(want.value, abs=1e-6)
            assert got["tangent"] is want.tangent is False

    def test_identity_map_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "fixed-points", "--m", "2", "--p", "1")
        assert code == 3 and "unsupported" in err


class TestThresholdCommand:
    def test_m3_value(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--m", "3")
        assert code == 0
        report = json.loads(out)
        assert report["p_threshold"] == pytest.approx(0.557507, abs=1e-6)
        assert report["at_boundary"] is False

    def test_m2_boundary_flag(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--m", "2")
        assert code == 0
        report = json.loads(out)
        assert report["p_threshold"] == 1.0 and report["at_boundary"] is True

    def test_solver_failure_exit_4(self, capsys, monkeypatch):
        def boom(m):
            raise SolverError("no bracket")

        monkeypatch.setattr(cli, "solve_threshold", boom)
        code, out, err = run_cli(capsys, "threshold", "--m", "3")
        assert code == 4 and out == ""
        assert err == "error: solver failure: no bracket\n"


class TestTrajectoryCommand:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trajectory", "--m", "3", "--p", "0.4", "--pi0", "0.9", "--steps", "1000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["limit"] == pytest.approx(0.5, abs=1e-9)
        assert report["values"][0] == 0.9

    def test_predict_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trajectory", "--m", "3", "--p", "0.8", "--pi0", "0.3", "--predict",
        )
        assert code == 0
        report = json.loads(out)
        assert report["predicted_limit"] == pytest.approx(report["limit"], abs=1e-6)

    @pytest.mark.parametrize("pi0", ["0.5000000000005", "0.4999999999995"])
    def test_predict_next_to_repulsive_point(self, capsys, pi0):
        # 5e-13 from the repulsive point 1/2, the orbit leaves it for the attractive point on its side
        code, out, err = run_cli(
            capsys, "trajectory", "--m", "3", "--p", "0.8", "--pi0", pi0, "--predict"
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["converged"] is True and report["limit"] != 0.5
        assert report["predicted_limit"] == report["limit"]

    def test_predict_identity_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "trajectory", "--m", "2", "--p", "1", "--pi0", "0.3", "--predict",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "m, pi0", [("23", "0.8312026801722365"), ("64", "0.5010530266755553")]
    )
    def test_saturated_map_reaches_one(self, capsys, m, pi0):
        # g rounds an ulp or more above 1 near x = 1 on this map; unclamped,
        # the next step refused the iterate as outside [0, 1]
        code, out, err = run_cli(
            capsys, "trajectory", "--m", m, "--p-b", "1", "--p-r", "0", "--pi0", pi0,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["converged"] is True and report["limit"] == 1.0
        assert all(0.0 <= v <= 1.0 for v in report["values"])

    def test_one_map_and_one_root_set_per_request(self, capsys, monkeypatch):
        import treemajority.dynamics as dynamics
        from treemajority.update_map import UpdateMap

        calls = {"from_params": 0, "roots": 0}
        build, roots = UpdateMap.from_params.__func__, dynamics._bernstein_roots

        def counted_build(cls, params):
            calls["from_params"] += 1
            return build(cls, params)

        def counted_roots(*args, **kwargs):
            calls["roots"] += 1
            return roots(*args, **kwargs)

        monkeypatch.setattr(UpdateMap, "from_params", classmethod(counted_build))
        monkeypatch.setattr(dynamics, "_bernstein_roots", counted_roots)
        argv = ("trajectory", "--m", "3", "--p", "0.8", "--pi0", "0.3", "--predict")
        for request in (1, 2):  # nothing is kept from one request to the next
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            report = json.loads(out)
            assert report["converged"] and report["predicted_limit"] == report["limit"]
            assert calls == {"from_params": request, "roots": request}


class TestSimulateCommand:
    ARGS = [
        "simulate", "--m", "3", "--p-b", "1", "--p-r", "0.2", "--depth", "5",
        "--horizon", "5", "--pi0", "0.9", "--reps", "150", "--seed", "7",
    ]

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS)
        code2, out2, _ = run_cli(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_no_usable_pair_is_null(self, capsys):
        # one replication leaves every child constant, so no pair has a correlation
        code, out, _ = run_cli(
            capsys, "simulate", "--m", "3", "--p", "0.5", "--depth", "2", "--horizon", "2",
            "--pi0", "0.5", "--reps", "1", "--seed", "1",
        )
        assert code == 0

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=refuse)
        assert report["pair_correlation"] is None

    def test_non_finite_report_refused(self):
        with pytest.raises(ValueError):
            cli._to_json({"x": float("nan")})
        with pytest.raises(ValueError):
            cli._to_json({"x": [float("-inf")]})

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGS[:-2])
        assert exc.value.code == 2

    # one request per subcommand that writes JSON; fixed-points and policy use --p
    REPLAYED = {
        "policy": ["policy", "--m", "4", "--p", "0.3", "--format", "json"],
        "gmap": ["gmap", "--m", "4", "--p-b", "0.7", "--p-r", "0.2", "--grid", "5", "--format", "json"],
        "fixed-points": ["fixed-points", "--m", "3", "--p", "0.8"],
        "trajectory": [
            "trajectory", "--m", "3", "--p-b", "0.9", "--p-r", "0.6", "--pi0", "0.3",
            "--steps", "500", "--predict",
        ],
        "threshold": ["threshold", "--m", "4"],
        "simulate": ARGS,
        "estimate-g": [
            "estimate-g", "--m", "4", "--p-b", "0.7", "--p-r", "0.4", "--x", "0.3",
            "--samples", "1000", "--seed", "1",
        ],
        "dcheck": ["dcheck", "--cases", "5", "--seed", "3"],
    }

    @pytest.mark.parametrize("command", list(REPLAYED))
    def test_report_echo_round_trip(self, capsys, command):
        code, out, _ = run_cli(capsys, *self.REPLAYED[command])
        assert code == 0
        spec = json.loads(out)["spec"]
        assert spec["command"] == command
        rebuilt = [command]
        for key, value in list(spec.items())[1:]:
            flag = "--" + key.replace("_", "-")
            if value is True:
                rebuilt.append(flag)
            elif value is not False:
                rebuilt += [flag, repr(value) if isinstance(value, float) else str(value)]
        code2, out2, _ = run_cli(capsys, *rebuilt)
        assert code2 == 0 and out2 == out

    @pytest.mark.parametrize("command", [c for c in REPLAYED if c not in ("policy", "gmap")])
    def test_json_only_commands_refuse_format(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.REPLAYED[command], "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-points", "--m", "3", "--p", "0.5576066659753247", "--tol", "0.1"],
        ["threshold", "--m", "3", "--tol", "0.1"],
        ["trajectory", "--m", "3", "--p", "0.7", "--pi0", "0.3", "--conv-tol", "0.1"],
    ],
    ids=["fixed-points", "threshold", "trajectory"],
)
def test_tolerance_flags_refused(capsys, argv):
    # each answer has one precision; looser tolerances made fixed-points report
    # a lone repulsive 1/2 and trajectory name the repulsive 1/2 as the limit
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


class TestEstimateCommand:
    def test_estimate_close_to_analytic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate-g", "--m", "4", "--p-b", "0.7", "--p-r", "0.4",
            "--x", "0.3", "--samples", "100000", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        g = report["analytic"]
        se = math.sqrt(g * (1 - g) / 100000)
        assert abs(report["estimate"] - g) <= 4 * se


class TestDcheckCommand:
    def test_deviations_small(self, capsys):
        code, out, _ = run_cli(capsys, "dcheck", "--cases", "50", "--seed", "11")
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_dev_gprime"] <= 1e-5
        assert report["max_abs_dev_gdoubleprime"] <= 1e-5
        assert report["max_abs_dev_df_dp"] <= 1e-6
        assert report["max_df_dp"] < 0.0

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "dcheck", "--seed", seed, "--cases", "2")
        assert code == 2 and out == ""
        assert err == "error: seed must fit in 64 unsigned bits\n"

    def test_zero_cases_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "dcheck", "--cases", "0", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: --cases must be at least 1\n"


class TestOutFlag:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "threshold", "--m", "3", "--out", str(target))
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["m"] == 3

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "threshold", "--m", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write report: ")
        assert not target.exists()


# Runs in a fresh interpreter: every analytic subcommand and every analytic
# library result, then the modules loaded.
_COLD_START = """
import contextlib, io, sys
import treemajority as tm
from treemajority import cli
for argv in (
    ["policy", "--m", "5", "--p", "0.4"],
    ["policy", "--m", "5", "--p-b", "0.3", "--p-r", "0.8", "--format", "json"],
    ["gmap", "--m", "5", "--p", "0.4", "--grid", "20"],
    ["gmap", "--m", "5", "--p-b", "0.3", "--p-r", "0.8", "--grid", "20", "--format", "json"],
    ["fixed-points", "--m", "5", "--p", "0.7"],
    ["trajectory", "--m", "3", "--p", "0.7", "--pi0", "0.3", "--predict"],
    ["threshold", "--m", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
params = tm.ModelParams(3, 0.8, 0.6)
gm = tm.UpdateMap.from_params(params)
tm.policy_table(params)
tm.binomial_pmf(5, 0.3)
for fn in (tm.g_eval, tm.g_prime, tm.g_double_prime):
    fn(gm, 0.3)
fps = tm.find_fixed_points(params)
fps.values
tm.iterate_dynamics(params, 0.3).values
tm.predict_limit(params, 0.3)
tm.m3_pb1_closed_form(0.9).values
tm.solve_threshold(5)
tm.classify_stability(gm, fps.points[0].value)
tm.g_prime_at_half(tm.ModelParams.symmetric(4, 0.7))
tm.df_dp(5, 1, 0.4)
print(" ".join(m for m in ("numpy", "numpy.random", "treemajority.mc") if m in sys.modules))
"""


def test_analytic_subcommands_leave_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
