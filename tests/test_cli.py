import gc
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("p", ["0.99999999", "0.999999999"])
    def test_near_identity_map_answered(self, capsys, p):
        # a rounding away from the identity is not the identity: 1/2 is the one fixed point
        code, out, err = run_cli(capsys, "fixed-points", "--m", "2", "--p", p)
        assert code == 0, err
        report = json.loads(out)
        assert report["count"] == 1 and report["points"][0]["value"] == 0.5
        assert report["points"][0]["tangent"] is False


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

    @pytest.mark.parametrize(
        "m, p_b, p_r, pi0, steps",
        [
            (3, 0.8, 0.8, 0.3, 10**6),  # symmetric, above p(3)
            (3, 0.4, 0.4, 0.9, 10**6),  # symmetric, below p(3)
            (3, 1.0, 0.9, 0.1, 10**6),  # the m = 3, p_b = 1 line
            (2, 1.0, 1.0, 0.37, 10**6),  # the identity: the limit is the last iterate
            (3, 0.8, 0.8, 0.3, 4),  # capped before convergence
        ],
    )
    def test_report_is_iterate_dynamics(self, capsys, m, p_b, p_r, pi0, steps):
        from treemajority import ModelParams, iterate_dynamics

        argv = ["--m", m, "--p-b", p_b, "--p-r", p_r, "--pi0", pi0, "--steps", steps]
        code, out, err = run_cli(capsys, "trajectory", *map(str, argv))
        assert code == 0, err
        report = json.loads(out)
        traj = iterate_dynamics(ModelParams(m, p_b, p_r), pi0, steps)
        assert report["steps_taken"] == len(traj.values) - 1
        assert report["converged"] is traj.converged
        assert report["limit"] == traj.limit
        assert report["values"] == list(traj.values)

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

    def test_exact_correlation_reads_one(self, capsys):
        # the root's first and last children differ in each of the 3
        # replications, a correlation of exactly -1 whose rounded magnitude
        # reads 1.0000000000000002 unclamped
        code, out, _ = run_cli(
            capsys, "simulate", "--m", "3", "--p", "0.7", "--depth", "2", "--horizon", "0",
            "--pi0", "0.3", "--reps", "3", "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)["pair_correlation"] == 1.0

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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# signed zero, the least subnormal, where repr turns to exponent form, the largest double
_EXTREME = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 0.1, sys.float_info.max, -sys.float_info.max])
_KEYS = st.one_of(st.sampled_from(['a"b', "é", "x", "values", "line\nbreak"]), st.text(max_size=5))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, st.sampled_from(["a\nb", "\n  \"x\": []"]), st.text(max_size=6)
)
_NESTED = st.recursive(
    _SCALARS | _EXTREME | _FINITE.map(np.float64),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10,
)
_TOP_VALUES = st.one_of(
    _NESTED,
    st.lists(_FINITE | _EXTREME, max_size=8),
    st.lists(_FINITE | _EXTREME, max_size=8).map(tuple),
    st.lists(_SCALARS | st.just(-0.0), max_size=6),
    st.sampled_from([[], (), [0.5], [1, 2.0], [2.0, True], [-0.0, None], [np.float64(0.1), np.float64(-0.0)]]),
    st.lists(_FINITE.map(np.float64), max_size=4),
)


class TestReportEncoding:
    """``_to_json`` writes exactly ``json.dumps(report, indent=2, allow_nan=False)`` and a newline."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(_KEYS, _TOP_VALUES, max_size=6))
    @example({"values": [1.0, -0.0], "spec": {"values": []}, "x": "\n  \"values\": []"})
    @example({'a"b': [5e-324, 1e16], "é": [1e22, sys.float_info.max], "n": [1, 2.0], "e": []})
    def test_same_bytes_as_json(self, report):
        assert cli._to_json(report) == json.dumps(report, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("command", list(TestSimulateCommand.REPLAYED))
    def test_report_is_its_own_reencoding(self, capsys, command):
        code, out, _ = run_cli(capsys, *TestSimulateCommand.REPLAYED[command])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    def test_non_finite_in_float_list_refused(self, bad, at):
        values = [0.25] * 5
        values[at] = bad
        with pytest.raises(ValueError):
            cli._to_json({"steps": 4, "values": values})

    def test_non_finite_report_refused(self):
        with pytest.raises(ValueError):
            cli._to_json({"x": float("nan")})
        with pytest.raises(ValueError):
            cli._to_json({"x": [float("-inf")]})

    @pytest.mark.parametrize("command", list(TestSimulateCommand.REPLAYED))
    def test_request_leaves_no_reference_cycles(self, capsys, command):
        # garbage in cycles waits for the collector, which then runs inside
        # whatever comes next: a warm request leaves none
        argv = TestSimulateCommand.REPLAYED[command]
        run_cli(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run_cli(capsys, *argv)
            left = gc.collect()
        finally:
            gc.enable()
        assert code == 0 and left == 0


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_2(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "estimate-g", "--m", "4", "--p", "0.5", "--x", "0.3", "--samples", "10",
            "--seed", seed,
        )
        assert code == 2 and out == ""
        assert err == "error: seed must fit in 64 unsigned bits\n"


class TestParseParity:
    """``main`` parses a request as ``build_parser().parse_args`` would, refusals and help included."""

    ARGVS = {
        "empty": [],
        "help": ["-h"],
        "unknown command": ["dcheck"],
        "subcommand help": ["fixed-points", "-h"],
        "leftover flag": ["threshold", "--m", "3", "--bogus"],
        "extra positional": ["fixed-points", "--m", "3", "--p", "0.8", "extra"],
        "missing --m": ["fixed-points", "--p", "0.8"],
        "non-float --p": ["fixed-points", "--m", "3", "--p", "high"],
        "--format on a JSON-only command": ["threshold", "--m", "3", "--format", "json"],
    }

    @staticmethod
    def _outcome(capsys, call):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", list(ARGVS.values()), ids=list(ARGVS))
    def test_same_outcome_as_parse_args(self, capsys, argv):
        got = self._outcome(capsys, lambda: cli.main(list(argv)))
        want = self._outcome(capsys, lambda: cli.build_parser().parse_args(list(argv)))
        assert got == want and got[0] in (0, 2)

    def test_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["treemajority", "trajectory", "--m", "3", "--pi0", "0.3", "--bogus"])
        got = self._outcome(capsys, cli.main)
        want = self._outcome(capsys, lambda: cli.build_parser().parse_args())
        assert got == want and got[0] == 2


def test_dcheck_is_not_a_subcommand(capsys):
    # criteria 6a and 6b check g', g'' and df_dp against finite differences
    with pytest.raises(SystemExit) as exc:
        cli.main(["dcheck", "--cases", "5", "--seed", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'dcheck'" in capsys.readouterr().err


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


class TestOneParser:
    """``main`` parses every request with one parser, built on its first call."""

    THRESHOLD = ["threshold", "--m", "3"]
    # argparse refusal, ValueError, unsupported regime, then valid requests
    SEQUENCE = [
        ["fixed-points", "--m", "3", "--p", "0.8", "--format", "json"],
        ["policy", "--m", "3", "--p", "0.5", "--p-b", "0.2"],
        ["fixed-points", "--m", "2", "--p", "1"],
        *TestSimulateCommand.REPLAYED.values(),
        ["policy", "--m", "3", "--p-b", "1", "--p-r", "0.4"],
        ["gmap", "--m", "3", "--p", "0.8", "--grid", "4"],
    ]

    @pytest.fixture
    def cleared(self):
        cached = cli._parser
        cached.cache_clear()
        yield
        cached.cache_clear()

    def _send(self, capsys, argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def test_built_once_per_process(self, capsys, monkeypatch, tmp_path, cleared):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        codes = [self._send(capsys, argv)[0] for argv in self.SEQUENCE]
        codes.append(self._send(capsys, [*self.THRESHOLD, "--out", str(tmp_path / "r.json")])[0])
        assert codes == [2, 2, 3] + [0] * 10
        assert len(built) == 1

    def test_out_is_not_carried(self, capsys, tmp_path, cleared):
        target = tmp_path / "r.json"
        code, out, _ = self._send(capsys, [*self.THRESHOLD, "--out", str(target)])
        assert code == 0 and out == ""
        code, out, _ = self._send(capsys, self.THRESHOLD)
        assert code == 0 and out == target.read_text()

    def test_rates_are_not_carried(self, capsys, cleared):
        self._send(capsys, ["fixed-points", "--m", "3", "--p", "0.8"])
        code, out, _ = self._send(capsys, ["fixed-points", "--m", "3", "--p-b", "1", "--p-r", "0.75"])
        assert code == 0
        spec = json.loads(out)["spec"]
        assert (spec["p_b"], spec["p_r"]) == (1.0, 0.75)

    def test_refusal_is_not_carried(self, capsys, cleared):
        code, _, _ = self._send(capsys, ["fixed-points", "--m", "3", "--p", "0.8", "--format", "json"])
        assert code == 2
        code, out, _ = self._send(capsys, ["policy", "--m", "3", "--p", "0.5", "--format", "json"])
        assert code == 0 and json.loads(out)["spec"]["format"] == "json"

    def test_same_bytes_as_a_fresh_parser(self, capsys, monkeypatch, cleared):
        shared = [self._send(capsys, argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert [self._send(capsys, argv) for argv in self.SEQUENCE] == shared


_IMPORT_BUILDS_NO_PARSER = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import treemajority.cli
print(len(built))
"""


# Runs in a fresh interpreter: every analytic subcommand and every analytic
# library result, then the modules loaded that the analytic path must not need:
# numpy and the simulator, and dataclasses and inspect, which cost about 11 ms
# of a cold start.  The last two count only when the snippet loaded them, not
# when the interpreter's site hooks had already.
_COLD_START = """
import sys
preloaded = set(sys.modules)
import contextlib, io
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
tm.g_prime_at_half(tm.ModelParams.symmetric(4, 0.7))
tm.df_dp(5, 1, 0.4)
loaded = [m for m in ("numpy", "numpy.random", "treemajority.mc") if m in sys.modules]
loaded += [m for m in ("dataclasses", "inspect") if m in sys.modules and m not in preloaded]
print(" ".join(loaded))
"""


def _fresh_interpreter(code: str) -> str:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_analytic_subcommands_leave_numpy_unloaded():
    assert _fresh_interpreter(_COLD_START) == ""


def test_import_builds_no_parser():
    assert _fresh_interpreter(_IMPORT_BUILDS_NO_PARSER) == "0"


# Reports of well-conditioned requests, away from folds and pitchforks, pinned
# bit for bit: a change to the map build or the root finder must not move them.
GOLDEN = [
    (
        ["threshold", "--m", "3"],
        {"m": 3, "p_threshold": 0.5575066659755579, "bracket_width": 1.1102230246251565e-16, "evaluations": 53, "at_boundary": False},
    ),
    (
        ["threshold", "--m", "8"],
        {"m": 8, "p_threshold": 0.22249969378076237, "bracket_width": 0.0, "evaluations": 55, "at_boundary": False},
    ),
    (
        ["threshold", "--m", "16"],
        {"m": 16, "p_threshold": 0.11340506759468955, "bracket_width": 1.3877787807814457e-17, "evaluations": 56, "at_boundary": False},
    ),
    (
        ["threshold", "--m", "64"],
        {"m": 64, "p_threshold": 0.028760341294702757, "bracket_width": 0.0, "evaluations": 55, "at_boundary": False},
    ),
    (
        ["fixed-points", "--m", "3", "--p", "0.9"],
        {"count": 3, "points": [
            {"value": 0.0006863421217495136, "stability": "attractive", "tangent": False, "residual": 0.0},
            {"value": 0.5, "stability": "repulsive", "tangent": False, "residual": 1.1102230246251565e-16},
            {"value": 0.9993136578782504, "stability": "attractive", "tangent": False, "residual": 0.0},
        ]},
    ),
    (
        ["fixed-points", "--m", "3", "--p", "0.5"],
        {"count": 1, "points": [
            {"value": 0.5, "stability": "attractive", "tangent": False, "residual": 0.0},
        ]},
    ),
    (
        ["fixed-points", "--m", "8", "--p", "0.3"],
        {"count": 3, "points": [
            {"value": 0.06730032360256533, "stability": "attractive", "tangent": False, "residual": 0.0},
            {"value": 0.5, "stability": "repulsive", "tangent": False, "residual": 1.6653345369377348e-16},
            {"value": 0.9326996763974347, "stability": "attractive", "tangent": False, "residual": 1.1102230246251565e-16},
        ]},
    ),
    (
        ["fixed-points", "--m", "16", "--p", "0.2"],
        {"count": 3, "points": [
            {"value": 0.02175989564375498, "stability": "attractive", "tangent": False, "residual": 1.3877787807814457e-17},
            {"value": 0.5, "stability": "repulsive", "tangent": False, "residual": 4.440892098500626e-16},
            {"value": 0.978240104356245, "stability": "attractive", "tangent": False, "residual": 8.881784197001252e-16},
        ]},
    ),
    (
        ["fixed-points", "--m", "64", "--p", "0.05"],
        {"count": 3, "points": [
            {"value": 0.029955708768873407, "stability": "attractive", "tangent": False, "residual": 5.551115123125783e-17},
            {"value": 0.5, "stability": "repulsive", "tangent": False, "residual": 1.4988010832439613e-15},
            {"value": 0.9700442912311266, "stability": "attractive", "tangent": False, "residual": 2.886579864025407e-15},
        ]},
    ),
    (
        ["fixed-points", "--m", "64", "--p", "0.02"],
        {"count": 1, "points": [
            {"value": 0.5, "stability": "attractive", "tangent": False, "residual": 4.996003610813204e-16},
        ]},
    ),
    (
        ["fixed-points", "--m", "3", "--p-b", "0.8", "--p-r", "0.6"],
        {"count": 1, "points": [
            {"value": 0.9935489416029586, "stability": "attractive", "tangent": False, "residual": 0.0},
        ]},
    ),
    (
        ["fixed-points", "--m", "8", "--p-b", "0.75", "--p-r", "0.55"],
        {"count": 3, "points": [
            {"value": 0.0009525698773065955, "stability": "attractive", "tangent": False, "residual": 2.168404344971009e-19},
            {"value": 0.32775899711799306, "stability": "repulsive", "tangent": False, "residual": 5.551115123125783e-17},
            {"value": 0.9999923465839158, "stability": "attractive", "tangent": False, "residual": 1.1102230246251565e-16},
        ]},
    ),
    (
        ["fixed-points", "--m", "16", "--p-b", "0.4", "--p-r", "0.6"],
        {"count": 3, "points": [
            {"value": 2.1476681344854324e-07, "stability": "attractive", "tangent": False, "residual": 2.6469779601696886e-23},
            {"value": 0.6798933121775577, "stability": "repulsive", "tangent": False, "residual": 0.0},
            {"value": 0.9998551109018374, "stability": "attractive", "tangent": False, "residual": 1.1102230246251565e-16},
        ]},
    ),
    (
        ["fixed-points", "--m", "64", "--p-b", "0.55", "--p-r", "0.5"],
        {"count": 3, "points": [
            {"value": 2.7105054312137617e-20, "stability": "attractive", "tangent": False, "residual": 0.0},
            {"value": 0.4696116984535943, "stability": "repulsive", "tangent": False, "residual": 1.1102230246251565e-16},
            {"value": 0.9999999999999993, "stability": "attractive", "tangent": False, "residual": 2.220446049250313e-16},
        ]},
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_reports(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    del report["spec"]
    assert report == expected


SYMMETRIC_GOLDEN = [(argv, expected) for argv, expected in GOLDEN if argv[0] == "fixed-points" and "--p" in argv]


@pytest.mark.parametrize("argv, expected", SYMMETRIC_GOLDEN, ids=[" ".join(argv) for argv, _ in SYMMETRIC_GOLDEN])
def test_golden_symmetric_points_mirror(argv, expected):
    # a symmetric map is rooted on [0, 1/2] and mirrored, so the upper point is 1.0 - alpha
    values = [pt["value"] for pt in expected["points"]]
    assert values[len(values) // 2] == 0.5
    assert values[-1] == 1.0 - values[0]
