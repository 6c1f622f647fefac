import argparse
import contextlib
import copy
import functools
import io
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import bridging_family, perimeter_record

import nonsep
from nonsep import balls, cli, lp
from nonsep.errors import InputError
from nonsep.family import HomotheticFamily
from nonsep.polytope import Polytope, cube, regular_polygon
from nonsep.scenarios import load_scenario, run_scenario, scenario_from_dict

TRIANGLE = {"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}


def chain_family_dict(n=3):
    base = cube(2)
    xs = np.array([[float(i), 0.0] for i in range(n)])
    return HomotheticFamily(base, xs, np.ones(n)).to_dict()


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def stability_scenario(**extra):
    return {"kind": "stability", "seed": 0,
            "parameters": {"taus": [1.0, 1.0, 1.0],
                           "deltas": list(np.logspace(-1, -3, 6)), **extra}}


class TestScenarioSchema:
    def test_round_trip_fields(self):
        sc = scenario_from_dict({"kind": "sigma", "seed": 7, "out": "runs/x",
                                 "parameters": {"polytope": TRIANGLE}})
        assert (sc.kind, sc.seed, sc.out) == ("sigma", 7, "runs/x")

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown scenario kind"):
            scenario_from_dict({"kind": "frobnicate", "parameters": {}})

    def test_parameters_must_be_object(self):
        with pytest.raises(InputError, match="parameters object"):
            scenario_from_dict({"kind": "sigma", "parameters": [1, 2]})

    def test_seed_rejects_bool_and_string(self):
        base = {"kind": "sigma", "parameters": {"polytope": TRIANGLE}}
        for bad in (True, "3"):
            with pytest.raises(InputError, match="seed"):
                scenario_from_dict({**base, "seed": bad})

    def test_missing_required_parameter(self):
        with pytest.raises(InputError, match="needs parameter 'polytope'"):
            scenario_from_dict({"kind": "sigma", "parameters": {}})

    def test_stability_list_lengths(self):
        with pytest.raises(InputError, match="three radii"):
            scenario_from_dict({"kind": "stability",
                                "parameters": {"taus": [1.0, 1.0],
                                               "deltas": [0.1] * 5}})
        with pytest.raises(InputError, match="five bends"):
            scenario_from_dict({"kind": "stability",
                                "parameters": {"taus": [1.0] * 3,
                                               "deltas": [0.1]}})

    def test_enum_parameters(self):
        with pytest.raises(InputError, match="objective"):
            scenario_from_dict({"kind": "cubes",
                                "parameters": {"n": 4, "objective": "girth"}})
        with pytest.raises(InputError, match="lattice mode"):
            scenario_from_dict({"kind": "lattice",
                                "parameters": {"body": TRIANGLE,
                                               "basis": [[1, 0], [0, 1]],
                                               "mode": "nope"}})
        with pytest.raises(InputError, match="covering mode"):
            scenario_from_dict({"kind": "covering",
                                "parameters": {"family": {},
                                               "mode": "nope"}})

    def test_unknown_keys_rejected(self):
        cubes = {"kind": "cubes", "parameters": {"n": 5, "expect_value": 19.0}}
        scenario_from_dict(cubes)
        for typo in ("box_size", "expect_vlaue"):
            with pytest.raises(InputError, match=f"unknown parameter '{typo}'"):
                scenario_from_dict({**cubes, "parameters": {
                    **cubes["parameters"], typo: 7}})
        with pytest.raises(InputError, match="unknown key 'sede'"):
            scenario_from_dict({**cubes, "sede": 3})
        # a parameter of another lattice mode is not read in this one
        with pytest.raises(InputError, match="unknown parameter 'resolution'"):
            scenario_from_dict({"kind": "lattice", "parameters": {
                "body": TRIANGLE, "basis": [[1, 0], [0, 1]], "mode": "ns",
                "resolution": 16}})
        with pytest.raises(InputError, match="'expect_tol' must be a number"):
            scenario_from_dict({"kind": "sigma", "parameters": {
                "polytope": TRIANGLE, "expect_tol": "1e-3"}})

    def test_load_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(InputError, match="not valid JSON"):
            load_scenario(bad)
        with pytest.raises(InputError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")


class TestRunScenario:
    def test_stability_checks_pass(self):
        report, ok = run_scenario(stability_scenario())
        assert ok
        names = [c["name"] for c in report["checks"]]
        assert "deviation slope near one half" in names
        assert "deficit slope near two" in names
        assert 0.4 <= report["results"]["dev_vs_deficit_slope"] <= 0.6

    def test_cubes_expected_area(self):
        report, ok = run_scenario({
            "kind": "cubes", "seed": 0,
            "parameters": {"n": 4, "objective": "area",
                           "expect_value": 12.0}})
        assert ok
        assert report["results"]["value"] == 12.0
        assert report["results"]["box"] == [[0, 0], [4, 4]]

    def test_sigma_triangle(self):
        report, ok = run_scenario({
            "kind": "sigma", "seed": 0,
            "parameters": {"polytope": TRIANGLE, "expect_value": 2.0}})
        assert ok
        assert report["results"]["route_gap"] <= 1e-6

    def test_lattice_ns_and_density(self):
        params = {"body": cube(2).to_dict(), "basis": [[1.0, 0], [0, 1.0]]}
        report, ok = run_scenario({
            "kind": "lattice", "seed": 0,
            "parameters": {**params, "mode": "ns", "expect_verdict": True}})
        assert ok and report["results"]["lambda1"] == pytest.approx(0.5)
        report, ok = run_scenario({
            "kind": "lattice", "seed": 0,
            "parameters": {**params, "mode": "density", "expect_value": 1.0}})
        assert ok

    def test_lattice_tightness_bracket(self):
        report, ok = run_scenario({
            "kind": "lattice", "seed": 0,
            "parameters": {"body": cube(2).to_dict(),
                           "basis": [[1.0, 0], [0, 1.0]],
                           "mode": "tightness", "resolution": 16,
                           "expect_contains": 0.0}})
        assert ok
        res = report["results"]
        assert res["lower"] - 1e-9 <= 0.0 <= res["upper"] + 1e-9

    def test_covering_weighted(self):
        report, ok = run_scenario({
            "kind": "covering", "seed": 0,
            "parameters": {"family": chain_family_dict(),
                           "mode": "weighted", "expect_lambda_le": 1.0}})
        assert ok
        assert report["results"]["lambda"] <= 1.0 + 1e-7

    def test_failed_expectation_reports_not_ok(self):
        report, ok = run_scenario({
            "kind": "cubes", "seed": 0,
            "parameters": {"n": 4, "objective": "area",
                           "expect_value": 11.0}})
        assert not ok
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed and failed[0]["name"] == "expected value"


class TestScenarioOutputs:
    def test_files_written_next_to_scenario(self, tmp_path):
        path = write_json(tmp_path / "run.json", stability_scenario())
        report, ok = run_scenario(path)
        assert ok
        on_disk = json.loads((tmp_path / "run.report.json").read_text())
        assert on_disk == report
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "delta,deficit,deviation"
        assert len(lines) == 1 + 6

    def test_relative_out_resolves_against_scenario_dir(self, tmp_path):
        sc = {**stability_scenario(), "out": "results/exp"}
        path = write_json(tmp_path / "run.json", sc)
        run_scenario(path)
        assert (tmp_path / "results" / "exp.csv").exists()
        assert (tmp_path / "results" / "exp.report.json").exists()

    def test_out_argument_wins(self, tmp_path):
        sc = {**stability_scenario(), "out": "ignored"}
        path = write_json(tmp_path / "run.json", sc)
        run_scenario(path, out=str(tmp_path / "forced"))
        assert (tmp_path / "forced.csv").exists()
        assert not (tmp_path / "ignored.csv").exists()

    def test_dash_skips_writing(self, tmp_path):
        path = write_json(tmp_path / "run.json", stability_scenario())
        run_scenario(path, out="-")
        assert list(tmp_path.glob("*.csv")) == []

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_json(tmp_path / "run.json", stability_scenario())
        run_scenario(path)
        first = (tmp_path / "run.csv").read_bytes()
        first_report = (tmp_path / "run.report.json").read_bytes()
        run_scenario(path)
        assert (tmp_path / "run.csv").read_bytes() == first
        assert (tmp_path / "run.report.json").read_bytes() == first_report

    def test_csv_floats_survive_round_trip(self, tmp_path):
        path = write_json(tmp_path / "run.json", stability_scenario())
        run_scenario(path)
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        for row in rows:
            delta, deficit, deviation = map(float, row.split(","))
            assert 0 < delta <= 0.1
            assert deficit >= 0 and deviation > 0


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        good = write_json(tmp_path / "good.json", stability_scenario())
        assert cli.main(["run", good, "--out", "-"]) == 0
        assert "PASS" in capsys.readouterr().out
        bad = write_json(tmp_path / "bad.json", {
            "kind": "cubes", "seed": 0,
            "parameters": {"n": 4, "expect_value": 11.0}})
        assert cli.main(["run", bad, "--out", "-"]) == 1
        assert "FAIL expected value" in capsys.readouterr().out

    def test_run_invalid_scenario_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "x.json", {"kind": "x",
                                                "parameters": {}})
        assert cli.main(["run", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("deltas", [[0.1, 0.01, 0.001, 0.0001, 0.00001],
                                        [0.0, 0.0, 0.0, 0.0, 0.0]])
    def test_run_overflowing_radius_is_input_error(self, tmp_path, capsys, deltas):
        path = write_json(tmp_path / "huge.json", {
            "kind": "stability",
            "parameters": {"taus": [1e300, 1.0, 1.0], "deltas": deltas}})
        assert cli.main(["run", path, "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err

    def test_run_unknown_key_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "typo.json", {
            "kind": "cubes", "parameters": {"n": 5, "box_size": 7}})
        assert cli.main(["run", path, "--out", "-"]) == 2
        assert "unknown parameter 'box_size'" in capsys.readouterr().err

    def test_lp_iteration_limit_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_ITER", 1)
        chain = write_json(tmp_path / "chain.json", chain_family_dict())
        assert cli.main(["lambda", chain]) == 1
        err = capsys.readouterr().err
        assert err.startswith("failed: simplex iteration limit")
        assert "Traceback" not in err

    def test_wns_and_ns_verdict_exit_codes(self, tmp_path):
        chain = write_json(tmp_path / "chain.json", chain_family_dict())
        apart = write_json(tmp_path / "apart.json", {
            "base": cube(2).to_dict(),
            "members": [{"x": [0.0, 0.0], "tau": 1.0},
                        {"x": [9.0, 0.0], "tau": 1.0}]})
        assert cli.main(["wns", chain]) == 0
        assert cli.main(["ns", chain]) == 0
        assert cli.main(["wns", apart]) == 1
        assert cli.main(["ns", apart]) == 1

    def test_wns_witness_in_payload(self, tmp_path, capsys):
        apart = write_json(tmp_path / "apart.json", {
            "base": cube(2).to_dict(),
            "members": [{"x": [0.0, 0.0], "tau": 1.0},
                        {"x": [9.0, 0.0], "tau": 1.0}]})
        cli.main(["wns", apart])
        payload = json.loads(capsys.readouterr().out)
        assert payload["wns"] is False
        assert abs(payload["witness"]["direction"][0]) == 1.0

    def test_cover_and_lambda(self, tmp_path, capsys):
        chain = write_json(tmp_path / "chain.json", chain_family_dict())
        assert cli.main(["cover", chain]) == 0
        assert json.loads(capsys.readouterr().out)["lambda"] <= 1 + 1e-7
        assert cli.main(["cover", chain, "--mode", "sigma"]) == 0
        capsys.readouterr()
        assert cli.main(["lambda", chain]) == 0

    def test_sigma_routes_agree(self, tmp_path, capsys):
        tri = write_json(tmp_path / "tri.json", TRIANGLE)
        assert cli.main(["sigma", tri]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == pytest.approx(2.0, abs=1e-6)
        assert payload["route_gap"] <= 1e-6
        with pytest.raises(SystemExit) as exc:
            cli.main(["sigma", tri, "--tol", "1e-6"])
        assert exc.value.code == 2

    def test_summand_exit_codes(self, tmp_path):
        box = write_json(tmp_path / "box.json", cube(2).to_dict())
        small = write_json(tmp_path / "small.json",
                           cube(2, half=0.25).to_dict())
        tri = write_json(tmp_path / "tri.json", TRIANGLE)
        assert cli.main(["summand", small, box]) == 0
        assert cli.main(["summand", box, tri]) == 1

    def test_lattice_subcommands(self, tmp_path, capsys):
        arr = write_json(tmp_path / "arr.json",
                         {"body": cube(2).to_dict(),
                          "basis": [[1.0, 0.0], [0.0, 1.0]]})
        assert cli.main(["lattice", "ns", arr]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["non_separable"] is True
        assert cli.main(["lattice", "tightness", arr,
                         "--resolution", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] <= 0.0 <= payload["upper"] + 1e-9
        assert cli.main(["lattice", "mu1w", arr, "--t", "0.4,0.6"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["t"] for r in rows] == [0.4, 0.6]
        assert rows[0]["hit_fraction"] <= rows[1]["hit_fraction"]
        shifted = write_json(tmp_path / "shifted.json",
                             {"body": cube(2).translate([10.0, 0.0]).to_dict(),
                              "basis": [[1.0, 0.0], [0.0, 1.0]]})
        assert cli.main(["lattice", "ns", shifted]) == 2
        assert "origin must be interior" in capsys.readouterr().err

    def test_lattice_mu1w_in_three_dimensions(self, tmp_path, capsys):
        # the default window shrinks to fit the point budget in d = 3
        arr = write_json(tmp_path / "arr.json",
                         {"body": cube(3).to_dict(), "basis": np.eye(3).tolist()})
        assert cli.main(["lattice", "mu1w", arr, "--t", "0.4,0.6"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["t"] for r in rows] == [0.4, 0.6]
        assert rows[0]["hit_fraction"] <= rows[1]["hit_fraction"]

    def test_lattice_ns_on_coarse_basis(self, tmp_path):
        # the dual lattice's determinant, 1/1.6e9, is below GEOM
        arr = write_json(tmp_path / "arr.json",
                         {"body": cube(2).to_dict(),
                          "basis": [[4e4, 0.0], [0.0, 4e4]]})
        assert run_quietly(["lattice", "ns", arr]) == (1, "")

    @pytest.mark.parametrize("args, message", [
        (["mu1w", "--t", "a,b"], "--t"), (["mu1w", "--t", "nan"], "finite"),
        (["mu1w", "--t", "inf"], "finite"),
        (["mu1w", "--t", "0.4", "--seed", "-5"], "seed"),
        (["tightness", "--width", "nan"], "width"),
        (["tightness", "--width", "-1"], "width")])
    def test_lattice_refuses_bad_numbers(self, tmp_path, capsys, args, message):
        # each is refused at the boundary, naming the bad input: exit 2 and
        # one line on stderr, no traceback and no NaN or Infinity printed
        arr = write_json(tmp_path / "arr.json", UNIT_ARRANGEMENT)
        assert cli.main(["lattice", args[0], arr, *args[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_lattice_missing_keys(self, tmp_path, capsys):
        arr = write_json(tmp_path / "arr.json", {"basis": [[1, 0], [0, 1]]})
        assert cli.main(["lattice", "ns", arr]) == 2
        assert "body" in capsys.readouterr().err

    def test_cubes_search_and_extremal(self, capsys):
        assert cli.main(["cubes", "search", "--n", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 12.0
        assert cli.main(["cubes", "extremal", "--n", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["area"] == 19.0
        assert cli.main(["cubes", "search", "--n", "8",
                         "--objective", "perimeter"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(perimeter_record(8), abs=1e-9)
        assert cli.main(["cubes", "search", "--n", "9"]) == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["cubes", "search", "--n", "5", "--box-size", "5"])
        assert exc.value.code == 2

    def test_out_writes_file_instead_of_stdout(self, tmp_path, capsys):
        chain = write_json(tmp_path / "chain.json", chain_family_dict())
        dest = tmp_path / "verdict.json"
        assert cli.main(["wns", chain, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["wns"] is True

    def test_malformed_family_is_input_error(self, tmp_path, capsys):
        # a NaN member must not pass for a valid family, and a facet
        # without "a" must not end in a KeyError
        nan_member = write_json(tmp_path / "nan.json", {
            "base": cube(2).to_dict(),
            "members": [{"x": [x, 0.0], "tau": 4.0}
                        for x in (0.0, float("nan"), 5.0, 2.5)]})
        base = cube(2).to_dict()
        del base["facets"][0]["a"]
        no_normal = write_json(tmp_path / "no_a.json", {
            "base": base, "members": chain_family_dict()["members"]})
        for path in (nan_member, no_normal):
            for verb in ("wns", "ns"):
                assert cli.main([verb, path]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error:")
                assert "Traceback" not in captured.err

    def test_degenerate_input_maps_to_one(self, tmp_path, capsys):
        # two vertices span no area; the builder flags it as geometry
        degenerate = write_json(
            tmp_path / "flat.json",
            {"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0]]})
        assert cli.main(["sigma", degenerate]) == 1
        assert "failed:" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [1e16, 1e300])
    def test_long_box_is_input_error(self, tmp_path, capsys, length):
        # [-L, 0.5] x [-0.5, 0.5]: L - 0.5 rounds to L, so no centre lies
        # strictly inside every row
        rows = [([1.0, 0.0], 0.5), ([-1.0, 0.0], length),
                ([0.0, 1.0], 0.5), ([0.0, -1.0], 0.5)]
        box = write_json(tmp_path / "long.json",
                         {"dim": 2, "facets": [{"a": a, "b": b} for a, b in rows]})
        assert cli.main(["sigma", box]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: facet offsets")


def child_env():
    """The environment with this checkout's nonsep first on PYTHONPATH."""
    src = str(Path(nonsep.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else src + os.pathsep + path}


def run_cli_process(args, close_stdout=False):
    """Run `python -m nonsep.cli ARGS` as a child process.

    With `close_stdout` the parent closes its end of the output pipe before
    the child writes, as `| head` does once it has read enough.
    """
    proc = subprocess.Popen([sys.executable, "-m", "nonsep.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    if close_stdout:
        proc.stdout.close()
        out = b""
    else:
        out = proc.stdout.read()
        proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), out.decode(), err.decode()


class TestCliProcess:
    def test_closed_stdout_exits_cleanly(self):
        code, _, err = run_cli_process(["cubes", "extremal", "--n", "12"],
                                       close_stdout=True)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_ns_decides_21_cubes(self, tmp_path):
        # no member cap in any dimension: 21 cubes or squares in a row are
        # NS, and so are 21 cubes of three scales (two rows inside a hub)
        cubes = write_json(tmp_path / "row.json", HomotheticFamily(
            cube(3), np.array([[float(i), 0.0, 0.0] for i in range(21)]),
            np.ones(21)).to_dict())
        squares = write_json(tmp_path / "row2.json", HomotheticFamily(
            cube(2), np.array([[float(i), 0.0] for i in range(21)]),
            np.ones(21)).to_dict())
        bridged = write_json(tmp_path / "hub.json", bridging_family().to_dict())
        assert run_cli_process(["ns", squares])[0] == 0
        for fam in (cubes, bridged):
            code, out, err = run_cli_process(["ns", fam])
            assert code == 0
            assert json.loads(out) == {"ns": True}
            assert err == ""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cube_at_extreme_scale_exits_without_traceback(self, tmp_path, dim):
        # qhull's facet equations overflow at 1e160: refused, not a
        # traceback from the facet merge
        corners = itertools.product([-1e160, 1e160], repeat=dim)
        body = write_json(tmp_path / "huge.json",
                          {"dim": dim, "vertices": [list(v) for v in corners]})
        code, _, err = run_cli_process(["sigma", body])
        assert code in (1, 2)
        assert "Traceback" not in err


def test_parser_built_once_answers_as_a_fresh_process(monkeypatch, capsys):
    # one process: a usage error, a good call and --help on one parser
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    for argv in (["cubes", "extremal", "--n", "four"],
                 ["cubes", "extremal", "--n", "4"], ["--help"]):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == run_cli_process(argv)
    assert cli._parser.cache_info().misses == 1


DEMOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def test_demo_outputs_regenerate_byte_identical(tmp_path):
    scenarios = sorted(DEMOS.glob("*.json"))
    assert len(scenarios) == 5
    for path in scenarios:
        _, ok = run_scenario(path, out=tmp_path / path.stem)
        assert ok, path.name
        for suffix in (".csv", ".report.json"):
            fresh = (tmp_path / (path.stem + suffix)).read_bytes()
            committed = (DEMOS / "out" / (path.stem + suffix)).read_bytes()
            assert fresh == committed, path.stem + suffix


NO_SCIPY_CHILD = """
import sys
from nonsep.cli import main
code = main(sys.argv[1:])
print("scipy loaded" if "scipy" in sys.modules else "no scipy", file=sys.stderr)
raise SystemExit(code)
"""


def test_cube_verbs_load_no_scipy(tmp_path):
    # the planar cube search and its demo scenario are integer geometry
    for args in (["cubes", "search", "--n", "6"],
                 ["run", str(DEMOS / "cubes_max_area.json"),
                  "--out", str(tmp_path / "cubes_max_area")]):
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, *args],
                              capture_output=True, text=True, env=child_env(),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "no scipy\n", args


UNIT_ARRANGEMENT = {"body": cube(2).to_dict(), "basis": [[1.0, 0.0], [0.0, 1.0]]}
# squares of half the period leave gaps between the lattice translates
SEPARABLE_ARRANGEMENT = {"body": cube(2, half=0.25).to_dict(),
                         "basis": [[1.0, 0.0], [0.0, 1.0]]}


def shorthand_cases():
    """(argv with FILE for the input path, input document or None, the
    equivalent scenario) for each verb that runs a scenario kind."""
    chain = chain_family_dict()
    # keys of the arrangement file other than body and basis are not read
    noted = {**UNIT_ARRANGEMENT, "note": "ignored"}
    return {
        "cover": (["cover", "FILE"], chain,
                  ("covering", {"family": chain, "mode": "weighted"})),
        "cover sigma": (["cover", "FILE", "--mode", "sigma"], chain,
                        ("covering", {"family": chain, "mode": "sigma"})),
        "lambda": (["lambda", "FILE"], chain,
                   ("covering", {"family": chain, "mode": "lambda"})),
        "sigma": (["sigma", "FILE"], TRIANGLE, ("sigma", {"polytope": TRIANGLE})),
        "lattice tightness": (
            ["lattice", "tightness", "FILE", "--resolution", "16"], noted,
            ("lattice", {**UNIT_ARRANGEMENT, "mode": "tightness", "resolution": 16})),
        "lattice tightness width": (
            ["lattice", "tightness", "FILE", "--resolution", "8", "--width", "0.3"],
            UNIT_ARRANGEMENT,
            ("lattice", {**UNIT_ARRANGEMENT, "mode": "tightness", "resolution": 8,
                         "width": 0.3})),
        "lattice ns": (["lattice", "ns", "FILE"], noted,
                       ("lattice", {**UNIT_ARRANGEMENT, "mode": "ns",
                                    "expect_verdict": True})),
        "lattice ns separable": (
            ["lattice", "ns", "FILE"], SEPARABLE_ARRANGEMENT,
            ("lattice", {**SEPARABLE_ARRANGEMENT, "mode": "ns",
                         "expect_verdict": True})),
        "cubes search": (["cubes", "search", "--n", "5", "--objective", "perimeter"],
                         None, ("cubes", {"n": 5, "objective": "perimeter"})),
    }


@pytest.mark.parametrize("case", list(shorthand_cases()))
def test_shorthand_verbs_print_their_scenario_results(tmp_path, capsys, case):
    argv, doc, (kind, params) = shorthand_cases()[case]
    if doc is not None:
        argv = [write_json(tmp_path / "input.json", doc) if a == "FILE" else a
                for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    report, ok = run_scenario({"kind": kind, "parameters": params}, out="-")
    assert captured.err == ""
    assert json.loads(captured.out) == json.loads(json.dumps(report["results"]))
    assert code == (0 if ok else 1)
    assert ok == (case != "lattice ns separable")


def test_bent_chain_traces_each_bend_once(monkeypatch):
    calls = []

    def counted(fam):
        calls.append(fam.n)
        return circumradius(fam)

    circumradius = balls.ball_circumradius
    monkeypatch.setattr(balls, "ball_circumradius", counted)
    path = DEMOS / "bent_chain_stability.json"
    _, ok = run_scenario(path, out="-")
    assert ok
    assert len(calls) == len(load_scenario(path).parameters["deltas"]) == 9


def subcommands(parser, prefix=""):
    """Every subcommand of `parser` by its full name, say "lattice ns"."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[prefix + name] = sub
                found.update(subcommands(sub, prefix + name + " "))
    return found


def test_readme_cli_block_matches_parser():
    """Each `nonsep` line of the README's CLI block names a subcommand of
    the parser, and each --flag it shows exists on that subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parsers = subcommands(cli.build_parser())
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("nonsep ")]
    assert len(lines) >= 12
    for line in lines:
        words = line.split()
        name = words[1]
        if " ".join(words[1:3]) in parsers:
            name = " ".join(words[1:3])
        assert name in parsers, line
        options = parsers[name]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert flag in options, (line, flag)


def json_paths(node, prefix=()):
    """Every key or index path into a JSON tree, the root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


def fuzz_documents():
    """Valid inputs per verb; the fuzz breaks one or two places in each."""
    chain = chain_family_dict()
    return {
        "wns": [chain],
        "ns": [chain],
        "run": [
            stability_scenario(),
            {"kind": "cubes", "seed": 0, "parameters": {"n": 4, "expect_value": 12.0}},
            {"kind": "sigma", "parameters": {"polytope": TRIANGLE, "expect_value": 2.0}},
            {"kind": "covering", "parameters": {"family": chain,
                                                "expect_lambda_le": 1.0}},
            {"kind": "lattice", "out": "x", "parameters": {
                "body": cube(2).to_dict(), "basis": [[1.0, 0.0], [0.0, 1.0]],
                "mode": "ns", "expect_verdict": True}},
        ],
    }


NON_FINITE = (float("nan"), float("inf"), float("-inf"))
WRONG_TYPES = ("text", None, True, [], {}, [1.0, "x"], {"a": 1.0}, 2.5, -3)


# normals inside the first quadrant: the third quadrant recedes
UNBOUNDED_FACETS = {"dim": 2, "facets": [{"a": [math.cos(t), math.sin(t)], "b": 1.0}
                                         for t in np.linspace(0.1, 1.4, 9)]}


def lp_fuzz_documents():
    """Inputs for the verbs that solve tall LPs (through the dual), plus a
    facet list that bounds nothing."""
    rng = np.random.default_rng(5)
    sphere = rng.standard_normal((20, 3))
    ball = Polytope.from_vertices(sphere / np.linalg.norm(sphere, axis=1)[:, None])
    family = HomotheticFamily(regular_polygon(12), np.array([[0.0, 0.0], [1.2, 0.2]]),
                              np.array([1.0, 0.5])).to_dict()
    open_family = {**family, "base": UNBOUNDED_FACETS}
    return {"sigma": [regular_polygon(16).to_dict(), ball.to_dict(), UNBOUNDED_FACETS],
            "lambda": [family, open_family],
            "cover": [family, open_family]}


def lp_verb_argv(verb, path):
    return [verb, path] + (["--mode", "sigma"] if verb == "cover" else [])


@st.composite
def broken_inputs(draw, documents=fuzz_documents):
    docs = documents()
    verb = draw(st.sampled_from(list(docs)))
    doc = copy.deepcopy(draw(st.sampled_from(docs[verb])))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(json_paths(doc))[1:]))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        action = draw(st.sampled_from(["delete", "unknown", "non-finite", "retype"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "unknown" and isinstance(parent[path[-1]], dict):
            parent[path[-1]]["typo_key"] = 1
        elif action == "non-finite":
            parent[path[-1]] = draw(st.sampled_from(NON_FINITE))
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    # a later break may delete the non-finite number again
    non_finite = any(
        isinstance(leaf, float) and not math.isfinite(leaf)
        for leaf in (functools.reduce(operator.getitem, path, doc)
                     for path in json_paths(doc)))
    return verb, doc, non_finite


@settings(max_examples=60, deadline=None, derandomize=True)
@given(broken_inputs())
def test_cli_fuzz_exit_codes(tmp_path_factory, case):
    """Broken family and scenario JSON exits 0, 1 or 2, never a traceback."""
    verb, doc, non_finite = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    argv = [verb, str(path)] + (["--out", "-"] if verb == "run" else [])
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if non_finite:
        assert code == 2


def run_quietly(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("verb", ["sigma", "lambda", "cover"])
def test_lp_verbs_on_tall_and_unbounded_inputs(tmp_path, verb):
    """Tall bodies succeed; a facet list that bounds nothing fails cleanly."""
    for k, doc in enumerate(lp_fuzz_documents()[verb]):
        path = write_json(tmp_path / f"{k}.json", doc)
        code, err = run_quietly(lp_verb_argv(verb, path))
        if doc.get("base", doc) is UNBOUNDED_FACETS:
            assert (code, err) == (1, "failed: unbounded\n"), k
        else:
            assert (code, err) == (0, ""), k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(broken_inputs(lp_fuzz_documents))
def test_cli_fuzz_exit_codes_lp_verbs(tmp_path_factory, case):
    """Broken input to sigma, lambda and cover exits 0, 1 or 2, never a traceback."""
    verb, doc, non_finite = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    code, err = run_quietly(lp_verb_argv(verb, str(path)))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if non_finite:
        assert code == 2


def summand_lattice_fuzz_documents():
    """Inputs for `summand` (a part and a whole, one file each) and for the
    three `lattice` verbs (one arrangement file)."""
    box, hexagon = cube(2).to_dict(), regular_polygon(6).to_dict()
    arrangements = [{"body": box, "basis": [[1.0, 0.0], [0.0, 1.0]]},
                    {"body": hexagon, "basis": [[2.0, 0.0], [1.0, 1.5]]}]
    return {"summand": [{"part": cube(2, half=0.25).to_dict(), "whole": box},
                        {"part": box, "whole": TRIANGLE}],
            "lattice ns": arrangements,
            "lattice tightness": arrangements,
            "lattice mu1w": arrangements}


def summand_lattice_argv(verb, doc, directory):
    """Write the input files of one verb and return its command line."""
    if verb == "summand":
        # a fuzzed-away part or whole is written as JSON null
        return ["summand"] + [write_json(directory / f"{key}.json", doc.get(key))
                              for key in ("part", "whole")]
    options = {"lattice ns": [], "lattice tightness": ["--resolution", "8"],
               "lattice mu1w": ["--t", "0.4,0.6"]}[verb]
    return verb.split() + [write_json(directory / "arrangement.json", doc)] + options


@pytest.mark.parametrize("verb", list(summand_lattice_fuzz_documents()))
def test_summand_and_lattice_verbs_on_valid_inputs(tmp_path, verb):
    for k, doc in enumerate(summand_lattice_fuzz_documents()[verb]):
        code, err = run_quietly(summand_lattice_argv(verb, doc, tmp_path))
        assert code in (0, 1) and err == "", (k, code, err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(broken_inputs(summand_lattice_fuzz_documents))
def test_cli_fuzz_exit_codes_summand_and_lattice(tmp_path_factory, case):
    """Broken input to summand and the lattice verbs exits 0, 1 or 2, never a
    traceback, and 2 on any non-finite number."""
    verb, doc, non_finite = case
    argv = summand_lattice_argv(verb, doc, tmp_path_factory.mktemp("fuzz"))
    code, err = run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if non_finite:
        assert code == 2
