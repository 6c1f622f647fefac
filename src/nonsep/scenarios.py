"""Reproducible experiment runs: a JSON scenario in, report plus CSV out.

A scenario names one of five experiment kinds, its parameters, a seed and
an output stem.  Running it dispatches to the owning module, evaluates the
kind's built-in checks (plus any expectations embedded in the parameters),
and writes `<stem>.report.json` and `<stem>.csv`.  Runs are deterministic:
the same scenario file always produces byte-identical CSV.  No kind draws
at random, so the seed is only carried into the report.  The CLI verbs
`cover`, `lambda`, `sigma`, `lattice tightness|ns` and `cubes search` run
their kind through `run_scenario` and print its results.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tolerances
from .errors import InputError

_EXPECT_SLACK = 1e-9  # default slack of `expect_value`, and of `expect_contains`
_ROUTE_GAP = 1e-6  # sigma: the routes may differ by this; `expect_tol` default
_KINDS = ("stability", "cubes", "lattice", "covering", "sigma")


@dataclass(frozen=True)
class Scenario:
    kind: str
    parameters: dict
    seed: int
    out: str | None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _keys(p: dict, kind: str, required=(), optional=()):
    """Check the parameter names: every required one, nothing unknown."""
    for key in required:
        if key not in p:
            raise InputError(f"{kind} scenario needs parameter {key!r}")
    for key in p:
        if key not in required and key not in optional:
            raise InputError(f"{kind} scenario has unknown parameter {key!r}")


def _numbers(p: dict, kind: str, *keys):
    for key in keys:
        if key in p and not _is_number(p[key]):
            raise InputError(f"{kind} parameter {key!r} must be a number")


def _enum(p: dict, key: str, choices, message: str):
    if p.get(key, choices[0]) not in choices:
        raise InputError(message)
    return p.get(key, choices[0])


_EXPECT_VALUE = ("expect_value", "expect_tol")


def _validate_stability(p: dict):
    _keys(p, "stability", ("taus", "deltas"))
    taus, deltas = p["taus"], p["deltas"]
    if not isinstance(taus, list) or len(taus) < 3 or not all(map(_is_number, taus)):
        raise InputError("stability taus must list at least three radii, as numbers")
    if (not isinstance(deltas, list) or len(deltas) < 5
            or not all(map(_is_number, deltas))):
        raise InputError("stability deltas must list at least five bends, as numbers")


def _validate_cubes(p: dict):
    _keys(p, "cubes", ("n",), ("objective", *_EXPECT_VALUE))
    if not _is_int(p["n"]):
        raise InputError("cubes n must be an integer")
    _enum(p, "objective", ("area", "perimeter"),
          "cubes objective must be area or perimeter")
    _numbers(p, "cubes", *_EXPECT_VALUE)


_LATTICE_MODES = {
    "tightness": ("resolution", "width", "expect_contains"),
    "ns": ("expect_verdict",),
    "density": _EXPECT_VALUE,
}


def _validate_lattice(p: dict):
    mode = _enum(p, "mode", tuple(_LATTICE_MODES),
                 "lattice mode must be tightness, ns or density")
    _keys(p, "lattice", ("body", "basis"), ("mode", *_LATTICE_MODES[mode]))
    if not _is_int(p.get("resolution", 0)):
        raise InputError("lattice resolution must be an integer")
    if p.get("width") is not None:
        _numbers(p, "lattice", "width")
    _numbers(p, "lattice", "expect_contains", *_EXPECT_VALUE)


def _validate_covering(p: dict):
    _keys(p, "covering", ("family",), ("mode", "expect_lambda_le"))
    _enum(p, "mode", ("weighted", "sigma", "lambda"),
          "covering mode must be weighted, sigma or lambda")
    _numbers(p, "covering", "expect_lambda_le")


def _validate_sigma(p: dict):
    _keys(p, "sigma", ("polytope",), _EXPECT_VALUE)
    _numbers(p, "sigma", *_EXPECT_VALUE)


_VALIDATORS = {
    "stability": _validate_stability,
    "cubes": _validate_cubes,
    "lattice": _validate_lattice,
    "covering": _validate_covering,
    "sigma": _validate_sigma,
}


def scenario_from_dict(obj) -> Scenario:
    if not isinstance(obj, dict):
        raise InputError("scenario must be a JSON object")
    for key in obj:
        if key not in ("kind", "parameters", "seed", "out"):
            raise InputError(f"scenario has unknown key {key!r}")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise InputError(f"unknown scenario kind {kind!r}")
    params = obj.get("parameters")
    if not isinstance(params, dict):
        raise InputError("scenario needs a parameters object")
    seed = obj.get("seed", 0)
    if not _is_int(seed):
        raise InputError("scenario seed must be an integer")
    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        raise InputError("scenario out must be a path string")
    _VALIDATORS[kind](params)
    return Scenario(kind, dict(params), seed, out)


def _non_finite(text):
    raise InputError(f"JSON number {text} is not finite")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        _non_finite(text)
    return value


def _float_sized_int(text):
    # float(text) is infinite from 310 digits on, long before int(text)
    # refuses a string of more than 4,300
    if not math.isfinite(float(text)):
        raise InputError(f"JSON integer of {len(text.lstrip('-'))} digits "
                         "is too large for a float")
    return int(text)


def read_json(path, what):
    """Parse a JSON file; NaN, Infinity and numbers too large for a float,
    integers too, are bad input."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_non_finite,
                             parse_float=_finite_float,
                             parse_int=_float_sized_int)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"))


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _expect_value(checks: list, params: dict, value: float,
                  default_tol: float = _EXPECT_SLACK):
    if "expect_value" in params:
        want = float(params["expect_value"])
        tol = float(params.get("expect_tol", default_tol))
        checks.append(_check(
            "expected value", abs(value - want) <= tol,
            f"got {value!r}, want {want!r} within {tol:g}"))


def _run_stability(params: dict):
    from .balls import stability_exponent, stability_trace

    taus = [float(t) for t in params["taus"]]
    deltas = [float(d) for d in params["deltas"]]
    rows = stability_trace(taus, deltas)
    dev_slope = stability_exponent(rows)
    usable = [(d, e) for d, e, _ in rows if d > 0 and e > tolerances.NO_SIGNAL]
    eps_slope = float(np.polyfit(np.log([d for d, _ in usable]),
                                 np.log([e for _, e in usable]), 1)[0])
    checks = [
        _check("deviation slope near one half", 0.4 <= dev_slope <= 0.6,
               f"fitted {dev_slope:.4f}, band [0.4, 0.6]"),
        _check("deficit slope near two", 1.9 <= eps_slope <= 2.1,
               f"fitted {eps_slope:.4f}, band [1.9, 2.1]"),
    ]
    results = {"dev_vs_deficit_slope": dev_slope,
               "deficit_vs_delta_slope": eps_slope,
               "rows": len(rows)}
    return results, checks, ["delta", "deficit", "deviation"], rows


def _run_cubes(params: dict):
    from .cubes import bounding_box, cube_is_wns, exhaustive_max

    n = params["n"]
    objective = params.get("objective", "area")
    fam, value = exhaustive_max(n, objective)
    lo, hi = bounding_box(fam)
    box_ok = lo.tolist() == [0, 0] and hi.tolist() == [n, n]
    checks = [_check("maximizer is axis-non-separable", cube_is_wns(fam),
                     "per-axis slab contiguity"),
              _check("maximizer fills the n-box", box_ok,
                     f"box [{lo.tolist()}, {hi.tolist()}]")]
    _expect_value(checks, params, value)
    results = {"objective": objective, "value": value,
               "offsets": fam.offsets.tolist(),
               "box": [lo.tolist(), hi.tolist()]}
    rows = [(i, int(x), int(y)) for i, (x, y) in enumerate(fam.offsets.tolist())]
    return results, checks, ["i", "x", "y"], rows


def _run_lattice(params: dict):
    from .lattice import (arrangement_from_dict, density, is_ns_lattice,
                          tightness)

    arr = arrangement_from_dict(params)
    mode = params.get("mode", "tightness")
    checks: list[dict] = []
    if mode == "tightness":
        res = int(params.get("resolution", 48))
        width = params.get("width")
        lo, hi = tightness(arr, resolution=res,
                           width=None if width is None else float(width))
        lo, hi = float(lo), float(hi)
        if "expect_contains" in params:
            want = float(params["expect_contains"])
            checks.append(_check(
                "bracket holds expected tightness",
                lo - _EXPECT_SLACK <= want <= hi + _EXPECT_SLACK,
                f"bracket [{lo:.6g}, {hi:.6g}], want {want!r}"))
        results = {"mode": mode, "lower": lo, "upper": hi,
                   "width": hi - lo, "resolution": res}
        rows = [(lo, hi)]
        header = ["lower", "upper"]
    elif mode == "ns":
        verdict, lam1 = is_ns_lattice(arr)
        lam1 = float(lam1)
        if "expect_verdict" in params:
            checks.append(_check(
                "separability verdict as expected",
                bool(params["expect_verdict"]) == verdict,
                f"verdict {verdict}, shortest dual gauge {lam1:.6g}"))
        results = {"mode": mode, "non_separable": verdict, "lambda1": lam1}
        rows = [(lam1, int(verdict))]
        header = ["lambda1", "non_separable"]
    else:
        value = float(density(arr))
        _expect_value(checks, params, value)
        results = {"mode": mode, "density": value}
        rows = [(value,)]
        header = ["density"]
    return results, checks, header, rows


def _run_covering(params: dict):
    from .covering import lambda_min, sigma_cover, weighted_cover
    from .family import family_from_dict

    fam = family_from_dict(params["family"])
    mode = params.get("mode", "weighted")
    op = {"weighted": weighted_cover, "sigma": sigma_cover,
          "lambda": lambda_min}[mode]
    res = op(fam)
    checks = [_check("cover certified", res.certified,
                     f"lambda {res.lam!r} at t {np.asarray(res.t).tolist()}")]
    if "expect_lambda_le" in params:
        bound = float(params["expect_lambda_le"])
        checks.append(_check("lambda within bound",
                             res.lam <= bound + tolerances.LAMBDA_ONE,
                             f"lambda {res.lam!r} <= {bound!r}"))
    results = {"mode": mode, **res.to_dict()}
    header = ["i", "tau"] + [f"x{k}" for k in range(fam.dim)]
    rows = [(i, float(fam.ratios[i]), *map(float, fam.translations[i]))
            for i in range(fam.n)]
    return results, checks, header, rows


def _run_sigma(params: dict):
    from .asymmetry import sigma_bisection, sigma_lp
    from .polytope import polytope_from_dict

    p = polytope_from_dict(params["polytope"])
    by_lp = sigma_lp(p)
    by_bisect = sigma_bisection(p)
    gap = abs(by_lp.sigma - by_bisect.sigma)
    checks = [_check("two routes agree", gap <= _ROUTE_GAP,
                     f"lp {by_lp.sigma!r} vs bisection {by_bisect.sigma!r}")]
    _expect_value(checks, params, by_lp.sigma, default_tol=_ROUTE_GAP)
    results = {"sigma": by_lp.sigma, "center": by_lp.center.tolist(),
               "sigma_bisection": by_bisect.sigma, "route_gap": gap}
    rows = [("lp", by_lp.sigma), ("bisection", by_bisect.sigma)]
    return results, checks, ["method", "sigma"], rows


_RUNNERS = {
    "stability": _run_stability,
    "cubes": _run_cubes,
    "lattice": _run_lattice,
    "covering": _run_covering,
    "sigma": _run_sigma,
}


def _cell(x):
    # plain-float repr keeps the CSV byte-stable across numpy versions
    return repr(float(x)) if isinstance(x, float) else x


def run_scenario(source, out=None) -> tuple[dict, bool]:
    """Run a scenario (path, dict or Scenario); returns (report, all passed).

    Writes `<stem>.report.json` and `<stem>.csv`, where the stem is the
    `out` argument, else the scenario's own `out` field (resolved against
    the scenario file's directory), else the scenario path without its
    extension.  Pass out="-" to skip writing files.
    """
    base_dir = Path.cwd()
    default_stem = None
    if isinstance(source, Scenario):
        scenario = source
    elif isinstance(source, dict):
        scenario = scenario_from_dict(source)
    else:
        scenario = load_scenario(source)
        base_dir = Path(source).resolve().parent
        default_stem = Path(source).resolve().with_suffix("")
    results, checks, header, rows = _RUNNERS[scenario.kind](scenario.parameters)
    ok = all(c["passed"] for c in checks)
    report = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "parameters": scenario.parameters,
        "results": results,
        "checks": checks,
        "ok": ok,
    }
    stem = out if out is not None else scenario.out
    if stem is None:
        stem = default_stem
    elif stem != "-":
        stem = Path(stem)
        if not stem.is_absolute():
            stem = base_dir / stem
    if stem is not None and stem != "-":
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{stem}.report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(f"{stem}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(x) for x in row])
    return report, ok
