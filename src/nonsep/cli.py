"""Command line front end.

Verbs mirror the library: decision checks (`wns`, `ns`, `summand`), cover
construction (`cover`, `lambda`, `sigma`), lattice diagnostics, the cube
search, and the scenario runner.  Results print as JSON (or go to --out);
exit status is 0 when the requested property holds or every scenario check
passes, 1 when the run finished but the property or a check failed (or the
reader closed standard output early), and 2 for invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import GeometryError, InputError
from .scenarios import read_json


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _family(path):
    from .family import family_from_dict

    return family_from_dict(read_json(path, path))


def _polytope(path):
    from .polytope import polytope_from_dict

    return polytope_from_dict(read_json(path, path))


def _arrangement(path):
    from .lattice import arrangement_from_dict

    return arrangement_from_dict(read_json(path, path))


def _cmd_run(args) -> int:
    from .scenarios import run_scenario

    report, ok = run_scenario(args.scenario, out=args.out)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: {check['detail']}")
    return 0 if ok else 1


def _cmd_cover(args) -> int:
    from .covering import sigma_cover, weighted_cover

    fam = _family(args.family)
    res = weighted_cover(fam) if args.mode == "weighted" else sigma_cover(fam)
    _emit(args, {"mode": args.mode, **res.to_dict()})
    return 0 if res.certified else 1


def _cmd_lambda(args) -> int:
    from .covering import lambda_min

    res = lambda_min(_family(args.family))
    _emit(args, res.to_dict())
    return 0 if res.certified else 1


def _cmd_sigma(args) -> int:
    from .asymmetry import sigma_bisection, sigma_lp

    p = _polytope(args.polytope)
    by_lp = sigma_lp(p)
    by_bisect = sigma_bisection(p)
    gap = abs(by_lp.sigma - by_bisect.sigma)
    _emit(args, {**by_lp.to_dict(), "sigma_bisection": by_bisect.sigma,
                 "route_gap": gap})
    return 0 if gap <= args.tol else 1


def _cmd_wns(args) -> int:
    from .family import is_wns, wns_witness_to_dict

    verdict, witness = is_wns(_family(args.family))
    payload = {"wns": verdict}
    if witness is not None:
        payload["witness"] = wns_witness_to_dict(witness)
    _emit(args, payload)
    return 0 if verdict else 1


def _cmd_ns(args) -> int:
    from .family import is_ns

    verdict, witness = is_ns(_family(args.family))
    payload = {"ns": verdict}
    if witness is not None:
        payload["split"] = [list(witness[0]), list(witness[1])]
    _emit(args, payload)
    return 0 if verdict else 1


def _cmd_summand(args) -> int:
    from .covering import is_summand

    ok, direction = is_summand(_polytope(args.part), _polytope(args.whole))
    payload = {"summand": ok}
    if direction is not None:
        payload["failing_edge_direction"] = np.asarray(direction).tolist()
    _emit(args, payload)
    return 0 if ok else 1


def _cmd_lattice_tightness(args) -> int:
    from .lattice import tightness

    lo, hi = tightness(_arrangement(args.arrangement),
                       resolution=args.resolution, width=args.width)
    _emit(args, {"lower": lo, "upper": hi, "width": hi - lo})
    return 0


def _cmd_lattice_ns(args) -> int:
    from .lattice import is_ns_lattice

    verdict, lam1 = is_ns_lattice(_arrangement(args.arrangement))
    _emit(args, {"non_separable": verdict, "lambda1": lam1})
    return 0 if verdict else 1


def _cmd_lattice_mu1w(args) -> int:
    from .lattice import weak_covering_minimum_1

    arr = _arrangement(args.arrangement)
    t_grid = [float(t) for t in args.t.split(",") if t]
    if not t_grid:
        raise InputError("--t needs a comma-separated list of scales")
    rows = weak_covering_minimum_1(arr.body, arr.lattice, t_grid,
                                   seed=args.seed)
    _emit(args, {"rows": [{"t": t, "hit_fraction": frac, "max_miss": miss}
                          for t, frac, miss in rows]})
    return 0


def _cmd_cubes_search(args) -> int:
    from .cubes import bounding_box, exhaustive_max

    fam, value = exhaustive_max(args.n, args.objective)
    lo, hi = bounding_box(fam)
    _emit(args, {"objective": args.objective, "value": value,
                 "offsets": fam.offsets.tolist(),
                 "box": [lo.tolist(), hi.tolist()]})
    return 0


def _cmd_cubes_extremal(args) -> int:
    from .cubes import construct_extremal, hull_metrics

    fam = construct_extremal(args.n)
    area, perimeter = hull_metrics(fam)
    _emit(args, {**fam.to_dict(), "area": area, "perimeter": perimeter})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonsep",
        description="non-separable arrangement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario JSON file")
    p.add_argument("scenario")
    p.add_argument("--out", help="output stem for report and CSV")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("cover", help="construct a certified cover")
    p.add_argument("family")
    p.add_argument("--mode", choices=["weighted", "sigma"], default="weighted")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("lambda", help="smallest covering homothety ratio")
    p.add_argument("family")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("sigma", help="central asymmetry, two routes")
    p.add_argument("polytope")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="allowed disagreement between the routes")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("wns", help="facet-parallel separability check")
    p.add_argument("family")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_wns)

    p = sub.add_parser("ns", help="general separability check")
    p.add_argument("family")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ns)

    p = sub.add_parser("summand", help="does PART slide freely in WHOLE")
    p.add_argument("part")
    p.add_argument("whole")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_summand)

    lat = sub.add_parser("lattice", help="lattice arrangement diagnostics")
    lsub = lat.add_subparsers(dest="lattice_command", required=True)

    p = lsub.add_parser("tightness", help="largest avoiding homothet bracket")
    p.add_argument("arrangement")
    p.add_argument("--resolution", type=int, default=48)
    p.add_argument("--width", type=float, default=None,
                   help="refine until the bracket is this tight")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattice_tightness)

    p = lsub.add_parser("ns", help="dual shortest-vector separability check")
    p.add_argument("arrangement")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattice_ns)

    p = lsub.add_parser("mu1w", help="facet-parallel hyperplane hit rates")
    p.add_argument("arrangement")
    p.add_argument("--t", required=True,
                   help="comma-separated homothety scales")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattice_mu1w)

    cub = sub.add_parser("cubes", help="integer cube family extremals")
    csub = cub.add_subparsers(dest="cubes_command", required=True)

    p = csub.add_parser("search", help="exhaustive hull maximization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", choices=["area", "perimeter"],
                   default="area")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cubes_search)

    p = csub.add_parser("extremal", help="corner-glued configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cubes_extremal)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (say `| head`); send what is still
        # buffered to /dev/null so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
