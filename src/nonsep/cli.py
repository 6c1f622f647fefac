"""Command line front end.

Verbs mirror the library: decision checks (`wns`, `ns`, `summand`), cover
construction (`cover`, `lambda`, `sigma`), lattice diagnostics, the cube
search, and the scenario runner.  Six verbs are shorthands for a scenario
kind: `cover` and `lambda` run `covering`, `sigma` runs `sigma`, `lattice
tightness` and `lattice ns` run `lattice`, and `cubes search` runs `cubes`;
each prints the scenario's results and exits by its checks.  Results print
as JSON (or go to --out); exit status is 0 when the requested property
holds or every scenario check passes, 1 when the run finished but the
property or a check failed (or the reader closed standard output early),
and 2 for invalid input.
"""

from __future__ import annotations

import argparse
import functools
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


def _covering_parameters(args) -> dict:
    return {"family": read_json(args.family, args.family), "mode": args.mode}


def _sigma_parameters(args) -> dict:
    return {"polytope": read_json(args.polytope, args.polytope)}


def _lattice_parameters(args) -> dict:
    doc = read_json(args.arrangement, args.arrangement)
    doc = doc if isinstance(doc, dict) else {}
    params = {key: doc[key] for key in ("body", "basis") if key in doc}
    params["mode"] = args.mode
    if args.mode == "ns":
        params["expect_verdict"] = True
    else:
        params["resolution"] = args.resolution
        if args.width is not None:
            params["width"] = args.width
    return params


def _cubes_parameters(args) -> dict:
    return {"n": args.n, "objective": args.objective}


def _cmd_kind(args) -> int:
    """Run the verb's scenario kind; print its results, exit by its checks."""
    from .scenarios import run_scenario

    report, ok = run_scenario({"kind": args.kind,
                               "parameters": args.parameters(args)}, out="-")
    _emit(args, report["results"])
    return 0 if ok else 1


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


def _cmd_lattice_mu1w(args) -> int:
    from .lattice import weak_covering_minimum_1

    arr = _arrangement(args.arrangement)
    try:
        t_grid = [float(t) for t in args.t.split(",") if t]
    except ValueError:
        t_grid = []
    if not t_grid:
        raise InputError("--t needs a comma-separated list of scales")
    rows = weak_covering_minimum_1(arr.body, arr.lattice, t_grid)
    _emit(args, {"rows": [{"t": t, "hit_fraction": frac, "max_miss": miss}
                          for t, frac, miss in rows]})
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
    p.set_defaults(func=_cmd_kind, kind="covering",
                   parameters=_covering_parameters)

    p = sub.add_parser("lambda", help="smallest covering homothety ratio")
    p.add_argument("family")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kind, kind="covering", mode="lambda",
                   parameters=_covering_parameters)

    p = sub.add_parser("sigma", help="central asymmetry, two routes")
    p.add_argument("polytope")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kind, kind="sigma", parameters=_sigma_parameters)

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
    p.set_defaults(func=_cmd_kind, kind="lattice", mode="tightness",
                   parameters=_lattice_parameters)

    p = lsub.add_parser("ns", help="dual shortest-vector separability check")
    p.add_argument("arrangement")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kind, kind="lattice", mode="ns",
                   parameters=_lattice_parameters)

    p = lsub.add_parser("mu1w", help="facet-parallel hyperplane hit rates")
    p.add_argument("arrangement")
    p.add_argument("--t", required=True,
                   help="comma-separated homothety scales")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattice_mu1w)

    cub = sub.add_parser("cubes", help="integer cube family extremals")
    csub = cub.add_subparsers(dest="cubes_command", required=True)

    p = csub.add_parser("search", help="exhaustive hull maximization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", choices=["area", "perimeter"],
                   default="area")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kind, kind="cubes", parameters=_cubes_parameters)

    p = csub.add_parser("extremal", help="corner-glued configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cubes_extremal)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; it binds the _cmd_* functions as they stand
    # then, so rebinding one later does not reach `main`
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
