"""Command-line front end.

Commands: ``catalog list``, ``classify``, ``invariants``, ``verify``,
``search``, ``scan``.  Manifolds come from the catalog by name or from a
JSON file; metrics and pullback matrices from JSON files.  Complex values
are written ``a+bi`` with no spaces.

Exit codes: 0 success, 1 verification failure, 2 invalid input (or an
output pipe closed by its reader).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import analysis, catalog, jsonio, operators, search
from .complex_structure import InvariantComplexManifold, PullbackMap
from .errors import InputError, StarsplitError
from .exprs import parse_complex
from .metric import DEFAULT_TOL, HermitianMetric

# The dimension bound.  The largest array a command allocates is one dense
# complex matrix on the monomials of a single slot: for ``verify`` an
# operator on the middle (n//2, n//2)-slot, for every other command the
# frame conversion of the (n-2, n-2)-slot.  A manifold, from a file or the
# catalog, whose dimension would make that array larger than the limit is
# refused before anything is built: ``verify`` takes n <= 6, the other
# commands n <= 8.
_ARRAY_LIMIT_BYTES = 16 << 20


def _largest_array_bytes(command: str, n: int) -> int:
    monomials = math.comb(n, n // 2 if command == "verify" else 2) ** 2
    return 16 * monomials ** 2


def dimension_bound(command: str) -> int:
    """The largest dimension ``command`` accepts."""
    n = 1
    while _largest_array_bytes(command, n + 1) <= _ARRAY_LIMIT_BYTES:
        n += 1
    return n


def _check_dimension(dim, command: str) -> None:
    """Refuse an integer ``dim`` above the bound of ``command``."""
    bound = dimension_bound(command)
    if isinstance(dim, int) and dim > bound:
        raise InputError(f"dimension {dim} is above the bound {bound} for {command}: its "
                         f"largest array would exceed {_ARRAY_LIMIT_BYTES >> 20} MiB")


def _read_manifold(path: str, command: str) -> InvariantComplexManifold:
    """The manifold of a JSON file, refused before it is built when its
    dimension is above the bound of ``command``."""
    data = jsonio.read_file(path, "manifold file")
    _check_dimension(data.get("dim") if isinstance(data, dict) else None, command)
    return InvariantComplexManifold.from_json_dict(data)


def _split_params(items: Optional[List[str]]) -> Tuple[Dict[str, complex], List[str]]:
    """--param entries: 'name=value' pairs become bindings, bare names are
    returned separately (the scan target)."""
    bindings: Dict[str, complex] = {}
    bare: List[str] = []
    for item in items or []:
        if "=" in item:
            name, _, value = item.partition("=")
            if not name:
                raise InputError(f"bad --param {item!r}")
            bindings[name] = parse_complex(value)
        else:
            bare.append(item)
    return bindings, bare


def _bindings(args) -> Dict[str, complex]:
    """--param entries of a command that takes no scan target."""
    bindings, bare = _split_params(args.param)
    if bare:
        raise InputError(f"--param needs name=value here, got {bare[0]!r}")
    return bindings


def _resolve_manifold(args) -> Tuple[InvariantComplexManifold, HermitianMetric, dict]:
    """--manifold (catalog name or JSON file path) with its --param bindings
    -> validated manifold, default metric, expectations (empty for file
    manifolds)."""
    source, params, tol = args.manifold, _bindings(args), args.tol
    if source.endswith(".json") or os.path.exists(source):
        M = _read_manifold(source, args.command)
        if params:
            M = M.bind(**params)
        M.validate(tol)
        return M, HermitianMetric.identity(M.dim), {}
    _check_dimension(catalog.dimension(source), args.command)
    return catalog.get(source, params, tol=tol)


def _resolve_metric(path: Optional[str], default: HermitianMetric, n: int) -> HermitianMetric:
    if path is None:
        return default
    g = HermitianMetric.from_json_dict(jsonio.read_file(path, "metric file"))
    if g.dim != n:
        raise InputError(f"metric dimension {g.dim} does not match manifold dimension {n}")
    return g


def _flag_line(name: str, flag) -> str:
    mark = "yes" if flag.holds else "no "
    return f"  {name:24s} {mark}  (defect {flag.defect:.3e})"


def _print_report(rep: analysis.MetricReport) -> None:
    print(f"manifold: {rep.manifold} (n={rep.dim}), metric: {rep.metric}")
    print(f"f = {rep.f:.12g}")
    print("eigenvalues:", ", ".join(f"{v:.12g}" for v in rep.eigenvalues))
    for name in analysis.FLAG_ORDER:
        print(_flag_line(name, rep.flags[name]))
    print(f"  |del omega|^2 = {rep.del_omega_norm_sq:.12g}, int f = {rep.integral_f:.12g}")
    for note in rep.notes:
        print(f"note: {note}")


def cmd_classify(args) -> int:
    M, default_metric, expectations = _resolve_manifold(args)
    g = _resolve_metric(args.metric, default_metric, M.dim)
    notes = list(expectations.get("notes", []))

    if args.phi is not None:
        phi = PullbackMap.from_json_dict(jsonio.read_file(args.phi, "pullback file"))
        gamma = _resolve_metric(args.gamma, g, M.dim)
        triple = analysis.triple_analysis(M, phi, g, gamma, tol=args.tol)
        if args.json:
            print(jsonio.dumps({"triple": triple.to_json_dict()}))
        else:
            pr = triple.pair
            print(f"triple on {M.name}: f = {pr.f:.12g}, "
                  f"pluriclosed: {pr.pluriclosed.holds}, closed: {pr.closed.holds}")
            print(f"  structure-compatible: {triple.structure_compatible}, "
                  f"gamma-isometric: {triple.gamma_isometric}")
            if triple.rho_pullback_residual is not None:
                print(f"  pullback-consistency residual: {triple.rho_pullback_residual:.3e}")
        return 0

    if args.gamma is not None:
        gamma = _resolve_metric(args.gamma, g, M.dim)
        pair = analysis.pair_analysis(M, g, gamma, tol=args.tol)
        if args.json:
            print(jsonio.dumps({"pair": pair.to_json_dict()}))
        else:
            print(f"pair on {M.name}: f = {pair.f:.12g}, "
                  f"pluriclosed: {pair.pluriclosed.holds}, closed: {pair.closed.holds}")
        return 0

    rep = analysis.classify(M, g, tol=args.tol, notes=notes)
    if args.json:
        print(jsonio.dumps({"report": rep.to_json_dict()}))
    else:
        _print_report(rep)
    return 0


def cmd_invariants(args) -> int:
    M, default_metric, expectations = _resolve_manifold(args)
    g = _resolve_metric(args.metric, default_metric, M.dim)
    rep = analysis.classify(M, g, tol=args.tol, notes=list(expectations.get("notes", [])))
    if args.json:
        full = rep.to_json_dict()
        print(jsonio.dumps({key: full[key] for key in
                            ("manifold", "f", "eigenvalues", "rho", "star_rho", "norms", "notes")}))
    else:
        print(f"manifold: {rep.manifold} (n={rep.dim}), metric: {rep.metric}")
        print(f"f = {rep.f:.12g}")
        print("eigenvalues:", ", ".join(f"{v:.12g}" for v in rep.eigenvalues))
        print(f"|del omega|^2 = {rep.del_omega_norm_sq:.12g}, int f = {rep.integral_f:.12g}")
        for note in rep.notes:
            print(f"note: {note}")
    return 0


def cmd_verify(args) -> int:
    M, default_metric, _ = _resolve_manifold(args)
    g = _resolve_metric(args.metric, default_metric, M.dim)
    gamma = _resolve_metric(args.gamma, g, M.dim)

    reports = []
    if args.suite in ("commutation", "all"):
        reports.append(operators.verify_commutation_suite(M, g, tol=args.tol))
    if args.suite in ("operators", "all"):
        reports.append(operators.verify_operator_identities(
            M, g, gamma, tol=args.tol, seed=args.seed))

    all_ok = all(rep.all_passed for rep in reports)
    if args.json:
        print(jsonio.dumps({"suites": [rep.to_json_list() for rep in reports],
                            "all_passed": all_ok}))
    else:
        for rep in reports:
            print(f"suite on {rep.manifold} [{rep.metric}]:")
            for e in rep.entries:
                if e.passed is None:
                    print(f"  {e.identity:44s} skip   ({e.skipped_reason})")
                else:
                    word = "pass" if e.passed else "FAIL"
                    print(f"  {e.identity:44s} {word}   residual {e.residual:.3e}")
            print(f"  -> max residual {rep.max_residual():.3e}")
    return 0 if all_ok else 1


def cmd_search(args) -> int:
    M, _, _ = _resolve_manifold(args)
    family = search.family_by_name(args.family, M.dim)
    result = search.search_pss(M, family, budget=args.budget, seed=args.seed, tol=args.tol)
    if args.json:
        print(jsonio.dumps(result.to_json_dict()))
    else:
        print(f"best defect {result.best_defect:.6e} after {result.evaluations} evaluations")
        print("best params:", ", ".join(f"{v:.12g}" for v in result.best_params))
        print(f"f at best: {result.report.f:.12g}; "
              f"pss: {result.report.flags['pluriclosed_star_split'].holds}")
        print(f"f signs observed: {result.f_signs_observed} "
              f"(sign change: {result.f_sign_changed})")
    return 0


def cmd_scan(args) -> int:
    bindings, bare = _split_params(args.param)
    if len(bare) != 1:
        raise InputError("scan needs exactly one bare --param NAME as the scan target")
    target = bare[0]
    source = args.manifold
    values = [parse_complex(v) for v in args.values.split(",")] if args.values else []

    if source.endswith(".json") or os.path.exists(source):
        M = _read_manifold(source, args.command)
        if bindings:
            M = M.bind(**bindings)
        metric = HermitianMetric.identity(M.dim)
    else:
        _check_dimension(catalog.dimension(source), args.command)
        M, metric, _ = catalog.get(source, bindings, tol=args.tol)
    metric = _resolve_metric(args.metric, metric, M.dim)

    rows = search.scan(M, target, values, metric=metric, tol=args.tol)
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "csv":
        sys.stdout.write(search.scan_rows_to_csv(rows))
    elif fmt == "json":
        print(jsonio.dumps({"param": target, "rows": search.scan_rows_to_json(rows)}))
    else:
        for row in rows:
            flags = " ".join(name for name in analysis.FLAG_ORDER if row.flags.get(name))
            print(f"{target} = {row.value.real:g}{row.value.imag:+g}i: "
                  f"f = {row.f:.12g}; eigenvalues "
                  + ", ".join(f"{v:.6g}" for v in row.eigenvalues)
                  + (f"; holds: {flags}" if flags else ""))
    return 0


def cmd_catalog(args) -> int:
    if args.action != "list":
        raise InputError(f"unknown catalog action {args.action!r}")
    for name in catalog.list_names():
        print(f"{name:18s} {catalog.describe(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsplit",
        description="invariant Hermitian metric invariants, classification and identity checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, metric=True):
        p.add_argument("--manifold", required=True,
                       help="catalog name or manifold JSON file")
        p.add_argument("--param", action="append", default=[],
                       help="parameter binding name=value (repeatable); complex as a+bi")
        if metric:
            p.add_argument("--metric", help="metric JSON file (default: catalog/identity)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("classify", help="classification report for a metric")
    common(p)
    p.add_argument("--gamma", help="second metric JSON file: report on the pair")
    p.add_argument("--phi", help="pullback matrix JSON file: report on the triple")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invariants", help="f, spectrum and the division forms")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="run identity suites")
    common(p)
    p.add_argument("--suite", choices=["commutation", "operators", "all"], default="all")
    p.add_argument("--gamma", help="second metric JSON file for the operator suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="minimise the star-split defect over a family")
    common(p, metric=False)
    p.add_argument("--family", choices=["diagonal", "hermitian"], default="diagonal")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scan", help="classify along one parameter")
    common(p)
    p.add_argument("--values", required=True, help="comma-separated complex values")
    p.add_argument("--format", choices=["text", "json", "csv"])
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", DEFAULT_TOL)
        if not 0 < tol < math.inf:
            raise InputError(f"--tol must be a positive finite number, got {tol}")
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed before the output was written", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarsplitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
