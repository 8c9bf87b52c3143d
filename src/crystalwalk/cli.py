"""Command-line interface.

Subcommands: density, closed-form, floquet-check, simulate, classical,
compare. Output is deterministic: identical invocations produce identical
bytes. Exit status is 0 on success, 2 for argument or input errors and for
an edge list or ``-o`` file that cannot be read or written, 1 when a
numeric tolerance or invariant fails; each failure prints one stderr line,
``error: ...`` or ``numeric failure: ...``, argparse's errors included.

The argument parser is built once, at import, and every call of ``main``
in the process parses with it; a call's arguments live in the namespace it
returns, so nothing carries over from one call to the next.

Each subcommand's handler returns its payload and an optional summary line;
``main`` writes them, through ``_emit``, the one place output is written.
A handler's graphs and arrays are thus freed before the write begins.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Callable, NoReturn, Sequence

from . import classical as classical_mod
from . import closed_forms, dynamics, floquet, serialize, spectral
from .graphs import (
    FAMILIES,
    EdgeListError,
    FiniteGraph,
    ParameterError,
    ProductKind,
    _FAMILY_PARAMS,
    _int,
    build_named,
    from_edge_list,
    honeycomb_spec,
    triangular_spec,
    zd_product_spec,
)
from .spectral import NumericalError


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as every other input error is reported: one ``error:`` line, exit 2.

    A word that reads as a negative float, exponent and ``-inf`` included, is
    a flag's value rather than an unknown flag, so that it reaches the
    flag's own bound check; no option string of the parser reads as one.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)

    def error(self, message: str) -> NoReturn:
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crystalwalk",
        description="Limiting distributions of time-averaged quantum walks on periodic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=spectral.DEFAULT_CLUSTER_TOL,
                       help="eigenvalue clustering tolerance (default 1e-8)")

    # A handler returns its payload and summary line; edge_list names what the subcommand's --edge-list file holds.
    def add_command(name: str, run: Callable[[argparse.Namespace], tuple[str, str | None]], summary: str,
                    families: Sequence[str] = FAMILIES, edge_list: str | None = None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--family", choices=list(families), help="named graph family")
        p.add_argument("--nu", type=int, help="vertex count (cycle, path, complete) or leaf count (star)")
        p.add_argument("--m", type=int, help="hypercube dimension, or first part of complete_bipartite")
        p.add_argument("--n", type=int, help="second part of complete_bipartite")
        if edge_list is not None:
            p.add_argument("--edge-list", metavar="FILE", help=f"read the {edge_list} from an edge-list file")
        return p

    p = add_command("density", _cmd_density, "numeric limiting density of a finite graph", edge_list="graph")
    p.add_argument("--periodic", choices=["honeycomb"], help="grid quadrature for a built-in periodic graph")
    p.add_argument("--N", type=int, default=64, help="grid points per axis for --periodic (default 64)")
    add_tol(p)
    p.add_argument("--csv", action="store_true", help="emit a p,q,d table instead of JSON")

    add_command("closed-form", _cmd_closed_form, "closed-form density table for a solvable family",
                families=closed_forms.CLOSED_FORM_FAMILIES)

    p = add_command("floquet-check", _cmd_floquet_check, "band collision scan of a lattice product")
    p.add_argument("--product", choices=sorted(k.value for k in ProductKind), default="cartesian",
                   help="product rule (default cartesian)")
    p.add_argument("--base", choices=["zd", "triangular"], default="zd",
                   help="one-vertex periodic base (default zd)")
    p.add_argument("--d", type=int, help="base dimension: zd takes any (default 1), triangular only 2")
    p.add_argument("--N", type=int, default=64, help="grid points per axis (default 64)")
    p.add_argument("--delta", type=float, default=floquet.DEFAULT_COLLISION_DELTA,
                   help="collision width (default 1e-9)")
    add_tol(p)

    p = add_command("simulate", _cmd_simulate, "time-averaged walk on a torus product", edge_list="finite factor")
    p.add_argument("--d", type=int, default=1, help="torus dimension (default 1)")
    p.add_argument("--N", type=int, default=64, help="cells per axis (default 64)")
    p.add_argument("--T", type=float, default=1e4, help="averaging horizon <= 1e300, or inf (default 1e4)")
    p.add_argument("--start-cell", type=int, nargs="*", default=None,
                   help="start cell coordinates (default origin)")
    p.add_argument("--start-p", type=int, default=0, help="start vertex in the cell (default 0)")
    add_tol(p)

    p = add_command("classical", _cmd_classical, "classical random-walk report", edge_list="graph")
    p.add_argument("--start", type=int, help="start vertex for iteration")
    p.add_argument("--steps", type=int, help="number of steps to iterate")
    p.add_argument("--lazy", action="store_true", help="use the lazy walk (I + P)/2")

    p = add_command("compare", _cmd_compare, "quantum limiting row vs classical stationary law", edge_list="graph")
    p.add_argument("--start-p", type=int, default=0, help="quantum start vertex (default 0)")
    add_tol(p)

    for p in sub.choices.values():  # -o comes last on every subcommand
        p.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")

    return parser


def _family_params(args: argparse.Namespace) -> tuple[str, list[int]]:
    family = args.family
    if family is None:
        raise ParameterError("a --family is required here")
    names = [name for name, _ in _FAMILY_PARAMS[family]]
    params = [getattr(args, name) for name in names]
    if None in params:
        raise ParameterError(f"family {family!r} requires " + " and ".join(f"--{name}" for name in names))
    return family, params


def _resolve_graph(args: argparse.Namespace) -> FiniteGraph:
    if args.edge_list is not None:
        if args.family is not None:
            raise ParameterError("give either --family or --edge-list, not both")
        try:
            with open(args.edge_list, encoding="utf-8") as fh:
                return from_edge_list(fh.read().removeprefix("\ufeff"))  # a leading byte-order mark is skipped
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"cannot read edge list: {exc}") from exc
    return build_named(*_family_params(args))


def _emit(text: str, summary: str | None, output: str | None) -> None:
    # With -o the summary goes to stdout; otherwise it must not pollute the
    # machine-readable stream, so it goes to stderr.
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write output: {exc}") from exc
        if summary is not None:
            print(summary)
    else:
        sys.stdout.write(text)
        if summary is not None:
            print(summary, file=sys.stderr)


def _cmd_density(args: argparse.Namespace) -> tuple[str, None]:
    if args.periodic is not None:
        if args.family is not None or args.edge_list is not None:
            raise ParameterError("--periodic excludes --family and --edge-list")
        density = floquet.general_density(honeycomb_spec(), args.N, tol=args.tol)
        labels = tuple(str(q) for q in range(density.nu))
    else:
        graph = _resolve_graph(args)
        density = spectral.limiting_density(graph, tol=args.tol)
        labels = graph.vertex_labels()
        del graph  # frees the cached n x n adjacency before the payload is built
    text = serialize.density_csv(density.values, labels) if args.csv else serialize.density_json(density)
    return text, None


def _cmd_closed_form(args: argparse.Namespace) -> tuple[str, None]:
    family, params = _family_params(args)
    graph = build_named(family, params)
    density = closed_forms.closed_form_density(family, params, graph)
    return serialize.density_csv(density.values, graph.vertex_labels()), None


def _cmd_floquet_check(args: argparse.Namespace) -> tuple[str, None]:
    d = 1 if args.d is None else args.d
    base = triangular_spec() if args.base == "triangular" else zd_product_spec(FiniteGraph(1), d)
    if args.d not in (None, base.d):
        raise ParameterError(f"the {args.base} base has d = {base.d}, got --d {args.d}")
    graph = build_named(*_family_params(args))
    bands = floquet.product_spec(base, graph, ProductKind(args.product))
    report = floquet.floquet_condition_fraction(bands, args.N, delta=args.delta, tol=args.tol)
    return serialize.scan_report_json(report), None


def _cmd_simulate(args: argparse.Namespace) -> tuple[str, str]:
    graph = _resolve_graph(args)
    op = dynamics.build_torus(graph, args.d, args.N, tol=args.tol)
    cell = tuple(args.start_cell) if args.start_cell else (0,) * args.d
    start = (cell, args.start_p)
    if args.T == float("inf"):
        dist = dynamics.infinite_time_averaged(op, start, cluster_tol=args.tol)
    else:
        dist = dynamics.time_averaged(op, start, args.T)
    tv = dynamics.total_variation(dist.values, dynamics.limit_prediction(op, start))
    summary = f"tv_to_prediction = {serialize.format_float(tv, serialize.TABLE_DIGITS)}"
    return serialize.distribution_csv(dist), summary


def _cmd_classical(args: argparse.Namespace) -> tuple[str, None]:
    graph = _resolve_graph(args)
    report = classical_mod.walk_report(graph, start=args.start, steps=args.steps, lazy=args.lazy)
    return serialize.walk_report_json(report), None


def _cmd_compare(args: argparse.Namespace) -> tuple[str, None]:
    graph = _resolve_graph(args)
    _int(args.start_p, "start vertex", 0, graph.nu - 1)
    density = spectral.limiting_density(graph, tol=args.tol)
    stationary = classical_mod.stationary_distribution(graph)
    return serialize.comparison_csv(graph.vertex_labels(), density.values[args.start_p], stationary), None


# Built once per process: parse_args leaves the parser as it was, so every
# in-process call of main reuses it.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        _emit(*args.run(args), args.output)  # the handler's frame, and the arrays it held, are gone by now
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParameterError, EdgeListError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
