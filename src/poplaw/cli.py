"""Command-line front end.

Commands take JSON problem files (see README for the schemas), print JSON
results on stdout, and write CSV/SVG plot data on request. Exit codes: 0 on
success, 2 for malformed input or violated invariants, 1 when an enumeration
or an output would exceed a resource bound, 3 when a library self-check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction

from . import jsonio, svg
from .errors import InternalError, InvariantError, PoplawError, ResourceLimitError
from .feasibility import check_feasible
from .measures import Belief, DiscreteMeasure, Prior
from .persuasion import (
    PersuasionInstance,
    SenderUtility,
    grid_concavification,
    persuasion_policy,
)
from .polarization import max_polarization, polarization_bounds, search_max_polarization
from .product import (
    SymmetricProduct,
    binary_marginal,
    curve_sizes,
    product_feasible,
    threshold_curve,
    threshold_denominator,
)
from .rationals import format_decimal, format_rational, parse_rational, require_int
from .structures import expand_scheme, induced_population_law, require_within_bound, simulate, synthesize


def _formatter(args):
    """How rationals become text: "p/q" (ints when integral), or `--decimal D` digits.

    Every output goes through it once, in `_json_text` and `_csv_text`;
    commands hand over exact values.
    """
    if args.decimal is None:
        return format_rational
    return lambda value: format_decimal(value, args.decimal)


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvariantError(f"cannot read {path}: {exc}") from exc
    return jsonio.loads(text)


def _json_text(payload, args) -> str:
    return jsonio.dumps(payload, _formatter(args))


def _write_outputs(outputs) -> None:
    """Write a command's rendered (path, text) outputs: every file, then stdout's parts.

    Parts for path "-" go to stdout in the command's order. Commands render
    every text before anything is written, so a refused render or an
    unwritable file leaves stdout empty. An unwritable stdout (its reader
    gone, or a full disk) is refused like an unwritable file.
    """
    for path, text in outputs:
        if path == "-":
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvariantError(f"cannot write {path}: {exc}") from exc
    try:
        for path, text in outputs:
            if path == "-":
                sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # what is still buffered goes to devnull, so the exit-time flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InvariantError(f"cannot write -: {exc}") from exc


def _csv_text(header, rows, args) -> str:
    fmt = _formatter(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(v) if type(v) is Fraction else v for v in row] for row in rows)
    return buf.getvalue()


def _cmd_feasible(args):
    verdict = check_feasible(*jsonio.problem_from_json(_read_json(args.input)))
    return [("-", _json_text(jsonio.verdict_to_json(verdict), args))]


def _synthesized(payload):
    """A problem's verdict, and the scheme synthesized from it (None when infeasible)."""
    law, prior = jsonio.problem_from_json(payload)
    verdict = check_feasible(law, prior)
    if not verdict.feasible:
        return verdict, None
    try:
        return verdict, synthesize(law, prior, verdict.decomposition)
    except InvariantError as exc:
        # the decomposition is the library's own, so refusing it is a failed self-check
        raise InternalError(str(exc)) from exc


def _cmd_synthesize(args):
    verdict, scheme = _synthesized(_read_json(args.input))
    out = jsonio.verdict_to_json(verdict)
    if scheme is not None:
        out["scheme"] = jsonio.scheme_to_json(scheme)
    return [("-", _json_text(out, args))]


def _cmd_oracle(args):
    structure = jsonio.structure_from_json(_read_json(args.input))
    law = induced_population_law(structure)
    return [("-", _json_text(jsonio.law_to_json(law), args))]


def _scheme_from_input(payload):
    if isinstance(payload, dict) and "state_laws" in payload:
        return jsonio.scheme_from_json(payload)
    _, scheme = _synthesized(payload)
    if scheme is None:
        raise InvariantError("cannot simulate an infeasible law")
    return scheme


def _cmd_simulate(args):
    scheme = _scheme_from_input(_read_json(args.input))
    estimate = simulate(scheme, args.samples, args.seed, shards=args.shards)
    return [("-", _json_text(jsonio.law_to_json(estimate), args))]


def _cmd_polarize(args):
    if args.n_max is not None and not args.csv:
        raise InvariantError("--n-max needs --csv")
    n_max = args.n if args.n_max is None else require_int(args.n_max, "--n-max")
    if args.csv:
        require_within_bound(n_max, "polarization table", "rows")
    mu = parse_rational(args.mu)
    prior = Prior.binary(mu)
    report = max_polarization(args.n, prior)
    out = {
        "n": args.n,
        "mu": mu,
        "value": report.value,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "structure": jsonio.structure_to_json(report.structure),
    }
    if args.search_denominator is not None:
        best, structure = search_max_polarization(
            args.n, prior, denominator=args.search_denominator
        )
        out["grid_search"] = {
            "denominator": args.search_denominator,
            "best": best,
            "structure": jsonio.structure_to_json(structure),
        }
    outputs = [("-", _json_text(out, args))]
    if args.csv:
        rows = []
        for n in range(1, n_max + 1):
            # the achieved value is the lower end of the bracket
            lower, upper = polarization_bounds(n, prior)
            rows.append((n, lower, upper, lower))
        outputs.append((args.csv, _csv_text(("n", "lower", "upper", "achieved"), rows, args)))
    return outputs


def _cmd_product_check(args):
    prior = Prior.binary(parse_rational(args.mu))
    given = (args.q is not None, args.a is not None, args.b is not None)
    if given not in ((True, False, False), (False, True, True)):
        raise InvariantError("provide either --q or both --a and --b")
    if args.q is not None:
        scalar = jsonio.scalar_measure_from_json(jsonio.loads(args.q))
        marginal = DiscreteMeasure((Belief.binary(v), w) for v, w in scalar.atoms)
    else:
        marginal = binary_marginal(args.mu, args.a, args.b)
    verdict = product_feasible(SymmetricProduct(marginal, args.n), prior)
    return [("-", _json_text(jsonio.verdict_to_json(verdict), args))]


def _cmd_threshold_curve(args):
    # past the row gate, render a number as long as the last, longest row's:
    # an unprintable run is refused at once, without computing that row
    _formatter(args)(Fraction(1, threshold_denominator(curve_sizes(args.n_max)[-1])))
    rows = threshold_curve(args.n_max)
    outputs = [(args.csv, _csv_text(("n", "threshold"), rows, args))]
    if args.svg:
        outputs.append(
            (args.svg, svg.bar_chart(rows, title="feasible low atoms by population size"))
        )
    return outputs


def _parse_utility(expr: str, n: int) -> SenderUtility:
    if expr == "linear":
        return SenderUtility.linear(n)
    if expr.startswith("threshold:"):
        return SenderUtility.step(n, parse_rational(expr.split(":", 1)[1]))
    values = jsonio.loads(expr)
    if not isinstance(values, list):
        raise InvariantError("--u must be 'linear', 'threshold:CUT' or a JSON array")
    if len(values) != n + 1:
        raise InvariantError(f"--u needs n + 1 = {n + 1} grid values, got {len(values)}")
    return SenderUtility(values)


def _cmd_persuade(args):
    utility = _parse_utility(args.u, args.n)
    instance = PersuasionInstance(
        args.n, parse_rational(args.mu), parse_rational(args.tau), utility
    )
    solution = persuasion_policy(instance)
    out = {
        "value": solution.value,
        "adoption_law": jsonio.scalar_measure_to_json(solution.adoption_law),
        "scheme": jsonio.scheme_to_json(solution.scheme),
    }
    outputs = [("-", _json_text(out, args))]
    if args.csv or args.svg:
        grid = [Fraction(i, args.n) for i in range(args.n + 1)]
        cav = [grid_concavification(utility, x)[0] for x in grid]
        if args.csv:
            rows = zip(grid, utility.values, cav)
            outputs.append((args.csv, _csv_text(("grid", "u", "cav"), rows, args)))
        if args.svg:
            chart = svg.point_line_chart(
                list(zip(grid, utility.values)),
                list(zip(grid, cav)),
                title="utility and its grid concavification",
            )
            outputs.append((args.svg, chart))
    return outputs


def _cmd_expand(args):
    scheme = jsonio.scheme_from_json(_read_json(args.input))
    structure = expand_scheme(scheme)
    return [("-", _json_text(jsonio.structure_to_json(structure), args))]


SCHEMA_NOTES = """\
input schemas (rationals: ints, "p/q" strings, or decimal literals, all exact):
  belief     array of state probabilities, e.g. ["1/4", "3/4"]
  empirical  {"n": N, "counts": [{"belief": ..., "count": K}, ...]}
  law        {"n": N, "atoms": [{"empirical": ..., "weight": W}, ...]}
  problem    {"mu": belief, "law": law}            (feasible, synthesize, simulate)
  scheme     {"n": N, "mu": belief, "state_laws": [{"state": S, "law": law}, ...]}
  structure  {"n": N, "m": M, "mu": belief, "signal_sets": [[label, ...], ...],
              "kernel": [{"state": S, "profiles": [{"signals": [...], "prob": P}]}]}
environment: POPLAW_MAX_PROFILES (default 1000000) caps expand's and polarize's
  profiles x agents, the grid search's kernel pairs, product-check's multinomial atoms,
  persuade's utility grid values, polarize's --csv rows and product-threshold-curve's rows.
exit codes: 0 ok, 1 resource bound exceeded, 2 invalid input, 3 internal error.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplaw",
        description="Feasibility, synthesis and design of population posterior-belief laws.",
        epilog=SCHEMA_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasible", help="decide feasibility of {mu, law}")
    p.add_argument("input", help="problem JSON path or - for stdin")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("synthesize", help="decide feasibility and emit an implementing scheme")
    p.add_argument("input")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("oracle", help="enumerate the law induced by an information structure")
    p.add_argument("input")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("expand", help="expand a scheme into an explicit information structure")
    p.add_argument("input")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of a scheme's law")
    p.add_argument("input", help="scheme JSON, or a {mu, law} problem to synthesize first")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="integer in [0, 2**64)")
    p.add_argument("--shards", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("polarize", help="maximal polarization report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True, help="prior probability of state 1")
    p.add_argument("--search-denominator", type=int, default=None,
                   help="also run the exhaustive kernel grid search at this denominator")
    p.add_argument("--csv", default=None, help="write (n, lower, upper, achieved) rows")
    p.add_argument("--n-max", type=int, default=None, help="row range for --csv")
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("product-check", help="feasibility of a symmetric product law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--q", default=None, help="marginal as JSON [{value, weight}, ...]")
    p.add_argument("--a", default=None, help="low belief of a binary marginal")
    p.add_argument("--b", default=None, help="high belief of a binary marginal")
    p.set_defaults(func=_cmd_product_check)

    p = sub.add_parser("product-threshold-curve", help="feasibility thresholds by population size")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--csv", default="-", help="output path or - for stdout")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_threshold_curve)

    p = sub.add_parser("persuade", help="optimal private persuasion of a homogeneous population")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--u", required=True, help="'linear', 'threshold:CUT', or JSON array of n+1 values")
    p.add_argument("--csv", default=None, help="write (grid, u, cav) rows")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_persuade)

    # every command's one --decimal, added last: each help text lists it after the command's own
    for p in sub.choices.values():
        p.add_argument("--decimal", type=int, default=None, metavar="D",
                       help="render rationals as D-digit decimals (display only)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_outputs(args.func(args))
        return 0
    except ResourceLimitError as exc:
        print(f"poplaw: resource limit: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"poplaw: internal error: {exc}", file=sys.stderr)
        return 3
    except PoplawError as exc:
        print(f"poplaw: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
