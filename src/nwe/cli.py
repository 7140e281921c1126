"""Command-line interface.

Commands: info, verify, local, curve, signal, search-measurement.
Exit codes: 0 success/PASS, 1 verification failure, 2 usage or config error.
Commands raise and ``main`` alone maps errors to codes: InconclusiveMembership
prints INCONCLUSIVE on stdout (1); ValueError and SearchSpaceTooLarge print
one ``error:`` line on stderr (2).  The parser rejects, with exit 2,
out-of-range values (polygons above MAX_POLYGON, identities above
MAX_IDENTITY), unknown ensemble ids, --n other than 2, and signal without
exactly one of --polygon and --identity.
The tolerance of info --polygon, verify, signal --polygon and
search-measurement can be set with --eps or the NWE_EPS environment
variable (the flag wins); it must be a finite number in (0, 1).  signal
--identity accepts --eps but reads no tolerance, and rejects --n.  Output
is deterministic: fixed tie-breaking and floats formatted to 10
significant digits.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import catalog, discrimination, quantum, signaling
from .composition import check_complete
from .systems import COMPLETENESS_TOL, DEFAULT_EPS, make_polygon, zero_one_profile

# Largest polygon the CLI builds: info's profiles cost O(N^2), and signal's
# enumeration bound already refuses N above about 447.
MAX_POLYGON = 1000
# Largest identity the CLI builds: --d 1 admits K up to the vertex bound, --d >= 2 only K <= 9.
MAX_IDENTITY = 100
LEADER_NAMES = {"alice": 0, "bob": 1, "charlie": 2, "0": 0, "1": 1, "2": 2}


def _fmt(x) -> str:
    return format(float(x) + 0.0, ".10g")  # + 0.0 turns -0.0 into 0


def _checked(convert, want: str, ok=lambda value: True):
    """argparse type: convert the text and require ok(value), else a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = convert(text)
        except (KeyError, ValueError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return value

    return parse


_EPS = _checked(float, "a finite tolerance in (0, 1)", lambda x: 0.0 < x < 1.0)
_POSITIVE = _checked(int, "an integer >= 1", lambda k: k >= 1)
_POLYGON = _checked(int, f"a polygon size in [3, {MAX_POLYGON}]", lambda n: 3 <= n <= MAX_POLYGON)
_IDENTITY = _checked(int, f"an identity size in [1, {MAX_IDENTITY}]", lambda k: 1 <= k <= MAX_IDENTITY)
_BIAS = _checked(lambda t: catalog.biased(float(t)), "a bias p strictly inside (0, 1/2)")
_LEADER = _checked(lambda t: LEADER_NAMES[t.lower()], "a leader: alice, bob, or charlie")
_INDICES = _checked(
    lambda t: tuple(int(i) for i in t.split(",")), "comma-separated indices >= 0", lambda ix: min(ix) >= 0
)


def cmd_info(args) -> int:
    if args.polygon is not None:
        sysn = make_polygon(args.polygon)
        print(f"polygon n={sysn.n}")
        print("pure states:")
        for i, w in enumerate(sysn.pure_states):
            print(f"  w{i} = ({_fmt(w[0])}, {_fmt(w[1])}, {_fmt(w[2])})")
        print("ray-extremal effects and zero/one profiles:")
        for i in range(sysn.n):
            e = sysn.effect(i)
            pr = zero_one_profile(sysn, i, args.eps)
            ones = ",".join(str(j) for j in sorted(pr.ones))
            zeros = ",".join(str(j) for j in sorted(pr.zeros))
            print(
                f"  e{i} = ({_fmt(e[0])}, {_fmt(e[1])}, {_fmt(e[2])})"
                f"  ones={{{ones}}} zeros={{{zeros}}}"
            )
        pairs = " ".join(f"{{{sysn.effect_label(i)},{sysn.effect_label(j)}}}" for i, j in sysn.extremal_measurements)
        print(f"extremal measurements: {pairs}")
        return 0
    if args.id is None:
        print("cataloged ensembles:")
        for cid in catalog.CATALOG_IDS:
            ens = catalog.load(cid)
            kind = ens.composite.parts[0].kind
            print(f"  {cid}: {ens.size} states, {ens.arity} parties ({kind})")
        return 0
    ens = catalog.load(args.id, args.priors)
    print(f"ensemble {ens.id}: {ens.size} states, {ens.arity} parties")
    for j, (desc, w) in enumerate(zip(catalog.state_labels(ens.id), ens.priors)):
        print(f"  state {j}: {desc}   prior {_fmt(w)}")
    return 0


def cmd_verify(args) -> int:
    measurement = catalog.load_measurement(args.id)
    ens = catalog.load(args.id)
    conf = discrimination.confusion_matrix(measurement, ens)
    complete = check_complete(ens.composite, measurement)
    deviation = float(np.max(np.abs(conf - np.eye(ens.size))))
    print(f"ensemble {args.id}: {ens.size} states, {ens.arity} parties")
    print("confusion matrix (rows = effects, cols = states):")
    for row in conf:
        print("  " + " ".join(_fmt(v) for v in row))
    print(f"max |confusion - identity| = {_fmt(deviation)} (tol {_fmt(args.eps)})")
    print(f"completeness within {_fmt(COMPLETENESS_TOL)}: {'ok' if complete else 'FAILED'}")
    ok = complete and deviation <= args.eps
    print(f"verify {args.id}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_local(args) -> int:
    ens = catalog.load(args.id, args.priors)
    cfg = discrimination.SearchConfig.for_ensemble(ens, args.measurements, not args.fixed_order)
    report = discrimination.optimal_local(ens, cfg, args.leader)
    print(f"ensemble {ens.id} ({ens.size} states, {ens.arity} parties), priors {args.priors.describe()}")
    print(f"leader: {'free' if args.leader is None else args.leader}")
    print(f"success = {_fmt(report.success)}")
    print(f"delta = {_fmt(report.delta)}")
    print(f"tree: {discrimination.tree_to_text(report.tree)}")
    return 0


def cmd_curve(args) -> int:
    points = quantum.curve(args.pmin, args.pmax, args.steps)
    try:
        quantum.write_curve_csv(points, args.out)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out!r}: {exc}") from exc
    gaps = [pt.delta_poly - pt.delta_qt for pt in points]
    print(f"wrote {len(points)} rows to {args.out}")
    print(f"gap delta_poly - delta_qt: min {_fmt(min(gaps))}, max {_fmt(max(gaps))}")
    return 0


def _signal_polygon(args) -> int:
    sysn = make_polygon(args.polygon)
    vertices = signaling.classical_vertices(args.m, 2, args.d)
    channels = signaling.polygon_channels(sysn, args.m, args.eps)
    print(f"polygon n={args.polygon}: m={args.m} encodings, binary extremal decodings, d={args.d}")
    print(f"distinct channels: {len(channels)} (of {sysn.n ** args.m * len(sysn.extremal_measurements)} generated)")
    outside = [ch for ch in channels if not signaling.in_classical_polytope(ch, args.d, vertices).inside]
    if not outside:
        print("ALL-IN")
        return 0
    # the closed forms decide every channel; the printed witness is always the separation LP's
    first = signaling.separation_lp(outside[0], vertices)
    print(f"NOT-IN: {len(outside)} channel(s) outside, first witness margin {_fmt(first.margin)}")
    _print_witness(first, args.csv)
    return 1


def _print_witness(result, as_csv: bool) -> None:
    h, c = result.witness
    if as_csv:
        print("witness_h," + ",".join(_fmt(v) for v in h.ravel()))
        print(f"witness_c,{_fmt(c)}")
    else:
        print(f"witness c = {_fmt(c)}")
        for row in h:
            print("  h: " + " ".join(_fmt(v) for v in row))


def _signal_identity(args) -> int:
    k = args.identity
    ch = signaling.Channel(np.eye(k))
    vertices = signaling.classical_vertices(k, k, args.d)
    result = signaling.in_classical_polytope(ch, args.d, vertices)
    print(f"identity channel {k}x{k}, d={args.d}")
    if result.inside:
        print("IN")
        if args.csv:
            print("weights," + ",".join(_fmt(w) for w in result.weights))
        return 0
    result = signaling.separation_lp(ch, vertices)
    print(f"NOT-IN margin {_fmt(result.margin)}")
    _print_witness(result, args.csv)
    return 1


def cmd_signal(args) -> int:
    # the two rules argparse cannot state; --polygon and --identity exclude each other in the parser
    if args.identity is not None:
        if args.n is not None:
            raise ValueError("--n applies to --polygon only")
        return _signal_identity(args)
    if args.m is None:
        raise ValueError("--polygon needs --m")
    return _signal_polygon(args)


def cmd_search(args) -> int:
    ens = catalog.load(args.id)
    found = catalog.search_perfect_separable(ens, node_budget=args.budget, eps=args.eps)
    if found is None:
        print(f"no perfect separable measurement over extremal factors for {args.id}")
        return 1
    print(f"found separable measurement with identity confusion for {args.id} ({len(found)} effects):")
    for i, effect in enumerate(found):
        print(f"  E{i} = {effect.label()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nwe",
        description="Polygon-model ensembles, local discrimination optima, and classical-polytope checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eps(p):
        p.add_argument(
            "--eps",
            type=_EPS,
            default=os.environ.get("NWE_EPS") or DEFAULT_EPS,
            help="tolerance in (0, 1) (default: NWE_EPS, else %(default)s)",
        )

    p = sub.add_parser("info", help="describe cataloged ensembles or a polygon system")
    p.add_argument("id", nargs="?", default=None, choices=catalog.CATALOG_IDS)
    p.add_argument("--polygon", type=_POLYGON, default=None, metavar="N")
    p.add_argument("--bias", type=_BIAS, default=catalog.uniform(), dest="priors", metavar="P")
    add_eps(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", help="check a cataloged measurement discriminates its ensemble")
    p.add_argument("id", choices=catalog.CATALOG_IDS)
    add_eps(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("local", help="optimal adaptive local discrimination")
    p.add_argument("id", choices=catalog.CATALOG_IDS)
    p.add_argument(
        "--bias", type=_BIAS, default=catalog.uniform(), dest="priors", metavar="P", help="biased priors (default uniform)"
    )
    p.add_argument("--leader", type=_LEADER, default=None, help="force the first party: alice, bob, or charlie")
    p.add_argument("--fixed-order", action="store_true", help="parties measure in index order")
    p.add_argument(
        "--measurements",
        type=_INDICES,
        default=None,
        metavar="I,J,...",
        help="restrict every party to these measurement indices (e.g. 0,1)",
    )
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("curve", help="pentagon-vs-quantum delta curve over a bias grid (CSV)")
    p.add_argument("pmin", type=float)
    p.add_argument("pmax", type=float)
    p.add_argument("steps", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("signal", help="classical d-symbol polytope certification")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--polygon", type=_POLYGON, default=None, metavar="N")
    mode.add_argument("--identity", type=_IDENTITY, default=None, metavar="K", help="check the KxK identity channel")
    p.add_argument("--m", type=_POSITIVE, default=None, help="number of encoding inputs")
    p.add_argument("--n", type=int, choices=(2,), default=None, help="--polygon only: number of outputs (2, the default)")
    p.add_argument("--d", type=_POSITIVE, required=True, help="classical alphabet size")
    p.add_argument("--csv", action="store_true", help="print certificates as CSV rows")
    add_eps(p)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("search-measurement", help="brute-force a perfect separable measurement")
    p.add_argument("id", choices=catalog.CATALOG_IDS)
    p.add_argument("--budget", type=_POSITIVE, default=1_000_000, help="search node budget")
    add_eps(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except signaling.InconclusiveMembership as exc:
        print(f"INCONCLUSIVE: {exc}")
        return 1
    except (ValueError, catalog.SearchSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
