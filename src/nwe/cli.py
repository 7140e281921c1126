"""Command-line interface.

Commands: info, verify, local, curve, signal, search-measurement.
Exit codes: 0 success/PASS, 1 verification failure, 2 usage or config error;
arguments out of range are rejected while parsing, with exit 2.
The tolerance of info, verify, signal and search-measurement can be set
with --eps or the NWE_EPS environment variable (the flag wins); it must be
a finite number in (0, 1).  Output is deterministic: fixed tie-breaking and
floats formatted to 10 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from . import catalog, discrimination, quantum, signaling
from .composition import check_complete
from .systems import COMPLETENESS_TOL, DEFAULT_EPS, ProbabilityBoundError, make_polygon, zero_one_profile

LEADER_NAMES = {"alice": 0, "bob": 1, "charlie": 2, "0": 0, "1": 1, "2": 2}


def _fmt(x) -> str:
    return format(float(x), ".10g")


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
_POLYGON = _checked(int, "a polygon size >= 3", lambda n: n >= 3)
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
        pairs = " ".join(
            f"{{{sysn.effect_label(i)},{sysn.effect_label(j)}}}"
            for i, j in sysn.extremal_measurements
        )
        print(f"extremal measurements: {pairs}")
        return 0
    if args.id is None:
        print("cataloged ensembles:")
        for cid in catalog.CATALOG_IDS:
            ens = catalog.load(cid)
            kind = ens.composite.parts[0].kind
            print(f"  {cid}: {ens.size} states, {ens.arity} parties ({kind})")
        return 0
    try:
        ens = catalog.load(args.id, args.priors)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ensemble {ens.id}: {ens.size} states, {ens.arity} parties")
    for j, (desc, w) in enumerate(zip(catalog.state_labels(ens.id), ens.priors)):
        print(f"  state {j}: {desc}   prior {_fmt(w)}")
    return 0


def cmd_verify(args) -> int:
    try:
        measurement = catalog.load_measurement(args.id)
        ens = catalog.load(args.id)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        ens = catalog.load(args.id, args.priors)
        cfg = discrimination.SearchConfig.for_ensemble(ens, args.measurements, not args.fixed_order)
        report = discrimination.optimal_local(ens, cfg, args.leader)
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    leader_text = "free" if args.leader is None else str(args.leader)
    print(f"ensemble {ens.id} ({ens.size} states, {ens.arity} parties), priors {args.priors.describe()}")
    print(f"leader: {leader_text}")
    print(f"success = {_fmt(report.success)}")
    print(f"delta = {_fmt(report.delta)}")
    print(f"tree: {discrimination.tree_to_text(report.tree)}")
    return 0


def cmd_curve(args) -> int:
    try:
        points = quantum.curve(args.pmin, args.pmax, args.steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        quantum.write_curve_csv(points, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 2
    gaps = [pt.delta_poly - pt.delta_qt for pt in points]
    print(f"wrote {len(points)} rows to {args.out}")
    print(f"gap delta_poly - delta_qt: min {_fmt(min(gaps))}, max {_fmt(max(gaps))}")
    return 0


def _signal_polygon(args) -> int:
    if args.n != 2:
        print("error: only binary extremal decodings are supported (use --n 2)", file=sys.stderr)
        return 2
    sysn = make_polygon(args.polygon)
    try:
        vertices = signaling.classical_vertices(args.m, args.n, args.d)
    except signaling.VertexBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    channels = []
    seen = set()
    for encoding in itertools.product(range(sysn.n), repeat=args.m):
        states = [sysn.pure_state(i) for i in encoding]
        for mi in range(len(sysn.extremal_measurements)):
            try:
                ch = signaling.gpt_channel(sysn, states, sysn.measurement(mi), args.eps)
            except ProbabilityBoundError as exc:
                print(f"error: {exc} (tolerance --eps {_fmt(args.eps)})", file=sys.stderr)
                return 2
            key = np.round(ch.rows, 12).tobytes()
            if key not in seen:
                seen.add(key)
                channels.append(ch)
    print(
        f"polygon n={args.polygon}: m={args.m} encodings, binary extremal decodings, d={args.d}"
    )
    print(f"distinct channels: {len(channels)} (of {sysn.n ** args.m * len(sysn.extremal_measurements)} generated)")
    outside = []
    for ch in channels:
        try:
            result = signaling.in_classical_polytope(ch, args.d, vertices)
        except signaling.InconclusiveMembership as exc:
            print(f"INCONCLUSIVE: {exc}")
            return 1
        if not result.inside:
            outside.append((ch, result))
    if not outside:
        print("ALL-IN")
        return 0
    ch, result = outside[0]
    print(f"NOT-IN: {len(outside)} channel(s) outside, first witness margin {_fmt(result.margin)}")
    _print_witness(ch, result, args.csv)
    return 1


def _print_witness(ch, result, as_csv: bool) -> None:
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
    try:
        result = signaling.in_classical_polytope(ch, args.d)
    except signaling.VertexBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except signaling.InconclusiveMembership as exc:
        print(f"INCONCLUSIVE: {exc}")
        return 1
    print(f"identity channel {k}x{k}, d={args.d}")
    if result.inside:
        print("IN")
        if args.csv:
            print("weights," + ",".join(_fmt(w) for w in result.weights))
        return 0
    print(f"NOT-IN margin {_fmt(result.margin)}")
    _print_witness(ch, result, args.csv)
    return 1


def cmd_signal(args) -> int:
    if (args.polygon is None) == (args.identity is None):
        print("error: give exactly one of --polygon or --identity", file=sys.stderr)
        return 2
    if args.polygon is not None:
        if args.m is None:
            print("error: --polygon needs --m", file=sys.stderr)
            return 2
        return _signal_polygon(args)
    return _signal_identity(args)


def cmd_search(args) -> int:
    try:
        ens = catalog.load(args.id)
        found = catalog.search_perfect_separable(ens, node_budget=args.budget, eps=args.eps)
    except (ValueError, KeyError, catalog.SearchSpaceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    p.add_argument("id", nargs="?", default=None, choices=(None, *catalog.CATALOG_IDS))
    p.add_argument("--polygon", type=_POLYGON, default=None, metavar="N")
    p.add_argument("--bias", type=_BIAS, default=catalog.uniform(), dest="priors", metavar="P")
    add_eps(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", help="check a cataloged measurement discriminates its ensemble")
    p.add_argument("id")
    add_eps(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("local", help="optimal adaptive local discrimination")
    p.add_argument("id")
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
    p.add_argument("--polygon", type=_POLYGON, default=None, metavar="N")
    p.add_argument("--m", type=_POSITIVE, default=None, help="number of encoding inputs")
    p.add_argument("--n", type=int, default=2, help="number of outputs (binary decodings)")
    p.add_argument("--identity", type=_POSITIVE, default=None, metavar="K", help="check the KxK identity channel")
    p.add_argument("--d", type=_POSITIVE, required=True, help="classical alphabet size")
    p.add_argument("--csv", action="store_true", help="print certificates as CSV rows")
    add_eps(p)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("search-measurement", help="brute-force a perfect separable measurement")
    p.add_argument("id")
    p.add_argument("--budget", type=int, default=1_000_000, help="search node budget")
    add_eps(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
