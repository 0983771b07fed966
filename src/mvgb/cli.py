"""Command line front end: ideals from camera files, bases, Hilbert values,
decompositions, tangent dimensions, degeneration certificates, toric
enumeration, the census, and the full acceptance suite."""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction
from math import comb, prod

from . import checks
from . import degeneration as deg
from . import groebner as gb
from . import hilbscheme as hs
from . import monomial as mono
from . import tangent as tan
from . import toric
from .cameras import (
    CameraConfig, collinear_cameras, minimal_multiview_generators,
    multiview_generators, multiview_ideal,
)
from .polyring import (
    LexOrder, MatrixOrder, Ring, _cameras, canonical_string,
    format_monomial, format_polynomial, m_deg, parse_polynomial,
)

SCHEMA_VERSION = 1
# largest multidegree entry for --u, most values in a --box table, and
# most monomials listed over the generator multidegrees for tangent
MAX_HILB = 10 ** 6


class InputError(Exception):
    pass


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left; devnull takes the flush at exit (Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# file formats

def _parse_entry(v):
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise InputError("camera entries must be integers or 'p/q' strings")


def load_cameras(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read camera file: %s" % exc) from None
    try:
        n = data["n"]
        mats = [[[_parse_entry(e) for e in row] for row in camera]
                for camera in data["cameras"]]
    except (KeyError, TypeError) as exc:
        raise InputError("malformed camera file: %s" % exc) from None
    if len(mats) != n:
        raise InputError("camera count does not match n")
    try:
        return CameraConfig(mats)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def load_ideal(path, n=None):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputError(str(exc)) from None
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("no polynomials in %s" % path)
    if n is None:
        n = max((c for ln in lines for c in _cameras(ln)), default=0)
    if n < 1:
        raise InputError("no camera in --n or in %s" % path)
    ring = Ring(max(n, 2))
    try:
        polys = [parse_polynomial(ring, ln) for ln in lines]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from None
    return gb.ideal(ring, polys)


def _monomial_ideal_of(I):
    monos = []
    for p in I.generators:
        if len(p.terms) != 1:
            raise InputError("expected a monomial ideal")
        monos.append(next(iter(p.terms)))
    return mono.MonomialIdeal(I.ring, monos)


def parse_order(ring, spec):
    """Order grammar: 'lex:x1>x2>...' or 'weight:[w,...]', where a weight
    part may be followed by ';tiebreak:' and another order.  The parts are
    read in one loop, so a chain of any length parses without recursion."""
    if spec is None:
        return LexOrder(ring)
    *parts, last = spec.split(";tiebreak:")
    tiebreak = None
    if last.startswith("lex:"):
        names = [s.strip() for s in last[len("lex:"):].split(">")]
        try:
            tiebreak = LexOrder(ring, [ring.index(s) for s in names])
        except KeyError as exc:
            raise InputError("unknown variable %s" % exc) from None
        except ValueError as exc:
            raise InputError("bad lex order: %s" % exc) from None
    else:
        parts.append(last)
    bodies = []
    for part in parts:
        if not part.startswith("weight:"):
            raise InputError("unknown order spec %r (weight:[...], or "
                             "lex:... as the last part)" % part)
        body = part[len("weight:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise InputError("weights must be a bracketed list")
        bodies.append(body[1:-1])
    try:
        return MatrixOrder(ring, [[Fraction(w.strip()) for w in b.split(",")]
                                  for b in bodies], tiebreak)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("bad weights: %s" % exc) from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_ideal_from_cameras(args):
    config = load_cameras(args.file)
    gens = (minimal_multiview_generators(config) if args.minimal
            else multiview_generators(config))
    lines = [canonical_string(p) for p in gens]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit({"schema_version": SCHEMA_VERSION, "n": config.n,
           "generators": len(lines),
           "out": args.out or None,
           "polynomials": lines if not args.out else None})
    return 0


def _order_for(I, spec):
    """The parsed order; an order that is not a well-order is refused for
    a file with a generator that is not homogeneous in total degree, where
    Buchberger's algorithm need not stop."""
    order = parse_order(I.ring, spec)
    falling = [v for v in range(I.ring.nvars)
               if next((row[v] for row in order.rows if row[v]), 0) < 0]
    if falling and any(len({m_deg(m) for m in p.terms}) > 1
                       for p in I.generators):
        raise InputError("order ranks %s below 1, which needs generators "
                         "homogeneous in total degree"
                         % I.ring.name(falling[0]))
    return order


def cmd_gb(args):
    I = load_ideal(args.file, args.n)
    order = _order_for(I, args.order)
    basis = gb.reduced_groebner_basis(I, order)
    _emit({"schema_version": SCHEMA_VERSION,
           "basis": [format_polynomial(p, order) for p in basis],
           "initial_ideal": [format_monomial(I.ring, m) for m in
                             gb.initial_ideal(I, order).gens]},
          args.out)
    return 0


def cmd_nf(args):
    I = load_ideal(args.file, args.n)
    order = _order_for(I, args.order)
    basis = gb.reduced_groebner_basis(I, order)
    try:
        p = parse_polynomial(I.ring, args.poly)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from None
    r = gb.normal_form(p, basis, order)
    _emit({"schema_version": SCHEMA_VERSION,
           "normal_form": format_polynomial(r)})
    return 0


def cmd_elim(args):
    I = load_ideal(args.file, args.n)
    try:
        keep = [I.ring.index(s.strip()) for s in args.keep.split(",")]
    except KeyError as exc:
        raise InputError("unknown variable %s" % exc) from None
    result = gb.eliminate(I, keep)
    _emit({"schema_version": SCHEMA_VERSION,
           "generators": [format_polynomial(p) for p in result.generators]},
          args.out)
    return 0


def cmd_hilb(args):
    I = load_ideal(args.file, args.n)
    if all(len(p.terms) == 1 for p in I.generators):
        I = _monomial_ideal_of(I)   # its own initial ideal: no Buchberger
    n = I.ring.n
    if args.u:
        try:
            u = tuple(int(x) for x in args.u.split(","))
        except ValueError as exc:
            raise InputError("bad multidegree: %s" % exc) from None
        if len(u) != n:
            raise InputError("multidegree length must be %d" % n)
        if min(u) < 0 or max(u) > MAX_HILB:
            raise InputError("multidegree entries must lie in 0..%d"
                             % MAX_HILB)
        _emit({"schema_version": SCHEMA_VERSION, "u": list(u),
               "value": gb.hilbert_value(I, u)})
        return 0
    try:
        bound = int(args.box)
    except ValueError as exc:
        raise InputError("bad --box: %s" % exc) from None
    if bound < 0:
        raise InputError("--box must be non-negative")
    if (bound + 1) ** n > MAX_HILB:
        raise InputError("--box table would exceed %d values" % MAX_HILB)
    table = mono.standard_count_box(gb.initial_ideal(I), bound)
    _emit({"schema_version": SCHEMA_VERSION, "box": bound,
           "values": {",".join(map(str, u)): v
                      for u, v in sorted(table.items())}})
    return 0


def cmd_decompose(args):
    I = _monomial_ideal_of(load_ideal(args.file, args.n))
    try:
        primes = mono.minimal_primes(I)
        borel = mono.is_borel_fixed(I)[0]
        support = sorted(mono.multidegree_support(I).items())
        fc = mono.stanley_reisner_complex(I) if args.complex else None
    except ValueError as exc:
        # not squarefree, or a w block
        raise InputError(str(exc)) from None
    payload = {"schema_version": SCHEMA_VERSION,
               "primes": [sorted(I.ring.name(v) for v in p) for p in primes],
               "borel_fixed": borel,
               "multidegree": {",".join(map(str, k)): v for k, v in support}}
    if args.complex:
        with open(args.complex, "w") as fh:
            json.dump(fc.as_json(), fh, indent=2, sort_keys=True)
        payload["complex"] = args.complex
    _emit(payload)
    return 0


def cmd_tangent(args):
    I = _monomial_ideal_of(load_ideal(args.file, args.n))
    # the weight blocks list every monomial of each generator multidegree
    if sum(prod(comb(d + 2, 2) for d in u) for u in
           {I.ring.multidegree(g) for g in I.gens}) > MAX_HILB:
        raise InputError("the generator multidegrees hold more than %d "
                         "monomials" % MAX_HILB)
    _emit({"schema_version": SCHEMA_VERSION,
           "tangent_dimension": tan.tangent_dimension(I)})
    return 0


def cmd_degeneration(args):
    if args.action == "verify":
        try:
            report = deg.verify_collinear_degeneration(args.n)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        report["schema_version"] = SCHEMA_VERSION
        _emit(report, args.out)
        return 0 if report["pass"] else 1
    # exploratory: the lex initial ideal of a specialization
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cfg = collinear_cameras(args.n, Fraction(args.eps))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad --n or --eps: %s" % exc) from None
        init = gb.initial_ideal(multiview_ideal(cfg))
    _emit({"schema_version": SCHEMA_VERSION, "eps": args.eps,
           "initial_ideal": [format_monomial(init.ring, m)
                             for m in init.gens]})
    return 0


def cmd_toric(args):
    cm = toric.cayley_matrix(args.n)
    I = toric.toric_ideal(cm)
    nodes = toric.enumerate_initial_ideals(
        I, kernel_rows=toric.variable_kernel_rows(cm))
    payload = {"schema_version": SCHEMA_VERSION,
               "initial_ideals": len(nodes)}
    classes = toric.symmetry_classes([n.initial for n in nodes])
    payload["classes"] = len(classes)
    if args.classes or args.dual_graphs:
        payload["class_table"] = toric.class_invariant_table(classes)
        payload["representatives"] = [
            [format_monomial(rep.ring, g) for g in rep.gens]
            for rep, _ in classes]
    if args.dual_graphs:
        graphs = []
        for rep, members in classes:
            fc, graph = toric.mixed_subdivision(rep)
            graphs.append({"representative":
                           [format_monomial(rep.ring, g) for g in rep.gens],
                           "size": len(members),
                           "complex": fc.as_json(), "dual_graph": graph})
        with open(args.dual_graphs, "w") as fh:
            json.dump({"schema_version": SCHEMA_VERSION, "graphs": graphs},
                      fh, indent=2, sort_keys=True, default=str)
        payload["dual_graphs"] = args.dual_graphs
    _emit(payload, args.out)
    return 0


def cmd_census(args):
    res = hs.census(args.n, tangent=args.tangent)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "ideals.txt"), "w") as fh:
        for I in res.ideals:
            fh.write(", ".join(mono.ideal_lines(I)) + "\n")
    classes = [{"representative": mono.ideal_lines(rep), "size": len(members)}
               for rep, members in res.orbits]
    with open(os.path.join(args.out, "classes.json"), "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "classes": classes},
                  fh, indent=2, sort_keys=True)
    if args.tangent:
        with open(os.path.join(args.out, "tangent.json"), "w") as fh:
            json.dump({"schema_version": SCHEMA_VERSION,
                       "tangent_dimensions": {str(k): v for k, v in
                                              res.tangent.items()}},
                      fh, indent=2, sort_keys=True)
    _emit({"schema_version": SCHEMA_VERSION, "ideals": len(res.ideals),
           "classes": len(res.orbits), "hash": hs.census_hash(res.ideals),
           "out": args.out})
    return 0


def cmd_check(args):
    only = None
    try:
        if args.criteria:
            only = [int(s) for s in args.criteria.split(",")]
        report = checks.run_all(only=only, n_max=args.n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    for entry in report["criteria"]:
        status = "PASS" if entry["pass"] else "FAIL"
        print("criterion %2d %s: %s (%.2f s)" % (
            entry["id"], status, entry["name"], entry["seconds"]),
            file=sys.stderr)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="mvgb",
        description="exact multiview ideals, their degenerations and censuses")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideal", help="camera file operations")
    isub = p.add_subparsers(dest="action", required=True)
    pfc = isub.add_parser("from-cameras",
                          help="multiview generators of a camera file")
    pfc.add_argument("file")
    pfc.add_argument("--out")
    pfc.add_argument("--minimal", action="store_true")
    pfc.set_defaults(fn=cmd_ideal_from_cameras)

    pgb = sub.add_parser("gb", help="reduced basis of an ideal file")
    pgb.add_argument("file")
    pgb.add_argument("--order")
    pgb.add_argument("--n", type=int)
    pgb.add_argument("--out")
    pgb.set_defaults(fn=cmd_gb)

    pnf = sub.add_parser("nf", help="normal form of a polynomial")
    pnf.add_argument("file")
    pnf.add_argument("--poly", required=True)
    pnf.add_argument("--order")
    pnf.add_argument("--n", type=int)
    pnf.set_defaults(fn=cmd_nf)

    pel = sub.add_parser("elim", help="eliminate all variables not kept")
    pel.add_argument("file")
    pel.add_argument("--keep", required=True,
                     help="comma separated variables to keep")
    pel.add_argument("--n", type=int)
    pel.add_argument("--out")
    pel.set_defaults(fn=cmd_elim)

    ph = sub.add_parser("hilb", help="multigraded Hilbert values")
    ph.add_argument("file")
    ph.add_argument("--u", help="one multidegree, e.g. 1,1")
    ph.add_argument("--box", default="3",
                    help="table of values for all u <= box (default 3)")
    ph.add_argument("--n", type=int)
    ph.set_defaults(fn=cmd_hilb)

    pd = sub.add_parser("decompose", help="minimal primes of a monomial ideal")
    pd.add_argument("file")
    pd.add_argument("--complex", help="write the facet complex JSON here")
    pd.add_argument("--n", type=int)
    pd.set_defaults(fn=cmd_decompose)

    pt = sub.add_parser("tangent", help="tangent dimension at a monomial ideal")
    pt.add_argument("file")
    pt.add_argument("--n", type=int)
    pt.set_defaults(fn=cmd_tangent)

    pdg = sub.add_parser("degeneration", help="collinear degeneration tools")
    dsub = pdg.add_subparsers(dest="action", required=True)
    pv = dsub.add_parser("verify", help="certificate report")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_degeneration, action="verify")
    pi = dsub.add_parser("initial",
                         help="lex initial ideal of a specialization")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--eps", required=True)
    pi.set_defaults(fn=cmd_degeneration, action="initial")

    ptc = sub.add_parser("toric", help="torus-fixed enumeration")
    tsub = ptc.add_subparsers(dest="action", required=True)
    pe = tsub.add_parser("enumerate")
    pe.add_argument("--n", type=int, choices=(3, 4), required=True)
    pe.add_argument("--classes", action="store_true")
    pe.add_argument("--dual-graphs", dest="dual_graphs")
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_toric)

    phs = sub.add_parser("hilbscheme", help="census of monomial ideals")
    hsub = phs.add_subparsers(dest="action", required=True)
    pc = hsub.add_parser("census")
    pc.add_argument("--n", type=int, choices=(2, 3), required=True)
    pc.add_argument("--tangent", action="store_true")
    pc.add_argument("--out", required=True)
    pc.set_defaults(fn=cmd_census)

    pck = sub.add_parser("check", help="run the acceptance suite")
    pck.add_argument("what", choices=["all"])
    pck.add_argument("--criteria", help="comma separated criterion numbers")
    pck.add_argument("--n-max", dest="n_max", type=int,
                     help="cap the camera counts exercised")
    pck.add_argument("--out")
    pck.set_defaults(fn=cmd_check)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # argparse drops a "--" value, so --poly=-- arrives as []
        for name, value in vars(args).items():
            if value == []:
                raise InputError("--%s needs a value" % name)
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # the input files are read into InputError, so this is an output
        print("error: cannot write %s: %s"
              % (exc.filename or "output", exc.strerror or exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
