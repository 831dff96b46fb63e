"""Command line front end: correlators, identity suites, reference tables.

Exit codes: 0 success, 1 identity-suite failure, 2 parse error,
3 precondition violation, 4 non-convergence flag (a value or stderr that is
not finite, stderr above half of |value|, or rows left on a singularity
after the redraws).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import (
    AlphabetSpec, CasimirBasis, CorrelatorRequest, CyclicElement, EKIndex,
    EllipticCurve, GreenSpec, RationalCurve, INFINITY,
    cobracket, cobracket_squared, correlate, d_omega_identity, differential,
    dilog_coproduct, eisenstein_kronecker, kappa, morphism_check,
    multiple_green, omega_star, parse_element, point, single_valued_polylog,
    tree_sum_ext, tree_sum_map, xi_eta,
)
from .exact_algebra import derivative_identity_check, shuffle_sum
from .geometry import parse_point


def _int_at_least(lowest: int, what: str):
    """argparse type of an integer >= lowest; anything else is a parse
    error (exit 2) that names `what` was expected."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")


def _out_path(text: str) -> str:
    """argparse type of --out: `-` for standard output, or a file in an
    existing, writable directory, checked before any computation."""
    folder = os.path.dirname(os.path.abspath(text))
    if text != "-" and (os.path.isdir(text) or not os.access(folder, os.W_OK)):
        raise argparse.ArgumentTypeError(
            f"cannot write {text!r}: not a file in a writable directory")
    return text


@contextlib.contextmanager
def _output(path):
    """The file at the --out path, or standard output if unset or `-`."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _finite_or_null(x):
    """x with each non-finite float in its dicts and lists replaced by None,
    which JSON writes as null: a bare NaN or Infinity token is not JSON."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite_or_null(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _parse_curve(text: str):
    if text == "p1":
        return RationalCurve()
    if text.startswith("elliptic:tau="):
        return EllipticCurve(parse_point(text.split("=", 1)[1]))
    raise ValueError(f"unknown curve {text!r}")


def _parse_mu(text: str) -> GreenSpec:
    if text == "volume":
        return GreenSpec.volume()
    if text.startswith("delta:"):
        return GreenSpec.delta(parse_point(text.split(":", 1)[1]))
    raise ValueError(f"unknown measure {text!r}")


def cmd_correlator(args) -> int:
    try:
        curve = _parse_curve(args.curve)
        mu = _parse_mu(args.mu)
        word = parse_element(args.word)
        pts = {label: parse_point(val) for label, _, val in
               (spec.partition("=") for spec in args.point or [])}
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    req = CorrelatorRequest(curve=curve, green=mu, word=word, points=pts,
                            samples=args.samples, seed=args.seed,
                            scheme=args.scheme,
                            normalization=args.normalization)
    try:
        res = correlate(req)
    except ValueError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    payload = res.as_dict()
    payload["request"] = {
        "curve": args.curve, "mu": args.mu, "word": args.word,
        "samples": args.samples, "seed": args.seed, "scheme": args.scheme,
        "normalization": args.normalization,
        "points": {k: str(v) for k, v in pts.items()},
    }
    with _output(args.out) as fh:
        fh.write(json.dumps(_finite_or_null(payload), indent=2,
                            allow_nan=False) + "\n")
    residual = res.metadata["residual_singular"]
    if residual:
        print(f"non-convergence: {residual} sample rows stayed on a "
              f"Green-function singularity after 8 redraws", file=sys.stderr)
        return 4
    if not (cmath.isfinite(res.value) and math.isfinite(res.stderr)):
        print(f"non-convergence: value {res.value} or stderr {res.stderr} "
              f"is not finite", file=sys.stderr)
        return 4
    if res.stderr > 0.5 * abs(res.value) and abs(res.value) > 0:
        print(f"non-convergence: stderr {res.stderr:.3g} is above half of "
              f"|value| {abs(res.value):.3g}", file=sys.stderr)
        return 4
    return 0


def _suite_algebra(args, report) -> bool:
    import random
    rnd = random.Random(7)
    letters = [point(s) for s in "abc"]
    ok = True
    for trial in range(args.trials):
        length = rnd.randint(1, 8)
        w = [rnd.choice(letters) for _ in range(length)]
        F = CyclicElement.from_word(w)
        ok &= not derivative_identity_check(F)
    report("sum_[dF/dx,x]=0", ok, f"{args.trials} random words, length <= 8")
    h, a, b = point("h"), point("a"), point("b")
    sh1 = shuffle_sum(h, [a], [b, b])
    ok2 = sum(abs(c) for c in sh1.terms.values()) <= 3
    report("shuffle_term_count", ok2, "p=1,q=2 gives 3 terms before identification")
    return ok and ok2


def _suite_trees(args, report) -> bool:
    basis = CasimirBasis.symplectic(1)
    s_letters = {point(s) for s in "xyz"}
    letters = sorted(s_letters) + [p for p, _, _ in basis.pairs]
    import random
    rnd = random.Random(11)
    ok_d2 = True
    for trial in range(args.trials):
        length = rnd.randint(2, args.max_leaves)
        w = [rnd.choice(letters) for _ in range(length)]
        v = tree_sum_map(CyclicElement.from_word(w))
        if differential(differential(v, basis), basis):
            ok_d2 = False
    report("d^2=0", ok_d2, f"tree sums of {args.trials} random words")
    ok_dd = True
    for trial in range(args.trials):
        length = rnd.randint(2, 6)
        w = CyclicElement.from_word([rnd.choice(letters) for _ in range(length)])
        if cobracket_squared(w, basis):
            ok_dd = False
    report("delta^2=0", ok_dd, "co-Jacobi on random words, length <= 6")
    ok_int = True
    for trial in range(args.trials):
        length = rnd.randint(2, 5)
        w = CyclicElement.from_word([rnd.choice(letters) for _ in range(length)])
        if differential(tree_sum_map(w), basis) != tree_sum_ext(cobracket(w, basis)):
            ok_int = False
    report("dF=Fdelta", ok_int, "intertwining on random words, length <= 5")
    return ok_d2 and ok_dd and ok_int


def _suite_derivations(args, report) -> bool:
    import random
    rnd = random.Random(13)
    spec = AlphabetSpec(genus=1, s_star=("a", "b"))
    letters = spec.letters()

    def rand_cyc(max_deg):
        deg = rnd.randint(2, max_deg)
        return CyclicElement.from_word([rnd.choice(letters) for _ in range(deg)],
                                       rnd.choice([1, -1, 2]))

    ok_x0 = all(not kappa(rand_cyc(5), spec)(spec.x0()) for _ in range(args.trials))
    report("kappa(X0)=0", ok_x0, f"{args.trials} random words")
    ok_m = all(morphism_check(rand_cyc(4), rand_cyc(4), spec)
               for _ in range(args.trials))
    report("kappa_morphism", ok_m, "bracket vs commutator on generators")
    return ok_x0 and ok_m


def _suite_forms(args, report) -> bool:
    ok = True
    for m in range(1, args.max_m + 1):
        ok &= d_omega_identity(m)
    report("d_omega_identity", ok, f"m <= {args.max_m}")
    ok_xi = True
    from .form_calculus import dC
    for m in range(1, args.max_m + 1):
        xi, eta = xi_eta(m)
        ok_xi &= dC(xi) == eta
        ok_xi &= all(abs(c) == 1 for c in eta.terms.values())
    report("dC_xi=eta", ok_xi, f"m <= {args.max_m}, eta coefficients +-1")
    ok_star = True
    for n in range(1, args.max_m + 1):
        for alpha in range(n + 1):
            scaled = Fraction(n + 1) * omega_star(alpha, n - alpha)
            ok_star &= bool(scaled.terms) and all(
                abs(c) == 1 for c in scaled.terms.values())
    report("omega_star_pm1", ok_star,
           f"m <= {args.max_m}, a+b = m: (m+1) omega*_(a,b) is nonzero "
           "with +-1 coefficients")
    return ok and ok_xi and ok_star


def _suite_numeric(args, report) -> bool:
    curve = RationalCurve()
    mu = GreenSpec.delta(INFINITY)
    pts = [0.0, 1.0, 0.35 + 0.2j]
    r1 = multiple_green(curve, mu, pts, samples=args.samples, seed=5)
    r2 = multiple_green(curve, mu, [pts[0], pts[2], pts[1]],
                        samples=args.samples, seed=6)
    s = r1.value + r2.value
    tol = 3 * math.hypot(r1.stderr, r2.stderr)
    ok_sh = abs(s) < max(tol, 1e-12)
    report("shuffle_depth2", ok_sh, f"|sum|={abs(s):.2e} vs 3sigma={tol:.2e}")
    # at depth 2 reversal is the shuffle relation above; at depth 3 it
    # preserves the value
    pts3 = pts + [2.2 + 0.4j]
    r3 = multiple_green(curve, mu, pts3, samples=args.samples, seed=7)
    r4 = multiple_green(curve, mu, pts3[::-1], samples=args.samples, seed=8)
    d = r3.value - r4.value
    tol3 = 3 * math.hypot(r3.stderr, r4.stderr)
    ok_dh = abs(d) < max(tol3, 1e-12)
    report("dihedral_depth3", ok_dh, f"|diff|={abs(d):.2e} vs 3sigma={tol3:.2e}")
    return ok_sh and ok_dh


def cmd_identities(args) -> int:
    def report(name, ok, note=""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name:24s} {note}")

    suites = {
        "algebra": _suite_algebra,
        "trees": _suite_trees,
        "derivations": _suite_derivations,
        "forms": _suite_forms,
        "numeric": _suite_numeric,
    }
    ok = suites[args.suite](args, report)
    return 0 if ok else 1


def cmd_reference(args) -> int:
    rows = []
    if args.table == "sv-polylog":
        for x in np.linspace(-0.8, 0.8, args.grid):
            for y in np.linspace(-0.8, 0.8, args.grid):
                z = complex(x, y)
                if abs(z) >= 1 or z in (0, 1):
                    continue
                rows.append({"re": x, "im": y,
                             "L2": single_valued_polylog(2, z)})
        header = ["re", "im", "L2"]
    elif args.table == "ek-convergence":
        curve = EllipticCurve(1j)
        a = (1 + 1j) / 2
        for radius in (25, 50, 100, 200):
            val, err = eisenstein_kronecker(curve, EKIndex(1, 1, a), radius=radius)
            rows.append({"radius": radius, "re": val.real, "im": val.imag,
                         "tail_bound": err})
        header = ["radius", "re", "im", "tail_bound"]
    elif args.table == "dilog-coproduct":
        cop = dilog_coproduct([(Fraction(1, 3), 1), (Fraction(-1, 2), 1)],
                              [(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))])
        ok = cop.is_zero_mod_two_torsion()
        with _output(args.out) as fh:
            fh.write(f"0 mod 2-torsion: {'PASS' if ok else 'FAIL'}\n")
        return 0 if ok else 1
    with _output(args.out) as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hodgecor",
                                 description="correlator integrals on curves")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("correlator", help="evaluate one correlator")
    c.add_argument("--curve", default="p1")
    c.add_argument("--mu", default="delta:inf")
    c.add_argument("--word", required=True)
    c.add_argument("--point", action="append",
                   help="label=value bindings for s:<label> letters")
    c.add_argument("--samples", type=_positive_int, default=1 << 18,
                   help="samples per tree; a tree runs at least 8,192, "
                        "and the result's samples is the count run")
    # numpy seeds are non-negative integers
    c.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"),
                   default=0)
    c.add_argument("--scheme", choices=("mc", "qmc"), default="mc")
    c.add_argument("--normalization", choices=("raw", "2pii", "star"),
                   default="2pii")
    c.add_argument("--out", type=_out_path, help="file, or - for stdout")
    c.set_defaults(fn=cmd_correlator)

    i = sub.add_parser("identities", help="run an identity suite")
    i.add_argument("--suite", required=True,
                   choices=("algebra", "trees", "derivations", "forms", "numeric"))
    i.add_argument("--trials", type=_positive_int, default=12)
    i.add_argument("--max-m", dest="max_m", type=_positive_int, default=4,
                   help="forms suite: check the d-omega identity, dC xi_m = "
                        "eta_m and the omega*_{a,b} coefficients for every "
                        "m = a+b from 1 to this")
    i.add_argument("--max-leaves", dest="max_leaves", type=_int_at_least(
        2, "a positive integer (a word needs at least 2 letters)"), default=6)
    i.add_argument("--samples", type=_positive_int, default=1 << 16)
    i.set_defaults(fn=cmd_identities)

    r = sub.add_parser("reference", help="emit reference tables")
    r.add_argument("--table", required=True,
                   choices=("sv-polylog", "ek-convergence", "dilog-coproduct"))
    r.add_argument("--grid", type=_positive_int, default=9)
    r.add_argument("--out", type=_out_path, help="file, or - for stdout")
    r.set_defaults(fn=cmd_reference)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
