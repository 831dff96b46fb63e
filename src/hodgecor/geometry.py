"""Curve models and analytic reference functions.

Green functions on the rational curve and on complex tori, classical and
single-valued polylogarithms, cross-ratios, and Eisenstein-Kronecker lattice
sums.  Everything numeric is vectorized over numpy arrays.  The elliptic
Green function has three independent evaluators, cross-checked in the tests:
the theta-product closed form (`green_pair`, the engine's kernel), the
Ewald split (`green_ewald`), and Im tau / pi times EK(0,0), the
Gaussian-regulated lattice sum `_regulated`.  Every lattice sum takes its
points from `_lattice`.

Conventions.  On CP^1 with the delta measure at the base point a:

    G_a(x, y) = log|x-y| - log|x-a| - log|y-a|      (a finite)
    G_a(x, oo) = -log|x-a|                           (its limit y -> oo)
    G_oo(x, y) = log|x-y|

both normalized by a unit tangent vector at the base point.  On the torus
C/(Z + tau Z) the translation-invariant Green function of the flat volume
form is the zero-mean distribution

    g(z) = (Im tau / pi) sum_{gamma != 0} chi_z(gamma) / |gamma|^2
         = -2 log| theta_1(z|tau) / eta(tau) | + 2 pi Im(z)^2 / Im(tau),

with chi_z(gamma) = exp(2 pi i (z conj(gamma) - conj(z) gamma)/(tau - conj(tau))).
Note the closed form fixes both the additive constant (zero mean) and the
scale: g behaves like -2 log|z| near the lattice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "INFINITY", "RationalCurve", "EllipticCurve", "GreenSpec", "EKIndex",
    "green", "green_arakelov_decomposition", "polylog", "single_valued_polylog",
    "levin_polylog", "cross_ratio", "eisenstein_kronecker",
    "ek_correlator_value", "ek_generating_series", "bernoulli_beta",
    "is_infinity", "parse_point",
]

INFINITY = complex("inf")


def is_infinity(z) -> bool:
    try:
        return bool(np.isinf(z).all()) if np.ndim(z) else math.isinf(complex(z).real) \
            or math.isinf(complex(z).imag)
    except TypeError:
        return False


def parse_point(text: str) -> complex:
    """A point of the curve written as text: `inf` or `oo` for the point at
    infinity, else a finite complex number with `i` or `j` as the imaginary
    unit.  Raises ValueError otherwise."""
    text = str(text).strip()
    if text in ("inf", "oo"):
        return INFINITY
    value = complex(text.replace("i", "j"))
    if not cmath.isfinite(value):
        raise ValueError(f"expected a finite complex number, got {text!r}")
    return value


# Gaussian regulators s of the conditionally convergent lattice sums, for
# Richardson extrapolation to s = 0
_REGULATORS = (0.02, 0.01, 0.005)


def _richardson(regulators, values):
    """Value at regulator 0 of the polynomial of degree len - 1 through the
    (regulator, value) pairs; values may be real or complex."""
    A = np.vander(np.asarray(regulators, dtype=float), len(regulators))
    coef, *_ = np.linalg.lstsq(A, np.asarray(values), rcond=None)
    return coef[-1]


# ----------------------------------------------------------------------
# curve models
# ----------------------------------------------------------------------

# log|eta|'s factor count is about _THETA_SPAN / Im tau' (`_nterms`)
_THETA_SPAN = 18 * math.log(10) / (2 * math.pi)
# the kernel's c = C^2 - 2, |c| <= exp(pi Im tau') + 1 on the centred cell,
# overflows past Im tau' = 225.9 (the pass forms c only up to Im tau' = 13.2)
_MAX_IM_TAU = 200.0


def _reduced_basis(tau: complex) -> tuple:
    """(w1, w2 / w1) of the Lagrange-Gauss-reduced basis (w1, w2) of the
    lattice Z + tau Z: w1 is a shortest nonzero vector and w2 / w1 lies in
    the standard fundamental domain, |Re| <= 1/2, |.| >= 1 and Im > 0.  A
    reduced tau keeps its basis (1, tau) exactly."""
    w1, w2 = 1 + 0j, complex(tau)
    while True:
        if abs(w2) < abs(w1):
            w1, w2 = w2, w1
        if not (mu := round((w2 / w1).real)):
            return w1, (w2 if (w2 / w1).imag > 0 else -w2) / w1
        w2 -= mu * w1


def _horner(coef, c):
    """sum_m coef[m] c^m, by Horner's rule in one new array; a constant
    coef (one entry) is that number alone."""
    if len(coef) == 1:
        return coef[0]
    out = c * coef[-1]
    for a in coef[-2:0:-1]:
        out += a
        out *= c
    out += coef[0]
    return out


def _green(curve, spec, x, y, need_dx, need_dy):
    """A curve's `green` at points x and y: its `green_from` at the
    `difference` pairs of x - y and, under a delta measure at a finite a,
    of x - a and y - a."""
    xa = ya = None
    if spec.kind == "delta" and not is_infinity(spec.base):
        a = complex(spec.base)
        xa, ya = curve.difference(x - a), curve.difference(y - a)
    return curve.green_from(spec, curve.difference(x - y), xa, ya,
                            need_dx, need_dy)


@dataclass(frozen=True)
class RationalCurve:
    """The projective line in the affine coordinate z (INFINITY allowed as a
    decoration or base point).  Like `EllipticCurve`, it supplies every law
    the engine uses that depends on the curve: the difference law
    `difference` (with `separation`, its distance), the Green kernel
    `green_from` on those differences (with `green`, the same at points),
    `global_point`/`global_density`, `default_rho`, `label`, `genus`,
    `has_infinity` and `check_measure`."""

    label = "p1"
    genus = 0           # no holomorphic 1-forms
    has_infinity = True
    default_rho = 0.8   # radius of the polar mixture components

    @staticmethod
    def check_measure(spec: GreenSpec):
        """Only the delta measure (at a finite point or at infinity) is
        supported on P^1."""
        if spec.kind != "delta":
            raise ValueError("only the delta measure is supported on P^1")

    @staticmethod
    def green(spec: GreenSpec, x, y, need_dx: bool = False,
              need_dy: bool = False):
        """(G_a(x, y), dG/dx or None, dG/dy or None) for the delta measure
        at a: `green_from` at the differences of the points."""
        return _green(RationalCurve, spec, x, y, need_dx, need_dy)

    @staticmethod
    def green_from(spec: GreenSpec, xy, xa, ya, need_dx: bool = False,
                   need_dy: bool = False):
        """(G_a(x, y), dG/dx or None, dG/dy or None) for the delta measure
        at a, from the `difference` pairs of x - y and, for a finite a, of
        x - a and y - a (None otherwise); the antiholomorphic derivatives
        are the conjugates, since G is real.  At a finite base,
        G_a(x, oo) = -log|x - a| (and dG/dx = -1/(2(x - a))) is the limit
        y -> oo."""
        d, dist = xy
        g = np.log(dist)
        dx = 0.5 / d if need_dx else None
        dy = (-dx if need_dx else -0.5 / d) if need_dy else None
        if not is_infinity(spec.base):
            (x_a, rx), (y_a, ry) = xa, ya
            lx, ly = np.log(rx), np.log(ry)
            x_inf, y_inf = np.isinf(rx), np.isinf(ry)
            if np.any(x_inf | y_inf):
                # log|x - y| and log|y - a| cancel as y -> oo
                with np.errstate(invalid="ignore"):
                    g = np.where(y_inf, -lx, np.where(x_inf, -ly, g - lx - ly))
            else:
                g = g - lx - ly
            if need_dx:
                dx = dx - 0.5 / x_a
            if need_dy:
                dy = dy - 0.5 / y_a
        return g, dx, dy

    @staticmethod
    def difference(d):
        """(d, |d|): the difference d of two points as `green_from` reads
        it, and their distance."""
        return d, np.abs(d)

    @staticmethod
    def separation(d):
        """Distance |d| of two points whose difference is d."""
        return np.abs(d)

    @staticmethod
    def global_point(u1, u2):
        """Point of C with modulus sqrt(1/(1-u1)^2 - 1) and argument
        2 pi u2, for uniforms u1, u2 in [0, 1); its density, with a |z|^-3
        tail, is `global_density`."""
        r = np.sqrt(1.0 / (1.0 - u1 * (1 - 1e-12)) ** 2 - 1.0)
        th = 2 * np.pi * u2
        z = np.empty(np.shape(r), dtype=complex)   # r exp(i th), same bits
        z.real = r * np.cos(th)
        z.imag = r * np.sin(th)
        return z

    @staticmethod
    def global_density(z):
        """Density of `global_point` against d^2 z."""
        return (1.0 / (2 * np.pi)) * (1.0 + np.abs(z) ** 2) ** -1.5


@dataclass(frozen=True)
class EllipticCurve:
    """The torus C/(Z + tau Z); supplies the same per-curve laws as
    `RationalCurve`."""

    tau: complex
    genus = 1           # one holomorphic 1-form, dz
    has_infinity = False

    def __post_init__(self):
        tau = complex(self.tau)
        if tau.imag <= 0:
            raise ValueError("need Im tau > 0")
        w1, t = _reduced_basis(tau)
        if not t.imag <= _MAX_IM_TAU:
            raise ValueError(
                f"the lattice's reduced tau' has Im tau' = {t.imag:.3g}, above"
                f" the bound {_MAX_IM_TAU:g} past which the theta kernel "
                f"overflows; every SL2(Z)-equivalent tau has the same tau'")
        # the reduced basis (w1, tau' = w2 / w1), the one frame of `_centred`,
        # the theta product and `default_rho`, and the theta product's
        # constants at tau' (log|eta| and the coefficients of its polynomial
        # in c), cached on the frozen instance
        object.__setattr__(self, "_frame", (w1, t))
        object.__setattr__(self, "_inv_w1", 1 / w1)
        qn = cmath.exp(2j * math.pi * t) ** np.arange(1, self._nterms() + 1)
        log_abs_eta = -math.pi * t.imag / 12 + float(np.log(np.abs(1 - qn)).sum())
        # P = prod t_n, t_n = 1 + q^(2n) - q^n c, expanded once in
        # c = e + 1/e into its coefficients p_m.  |c| <= reach on the centred
        # cell and |p_m| reach^m ~ exp(-pi Im tau' m^2), so keeping the terms
        # whose bound is at least 1e-18 leaves degree <= 3 on every frame,
        # and the constant p_0 alone past Im tau' = 13.2, where
        # |p_0 - 1| ~ |q|^2 < 1e-72 is dropped too: P is then exactly 1, as
        # the pass assumes.  num = -dP/dc is kept as the coefficients of
        # 2 num, the factor of the pass's 2 S^2 num.
        poly = np.ones(1, dtype=complex)
        for q in qn:
            poly = np.convolve(poly, (1.0 + q * q, -q))
        reach = math.exp(math.pi * t.imag) + 1.0
        deg = 0
        while (deg + 1 < len(poly)
               and abs(poly[deg + 1]) * reach ** (deg + 1) >= 1e-18):
            deg += 1
        if not deg:
            assert abs(poly[0] - 1.0) < 1e-18
            poly = np.ones(1)
        object.__setattr__(self, "_theta_poly",
                           tuple(complex(p) for p in poly[:deg + 1]))
        object.__setattr__(self, "_theta_dpoly",
                           tuple(-2.0 * m * complex(poly[m])
                                 for m in range(1, deg + 1)))
        object.__setattr__(self, "_log_abs_eta", log_abs_eta)

    @property
    def im_tau(self) -> float:
        return complex(self.tau).imag

    @property
    def label(self) -> str:
        return f"elliptic:tau={complex(self.tau)}"

    @property
    def default_rho(self) -> float:
        """Radius of the polar mixture components: 0.28 sqrt(Im tau), capped
        at 0.45 times the shortest lattice vector so that each disk lies
        inside its point's Voronoi cell (on a tall torus the uncapped disk
        wraps onto itself and the mixture density undercounts it)."""
        return min(0.28 * math.sqrt(self.im_tau), 0.45 * abs(self._frame[0]))

    @staticmethod
    def check_measure(spec: GreenSpec):
        """The volume measure or a delta at a point of the torus; a delta at
        infinity exists only on P^1."""
        if spec.kind == "delta" and is_infinity(spec.base):
            raise ValueError("a delta measure at infinity exists only on P^1")

    def _centred(self, z):
        """z / w1 moved by Z + tau' Z to coordinates in [-1/2, 1/2]^2 of the
        basis (1, tau'); it negates exactly when z does."""
        t = self._frame[1]
        z = z * self._inv_w1
        v = np.imag(z) / t.imag
        u = np.real(z) - v * t.real
        u -= np.round(u)
        v -= np.round(v)
        zc = v * t
        zc += u         # u + v t: the same IEEE sums, signed zeros too
        return zc

    def wrap(self, z):
        """`_centred` times w1: the nearest translate of z whenever that lies
        within the centred cell's inscribed radius, which exceeds
        `default_rho` on every frame."""
        return self._centred(z) * self._frame[0]

    def difference(self, d):
        """(`_centred`(d), its distance): the difference d of two points as
        `green_from` reads it, and the distance on the torus.  Both negate
        or stay put exactly when d negates."""
        zc = self._centred(d)
        return zc, np.abs(zc * self._frame[0])

    def separation(self, d):
        """Distance on the torus of two points whose difference is d."""
        return self.difference(d)[1]

    def global_point(self, u1, u2):
        """Uniform point (u1 + u2 tau') w1 of the reduced basis's cell, for
        uniforms u1, u2 in [0, 1).  Drawn in the reduced frame, it keeps the
        digits of u1 on any tau naming the lattice (u1 + u2 tau at
        tau = 1e17+i rounds u1 away), and on a reduced tau it is
        u1 + u2 tau bit for bit."""
        w1, t = self._frame
        return (u1 + u2 * t) * w1

    def global_density(self, z):
        """Density of `global_point` against d^2 z: 1/Im tau everywhere."""
        return np.full(np.shape(z), 1.0 / self.im_tau)

    def chi(self, z, gamma):
        """Unitary pairing chi_z(gamma) between the torus and its lattice."""
        tau = complex(self.tau)
        return np.exp(2j * np.pi * (z * np.conj(gamma) - np.conj(z) * gamma)
                      / (tau - np.conj(tau)))

    # -- theta machinery ------------------------------------------------
    def _nterms(self) -> int:
        """Factors n = 1..N of the theta product at q = exp(2 pi i tau'), for
        log|eta| and for the one-off expansion of prod t_n into the
        polynomial of `theta_quotient`, whose degree, not N, sizes the pass.
        On the centred argument |Im z| <= Im tau' / 2, so |q^n e^{+-1}| <=
        |q|^(n-1/2), and N makes the first omitted factor differ from 1 by
        less than 1e-18.  Im tau' >= sqrt(3)/2, so N <= 8 on every frame."""
        return max(6, int(_THETA_SPAN / self._frame[1].imag) + 1)

    def theta_quotient(self, z):
        """(log|theta_1(z|tau')/eta(tau')|, theta_1'/theta_1 (z|tau')) from
        one polynomial, at a centred argument z (`_centred`).

        With S = 2 sin(pi z), C = 2 cos(pi z) and e = exp(2 pi i z),
        c = e + 1/e = C^2 - 2 and 1/e - e = -i S C, so the paired factors are
        t_n = (1 - q^n e)(1 - q^n / e) = 1 + q^(2n) - q^n c, and their
        product P = prod t_n is a polynomial in c with constant coefficients
        p_m (`__post_init__`).  So is num = sum q^n prod_{m != n} t_m = -dP/dc,
        P times sum q^n / t_n, and one division ends the pass:

            theta_1 / eta = q^(1/12) S P,
            log|theta_1 / eta| = log|S P| - pi Im tau' / 6,
            theta_1' / theta_1 = pi C / S + 2 pi i (1/e - e) num / P
                               = pi C (P + 2 S^2 num) / (S P).

        On the centred cell |Im z| <= Im tau' / 2, so |c| <= exp(pi Im tau')
        + 1 and |p_m c^m| is about exp(-pi Im tau' m^2): the terms below
        1e-18 are left out, which keeps degree <= 3 on every frame (3 at
        tau' = i, 2 at 2i, 1 at 5i), and Horner's rule takes at most three
        steps for P and two for num.  Past Im tau' = 13.2, P is its constant
        p_0 = 1 + O(q^2), stored as exactly 1, and the pass is log|S| and
        pi C / S.

        S and C are built from real sin/cos/sinh/cosh, which keeps full
        relative accuracy next to 0, the one lattice point a centred z
        comes near.  libm's sin and sinh are odd and its cos and cosh even,
        so S negates and C stays put exactly when z negates, and c, P and
        num depend on z through C alone: the log is even and the derivative
        odd bit for bit.
        """
        z = np.asarray(z, dtype=complex)
        if not z.ndim:          # the pass below works in place on arrays
            log_ratio, dlog = self.theta_quotient(z.reshape(1))
            return log_ratio[0], dlog[0]
        x, y = np.pi * z.real, np.pi * z.imag
        sx = np.sin(x)
        sx *= 2.0               # doublings are exact: S = 2 sin, C = 2 cos
        cx = np.cos(x, out=x)
        cx *= 2.0
        sh = np.sinh(y)
        ch = np.cosh(y, out=y)
        S, C = np.empty_like(z), np.empty_like(z)
        np.multiply(sx, ch, out=S.real)
        np.multiply(cx, sh, out=S.imag)
        np.multiply(cx, ch, out=C.real)
        np.multiply(sx, sh, out=C.imag)
        np.negative(C.imag, out=C.imag)
        del x, y, sx, cx, sh, ch
        if self._theta_dpoly:
            c = C * C
            c -= 2.0                                       # e + 1/e
            P = _horner(self._theta_poly, c)
            num = _horner(self._theta_dpoly, c)            # 2 num
            del c
            num *= S
            num *= S
            num += P                                       # P + 2 S^2 num
            num *= C
            SP = P
            SP *= S
        else:                   # P == 1 (`__post_init__`), num == 0
            SP, num = S, C
        log_ratio = np.abs(SP)
        np.log(log_ratio, out=log_ratio)
        log_ratio -= np.pi * self._frame[1].imag / 6.0
        num *= np.pi
        num /= SP
        return log_ratio, num

    def log_abs_theta1(self, z):
        """log|theta_1(z|tau')| at a centred argument z."""
        return self.theta_quotient(z)[0] + self._log_abs_eta

    def log_abs_eta(self) -> float:
        """log|eta(tau')| of the reduced tau', a constant of the curve."""
        return self._log_abs_eta

    def theta1_log_derivative(self, z):
        """theta_1'/theta_1 (z|tau') at a centred argument z."""
        return self.theta_quotient(z)[1]

    # -- the flat Green function ----------------------------------------
    def green_pair(self, z):
        """(g(z), dg/dz) from one theta pass; the antiholomorphic Wirtinger
        derivative is the conjugate of dg/dz since g is real.  g depends on
        the lattice alone: it is that of Z + tau' Z at `_centred`(z)."""
        return self._pair(self._centred(z))

    def _pair(self, zc):
        """`green_pair` at a centred argument zc: g is even and dg/dz odd
        in zc, bit for bit (`theta_quotient`)."""
        t = self._frame[1]
        log_ratio, dg = self.theta_quotient(zc)
        im = np.imag(zc)
        g = log_ratio * -2.0
        g += im * im * (2 * np.pi / t.imag)
        dg += im * (2j * np.pi / t.imag)
        dg *= -self._inv_w1
        return g, dg

    def green(self, spec: GreenSpec, x, y, need_dx: bool = False,
              need_dy: bool = False):
        """(G_mu(x, y), dG/dx or None, dG/dy or None): `green_from` at the
        differences of the points."""
        return _green(self, spec, x, y, need_dx, need_dy)

    def green_from(self, spec: GreenSpec, xy, xa, ya, need_dx: bool = False,
                   need_dy: bool = False):
        """(G_mu(x, y), dG/dx or None, dG/dy or None) from the `difference`
        pairs of x - y and, under a delta measure at a, of x - a and
        y - a: g(x - y) for the volume measure, g(x - y) - g(x - a) -
        g(a - y) for the delta measure at a; one theta pass per
        difference.  g(a - y) and its derivative are read from y - a, as
        g is even and dg/dz odd bit for bit."""
        g, gz = self._pair(xy[0])
        if spec.kind == "volume":
            return g, (gz if need_dx else None), (-gz if need_dy else None)
        g_xa, gz_xa = self._pair(xa[0])
        g_ya, gz_ya = self._pair(ya[0])
        dx = gz - gz_xa if need_dx else None
        dy = -gz - gz_ya if need_dy else None
        return g - g_xa - g_ya, dx, dy

    def green_function(self, z):
        """Zero-mean Green function g(z) of the invariant volume form."""
        return self.green_pair(z)[0]

    def green_dz(self, z):
        """dg/dz (holomorphic Wirtinger derivative)."""
        return self.green_pair(z)[1]

    def green_ewald(self, z) -> float:
        """Ewald-split evaluation of the same lattice sum, exact in the
        regulator: split at eta = 1, the Gaussian tail is summed directly
        and the s -> 0 part is Poisson-dualized into exponential integrals
        E1(pi^2 |z - lambda|^2 / Im tau^2), one per lattice point lambda.
        Independent of the theta-product closed form; converges everywhere
        off the lattice.  Both parts stop where their terms fall below
        e^-42.
        """
        from scipy.special import exp1
        y = self.im_tau
        zr = complex(self.wrap(complex(z)))
        direct = 0.0
        for gam in _lattice(self, math.sqrt(42.0)):
            a2 = np.abs(gam) ** 2
            direct += np.sum(self.chi(zr, gam).real * np.exp(-a2) / a2)
        reach = math.sqrt(42.0) * y / np.pi
        dual = exp1((np.pi / y) ** 2 * abs(zr) ** 2)         # lambda = 0
        for lam in _lattice(self, reach + abs(zr)):
            dual += np.sum(exp1((np.pi / y) ** 2 * np.abs(zr - lam) ** 2))
        return float((y / np.pi) * direct + dual - y / np.pi)


CurveModel = RationalCurve | EllipticCurve


@dataclass(frozen=True)
class GreenSpec:
    """Choice of measure for the Green function.

    mu = ('delta', a) for the delta current at a point (a may be INFINITY on
    the rational curve), or ('volume', None) for the invariant volume form.
    """

    mu: tuple

    @staticmethod
    def delta(a) -> "GreenSpec":
        return GreenSpec(("delta", a))

    @staticmethod
    def volume() -> "GreenSpec":
        return GreenSpec(("volume", None))

    @property
    def kind(self) -> str:
        return self.mu[0]

    @property
    def base(self):
        return self.mu[1]


def green(curve: CurveModel, spec: GreenSpec, x, y):
    """Green function G_mu(x, y); symmetric in (x, y).

    The delta-measure version is normalized by a unit tangent vector at the
    base point (vanishing specialization).  Raises ValueError for a measure
    the curve does not support.
    """
    curve.check_measure(spec)
    return curve.green(spec, np.asarray(x, dtype=complex),
                       np.asarray(y, dtype=complex))[0]


def green_arakelov_decomposition(curve: EllipticCurve, a, x, y):
    """G_a(x,y) via the invariant-volume Green function with constant 0:
    g(x-y) - g(a-y) - g(x-a)."""
    if any(np.isclose(curve.separation(d), 0).any()
           for d in (x - y, x - a, y - a)):
        raise ValueError("coincident points")
    return (curve.green_function(x - y) - curve.green_function(a - y)
            - curve.green_function(x - a))


# ----------------------------------------------------------------------
# polylogarithms
# ----------------------------------------------------------------------

def polylog(n: int, z: complex) -> complex:
    """Li_n(z) = sum_{k>=1} z^k / k^n by the Taylor series; needs |z| < 1.

    Li_1(z) sums to -log(1-z).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError("series domain is |z| < 1")
    if z == 0:
        return 0j
    if n == 1:
        return -cmath.log(1 - z)
    s = 0j
    zk = 1 + 0j
    for k in range(1, 100000):
        zk *= z
        t = zk / k ** n
        s += t
        if abs(t) < 1e-16 * max(1.0, abs(s)):
            break
    return s


def bernoulli_beta(kmax: int) -> list:
    """Exact rationals beta_k with 2x/(e^{2x}-1) = sum_k beta_k x^k."""
    B = [Fraction(1)]
    for m in range(1, kmax + 1):
        s = Fraction(0)
        for k in range(m):
            s += Fraction(math.comb(m + 1, k)) * B[k]
        B.append(-s / (m + 1))
    return [Fraction(2 ** k) * B[k] / math.factorial(k) for k in range(kmax + 1)]


_BETA = bernoulli_beta(24)


def single_valued_polylog(n: int, z: complex) -> float:
    """The single-valued n-logarithm (Bloch-Wigner for n = 2):

        Re / Im (n odd / even) of sum_{k=0}^{n-1} beta_k log^k|z| Li_{n-k}(z).

    Extended by 0 at z = 0; undefined at z = 1.  Vanishes on the real line
    for even n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    z = complex(z)
    if z == 1:
        raise ValueError("singular at z = 1")
    if z == 0:
        return 0.0
    if abs(z) >= 1:
        raise ValueError("series domain is |z| < 1 (choose arguments inside)")
    lz = math.log(abs(z))
    acc = 0j
    for k in range(n):
        acc += float(_BETA[k]) * lz ** k * polylog(n - k, z)
    return acc.real if n % 2 == 1 else acc.imag


def levin_polylog(n: int, z: complex) -> tuple:
    """Levin's modification: returns (L*_n(z), L_n(z)) where

      L*_n = 4^{1-n} sum_{k even, 0<=k<=n-2} C(2n-k-3, n-1) 2^{k+1}/(k+1)!
                                             L_{n-k}(z) log^k|z|
      L_n  = 4^{n-1} C(2n-2, n-1)^{-1} L*_n,

    and L_n equals the single-valued polylog iff n <= 3.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lz = math.log(abs(complex(z)))
    s = 0.0
    for k in range(0, n - 1, 2):
        s += (math.comb(2 * n - k - 3, n - 1) * 2 ** (k + 1) / math.factorial(k + 1)
              * single_valued_polylog(n - k, z) * lz ** k)
    lstar = 4.0 ** (-(n - 1)) * s
    lev = 4.0 ** (n - 1) / math.comb(2 * n - 2, n - 1) * lstar
    return lstar, lev


def cross_ratio(z1, z2, z3, z4) -> complex:
    """Cross-ratio normalized by r(oo, 0, 1, x) = x; Moebius invariant."""
    pts = [z1, z2, z3, z4]
    for i in range(4):
        for j in range(i + 1, 4):
            same_inf = is_infinity(pts[i]) and is_infinity(pts[j])
            if same_inf or (not is_infinity(pts[i]) and not is_infinity(pts[j])
                            and complex(pts[i]) == complex(pts[j])):
                raise ValueError("cross-ratio needs pairwise distinct points")

    def finite(pairs):
        return [complex(u) - complex(v) for u, v in pairs
                if not is_infinity(u) and not is_infinity(v)]

    # each point sits in one numerator and one denominator factor, and at
    # most one point is infinite, so its two infinite factors cancel
    return complex(np.prod(finite(((z1, z3), (z2, z4))))
                   / np.prod(finite(((z1, z4), (z2, z3)))))


# ----------------------------------------------------------------------
# Eisenstein-Kronecker sums
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EKIndex:
    p: int
    q: int
    a: complex

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("need p, q >= 0")


# box entries per strip of `_lattice`: whole rows, as many as fit (at least
# one).  At 2^14 the strips' largest arrays (256 KB) left glibc's dynamic trim
# threshold, twice the largest freed mmapped block, below the engine's
# per-chunk working set, so the heap was returned and re-faulted on every
# chunk: 11,000-27,000 page faults per elliptic-ek pass against 3,000 at the
# whole-disk sum; at 2^15, 24-1,077.
_STRIP = 1 << 15


def _lattice(curve: EllipticCurve, radius: float):
    """Nonzero lattice points gamma = m + n tau with |gamma| <= radius: the
    one source of lattice points of every lattice sum, yielded in sheared
    strips that each sum accumulates one by one, so its working set does
    not grow with the radius.  A strip takes consecutive rows n, as many as
    fit `_STRIP` points, and row n the m within int(radius) + 2 of the
    integer nearest -n Re tau: the row's points of the disk have
    |m + n Re tau| <= radius, on any frame."""
    tau = complex(curve.tau)
    n_max = int(radius / tau.imag) + 1
    span = int(radius) + 2
    rows = max(1, _STRIP // (2 * span + 1))
    for n0 in range(-n_max, n_max + 1, rows):
        J, N = np.meshgrid(np.arange(-span, span + 1),
                           np.arange(n0, min(n0 + rows, n_max + 1)),
                           indexing="ij")
        M = J + np.round(-N * tau.real)
        gam = (M + N * tau)[(M != 0) | (N != 0)]
        yield gam[np.abs(gam) <= radius]


def _regulated(curve: EllipticCurve, a, radius: float, t=0) -> list:
    """sum' chi_a(gamma) e^{-s |gamma|^2} / |gamma - t|^2 over |gamma| <=
    radius, one value per regulator s in `_REGULATORS`."""
    sums = np.zeros(len(_REGULATORS), dtype=complex)
    for gam in _lattice(curve, radius):
        ch = curve.chi(complex(a), gam)
        d2, a2 = np.abs(gam - t) ** 2, np.abs(gam) ** 2
        sums += [np.sum(ch * np.exp(-s * a2) / d2) for s in _REGULATORS]
    return [complex(v) for v in sums]


def eisenstein_kronecker(curve: EllipticCurve, idx: EKIndex, radius: int = 200):
    """The lattice sum  sum_{gamma != 0} chi_a(gamma) / (gamma^{p+1}
    conj(gamma)^{q+1}), plus a crude truncation-error estimate.

    For p + q >= 1 the sum converges absolutely and is truncated at |gamma|
    <= radius, and the error estimate bounds the tail.  For p = q = 0 it is
    only conditionally convergent: the value is the Gaussian-regulated sum
    (`_regulated`, |gamma| <= min(radius, 120)) extrapolated to s = 0
    through all three regulators, and the error estimate is its distance
    from the linear extrapolation through the first two.  Off the lattice
    the regulated sum is flat in s and that distance is at rounding level;
    next to a lattice point both it and the true error grow (0.27 against
    0.022 at a = 0.05+0.02i on tau = i).
    """
    p, q = idx.p, idx.q
    if p + q == 0:
        vals = _regulated(curve, idx.a, min(radius, 120))
        val = _richardson(_REGULATORS, vals)
        return complex(val), float(abs(val - _richardson(_REGULATORS[:2], vals[:2])))
    val = sum(np.sum(curve.chi(complex(idx.a), gam)
                     / (gam ** (p + 1) * np.conj(gam) ** (q + 1)))
              for gam in _lattice(curve, radius))
    # tail bound: integral of r^{-(p+q+2)} over r > radius
    err = 2 * np.pi / (p + q) * radius ** (-(p + q))
    return complex(val), float(err)


def ek_correlator_value(curve: EllipticCurve, p: int, q: int, a,
                        radius: int = 200) -> complex:
    """Closed form of the depth-one correlator of W_{p,q}:

        (-1)^p / (2 pi i) * ((tau - conj tau)/(2 pi i))^{p+q+1} * EK sum.
    """
    s, _ = eisenstein_kronecker(curve, EKIndex(p, q, complex(a)), radius=radius)
    tau = complex(curve.tau)
    return ((-1) ** p / (2j * np.pi)) * ((tau - np.conj(tau)) / (2j * np.pi)) ** (p + q + 1) * s


def ek_generating_series(curve: EllipticCurve, a, t, truncation: int = 8,
                         radius: int = 120):
    """K(a|t) = ((tau - conj tau)/(2 pi i)) sum' chi_a(gamma)/|gamma - t|^2.

    Returns (direct, series) where `direct` Gaussian-regulates the shifted
    sum and `series` is the (p,q)-expansion sum_{p,q >= 1} EK_{p,q} t^{p-1}
    conj(t)^{q-1} truncated at p, q <= truncation.
    """
    tau, t = complex(curve.tau), complex(t)
    pref = (tau - np.conj(tau)) / (2j * np.pi)
    direct = complex(pref * _richardson(_REGULATORS, _regulated(curve, a, radius, t)))
    series = 0j
    for p in range(1, truncation + 1):
        for q in range(1, truncation + 1):
            term, _ = eisenstein_kronecker(curve, EKIndex(p - 1, q - 1, complex(a)),
                                           radius=radius)
            series += pref * term * t ** (p - 1) * np.conj(t) ** (q - 1)
    return direct, series
