"""Curve models and analytic reference functions.

Green functions on the rational curve and on complex tori, classical and
single-valued polylogarithms, cross-ratios, and Eisenstein-Kronecker lattice
sums.  Everything numeric is vectorized over numpy arrays; the elliptic Green
function has two independent evaluators (a theta-product closed form and a
Gaussian-regulated lattice sum) that are cross-checked in the tests.

Conventions.  On CP^1 with the delta measure at the base point a:

    G_a(x, y) = log|x-y| - log|x-a| - log|y-a|      (a finite)
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
    "is_infinity",
]

INFINITY = complex("inf")


def is_infinity(z) -> bool:
    try:
        return bool(np.isinf(z).all()) if np.ndim(z) else math.isinf(complex(z).real) \
            or math.isinf(complex(z).imag)
    except TypeError:
        return False


def _richardson(regulators, values):
    """Value at regulator 0 of the least-squares quadratic through the
    (regulator, value) pairs; values may be real or complex."""
    A = np.vander(np.asarray(regulators, dtype=float), 3)
    coef, *_ = np.linalg.lstsq(A, np.asarray(values), rcond=None)
    return coef[-1]


# ----------------------------------------------------------------------
# curve models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RationalCurve:
    """The projective line in the affine coordinate z (INFINITY allowed as a
    decoration or base point).  Like `EllipticCurve`, it supplies every law
    the engine uses that depends on the curve: `green`, `separation`,
    `global_point`/`global_density`, `default_rho`, `label` and
    `check_measure`."""

    label = "p1"
    default_rho = 0.8   # radius of the polar mixture components

    @staticmethod
    def check_measure(spec: GreenSpec):
        """Only the delta measure (at a finite point or at infinity) is
        supported on P^1."""
        if spec.kind != "delta":
            raise ValueError("only the delta measure is supported on P^1")

    @staticmethod
    def green(spec: GreenSpec, x, y, constant: float = 0.0,
              need_dx: bool = False, need_dy: bool = False):
        """(G_a(x, y) + constant, dG/dx or None, dG/dy or None) for the delta
        measure at a; the antiholomorphic derivatives are the conjugates,
        since G is real."""
        a = spec.base
        d = x - y
        g = np.log(np.abs(d))
        dx = 0.5 / d if need_dx else None
        dy = -0.5 / d if need_dy else None
        if not is_infinity(a):
            a = complex(a)
            g = g - np.log(np.abs(x - a)) - np.log(np.abs(y - a))
            if need_dx:
                dx = dx - 0.5 / (x - a)
            if need_dy:
                dy = dy - 0.5 / (y - a)
        return g + constant, dx, dy

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
        return r * np.exp(2j * np.pi * u2)

    @staticmethod
    def global_density(z):
        """Density of `global_point` against d^2 z."""
        return (1.0 / (2 * np.pi)) * (1.0 + np.abs(z) ** 2) ** -1.5


@dataclass(frozen=True)
class EllipticCurve:
    """The torus C/(Z + tau Z); supplies the same per-curve laws as
    `RationalCurve`."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        if tau.imag <= 0:
            raise ValueError("need Im tau > 0")
        # constants of the theta product, cached on the frozen instance
        qn = cmath.exp(2j * math.pi * tau) ** np.arange(1, self._nterms() + 1)
        log_abs_eta = -math.pi * tau.imag / 12 + float(np.log(np.abs(1 - qn)).sum())
        object.__setattr__(self, "_qpow", qn)
        object.__setattr__(self, "_one_plus_q2n", 1.0 + qn * qn)
        object.__setattr__(self, "_log_abs_eta", log_abs_eta)

    @property
    def im_tau(self) -> float:
        return complex(self.tau).imag

    @property
    def label(self) -> str:
        return f"elliptic:tau={complex(self.tau)}"

    @property
    def default_rho(self) -> float:
        """Radius of the polar mixture components."""
        return 0.28 * math.sqrt(self.im_tau)

    @staticmethod
    def check_measure(spec: GreenSpec):
        """The volume measure or a delta at a point of the torus; a delta at
        infinity exists only on P^1."""
        if spec.kind == "delta" and is_infinity(spec.base):
            raise ValueError("a delta measure at infinity exists only on P^1")

    def coords(self, z):
        """Real coordinates (u, v) with z = u + v tau."""
        tau = complex(self.tau)
        v = np.imag(z) / tau.imag
        u = np.real(z) - v * tau.real
        return u, v

    def reduce(self, z):
        """Representative with coordinates in [0,1)^2 of the (1, tau) frame."""
        tau = complex(self.tau)
        u, v = self.coords(z)
        return (u - np.floor(u)) + (v - np.floor(v)) * tau

    def wrap(self, z):
        """Shortest representative: coordinates in [-1/2, 1/2)^2."""
        tau = complex(self.tau)
        u, v = self.coords(z)
        return (u - np.round(u)) + (v - np.round(v)) * tau

    def separation(self, d):
        """Distance on the torus of two points whose difference is d."""
        return np.abs(self.wrap(d))

    def global_point(self, u1, u2):
        """Uniform point u1 + u2 tau of the fundamental domain, for
        uniforms u1, u2 in [0, 1)."""
        return u1 + u2 * complex(self.tau)

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
        """Factors n = 1..N kept in the theta product.  On a reduced z,
        |q^n e^{+-1}| <= |q|^(n-1), so the first omitted factor differs from
        1 by about |q|^N, which N makes smaller than 1e-18."""
        return max(6, int(18 * math.log(10) / (2 * math.pi * self.im_tau)) + 1)

    def theta_quotient(self, z):
        """(log|theta_1(z)/eta|, theta_1'/theta_1 (z)) from one pass over the
        product; z reduced beforehand.

        With e = exp(2 pi i z) the paired factors are
        t_n = (1 - q^n e)(1 - q^n / e) = 1 - q^n (e + 1/e) + q^(2n), and

            theta_1 / eta = 2 q^(1/12) sin(pi z) prod_n t_n,
            theta_1' / theta_1 = pi cot(pi z)
                                 + 2 pi i (1/e - e) sum_n q^n / t_n.

        sin and cos of pi z are built from real sin/cos/sinh/cosh, which keeps
        full relative accuracy next to the lattice points on the real axis.
        """
        z = np.asarray(z, dtype=complex)
        x, y = np.pi * z.real, np.pi * z.imag
        sx, cx, sh, ch = np.sin(x), np.cos(x), np.sinh(y), np.cosh(y)
        prod = 2.0 * (sx * ch + 1j * (cx * sh))            # 2 sin(pi z)
        cot = 2.0 * (cx * ch - 1j * (sx * sh)) / prod      # cot(pi z)
        e = np.exp(-2.0 * y) * (cx + 1j * sx) ** 2         # exp(2 pi i z)
        del x, y, sx, cx, sh, ch  # fewer live arrays in the loop below
        inv_e = 1.0 / e
        c = e + inv_e
        acc = np.zeros_like(c)
        t = np.empty_like(c)
        for qn, one_plus_q2n in zip(self._qpow, self._one_plus_q2n):
            np.multiply(c, -qn, out=t)
            t += one_plus_q2n
            prod *= t
            acc += np.divide(qn, t, out=t)
        log_ratio = np.log(np.abs(prod)) - np.pi * self.im_tau / 6.0
        dlog = np.pi * cot + 2j * np.pi * (inv_e - e) * acc
        return log_ratio, dlog

    def log_abs_theta1(self, z):
        """log|theta_1(z|tau)|; z reduced beforehand."""
        return self.theta_quotient(z)[0] + self._log_abs_eta

    def log_abs_eta(self) -> float:
        """log|eta(tau)|, a constant of the curve."""
        return self._log_abs_eta

    def theta1_log_derivative(self, z):
        """theta_1'/theta_1 (z|tau); z reduced beforehand."""
        return self.theta_quotient(z)[1]

    # -- the flat Green function ----------------------------------------
    def green_pair(self, z):
        """(g(z), dg/dz) from one theta pass; the antiholomorphic Wirtinger
        derivative is the conjugate of dg/dz since g is real."""
        zr = self.reduce(z)
        log_ratio, dlog = self.theta_quotient(zr)
        im = np.imag(zr)
        return (-2.0 * log_ratio + 2 * np.pi * im ** 2 / self.im_tau,
                -dlog - 2j * np.pi * im / self.im_tau)

    def green(self, spec: GreenSpec, x, y, constant: float = 0.0,
              need_dx: bool = False, need_dy: bool = False):
        """(G_mu(x, y) + constant, dG/dx or None, dG/dy or None): g(x - y)
        for the volume measure, g(x - y) - g(x - a) - g(a - y) for the delta
        measure at a; one theta pass per Green-function argument."""
        g, gz = self.green_pair(x - y)
        if spec.kind == "volume":
            return (g + constant, (gz if need_dx else None),
                    (-gz if need_dy else None))
        a = complex(spec.base)
        g_xa, gz_xa = self.green_pair(x - a)
        g_ay, gz_ay = self.green_pair(a - y)
        dx = gz - gz_xa if need_dx else None
        dy = -gz + gz_ay if need_dy else None
        return g - g_xa - g_ay + constant, dx, dy

    def green_function(self, z):
        """Zero-mean Green function g(z) of the invariant volume form."""
        return self.green_pair(z)[0]

    def green_dz(self, z):
        """dg/dz (holomorphic Wirtinger derivative)."""
        return self.green_pair(z)[1]

    def green_lattice(self, z, radius: int = 80,
                      regulators=(0.02, 0.01, 0.005)) -> float:
        """Gaussian-regulated lattice sum with Richardson extrapolation of
        the regulator to zero; slow-but-straightforward cross-check."""
        tau = complex(self.tau)
        ms = np.arange(-radius, radius + 1)
        M, N = np.meshgrid(ms, ms, indexing="ij")
        gam = M + N * tau
        mask = (M != 0) | (N != 0)
        gam = gam[mask]
        a2 = np.abs(gam) ** 2
        ch = self.chi(complex(z), gam)
        vals = [float(np.real((self.im_tau / np.pi) * np.sum(ch * np.exp(-s * a2) / a2)))
                for s in regulators]
        return float(_richardson(regulators, vals))

    def green_ewald(self, z, eta: float = 1.0) -> float:
        """Ewald-split evaluation of the same lattice sum, exact in the
        regulator: the Gaussian tail is summed directly and the s -> 0 part
        is Poisson-dualized into exponential integrals.  Independent of the
        theta-product closed form; converges everywhere off the lattice.
        """
        from scipy.special import exp1
        tau = complex(self.tau)
        x, y = tau.real, tau.imag
        u, v = self.coords(complex(z))
        # direct part: chi_z(gamma) e^{-eta |gamma|^2} / |gamma|^2
        r_direct = int(math.ceil(math.sqrt(42.0 / eta) / min(1.0, y))) + 2
        ms = np.arange(-r_direct, r_direct + 1)
        M, N = np.meshgrid(ms, ms, indexing="ij")
        gam = (M + N * tau)[(M != 0) | (N != 0)]
        a2 = np.abs(gam) ** 2
        direct = (y / np.pi) * np.sum(
            self.chi(complex(z), gam).real * np.exp(-eta * a2) / a2)
        # dual part: sum over the shifted dual lattice of E1 values
        scale = np.pi ** 2 / (eta * y ** 2)
        r_dual = int(math.ceil(math.sqrt(42.0 / scale) * (1 + abs(x) + y))) + 2
        js = np.arange(-r_dual, r_dual + 1)
        J, K = np.meshgrid(js, js, indexing="ij")
        s1 = J + v
        s2 = K - u
        q = (x * x + y * y) * s1 ** 2 - 2 * x * s1 * s2 + s2 ** 2
        w = scale * q
        keep = w < 500.0
        dual = float(np.sum(exp1(w[keep])))
        return float(direct + dual - y * eta / np.pi)


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


def green(curve: CurveModel, spec: GreenSpec, x, y, constant: float = 0.0):
    """Green function G_mu(x, y); symmetric in (x, y).

    The delta-measure version is normalized by a unit tangent vector at the
    base point (vanishing specialization); `constant` shifts it, which is
    only visible in correlators without a degree-zero divisor factor.
    Raises ValueError for a measure the curve does not support.
    """
    curve.check_measure(spec)
    return curve.green(spec, np.asarray(x, dtype=complex),
                       np.asarray(y, dtype=complex), constant)[0]


def green_arakelov_decomposition(curve: EllipticCurve, a, x, y):
    """G_a(x,y) via the invariant-volume Green function with constant 0:
    g(x-y) - g(a-y) - g(x-a)."""
    if np.any(np.isclose(np.abs(curve.wrap(x - y)), 0)) \
            or np.any(np.isclose(np.abs(curve.wrap(x - a)), 0)) \
            or np.any(np.isclose(np.abs(curve.wrap(y - a)), 0)):
        raise ValueError("coincident points")
    return (curve.green_function(x - y) - curve.green_function(a - y)
            - curve.green_function(x - a))


# ----------------------------------------------------------------------
# polylogarithms
# ----------------------------------------------------------------------

def polylog(n: int, z: complex, tol: float = 1e-16) -> complex:
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
        if abs(t) < tol * max(1.0, abs(s)):
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

    def diff(u, v):
        # (u - v) with projective conventions; infinities cancel in ratios
        if is_infinity(u) and is_infinity(v):
            raise ValueError("indeterminate")
        if is_infinity(u) or is_infinity(v):
            return None  # marker for an infinite factor
        return complex(u) - complex(v)

    num1, num2 = diff(z1, z3), diff(z2, z4)
    den1, den2 = diff(z1, z4), diff(z2, z3)
    # each None cancels against exactly one None on the other side
    nums = [d for d in (num1, num2) if d is not None]
    dens = [d for d in (den1, den2) if d is not None]
    n_inf_num = 2 - len(nums)
    n_inf_den = 2 - len(dens)
    val = np.prod(nums) / np.prod(dens)
    if n_inf_num == n_inf_den:
        return complex(val)
    if n_inf_num > n_inf_den:
        return INFINITY
    return 0j


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


def _lattice(curve: EllipticCurve, radius: int):
    """Nonzero lattice points gamma = m + n tau with |gamma| <= radius."""
    tau = complex(curve.tau)
    n_max = int(radius / tau.imag) + 1
    m_max = int(radius * (1 + abs(tau.real) / tau.imag)) + 1
    ms = np.arange(-m_max, m_max + 1)
    ns = np.arange(-n_max, n_max + 1)
    M, N = np.meshgrid(ms, ns, indexing="ij")
    gam = (M + N * tau)[(M != 0) | (N != 0)]
    return gam[np.abs(gam) <= radius]


def eisenstein_kronecker(curve: EllipticCurve, idx: EKIndex, radius: int = 200,
                         regulators=(0.02, 0.01, 0.005)):
    """The lattice sum  sum_{gamma != 0} chi_a(gamma) / (gamma^{p+1}
    conj(gamma)^{q+1}), plus a crude truncation-error estimate.

    For p + q >= 1 the sum converges absolutely and is truncated at |gamma|
    <= radius; for p = q = 0 it is only conditionally convergent and the
    Gaussian-regulated value is returned (the error estimate then reflects
    the extrapolation spread).
    """
    p, q = idx.p, idx.q
    if p + q == 0:
        g = curve.green_lattice(idx.a, radius=min(radius, 120), regulators=regulators)
        vals = [curve.green_lattice(idx.a, radius=min(radius, 120),
                                    regulators=regulators[:2]), g]
        return complex(g * np.pi / curve.im_tau), abs(vals[1] - vals[0]) * np.pi / curve.im_tau
    gam = _lattice(curve, radius)
    ch = curve.chi(complex(idx.a), gam)
    val = np.sum(ch / (gam ** (p + 1) * np.conj(gam) ** (q + 1)))
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
    tau = complex(curve.tau)
    pref = (tau - np.conj(tau)) / (2j * np.pi)
    gam = _lattice(curve, radius)
    ch = curve.chi(complex(a), gam)
    t = complex(t)
    regs = (0.02, 0.01, 0.005)
    d2 = np.abs(gam - t) ** 2
    a2 = np.abs(gam) ** 2
    vals = [complex(pref * np.sum(ch * np.exp(-s * a2) / d2)) for s in regs]
    direct = complex(_richardson(regs, vals))

    series = 0j
    for p in range(1, truncation + 1):
        for q in range(1, truncation + 1):
            if p + q == 2:
                term = curve.green_lattice(a) * np.pi / curve.im_tau
            else:
                term, _ = eisenstein_kronecker(curve, EKIndex(p - 1, q - 1, complex(a)),
                                               radius=radius)
            series += pref * term * t ** (p - 1) * np.conj(t) ** (q - 1)
    return direct, series
