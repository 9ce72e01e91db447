"""Recurrence chains for the expansion coefficient functions.

Two families are produced, both starting from the constant 1:

* Modified-Bessel side: polynomials w_k(t) satisfying

      w_{k+1} = (1/2) t^2 (1 - t^2) dw_k/dt
                + (1/8) * Int_0^t (1 - 5 u^2) w_k(u) du

  together with the derivative-side combinations wbar_k.

* Legendre side: functions psi_k(v) in the closed basis {v^a d^b} over
  Q(sqrt(g)), generated by a differentiation term plus two definite
  integrals anchored at v = 1.  Integration uses an exact rule set;
  the logarithm L = ln(1 + g v^2) and the non-elementary integrals
  X_b = Int v d^b / (1 + g v^2) dv show up in intermediate
  antiderivatives and must cancel in the combined result.  A surviving
  L or X_b coefficient aborts the step with IntegrityError rather than
  being dropped.

The Legendre recurrence runs once per order, not once per (g, zeta): its
only parameters are gamma = sqrt(g) and zeta, and it divides only by
gamma, g and 1 + g, so each psi_k, psibar_k, psiplus_k and psibarplus_k
is held as one generic element, a polynomial in gamma, 1/gamma and zeta
over (1 + g)^k with rational coefficients (`_Poly`).  The cancellation
checks are then polynomial identities.  A chain at one (g, zeta) is the
generic element specialised exactly: even powers of gamma go to the
rational part, odd powers to the surd part.

Every chain entry and antiderivative table entry is a pure function of
its arguments, memoised by a bounded functools.lru_cache.  The Bessel
chains and the generic Legendre orders are keyed by k and the
antiderivative tables by (a, b), none by the pair; each entry is built
on first use and none at import.  The specialised Legendre chains are
keyed by (k, g, zeta) and hold _CACHED_PAIRS exact pairs, dropping the
least recently used entries past that.  Threads may share all of them:
the caches stay coherent, cached values are never mutated, and racing
threads get equal chains, though they may build one entry twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .coeff import CoeffExpr
from .errors import DomainError, IntegrityError, UsageError
from .exact import ExactScalar, rational_sqrt

# Deepest coefficient order that every series entry point serves.
K_MAX = 6

_BESSEL_G = Fraction(1)


def _check_k(k: int) -> None:
    if k < 0 or k > K_MAX:
        raise UsageError(f"k = {k} outside [0, {K_MAX}]")


# -- exact Stirling data -----------------------------------------------------

def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m by the defining recurrence sum_{j<=m} C(m+1,j) B_j = [m=0]."""
    if m < 0:
        raise UsageError("m must be nonnegative")
    bern = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * bern[j]
        bern.append(-acc / (k + 1))
    return bern


def stirling_exp_coefficients(m: int) -> list[Fraction]:
    """Coefficients e_0..e_m of exp(-sum_j B_{2j}/(2j(2j-1)) u^{2j-1}).

    This is the reciprocal correction series of the factorial asymptote:
    1/n! = (e/n)^n / sqrt(2 pi n) * sum_m e_m n^{-m}.
    """
    if m < 0:
        raise UsageError("m must be nonnegative")
    bern = bernoulli_numbers(2 * m + 2)
    s = [Fraction(0)] * (m + 1)
    for j in range(1, m + 1):
        idx = 2 * j - 1
        if idx <= m:
            s[idx] = -bern[2 * j] / (2 * j * (2 * j - 1))
    e = [Fraction(1)] + [Fraction(0)] * m
    for k in range(1, m + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += i * s[i] * e[k - i]
        e[k] = acc / k
    return e


# -- Bessel-side chain -------------------------------------------------------

def _poly_ddt(expr: CoeffExpr) -> CoeffExpr:
    """Plain d/dt of a pure polynomial expression."""
    terms = {}
    for (a, b, l), c in expr.items():
        if a > 0:
            terms[(a - 1, b, l)] = c * a
    return CoeffExpr(expr.g, expr.zeta, terms)


def _poly_int_zero(expr: CoeffExpr) -> CoeffExpr:
    """Antiderivative of a pure polynomial vanishing at t = 0."""
    terms = {}
    for (a, b, l), c in expr.items():
        terms[(a + 1, b, l)] = c * Fraction(1, a + 1)
    return CoeffExpr(expr.g, expr.zeta, terms)


def integrate_step_bessel(expr: CoeffExpr) -> CoeffExpr:
    """One step of the Bessel-side recurrence on polynomials in t."""
    if not expr.is_polynomial:
        raise UsageError("Bessel-side step requires a pure polynomial in t")
    if any(c.b != 0 for _, c in expr.items()):
        raise UsageError("Bessel-side polynomials must have rational coefficients")
    g, zeta = expr.g, expr.zeta
    bracket = CoeffExpr.poly_v(g, zeta, {2: Fraction(1, 2), 4: Fraction(-1, 2)})
    dterm = bracket * _poly_ddt(expr)
    weight = CoeffExpr.poly_v(g, zeta, {0: 1, 2: -5})
    iterm = _poly_int_zero(weight * expr).scale(Fraction(1, 8))
    return dterm + iterm


@lru_cache(maxsize=K_MAX + 1)
def omega(k: int) -> CoeffExpr:
    """k-th Bessel-side coefficient polynomial (in t, rational coefficients)."""
    _check_k(k)
    if k == 0:
        return CoeffExpr.one(_BESSEL_G, 0)
    return integrate_step_bessel(omega(k - 1))


@lru_cache(maxsize=K_MAX + 1)
def omega_bar(k: int) -> CoeffExpr:
    """Derivative-side Bessel polynomial: w_k + t(t^2-1)(w_{k-1}/2 + t w'_{k-1})."""
    _check_k(k)
    if k == 0:
        return omega(0)
    w_prev = omega(k - 1)
    g, zeta = w_prev.g, w_prev.zeta
    half_t3_minus_t = CoeffExpr.poly_v(g, zeta, {3: Fraction(1, 2), 1: Fraction(-1, 2)})
    t4_minus_t2 = CoeffExpr.poly_v(g, zeta, {4: 1, 2: -1})
    return omega(k) + half_t3_minus_t * w_prev + t4_minus_t2 * _poly_ddt(w_prev)


# -- the generic coefficient ring ----------------------------------------------

# Generic monomial key: exponents (a, b, l, i, j) of v, d, L, gamma and zeta.
# i may be negative, since the recurrence divides by gamma and by g = gamma^2.
GenKey = tuple[int, int, int, int, int]


def _acc(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class _Poly:
    """sum n v^a d^b L^l gamma^i zeta^j / (scale (1 + gamma^2)^den), n integer.

    One element stands for a CoeffExpr at every (g, zeta) at once.  The
    Legendre recurrence divides only by gamma, g and 1 + g, so its chains
    live in this ring, and `_specialise` maps them into Q(sqrt(g)).  An
    element is zero exactly when its numerator is, so the cancellation
    checks are polynomial identities.  The rational coefficients n/scale
    share one denominator, so the arithmetic runs on ints.  The caches
    share instances between threads, so `terms` is never mutated once an
    instance is built.
    """

    __slots__ = ("terms", "den", "scale")

    def __init__(self, terms: dict[GenKey, int], den: int = 0, scale: int = 1):
        common = math.gcd(scale, *terms.values())
        if common > 1:
            terms = {key: n // common for key, n in terms.items()}
            scale //= common
        self.terms = terms
        self.den = den
        self.scale = scale

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lifted(self, den: int) -> dict[GenKey, int]:
        """The numerator over (1 + gamma^2)^den, den >= self.den."""
        terms = self.terms
        for _ in range(den - self.den):
            out = dict(terms)
            for (a, b, l, i, j), n in terms.items():
                _acc(out, (a, b, l, i + 2, j), n)
            terms = out
        return terms

    def __add__(self, other: "_Poly") -> "_Poly":
        return _sum((self, other))

    def __sub__(self, other: "_Poly") -> "_Poly":
        return _sum((self, other.times(-1)))

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict[GenKey, int] = {}
        for (a1, b1, l1, i1, j1), n1 in self.terms.items():
            for (a2, b2, l2, i2, j2), n2 in other.terms.items():
                _acc(out, (a1 + a2, b1 + b2, l1 + l2, i1 + i2, j1 + j2), n1 * n2)
        return _Poly(out, self.den + other.den, self.scale * other.scale)

    def times(self, c=1, *, a: int = 0, i: int = 0, j: int = 0, den: int = 0) -> "_Poly":
        """Multiply by c v^a gamma^i zeta^j / (1 + gamma^2)^den, c rational."""
        c = Fraction(c)
        return _Poly({(ka + a, kb, kl, ki + i, kj + j): n * c.numerator
                      for (ka, kb, kl, ki, kj), n in self.terms.items() if c},
                     self.den + den, self.scale * c.denominator)

    def scaled_diff(self) -> "_Poly":
        """(1 + g v^2) d/dv, closed in-basis as in CoeffExpr.scaled_diff."""
        out: dict[GenKey, int] = {}
        for (a, b, l, i, j), n in self.terms.items():
            if a:
                _acc(out, (a - 1, b, l, i, j), n * a)
                _acc(out, (a + 1, b, l, i + 2, j), n * a)
            if b:
                _acc(out, (a, b - 1, l, i + 1, j), -n * b)
            if l:
                _acc(out, (a + 1, b, l - 1, i + 2, j), n * (2 * l))
        return _Poly(out, self.den, self.scale)

    def select(self, keep) -> "_Poly":
        """The monomials whose (a, b, l) satisfy keep(a, b, l)."""
        return _Poly({k: n for k, n in self.terms.items() if keep(*k[:3])},
                     self.den, self.scale)

    def coefficients(self) -> dict[tuple[int, int, int], "_Poly"]:
        """{(a, b, l): coefficient of v^a d^b L^l}, each in gamma and zeta alone."""
        groups: dict[tuple[int, int, int], dict[GenKey, int]] = {}
        for (a, b, l, i, j), n in self.terms.items():
            groups.setdefault((a, b, l), {})[(0, 0, 0, i, j)] = n
        return {key: _Poly(t, self.den, self.scale) for key, t in groups.items()}

    def __repr__(self) -> str:
        body = " + ".join(
            f"({Fraction(n, self.scale)})*v^{a}*d^{b}*L^{l}*gamma^{i}*zeta^{j}"
            for (a, b, l, i, j), n in sorted(self.terms.items())
        )
        return f"({body or 0})/(1 + g)^{self.den}"


def _sum(parts) -> _Poly:
    """The sum of parts, over their common scale and (1 + gamma^2)^den."""
    den = max(p.den for p in parts)
    scale = math.lcm(*(p.scale for p in parts))
    out: dict[GenKey, int] = {}
    for p in parts:
        f = scale // p.scale
        for key, n in p.lifted(den).items():
            _acc(out, key, n * f)
    return _Poly(out, den, scale)


_ZERO = _Poly({})
_ONE = _Poly({(0, 0, 0, 0, 0): 1})
_ONE_MINUS_V2 = _Poly({(0, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0): -1})


def _lift(expr: CoeffExpr) -> _Poly:
    """The generic element a + b gamma of each coefficient a + b sqrt(g)."""
    parts = [((a, b, l, i, 0), x) for (a, b, l), c in expr.items()
             for i, x in ((0, c.a), (1, c.b)) if x]
    scale = math.lcm(*(x.denominator for _, x in parts))
    return _Poly({key: int(x * scale) for key, x in parts}, 0, scale)


# -- specialisation at (g, zeta) ------------------------------------------------

class _Plan(NamedTuple):
    """A generic element and the integer form it is specialised from.

    gamma^i = g^e gamma^(i - 2e) with e = i // 2: even i feed the rational
    part, odd i the surd part.  Each coefficient is an integer n over the
    element's scale; a term n g^e zeta^j is held in rows as (w, n), where
    w indexes the pair's table of g^e zeta^j numerators."""

    poly: _Poly
    emin: int
    emax: int
    jmax: int
    rows: tuple[tuple[tuple[int, int, int], tuple, tuple], ...]


def _plan(poly: _Poly) -> _Plan:
    es = [i // 2 for (_, _, _, i, _) in poly.terms]
    emin, emax = min(es + [0]), max(es + [0])
    jmax = max((j for (*_, j) in poly.terms), default=0)
    rows: dict[tuple[int, int, int], tuple[list, list]] = {}
    for (a, b, l, i, j), n in poly.terms.items():
        w = (i // 2 - emin) * (jmax + 1) + j
        rows.setdefault((a, b, l), ([], []))[i % 2].append((w, n))
    return _Plan(poly, emin, emax, jmax,
                 tuple((key, tuple(even), tuple(odd)) for key, (even, odd) in rows.items()))


def _specialise(plan: _Plan, g, zeta) -> CoeffExpr:
    """The exact CoeffExpr a planned generic element takes at (g, zeta).

    With g = p/q and zeta = r/s, each part of each coefficient is an
    integer sum over the terms, then one Fraction:

            g^e zeta^j / (scale (1 + g)^den)
          = p^(e-emin) q^(emax-e) r^j s^(jmax-j) q^den
            / (scale p^-emin q^emax s^jmax (p + q)^den).
    """
    g, zeta = Fraction(g), Fraction(zeta)
    if g <= 0:
        raise DomainError(f"field parameter g must be positive, got {g}")
    p, q = g.numerator, g.denominator
    r, s = zeta.numerator, zeta.denominator
    span, jmax = plan.emax - plan.emin, plan.jmax
    rs = [r**j * s ** (jmax - j) for j in range(jmax + 1)]
    table = [p**t * q ** (span - t) * z for t in range(span + 1) for z in rs]
    den = plan.poly.den
    top = q**den
    bottom = plan.poly.scale * p ** (-plan.emin) * q**plan.emax * s**jmax * (p + q) ** den
    root = rational_sqrt(g)
    if root is not None:
        # gamma = rn/rd is rational: the surd part folds into the rational one
        rn, rd = root.numerator, root.denominator
        top_b, bottom = top * rn, bottom * rd
        top *= rd
    else:
        top_b = top
    zero = Fraction(0)
    terms: dict[tuple[int, int, int], ExactScalar] = {}
    for key, even, odd in plan.rows:
        num_a = sum(n * table[w] for w, n in even) * top
        num_b = sum(n * table[w] for w, n in odd) * top_b
        if root is not None:
            num_a, num_b = num_a + num_b, 0
        if num_a or num_b:
            terms[key] = ExactScalar.canonical(
                Fraction(num_a, bottom) if num_a else zero,
                Fraction(num_b, bottom) if num_b else zero, g)
    return CoeffExpr.canonical(g, zeta, terms)


def _specialise_poly(poly: _Poly, g, zeta) -> CoeffExpr:
    return _specialise(_plan(poly), g, zeta)


# -- Legendre-side antiderivative engine ----------------------------------------

class _Anti(NamedTuple):
    """Indefinite antiderivative: explicit part plus formal part.  In xco
    the monomial d^b stands for the non-elementary X_b."""

    expr: _Poly
    xco: _Poly


class _DefInt(NamedTuple):
    """Definite integral from v' = 1: explicit part, X_b part, and the
    coefficient of the anchor constant ln(1 + g) from the lower limit."""

    expr: _Poly
    xco: _Poly
    anchor: _Poly


# Entries of each antiderivative table: the chains to K_MAX use under 64.
_TABLE_SIZE = 256


@lru_cache(maxsize=_TABLE_SIZE)
def _anti_power(a: int, b: int) -> _Anti:
    """Antiderivative of v^a d^b (indefinite; explicit constant left at 0)."""
    lead = _Poly({(a + 1, b, 0, 0, 0): 1}, 0, a + 1)
    if b == 0:
        return _Anti(lead, _ZERO)
    # by parts: the d-power drops by one against 1/(1+gv^2), times gamma
    tail = _anti_ratio(a + 1, b - 1)
    factor = Fraction(b, a + 1)
    return _Anti(lead + tail.expr.times(factor, i=1), tail.xco.times(factor, i=1))


@lru_cache(maxsize=_TABLE_SIZE)
def _anti_ratio(a: int, b: int) -> _Anti:
    """Antiderivative of v^a d^b / (1 + g v^2)."""
    if a == 0:
        return _Anti(_Poly({(0, b + 1, 0, -1, 0): -1}, 0, b + 1), _ZERO)
    if a == 1 and b == 0:
        return _Anti(_Poly({(0, 0, 1, -2, 0): 1}, 0, 2), _ZERO)
    if a == 1:
        # Int v d^b/(1+gv^2) dv is not elementary; keep it formal.
        return _Anti(_ZERO, _Poly({(0, b, 0, 0, 0): 1}))
    # v^a/(1+gv^2) = v^(a-2)/g - v^(a-2)/(g(1+gv^2))
    part_p = _anti_power(a - 2, b)
    part_a = _anti_ratio(a - 2, b)
    return _Anti((part_p.expr - part_a.expr).times(i=-2),
                 (part_p.xco - part_a.xco).times(i=-2))


def _definite(anti: _Anti) -> _DefInt:
    """Anchor an antiderivative at v = 1.

    At v = 1 the d-factors vanish; L(1) = ln(1+g) is kept formal as the
    anchor coefficient.
    """
    const: dict[GenKey, int] = {}
    anchor: dict[GenKey, int] = {}
    for (a, b, l, i, j), n in anti.expr.terms.items():
        if b > 0:
            continue
        if l == 0:
            _acc(const, (0, 0, 0, i, j), n)
        elif l == 1 and a == 0:
            _acc(anchor, (0, 0, 0, i, j), -n)
        else:
            raise IntegrityError(
                f"unexpected log monomial (a={a}, b={b}, l={l}) in antiderivative"
            )
    den, scale = anti.expr.den, anti.expr.scale
    # Formal X_b are anchored at v = 1 by convention, adding nothing here.
    return _DefInt(anti.expr - _Poly(const, den, scale), anti.xco,
                   _Poly(anchor, den, scale))


def _integrate_expr(expr: _Poly, table) -> _DefInt:
    """Definite integral from 1 of expr through one antiderivative table:
    _anti_power for expr itself, _anti_ratio for expr / (1 + g v^2)."""
    cols: tuple[list[_Poly], ...] = ([_ZERO], [_ZERO], [_ZERO])
    for (a, b, l), c in expr.coefficients().items():
        if l != 0:
            raise UsageError("integrand must be log-free")
        for col, part in zip(cols, _definite(table(a, b))):
            col.append(part * c)
    return _DefInt(*(_sum(col) for col in cols))


def _step(psi_k: _Poly, value=lambda t: t) -> _Poly:
    """One Legendre-side recurrence step with transient-cancellation check.

    Each transient coefficient (of L, of higher logs, of the anchor, of
    each X_b) must be zero after `value`: as generic elements for the
    chains, at one (g, zeta) for integrate_step_legendre.
    """
    if psi_k.select(lambda a, b, l: l).terms:
        raise UsageError("recurrence input must be log-free")
    dterm = (psi_k.scaled_diff() * _ONE_MINUS_V2).times(Fraction(1, 2), den=1)
    # (5 v^2 + 1/g - 1) psi_k
    bracket = _sum((psi_k.times(5, a=2), psi_k.times(i=-2), psi_k.times(-1)))
    int_poly = _integrate_expr(bracket, _anti_power)
    int_ratio = _integrate_expr(psi_k, _anti_ratio)

    def weigh(x: _Poly, y: _Poly) -> _Poly:
        """w_poly x + w_ratio y with w_poly = -g/(8(1+g)), w_ratio = -zeta."""
        return x.times(Fraction(-1, 8), i=2, den=1) + y.times(-1, j=1)

    result = dterm + weigh(int_poly.expr, int_ratio.expr)
    xco = weigh(int_poly.xco, int_ratio.xco)
    transients = [
        ("L coefficient", result.select(lambda a, b, l: (a, b, l) == (0, 0, 1))),
        ("higher log monomials", result.select(lambda a, b, l: l and (a, b, l) != (0, 0, 1))),
        ("anchor ln(1+g) coefficient", weigh(int_poly.anchor, int_ratio.anchor)),
    ]
    transients += [(f"X_{b} coefficient", c)
                   for (_, b, _), c in sorted(xco.coefficients().items())]
    problems = []
    for what, t in transients:
        left = value(t)
        if not left.is_zero:
            problems.append(f"{what} {left!r}")
    if problems:
        raise IntegrityError(
            "transients failed to cancel in recurrence step: "
            + "; ".join(problems)
        )
    return result.select(lambda a, b, l: not l)


def integrate_step_legendre(expr: CoeffExpr, g, zeta) -> CoeffExpr:
    """One recurrence step for the Legendre-side coefficients at (g, zeta).

    The input is lifted into the generic ring, stepped there and
    specialised back; its transients must vanish at (g, zeta).
    """
    if expr.g != Fraction(g) or expr.zeta != Fraction(zeta):
        raise UsageError("expression parameters do not match (g, zeta)")

    def at_pair(t: _Poly) -> CoeffExpr:
        return _specialise_poly(t, expr.g, expr.zeta)

    return at_pair(_step(_lift(expr), at_pair))


# -- generic chains and their specialisations ------------------------------------

@lru_cache(maxsize=K_MAX + 1)
def _psi_generic(k: int) -> _Plan:
    return _plan(_ONE if k == 0 else _step(_psi_generic(k - 1).poly))


@lru_cache(maxsize=K_MAX + 1)
def _psi_bar_generic(k: int) -> _Plan:
    """psibar_k = psi_k - g v (1-v^2)/(2(1+g)) psi_{k-1}
                  - (1-v^2)(1+g v^2)/(1+g) dpsi_{k-1}/dv,

    with the last term formed in-basis from the scaled derivative."""
    if k == 0:
        return _psi_generic(0)
    prev = _psi_generic(k - 1).poly
    v_term = (prev.times(a=1) * _ONE_MINUS_V2).times(Fraction(1, 2), i=2, den=1)
    d_term = (prev.scaled_diff() * _ONE_MINUS_V2).times(den=1)
    return _plan(_psi_generic(k).poly - v_term - d_term)


def _plus_combine(chain: list[_Poly]) -> _Plan:
    """sum_{i<=k} e_i chain[k-i] with e_i the Stirling reciprocal coefficients."""
    k = len(chain) - 1
    return _plan(_sum([term.times(e_i) for e_i, term
                       in zip(stirling_exp_coefficients(k), reversed(chain))]))


@lru_cache(maxsize=K_MAX + 1)
def _psi_plus_generic(k: int) -> _Plan:
    return _plus_combine([_psi_generic(i).poly for i in range(k + 1)])


@lru_cache(maxsize=K_MAX + 1)
def _psi_bar_plus_generic(k: int) -> _Plan:
    return _plus_combine([_psi_bar_generic(i).poly for i in range(k + 1)])


# Exact (g, zeta) pairs the specialised chains hold: a pair fills K_MAX + 1
# entries of each of the four.
_CACHED_PAIRS = 32
_CHAIN_SIZE = _CACHED_PAIRS * (K_MAX + 1)


@lru_cache(maxsize=_CHAIN_SIZE)
def psi(k: int, g, zeta) -> CoeffExpr:
    """k-th Legendre-side coefficient function (exact, log-free)."""
    _check_k(k)
    return _specialise(_psi_generic(k), g, zeta)


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_bar(k: int, g, zeta) -> CoeffExpr:
    """Derivative-side Legendre coefficient.

    psibar_k = psi_k - g v (1-v^2)/(2(1+g)) psi_{k-1}
               - (1-v^2)(1+g v^2)/(1+g) dpsi_{k-1}/dv.
    """
    _check_k(k)
    return _specialise(_psi_bar_generic(k), g, zeta)


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_plus(k: int, g, zeta) -> CoeffExpr:
    """Legendre coefficient with the factorial correction series folded in.

    psiplus_k = sum_{i<=k} e_i psi_{k-i} with e_i the exact Stirling
    reciprocal coefficients; the sign-alternating series reuses the same
    combination because e_i carries parity (-1)^i under n -> -n.
    """
    _check_k(k)
    return _specialise(_psi_plus_generic(k), g, zeta)


@lru_cache(maxsize=_CHAIN_SIZE)
def psi_bar_plus(k: int, g, zeta) -> CoeffExpr:
    """Derivative-side analogue of psi_plus."""
    _check_k(k)
    return _specialise(_psi_bar_plus_generic(k), g, zeta)
