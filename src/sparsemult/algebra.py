"""Exact commutative algebra: rationals, sparse polynomials, truncated
series, fraction-free linear algebra, and Sylvester resultants.

The ground field is Q (``fractions.Fraction``).  Symbolic parameters, when
needed, are carried by :class:`MPoly`, a sparse multivariate polynomial over
Q; polynomial types accept either scalar as a coefficient, so a resultant
with parameter coefficients comes out as a univariate polynomial whose
coefficients are parameter polynomials.  Everything is immutable after
construction and all arithmetic is exact.

Truncated series, the hot loop of branch expansion, are fraction-free: one
positive common denominator and integer numerators, kept in lowest terms,
so that normal form is unique.  Fractions are built only where a caller
reads a coefficient.  Evaluation of a Laurent polynomial and of its
gradient, for rational coefficients only, likewise sums integer
numerator/denominator pairs.

Univariate decision polynomials are computed on integers as well: the
triangle Hessian and Theta are integer coefficient lists, and root
stripping and the rational-root search divide integer numerators by
(b·t − a) exactly (Gauss's lemma).  Fractions are built once, at the
boundary, in the :class:`UnivariatePolynomial` that is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InputError
from .lattice import SupportSet

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# multivariate polynomials over Q (parameter carriers)


class MPoly:
    """Sparse multivariate polynomial over Q with a fixed variable tuple."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Tuple[str, ...], terms: Optional[Dict[Tuple[int, ...], Fraction]] = None):
        self.vars = tuple(vars)
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            c = _frac(c)
            if c != 0:
                if len(e) != len(self.vars) or any(k < 0 for k in e):
                    raise InputError(f"bad exponent {e} for vars {self.vars}")
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def const(cls, vars: Tuple[str, ...], c) -> "MPoly":
        c = _frac(c)
        return cls(vars, {tuple([0] * len(vars)): c} if c != 0 else {})

    @classmethod
    def var(cls, vars: Tuple[str, ...], name: str) -> "MPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise InputError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return MPoly.const(self.vars, other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        return isinstance(other, MPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, Fraction(0)) + c
        return MPoly(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        t: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative power of a polynomial")
        return _square_and_multiply(self, n, MPoly.const(self.vars, 1))

    def degree(self, name: Optional[str] = None) -> int:
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def is_const(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const():
            raise InputError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def coeffs_in(self, name: str) -> List["MPoly"]:
        """Coefficients as polynomials in the remaining variables, ascending in name."""
        i = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        d = self.degree(name)
        out = [MPoly(rest, {}) for _ in range(max(d + 1, 1))]
        for e, c in self.terms.items():
            re = tuple(k for j, k in enumerate(e) if j != i)
            out[e[i]] = out[e[i]] + MPoly(rest, {re: c})
        return out

    def _lead(self) -> Tuple[Tuple[int, ...], Fraction]:
        e = max(self.terms)
        return e, self.terms[e]

    def __floordiv__(self, other) -> "MPoly":
        """Exact division; raises ArithmeticError if the quotient is not polynomial."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return MPoly(self.vars, {})
        q = MPoly(self.vars, {})
        r = self
        de, dc = other._lead()
        while r:
            re, rc = r._lead()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(k < 0 for k in qe):
                raise ArithmeticError("inexact polynomial division")
            term = MPoly(self.vars, {qe: rc / dc})
            q = q + term
            r = r - term * other
        return q

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _square_and_multiply(base, n: int, one):
    """base**n for n >= 0 by binary exponentiation, starting from ``one``."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _is_zero(c) -> bool:
    if isinstance(c, MPoly):
        return not c
    return c == 0


# ---------------------------------------------------------------------------
# univariate polynomials


class UnivariatePolynomial:
    """Dense univariate polynomial; coefficients are Fractions or MPolys."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Sequence = (), var: str = "t"):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs if cs and isinstance(cs[0], MPoly) else [_frac(c) if not isinstance(c, MPoly) else c for c in cs])
        self.var = var

    @classmethod
    def zero(cls, var: str = "t") -> "UnivariatePolynomial":
        return cls((), var)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self):
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def _wrap(self, coeffs):
        return UnivariatePolynomial(coeffs, self.var)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def _coerce(self, other) -> "UnivariatePolynomial":
        if isinstance(other, UnivariatePolynomial):
            if other.var != self.var:
                raise InputError(f"variable mismatch {self.var!r} vs {other.var!r}")
            return other
        return UnivariatePolynomial([other], self.var)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return self._wrap([c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return self._wrap(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative power")
        return _square_and_multiply(self, n, self._wrap([Fraction(1)]))

    def __floordiv__(self, other) -> "UnivariatePolynomial":
        """Exact division; raises ArithmeticError on a non-zero remainder."""
        q, r = _poly_divmod(self, self._coerce(other))
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial([other], self.var)
        return (
            isinstance(other, UnivariatePolynomial)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def derivative(self) -> "UnivariatePolynomial":
        return self._wrap([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def divmod_linear(self, root: Fraction) -> Tuple["UnivariatePolynomial", Fraction]:
        """Synthetic division by (var - root), returning (quotient, remainder).

        The root is a Fraction; the coefficients may be Fractions or any ring
        elements that add to and multiply by Fractions, such as the MPoly
        coefficients of a resultant in parameters."""
        root = _frac(root)
        acc = Fraction(0)
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        out.reverse()
        rem = out[0] if out else Fraction(0)
        return self._wrap(out[1:]), rem

    def monic(self) -> "UnivariatePolynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return self._wrap([c / lead for c in self.coeffs])

    def primitive_integer(self) -> "UnivariatePolynomial":
        """Scale to integer coefficients with gcd 1 and positive leading term."""
        if self.is_zero():
            return self
        nums, _ = _integer_numerators(self)
        g = gcd(*nums) if nums[-1] > 0 else -gcd(*nums)
        return self._wrap([v // g for v in nums])

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*{self.var}")
            else:
                parts.append(f"({c})*{self.var}^{i}")
        return " + ".join(parts)


def poly_gcd(p: UnivariatePolynomial, q: UnivariatePolynomial) -> UnivariatePolynomial:
    """Monic gcd over Q (Euclid)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    return a.monic() if not a.is_zero() else a


def _poly_divmod(
    a: UnivariatePolynomial, b: UnivariatePolynomial
) -> Tuple[UnivariatePolynomial, UnivariatePolynomial]:
    """Long division over Q: (quotient, remainder) with deg remainder < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    db, lead = b.degree(), b.leading()
    r = list(a.coeffs)
    q = [Fraction(0)] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        factor = r[k + db] / lead
        if factor:
            q[k] = factor
            for j, c in enumerate(b.coeffs):
                r[k + j] -= factor * c
    return UnivariatePolynomial(q, a.var), UnivariatePolynomial(r[:db], a.var)


def _integer_numerators(p: UnivariatePolynomial) -> Tuple[List[int], int]:
    """Integer numerators of p's coefficients over the lcm of their
    denominators: p = Σ nums[i]·t^i / den."""
    den = lcm(*[c.denominator for c in p.coeffs])
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _exact_linear_quotient(c: List[int], a: int, b: int) -> Optional[List[int]]:
    """Quotient of the integer polynomial c (ascending coefficients) by
    (b·t − a) in Z[t], or None when (b·t − a) does not divide c.

    The root a/b must be in lowest terms with b > 0.  By Gauss's lemma
    (b·t − a is primitive) a/b is a root of c exactly when the quotient has
    integer coefficients, so the division runs from the top coefficient
    down and stops at the first inexact step or a non-zero remainder.
    """
    q = [0] * (len(c) - 1)
    carry = 0  # a · q_i, added to the next lower coefficient
    for i in range(len(c) - 1, 0, -1):
        v, rest = divmod(c[i] + carry, b)
        if rest:
            return None
        q[i - 1] = v
        carry = a * v
    if c[0] + carry:
        return None
    return q


def factor_out_roots(
    p: UnivariatePolynomial, roots: Sequence[Fraction]
) -> Tuple[UnivariatePolynomial, Tuple[int, ...]]:
    """Divide out each listed rational root to maximal multiplicity.

    Returns the reduced factor and the multiplicity of each root, in order.
    The work is in integers: p is scaled to integer numerators over one
    denominator, and each root a/b is divided out as (b·t − a) by
    ``_exact_linear_quotient`` as often as that division is exact.  The
    reduced factor is b^mult / den times the integer quotient, so it is the
    quotient of p by the monic (t − a/b)^mult, with Fraction coefficients.
    """
    if p.is_zero():
        raise InputError("zero polynomial")
    nums, den = _integer_numerators(p)
    scale = 1
    mults = []
    for r in roots:
        r = _frac(r)
        a, b = r.numerator, r.denominator
        m = 0
        while len(nums) > 1 and (q := _exact_linear_quotient(nums, a, b)) is not None:
            nums = q
            m += 1
        scale *= b ** m
        mults.append(m)
    return p._wrap([Fraction(v * scale, den) for v in nums]), tuple(mults)


def rational_roots(p: UnivariatePolynomial) -> List[Fraction]:
    """All rational roots of a nonzero polynomial over Q, ascending.

    Candidates are ±(divisor of the lowest non-zero coefficient) / (divisor
    of the leading one) of the primitive integer polynomial; each is tested
    by the exact division ``_exact_linear_quotient`` that
    ``factor_out_roots`` uses, so no candidate is evaluated over Fraction.
    """
    if p.is_zero():
        raise InputError("zero polynomial")
    nums, _ = _integer_numerators(p)
    content = gcd(*nums)
    shift = next(i for i, v in enumerate(nums) if v)
    coeffs = [v // content for v in nums[shift:]]
    roots = {Fraction(0)} if shift else set()
    if len(coeffs) > 1:

        def divisors(n):
            out = []
            d = 1
            while d * d <= n:
                if n % d == 0:
                    out.append(d)
                    out.append(n // d)
                d += 1
            return sorted(set(out))

        candidates = {
            Fraction(sign * num, den)
            for num in divisors(abs(coeffs[0]))
            for den in divisors(abs(coeffs[-1]))
            for sign in (1, -1)
        }
        roots.update(
            r for r in candidates
            if _exact_linear_quotient(coeffs, r.numerator, r.denominator) is not None
        )
    return sorted(roots)


# ---------------------------------------------------------------------------
# truncated power series over Q


def _convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The first min(len(a), len(b)) coefficients of the product of two
    coefficient lists, schoolbook and not reduced."""
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(min(len(a), len(b)))]


def _combine(terms: Sequence[Tuple[Fraction, Sequence[int], int]]) -> Tuple[List[int], int]:
    """sum(c * nums / den for c, nums, den in terms) as numerators over the
    least common denominator, not reduced, truncated to the shortest list."""
    dens = [c.denominator * d for c, _, d in terms]
    den = lcm(*dens)
    scale = [c.numerator * (den // d) for (c, _, _), d in zip(terms, dens)]
    return [sum(map(mul, scale, col)) for col in zip(*[n for _, n, _ in terms])], den


class TruncatedSeries:
    """One-variable power series over Q, exact up to a stated order.

    The t^i coefficient is ``nums[i] / den``: integer numerators over one
    positive common denominator, in lowest terms (gcd(den, *nums) == 1).
    That normal form is unique, so equal series have equal fields.
    Coefficients beyond the truncation order are unknown (not zero), and
    binary operations truncate to the smaller order of the two operands.
    Arithmetic works on the integers and reduces each result once, by one
    gcd; ``coeffs`` and ``coefficient`` build Fractions only for callers
    that read them.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[Fraction]):
        if not coeffs:
            raise InputError("series needs at least the constant coefficient")
        cs = [_frac(c) for c in coeffs]
        # over the least common denominator the numerators share no factor with it
        self.den = lcm(*[c.denominator for c in cs])
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in cs)

    @classmethod
    def _make(cls, nums: Sequence[int], den: int) -> "TruncatedSeries":
        # trusted constructor: integer numerators over a positive denominator
        g = gcd(den, *nums)
        s = object.__new__(cls)
        s.nums = tuple(nums) if g == 1 else tuple(c // g for c in nums)
        s.den = den // g
        return s

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def truncation_order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedSeries":
        c = _frac(c)
        return cls._make((c.numerator,) + (0,) * order, c.denominator)

    @classmethod
    def from_coeff_map(cls, pairs: Dict[int, Fraction], order: int) -> "TruncatedSeries":
        cs = [Fraction(0)] * (order + 1)
        for i, c in pairs.items():
            if 0 <= i <= order:
                cs[i] = _frac(c)
        return cls(cs)

    def coefficient(self, i: int) -> Fraction:
        if i > self.truncation_order:
            raise InputError(f"coefficient {i} beyond truncation {self.truncation_order}")
        return Fraction(self.nums[i], self.den)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.truncation_order:
            return self
        return TruncatedSeries._make(self.nums[: order + 1], self.den)

    def order(self) -> Optional[int]:
        """Index of the first non-zero coefficient, or None if all known ones vanish."""
        for i, c in enumerate(self.nums):
            if c:
                return i
        return None

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.truncation_order)
        da, db = self.den, other.den
        if da == db:
            return TruncatedSeries._make(list(map(add, self.nums, other.nums)), da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return TruncatedSeries._make(
            [x * sa + y * sb for x, y in zip(self.nums, other.nums)], da * sa)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._make([-c for c in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.truncation_order)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _frac(other)
            return TruncatedSeries._make(
                [c * other.numerator for c in self.nums], self.den * other.denominator)
        return TruncatedSeries._make(_convolve(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        a = self.nums
        a0 = a[0]
        if a0 == 0:
            raise InputError("series inverse requires a unit (non-zero constant term)")
        # self = a(t)/den; 1/a has t^k coefficient q_k / a0^(k+1), where q_0 = 1
        # and q_k = -sum_{j=1..k} a_j a0^(j-1) q_(k-j).  Over the common
        # denominator a0^(n+1) the numerators of 1/self are den q_k a0^(n-k).
        n = len(a) - 1
        w = [aj * a0 ** (j - 1) for j, aj in enumerate(a) if j]
        q = [1]
        for k in range(1, n + 1):
            q.append(-sum(map(mul, w[:k], q[::-1])))
        d, den = self.den, a0 ** (n + 1)
        if den < 0:
            d, den = -d, -den
        return TruncatedSeries._make([d * qk * a0 ** (n - k) for k, qk in enumerate(q)], den)

    def int_pow(self, e: int) -> "TruncatedSeries":
        base = self if e >= 0 else self.inverse()
        return _square_and_multiply(base, abs(e), TruncatedSeries.constant(1, self.truncation_order))

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.den == other.den and self.nums == other.nums

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# Laurent polynomials in two variables


class LaurentPolynomial:
    """Map from integer exponent pairs to non-zero coefficients.

    Coefficients are Fractions, or MPolys when symbolic parameters are in
    play.  Parameters are carried through arithmetic and the resultant, not
    evaluated: ``evaluate`` and ``gradient`` take rational coefficients only.
    Negative exponents are allowed (evaluation then requires non-zero
    coordinates).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[int, int], object]] = None):
        clean: Dict[Tuple[int, int], object] = {}
        for e, c in (terms or {}).items():
            e = (int(e[0]), int(e[1]))
            if not isinstance(c, MPoly):
                c = _frac(c)
            if not _is_zero(c):
                clean[e] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> SupportSet:
        if not self.terms:
            raise InputError("zero polynomial has empty support")
        return SupportSet(self.terms.keys())

    def coefficient(self, e: Tuple[int, int]):
        return self.terms.get((int(e[0]), int(e[1])), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial({(0, 0): other})
        t = dict(self.terms)
        for e, c in other.terms.items():
            cur = t.get(e)
            t[e] = c if cur is None else cur + c
        return LaurentPolynomial(t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial({(0, 0): other})
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return LaurentPolynomial({e: c * other for e, c in self.terms.items()})
        t: Dict[Tuple[int, int], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                cur = t.get(e)
                prod = c1 * c2
                t[e] = prod if cur is None else cur + prod
        return LaurentPolynomial(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative power of a polynomial")
        return _square_and_multiply(self, n, LaurentPolynomial({(0, 0): 1}))

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def partial(self, var: str) -> "LaurentPolynomial":
        i = {"x": 0, "y": 1}[var]
        t = {}
        for e, c in self.terms.items():
            if e[i] != 0:
                ne = (e[0] - 1, e[1]) if i == 0 else (e[0], e[1] - 1)
                t[ne] = t.get(ne, 0) + c * e[i]
        return LaurentPolynomial(t)

    def evaluate(self, point: Tuple[Fraction, Fraction]):
        return _sum_at(point, [(e, c, 1) for e, c in self.terms.items()])

    def gradient(self, point: Tuple[Fraction, Fraction]) -> Tuple:
        """(df/dx, df/dy) at point, read off the terms without building the
        partial derivatives; raises where ``evaluate`` does."""
        terms = self.terms.items()
        return (_sum_at(point, [((e1 - 1, e2), c, e1) for (e1, e2), c in terms if e1]),
                _sum_at(point, [((e1, e2 - 1), c, e2) for (e1, e2), c in terms if e2]))

    def shift_exponents(self, v: Tuple[int, int]) -> "LaurentPolynomial":
        return LaurentPolynomial({(e[0] + v[0], e[1] + v[1]): c for e, c in self.terms.items()})

    def __repr__(self):
        parts = []
        for e, c in sorted(self.terms.items()):
            parts.append(f"({c})*x^{e[0]}*y^{e[1]}")
        return " + ".join(parts) if parts else "0"


def _sum_at(point: Tuple[Fraction, Fraction], terms: Sequence[Tuple[Tuple[int, int], object, int]]):
    """sum(w * c * x^e1 * y^e2 for (e1, e2), c, w in terms) at the point,
    for rational c: one numerator/denominator pair per term, summed over the
    least common denominator, one Fraction at the end."""
    px, py = _frac(point[0]), _frac(point[1])
    if (px == 0 or py == 0) and any(
            (e1 < 0 and px == 0) or (e2 < 0 and py == 0) for (e1, e2), _, _ in terms):
        raise InputError("negative exponent at a zero coordinate")
    if not all(isinstance(c, Fraction) for _, c, _ in terms):
        raise InputError("only a polynomial with rational coefficients can be evaluated")
    xn, xd, yn, yd = px.numerator, px.denominator, py.numerator, py.denominator
    num, den = 0, 1
    for (e1, e2), c, w in terms:
        n = w * c.numerator * (xn**e1 if e1 >= 0 else xd**-e1) * (yn**e2 if e2 >= 0 else yd**-e2)
        d = c.denominator * (xd**e1 if e1 >= 0 else xn**-e1) * (yd**e2 if e2 >= 0 else yn**-e2)
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# fraction-free linear algebra over Z, Q[s] and parameter rings


def _integerize_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in rows:
        fr = [_frac(c) for c in row]
        den = lcm(*[c.denominator for c in fr])
        out.append([c.numerator * (den // c.denominator) for c in fr])
    return out


def _bareiss_echelon(m: List[List]) -> Tuple[List[List], List[int], int]:
    """Fraction-free row echelon; returns (matrix, pivot columns, sign).

    Entries are ints, UnivariatePolynomials or MPolys: any ring where ``//``
    divides exactly.  The k-th pivot is the leading k x k minor of the
    row-permuted matrix on the pivot columns (Bareiss 1968).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    piv_cols: List[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return m, piv_cols, sign


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    m = _integerize_rows(rows)
    _, piv, _ = _bareiss_echelon(m)
    return len(piv)


def _kernel_numerators(ech: List[List], piv: List[int], ncols: int, zero, one) -> List[Tuple[int, List]]:
    """(free column, kernel vector) of a Bareiss echelon with ring entries,
    free columns ascending: the free column's entry is the last pivot
    (``one`` when there is none), the other free entries are ``zero``.

    The last pivot is the k x k minor on the pivot columns, so by Cramer's
    rule every entry of such a vector is a minor too, and each division of
    the back-substitution is exact.
    """
    top = ech[len(piv) - 1][piv[-1]] if piv else one
    pivots = set(piv)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = top
        for k in range(len(piv) - 1, -1, -1):
            pc, row = piv[k], ech[k]
            v[pc] = -sum(map(mul, row[pc + 1:], v[pc + 1:]), zero) // row[pc]
        basis.append((fc, v))
    return basis


def integer_kernel(rows: List[List[int]], ncols: int) -> List[Tuple[int, List[int]]]:
    """Right kernel of an integer matrix with ``ncols`` columns, as (free
    column, integer vector) pairs, free columns ascending.

    Each vector's free-column entry is the last Bareiss pivot (1 when there
    is none), a non-zero integer, and its other free entries are 0.  The
    rows are eliminated in place, so pass lists the caller gives up.
    """
    ech, piv, _ = _bareiss_echelon(rows)
    return _kernel_numerators(ech, piv, ncols, 0, 1)


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> List[List[Fraction]]:
    """Exact basis of the right kernel.

    Deterministic: pivot columns ascend, and each basis vector sets one free
    variable to 1 (free columns in ascending order) and the rest to 0.
    ``integer_kernel`` of the integerized rows, each entry made one
    canonical Fraction at the end.
    """
    if not rows:
        if ncols is None:
            raise InputError("need ncols for an empty row set")
    else:
        ncols = len(rows[0])
    return [[Fraction(c, v[fc]) for c in v] for fc, v in integer_kernel(_integerize_rows(rows), ncols)]


def poly_kernel_basis(
    rows: Sequence[Sequence[UnivariatePolynomial]],
) -> Tuple[List[List[UnivariatePolynomial]], List[UnivariatePolynomial]]:
    """Kernel basis of a non-empty matrix over Q[s], and its pivots.

    One vector per free column, in ascending order; the other free entries
    are 0.  Each vector is primitive (its entries have gcd 1) with a monic
    free-column entry, and lies in the kernel as a polynomial identity.
    The pivots are the leading minors of the echelon: away from their roots,
    specializing s keeps the pivot structure and hence the kernel dimension.
    """
    ech, piv, _ = _bareiss_echelon([list(row) for row in rows])
    pivots = [ech[k][c] for k, c in enumerate(piv)]
    zero = UnivariatePolynomial.zero(rows[0][0].var)
    basis = []
    for fc, v in _kernel_numerators(ech, piv, len(rows[0]), zero, UnivariatePolynomial([1], zero.var)):
        g = zero
        for c in v:
            g = poly_gcd(g, c)
        v = [c // g for c in v]
        lead = v[fc].leading()
        basis.append([c * (1 / lead) for c in v])
    return basis, pivots


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of rows * x = rhs, or None if inconsistent.

    x comes from the kernel of [rows | rhs]: the system is consistent
    exactly when the rhs column is free, and the kernel vector v whose free
    column it is (the other free entries 0) gives x = -v[:n] / v[n], the
    solution with every free variable 0.
    """
    if not rows:
        return None
    n = len(rows[0])
    ech, piv, _ = _bareiss_echelon(_integerize_rows([list(r) + [b] for r, b in zip(rows, rhs)]))
    if n in piv:
        return None
    _, v = _kernel_numerators(ech, piv, n + 1, 0, 1)[-1]
    return [Fraction(-c, v[n]) for c in v[:n]]


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square Fraction matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in rows:
        fr = [_frac(c) for c in row]
        den = lcm(*[c.denominator for c in fr])
        scale *= den
        m.append([c.numerator * (den // c.denominator) for c in fr])
    ech, piv, sign = _bareiss_echelon(m)
    if len(piv) < n:
        return Fraction(0)
    return Fraction(sign * ech[n - 1][n - 1], scale)


# ---------------------------------------------------------------------------
# Sylvester resultants


def _collect_param_vars(*polys: LaurentPolynomial) -> Tuple[str, ...]:
    names: List[str] = []
    for p in polys:
        for c in p.terms.values():
            if isinstance(c, MPoly):
                for v in c.vars:
                    if v not in names:
                        names.append(v)
    return tuple(sorted(names))


def _sylvester(fc: List[MPoly], gc: List[MPoly], name: str) -> MPoly:
    """Resultant of two polynomials in ``name`` from their ascending
    coefficient lists (leading entries non-zero): the determinant of the
    Sylvester matrix, by the fraction-free echelon."""
    n, m = len(fc) - 1, len(gc) - 1
    if n == 0 and m == 0:
        raise InputError(f"both inputs independent of {name}")
    if n == 0:
        return fc[0] ** m
    if m == 0:
        return gc[0] ** n
    zero = MPoly(fc[0].vars, {})
    rows = [[zero] * j + fc[::-1] + [zero] * (m - 1 - j) for j in range(m)]
    rows += [[zero] * j + gc[::-1] + [zero] * (n - 1 - j) for j in range(n)]
    ech, piv, sign = _bareiss_echelon(rows)
    if len(piv) < n + m:
        return zero
    return ech[-1][-1] if sign > 0 else -ech[-1][-1]


def sylvester_resultant(
    f: LaurentPolynomial, g: LaurentPolynomial, var: str
) -> UnivariatePolynomial:
    """Resultant eliminating ``var`` ('x' or 'y'), exact.

    Laurent terms are cleared by a monomial shift first; monomials are units
    on the torus, so this changes the resultant only by a monomial factor in
    the surviving variable.  The result is a univariate polynomial in the
    other variable whose coefficients are rationals, or parameter
    polynomials when the inputs carry parameters.  It vanishes identically
    iff the (cleared) inputs share a factor involving ``var``.
    """
    if f.is_zero() or g.is_zero():
        raise InputError("resultant of a zero polynomial")
    vi = {"x": 0, "y": 1}[var]
    other = "y" if var == "x" else "x"

    def cleared(p: LaurentPolynomial) -> LaurentPolynomial:
        m0 = min(e[0] for e in p.terms)
        m1 = min(e[1] for e in p.terms)
        return p.shift_exponents((-min(m0, 0), -min(m1, 0)))

    f, g = cleared(f), cleared(g)
    params = _collect_param_vars(f, g)
    ring_vars = (other,) + params

    def coeff_list(p: LaurentPolynomial) -> List[MPoly]:
        d = max(e[vi] for e in p.terms)
        out = [MPoly(ring_vars, {}) for _ in range(d + 1)]
        for e, c in p.terms.items():
            lifted: MPoly
            if isinstance(c, MPoly):
                lifted = MPoly(ring_vars, {})
                for ee, cc in c.terms.items():
                    full = [0] * len(ring_vars)
                    full[0] = e[1 - vi]
                    for name, k in zip(c.vars, ee):
                        full[ring_vars.index(name)] = k
                    lifted = lifted + MPoly(ring_vars, {tuple(full): cc})
            else:
                full = [0] * len(ring_vars)
                full[0] = e[1 - vi]
                lifted = MPoly(ring_vars, {tuple(full): c})
            out[e[vi]] = out[e[vi]] + lifted
        return out

    res = _sylvester(coeff_list(f), coeff_list(g), var)
    coeffs: List[object] = []
    rest = tuple(v for v in ring_vars if v != other)
    for part in res.coeffs_in(other) if res else []:
        coeffs.append(part.const_value() if not rest else part)
    return UnivariatePolynomial(coeffs, other)


def mpoly_resultant(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Resultant of two parameter polynomials, eliminating ``name``."""
    if not f or not g:
        raise InputError("resultant of a zero polynomial")
    fc = f.coeffs_in(name)
    gc = g.coeffs_in(name)
    while len(fc) > 1 and not fc[-1]:
        fc.pop()
    while len(gc) > 1 and not gc[-1]:
        gc.pop()
    return _sylvester(fc, gc, name)
