"""Exact commutative algebra: rationals, sparse polynomials, truncated
series, fraction-free linear algebra, and Sylvester resultants.

The ground field is Q (``fractions.Fraction``).  Symbolic parameters, when
needed, are carried by :class:`MPoly`, a sparse multivariate polynomial over
Q; polynomial types accept either scalar as a coefficient, so a resultant
with parameter coefficients comes out as a univariate polynomial whose
coefficients are parameter polynomials.  Everything is immutable after
construction and all arithmetic is exact.

Truncated series, the hot loop of branch expansion, and univariate
polynomials are both fraction-free: integer numerators over one positive
common denominator, kept in lowest terms, so that normal form is unique.
Their arithmetic runs on the integers and reduces each result once;
Fractions are built only where a caller reads a coefficient or a value.
Callers that already hold integers, such as the triangle Hessian and
Theta, hand them to the trusted constructor
:meth:`UnivariatePolynomial.from_integers`.  Evaluation is Horner on the
numerators; long division and exact ``//`` divide in Z[t] and scale only
at a step that is not exact there, so the Bareiss elimination over Z[s]
never does; root stripping and the rational-root search divide by
(b·t − a) exactly (Gauss's lemma).  The jet of a Laurent polynomial at a
point, its value and gradient for rational coefficients only, is likewise
summed over one integer denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import InputError
from .lattice import SupportSet, _as_point

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
    return not c if isinstance(c, MPoly) else c == 0


def _over(v, d: int):
    """v / d for a positive integer d: a Fraction for an integer v, an MPoly
    for an MPoly v."""
    if isinstance(v, MPoly):
        return v if d == 1 else v * Fraction(1, d)
    return Fraction(v) if d == 1 else Fraction(v, d)


# ---------------------------------------------------------------------------
# univariate polynomials


class UnivariatePolynomial:
    """Dense univariate polynomial over Q, stored fraction-free.

    The t^i coefficient is ``nums[i] / den``: integer numerators over one
    positive denominator, in lowest terms (gcd(den, *nums) == 1), with no
    trailing zero; the zero polynomial has ``nums == ()`` and ``den == 1``.
    That normal form is unique, so equal polynomials have equal fields and
    equal hashes.  Arithmetic, evaluation, division and root stripping run
    on the integers and reduce each result once, in ``from_integers``;
    ``coeffs``, ``coefficient`` and ``leading`` build Fractions only for
    callers that read them.

    A resultant in symbolic parameters has MPoly coefficients instead: then
    every entry of ``nums`` is an MPoly and ``den`` is 1, and the same code
    runs on them, since MPolys add to and multiply by integers.
    """

    __slots__ = ("nums", "den", "var")

    def __init__(self, coeffs: Sequence = (), var: str = "t"):
        cs = list(coeffs)
        ring = next((c for c in cs if isinstance(c, MPoly)), None)
        if ring is not None:
            nums, den = [ring._coerce(c) for c in cs], 1
        else:
            cs = [_frac(c) for c in cs]
            # over the least common denominator the numerators share no factor with it
            den = lcm(*[c.denominator for c in cs])
            nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den, self.var = tuple(nums), den, var

    @classmethod
    def from_integers(cls, nums: Sequence, var: str = "t", den: int = 1) -> "UnivariatePolynomial":
        """Trusted constructor: Σ nums[i]·var^i / den for integer numerators
        (or MPolys) over a non-zero integer den, brought to normal form."""
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        nums = nums[:n]
        if den != 1:
            if n and isinstance(nums[-1], MPoly):
                nums, den = [c * Fraction(1, den) for c in nums], 1
            else:
                g = gcd(den, *nums)
                if den < 0:
                    g = -g
                nums, den = [c // g for c in nums], den // g
        p = object.__new__(cls)
        p.nums, p.den, p.var = tuple(nums), den, var
        return p

    @classmethod
    def zero(cls, var: str = "t") -> "UnivariatePolynomial":
        return cls.from_integers((), var)

    @property
    def coeffs(self) -> tuple:
        return tuple(_over(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return len(self.nums) - 1

    def leading(self):
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self.coefficient(len(self.nums) - 1)

    def coefficient(self, i: int):
        if 0 <= i < len(self.nums):
            return _over(self.nums[i], self.den)
        return Fraction(0)

    def __call__(self, x):
        """The value at a rational x = a/b: Horner on the numerators gives
        Σ nums[i]·a^i·b^(n−i), which is divided once by den·b^n."""
        if not self.nums:
            return Fraction(0)
        x = _frac(x)
        a, b = x.numerator, x.denominator
        acc, bp = 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bp
            bp *= b
        return _over(acc, self.den * (bp // b))

    def _coerce(self, other) -> "UnivariatePolynomial":
        if isinstance(other, UnivariatePolynomial):
            if other.var != self.var:
                raise InputError(f"variable mismatch {self.var!r} vs {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.from_integers((other.numerator,), self.var, other.denominator)
        return UnivariatePolynomial([other], self.var)

    def __add__(self, other):
        other = self._coerce(other)
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            g = gcd(den, other.den)
            sa, sb = other.den // g, den // g
            a, b, den = [c * sa for c in a], [c * sb for c in b], den * sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self.from_integers(out, self.var, den)

    __radd__ = __add__

    def __neg__(self):
        return self.from_integers([-c for c in self.nums], self.var, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.from_integers(
                [c * other.numerator for c in self.nums], self.var, self.den * other.denominator)
        other = self._coerce(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return self.zero(self.var)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return self.from_integers(out, self.var, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative power")
        return _square_and_multiply(self, n, self.from_integers((1,), self.var))

    def __floordiv__(self, other) -> "UnivariatePolynomial":
        """Exact division; raises ArithmeticError on a non-zero remainder."""
        q, r = _poly_divmod(self, self._coerce(other))
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return (
            isinstance(other, UnivariatePolynomial)
            and self.var == other.var
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.var, self.nums, self.den))

    def derivative(self) -> "UnivariatePolynomial":
        return self.from_integers([c * i for i, c in enumerate(self.nums) if i], self.var, self.den)

    def divmod_linear(self, root: Fraction) -> Tuple["UnivariatePolynomial", Fraction]:
        """Synthetic division by (var - root), returning (quotient, remainder).

        For root = a/b the Horner sums h_k = Σ_{i>=k} nums[i]·a^(i−k)·b^(n−i)
        are integers (or MPolys): the quotient's t^k coefficient is
        h_(k+1)·b^k over den·b^(n−1), and the remainder is h_0 over den·b^n.
        """
        if not self.nums:
            return self, Fraction(0)
        root = _frac(root)
        a, b = root.numerator, root.denominator
        h, acc, bp = [], 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bp
            h.append(acc)
            bp *= b
        h.reverse()
        n = len(h) - 1
        quot = self.from_integers([h[k + 1] * b ** k for k in range(n)], self.var, self.den * b ** max(n - 1, 0))
        return quot, _over(h[0], self.den * b ** n)

    def monic(self) -> "UnivariatePolynomial":
        if self.is_zero():
            return self
        return self.from_integers(self.nums, self.var, self.nums[-1])

    def primitive_integer(self) -> "UnivariatePolynomial":
        """Scale to integer coefficients with gcd 1 and positive leading term."""
        if self.is_zero():
            return self
        g = gcd(*self.nums)
        if self.nums[-1] < 0:
            g = -g
        return self.from_integers([c // g for c in self.nums], self.var)

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
    """Monic gcd over Q: Euclid, each remainder replaced by its primitive
    integer part (the same gcd up to a unit, without coefficient swell)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1].primitive_integer()
    return a.monic()


def _poly_divmod(
    a: UnivariatePolynomial, b: UnivariatePolynomial
) -> Tuple[UnivariatePolynomial, UnivariatePolynomial]:
    """Long division over Q: (quotient, remainder) with deg remainder < deg b.

    It divides a's numerators A by b's numerators B in Z[t], keeping
    scale·A = q·B + r with integer q and r.  A step whose leading entry is
    not a multiple of B's leading coefficient L first multiplies the
    invariant by L, so an exact division in Z[t], such as every Bareiss
    step over Z[s], never scales at all.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    B = b.nums
    db, lead = len(B) - 1, B[-1]
    r = list(a.nums)
    q = [0] * max(len(r) - db, 0)
    scale = 1
    for k in range(len(q) - 1, -1, -1):
        factor, rest = divmod(r[k + db], lead)
        if rest:
            r, q, scale = [c * lead for c in r], [c * lead for c in q], scale * lead
            factor = r[k + db] // lead
        if factor:
            q[k] = factor
            for j, c in enumerate(B):
                r[k + j] -= factor * c
    # a = (scale·A/B)·(B/b.den)·b.den/(scale·a.den): quotient q·b.den and remainder r over scale·a.den
    den = scale * a.den
    return (a.from_integers([c * b.den for c in q], a.var, den),
            a.from_integers(r[:db], a.var, den))


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
    The work is in integers: each root a/b is divided out of p's numerators
    as (b·t − a) by ``_exact_linear_quotient`` as often as that division is
    exact.  The reduced factor is b^mult / den times the integer quotient,
    so it is the quotient of p by the monic (t − a/b)^mult.
    """
    if p.is_zero():
        raise InputError("zero polynomial")
    nums, den = p.nums, p.den
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
    return p.from_integers([v * scale for v in nums], p.var, den), tuple(mults)


def rational_roots(p: UnivariatePolynomial) -> List[Fraction]:
    """All rational roots of a nonzero polynomial over Q, ascending.

    Candidates are ±(divisor of the lowest non-zero coefficient) / (divisor
    of the leading one) of the primitive integer polynomial; each is tested
    by the exact division ``_exact_linear_quotient`` that
    ``factor_out_roots`` uses, so no candidate is evaluated over Fraction.
    """
    if p.is_zero():
        raise InputError("zero polynomial")
    nums = p.nums
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
    evaluated: ``jet``, and ``evaluate`` and ``gradient`` that read it, take
    rational coefficients only.  Negative exponents are allowed (evaluation
    then requires non-zero coordinates).
    """

    __slots__ = ("terms", "_hash", "_jets", "_support")

    def __init__(self, terms: Optional[Dict[Tuple[int, int], object]] = None):
        clean: Dict[Tuple[int, int], object] = {}
        for e, c in (terms or {}).items():
            e = _as_point(e)
            if not isinstance(c, MPoly):
                c = _frac(c)
            if not _is_zero(c):
                clean[e] = c
        self.terms = clean
        self._hash = self._jets = self._support = None

    @classmethod
    def _make(cls, terms: Dict[Tuple[int, int], Fraction]) -> "LaurentPolynomial":
        # trusted constructor: int exponent pairs to non-zero Fractions, a
        # dict the caller gives up
        p = object.__new__(cls)
        p.terms = terms
        p._hash = p._jets = p._support = None
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> SupportSet:
        """The exponents as a SupportSet, built on the first call and kept,
        like the hash: every later call returns the same instance, with
        whatever it has stored since."""
        if self._support is None:
            if not self.terms:
                raise InputError("zero polynomial has empty support")
            self._support = SupportSet._make(self.terms)
        return self._support

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
        # the terms never change after construction: hash them once, on demand
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def partial(self, var: str) -> "LaurentPolynomial":
        i = {"x": 0, "y": 1}[var]
        t = {}
        for e, c in self.terms.items():
            if e[i] != 0:
                ne = (e[0] - 1, e[1]) if i == 0 else (e[0], e[1] - 1)
                t[ne] = t.get(ne, 0) + c * e[i]
        return LaurentPolynomial(t)

    def evaluate(self, point: Tuple[Fraction, Fraction]):
        v, _, _, den = self.jet(point)
        return Fraction(v, den)

    def gradient(self, point: Tuple[Fraction, Fraction]) -> Tuple:
        _, dx, dy, den = self.jet(point)
        return Fraction(dx, den), Fraction(dy, den)

    def jet(self, point: Tuple[Fraction, Fraction]) -> Tuple[int, int, int, int]:
        """(v, dx, dy, den): the value and gradient at point, integers over
        one positive common denominator, in one pass over the terms.  Each
        coordinate tables x^a for lo <= a <= hi over xd^hi xn^-lo, with
        lo = 0 at x = 0, where no exponent may be negative.

        The terms never change, so the jet is kept per point, keyed by its
        numerators and denominators, like the hash; a point that raises is
        not kept, and raises again on every call."""
        px, py = _frac(point[0]), _frac(point[1])
        xn, xd, yn, yd = key = px.numerator, px.denominator, py.numerator, py.denominator
        if self._jets is None:
            self._jets = {}
        jet = self._jets.get(key)
        if jet is not None:
            return jet
        terms = self.terms
        if (not xn or not yn) and any((e1 < 0 and not xn) or (e2 < 0 and not yn) for e1, e2 in terms):
            raise InputError("negative exponent at a zero coordinate")
        if not all(isinstance(c, Fraction) for c in terms.values()):
            raise InputError("only a polynomial with rational coefficients can be evaluated")
        e1s, e2s = zip(*terms) if terms else ((0,), (0,))
        xlo, xhi = min(min(e1s) - 1, 0) if xn else 0, max(max(e1s), 0)
        ylo, yhi = min(min(e2s) - 1, 0) if yn else 0, max(max(e2s), 0)
        xs = [xn ** (a - xlo) * xd ** (xhi - a) for a in range(xlo, xhi + 1)]
        ys = [yn ** (b - ylo) * yd ** (yhi - b) for b in range(ylo, yhi + 1)]
        den = lcm(*[c.denominator for c in terms.values()])
        v = dx = dy = 0
        for (e1, e2), c in terms.items():
            w = c.numerator * (den // c.denominator)
            xa, yb = xs[e1 - xlo], ys[e2 - ylo]
            v += w * xa * yb
            if e1:
                dx += w * e1 * xs[e1 - 1 - xlo] * yb
            if e2:
                dy += w * e2 * xa * ys[e2 - 1 - ylo]
        den *= xn**-xlo * xd**xhi * yn**-ylo * yd**yhi
        jet = self._jets[key] = (v, dx, dy, den) if den > 0 else (-v, -dx, -dy, -den)
        return jet

    def shift_exponents(self, v: Tuple[int, int]) -> "LaurentPolynomial":
        return LaurentPolynomial({(e[0] + v[0], e[1] + v[1]): c for e, c in self.terms.items()})

    def __repr__(self):
        parts = []
        for e, c in sorted(self.terms.items()):
            parts.append(f"({c})*x^{e[0]}*y^{e[1]}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# fraction-free linear algebra over Z, Q[s] and parameter rings


def _integer_row(row: Sequence[Scalar]) -> Tuple[List[int], int]:
    """A row as integer numerators over the lcm of its denominators; a row
    of ints is taken as it is, over 1."""
    if all(type(c) is int for c in row):
        return list(row), 1
    fr = [_frac(c) for c in row]
    den = lcm(*[c.denominator for c in fr])
    return [c.numerator * (den // c.denominator) for c in fr], den


def _integerize_rows(rows: Sequence[Sequence[Scalar]]) -> List[List[int]]:
    return [_integer_row(row)[0] for row in rows]


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


def _kernel_numerators(ech: List[List], piv: List[int], ncols: int, zero, one) -> Iterator[Tuple[int, List]]:
    """(free column, kernel vector) of a Bareiss echelon with ring entries,
    free columns ascending: the free column's entry is the last pivot
    (``one`` when there is none), the other free entries are ``zero``.
    Each vector is back-substituted when it is asked for.

    The last pivot is the k x k minor on the pivot columns, so by Cramer's
    rule every entry of such a vector is a minor too, and each division of
    the back-substitution is exact.
    """
    top = ech[len(piv) - 1][piv[-1]] if piv else one
    pivots = set(piv)
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = top
        for k in range(len(piv) - 1, -1, -1):
            pc, row = piv[k], ech[k]
            v[pc] = -sum(map(mul, row[pc + 1:], v[pc + 1:]), zero) // row[pc]
        yield fc, v


def integer_kernel(rows: List[List[int]], ncols: int) -> List[Tuple[int, List[int]]]:
    """Right kernel of an integer matrix with ``ncols`` columns, as (free
    column, integer vector) pairs, free columns ascending.

    Each vector's free-column entry is the last Bareiss pivot (1 when there
    is none), a non-zero integer, and its other free entries are 0.  The
    rows are eliminated in place, so pass lists the caller gives up.
    """
    ech, piv, _ = _bareiss_echelon(rows)
    return list(_kernel_numerators(ech, piv, ncols, 0, 1))


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
    _, v = list(_kernel_numerators(ech, piv, n + 1, 0, 1))[-1]
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
        ints, den = _integer_row(row)
        scale *= den
        m.append(ints)
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
