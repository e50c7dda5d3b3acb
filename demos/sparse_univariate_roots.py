"""How many times can a sparse polynomial vanish at a non-zero point?

A polynomial with k monomials (any exponents, even negative) admits a root
of any multiplicity up to k - 1 at t = 1, and never more.  This script
builds one witness per multiplicity and shows the determinant that blocks
multiplicity k.
"""

from fractions import Fraction

from sparsemult import Certificate, construct_univariate, replay, univariate_multiplicity

exponents = [0, 1, 3, 7]
print(f"support exponents: {exponents}\n")

for l in range(len(exponents)):
    p = construct_univariate(exponents, l)
    verified = univariate_multiplicity(p, Fraction(1))
    print(f"multiplicity {l}:  P(t) = {p}")
    print(f"   derivative table confirms order {verified} at t = 1\n")

blocked = construct_univariate(exponents, len(exponents))
assert isinstance(blocked, Certificate)
print(f"multiplicity {len(exponents)} is impossible:")
print(f"   the {len(exponents)}x{len(exponents)} power-basis matrix has determinant "
      f"{blocked.transcript['determinant']} (a Vandermonde value, never zero)")
cert = replay(blocked)
print(f"   independent certificate agrees: det = {cert.transcript['determinant']}")
