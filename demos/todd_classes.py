"""Characteristic classes of the tangent bundle, with two global sanity
checks: the Todd class integrates to 1, and Riemann-Roch for the Plucker
line bundle counts semistandard tableaux.
"""

from fractions import Fraction
from math import factorial

from grasstodd import (
    GrassmannShape,
    bernoulli,
    ch_tangent,
    chern_tangent,
    multiply,
    pieri,
    scale,
    ssyt_count,
    todd_log_coeff,
    todd_tangent,
    unit,
    zero,
)

print("Bernoulli numbers feed the Todd logarithm a_m = -B_m/(m*m!),")
print("and td = exp(sum a_m m! ch_m):")
for m in range(1, 5):
    print(f"  B_{m} = {bernoulli(m)},  a_{m} = {todd_log_coeff(m)}")

s = GrassmannShape(2, 5)
box = tuple([s.cols] * s.d)

print(f"\nTangent bundle of G_{s.d}({s.n}), rank {s.dim}")

print("\nChern character, low degrees:")
cht = ch_tangent(s, max_degree=3)
for k in range(4):
    print(f"  ch_{k} = {cht.component(k)}")

print("\nChern classes:")
ct = chern_tangent(s, max_degree=3)
for k in range(1, 4):
    print(f"  c_{k} = {ct.component(k)}")

print("\nTodd class, all degrees:")
td = todd_tangent(s)
for k in range(s.dim + 1):
    print(f"  td_{k} = {td.component(k)}")

genus = td.component(s.dim).coefficient(box)
print(f"\nIntegral of td = {genus} (arithmetic genus of a rational variety)")
print("The degree-2 piece (c1^2 + c2)/12 is the one that decides the")
print("Roberts question in degree 2 once it is reduced mod h.")

print("\nHirzebruch-Riemann-Roch for O(k): chi = integral of e^(k h) td")
for k in range(4):
    # e^(k h) = sum_j k^j h^j / j!, with h^j built by Pieri steps
    twist, power = zero(s), unit(s)
    for j in range(s.dim + 1):
        twist = twist + scale(Fraction(k ** j, factorial(j)), power)
        power = pieri(power, 1)
    chi = multiply(twist, td).component(s.dim).coefficient(box)
    sections = ssyt_count(tuple([k] * s.d), s.n) if k else 1
    print(f"  chi(O({k})) = {chi}   tableau count = {sections}")
