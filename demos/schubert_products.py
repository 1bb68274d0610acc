"""Tour of the Chow-ring layer: bases, Pieri, Giambelli, and full products.

Run as a script; every number printed is exact.
"""

from grasstodd import (
    GrassmannShape,
    enumerate_box,
    lr_coefficient,
    multiply,
    pieri,
    schubert,
    sigma,
    unit,
)

s = GrassmannShape(2, 5)
print(f"G_{s.d}({s.n}): partitions live in a {s.d} x {s.cols} box, dimension t = {s.dim}")

print("\nGraded basis sizes:")
for k in range(s.dim + 1):
    basis = enumerate_box(s, k)
    print(f"  degree {k}: {len(basis):2d}  {[list(p) for p in basis]}")

print("\nPieri: multiplying [2,1] by sigma_2 adds a horizontal 2-strip:")
out = pieri(schubert(s, (2, 1)), 2)
print(f"  [2,1] * sigma_2 = {out}")

print("\nGiambelli: any class is a determinant in the special classes.")
s21 = multiply(sigma(s, 2), sigma(s, 1))
print(f"  sigma_2*sigma_1 = {s21}  (by Pieri: {pieri(sigma(s, 2), 1)})")
print(f"  det [[sigma_2, sigma_3], [1, sigma_1]] = sigma_2*sigma_1 - sigma_3 = {s21 - sigma(s, 3)}")

print("\nA full product, with its Littlewood-Richardson cross-check:")
prod = multiply(schubert(s, (2, 1)), schubert(s, (2, 1)))
print(f"  [2,1]^2 = {prod}")
for nu in sorted(prod.terms):
    print(f"    LR coefficient of {list(nu)}: {lr_coefficient((2, 1), (2, 1), nu)}")

print("\nDegree of the Plucker embedding = top self-intersection of h:")
for d, n in [(2, 4), (2, 5), (3, 6)]:
    shape = GrassmannShape(d, n)
    power = unit(shape)
    for _ in range(shape.dim):
        power = pieri(power, 1)
    box = tuple([shape.cols] * shape.d)
    print(f"  deg G_{d}({n}) = {power.coefficient(box)}")
