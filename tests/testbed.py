"""Graded power-series combinators and a free polynomial algebra, used only
by the test suite and the demos.

The host ring plugs in through a small context record (add, scale, multiply,
unit, zero, graded-component extraction), so Newton's identities and graded
exp/log run both in a Chow ring (`graded_context`) and in a free polynomial
algebra that checks the universal identities with no geometry involved.
None of this is on the engine's path: the package builds every
tangent-bundle class from the Murnaghan-Nakayama power-sum step instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from grasstodd import ChowElement, GrassmannShape, multiply, pieri, scale, unit, zero


@dataclass(frozen=True)
class GradedContext:
    """Hooks into a commutative graded algebra, truncated above `truncation`.

    `mul` must already enforce the truncation; `component(a, k)` extracts the
    degree-k graded piece.
    """

    truncation: int
    zero: object
    one: object
    add: Callable
    scale: Callable
    mul: Callable
    component: Callable




# -- lazy graded sums of products --------------------------------------------


def cauchy_sum(k: int, terms, ctx: GradedContext):
    """Sum of c * f(i) * g(k - i) over the (c, i, f, g) in `terms`.

    `f` and `g` map a degree to a homogeneous class and may compute it on
    demand. The lower-degree factor is fetched first and a zero one skips
    the other, so a caller building one degree at a time never asks for a
    factor that a zero partner makes irrelevant.
    """
    acc = ctx.zero
    for c, i, f, g in terms:
        if i <= k - i:
            a = f(i)
            if a == ctx.zero:
                continue
            b = g(k - i)
            if b == ctx.zero:
                continue
        else:
            b = g(k - i)
            if b == ctx.zero:
                continue
            a = f(i)
            if a == ctx.zero:
                continue
        acc = ctx.add(acc, ctx.scale(c, ctx.mul(a, b)))
    return acc


# -- Newton's identities in a host algebra -----------------------------------


def newton_power_sum(m: int, e, p, ctx: GradedContext):
    """p_m = e_1 p_{m-1} - e_2 p_{m-2} + ... + (-1)^{m-1} m e_m.

    `e` and `p` map a degree to the elementary class and to a lower power
    sum; see `cauchy_sum`.
    """
    acc = ctx.scale(Fraction((-1) ** (m - 1) * m), e(m))
    return ctx.add(acc, cauchy_sum(m, [((-1) ** (i - 1), i, e, p) for i in range(1, m)], ctx))


def power_sums_from_elementary(e: list, rank: int, ctx: GradedContext) -> list:
    """Power sums p_1..p_D from elementary symmetric classes e_1..e_rank.

    Entries of `e` beyond the rank (or beyond the list) count as zero.
    """

    def e_at(i: int):
        if i < 1 or i > rank or i > len(e):
            return ctx.zero
        return e[i - 1]

    p: list = []
    for m in range(1, ctx.truncation + 1):
        p.append(newton_power_sum(m, e_at, lambda i: p[i - 1], ctx))
    return p


def elementary_from_power_sums(p: list, ctx: GradedContext) -> list:
    """Inverse of `power_sums_from_elementary`: m e_m = sum (-1)^{i-1} e_{m-i} p_i."""
    e = [ctx.one]
    for m in range(1, ctx.truncation + 1):
        acc = ctx.zero
        for i in range(1, m + 1):
            if i > len(p) or p[i - 1] == ctx.zero:
                continue
            acc = ctx.add(acc, ctx.scale((-1) ** (i - 1), ctx.mul(e[m - i], p[i - 1])))
        e.append(ctx.scale(Fraction(1, m), acc))
    return e[1:]


# -- graded exponential and logarithm ----------------------------------------


def exp_piece(k: int, x, y, ctx: GradedContext):
    """Degree-k piece of exp(x) for k >= 1, from the derivation recurrence
    y_k = (1/k) sum_j j * x_j * y_{k-j}.

    `x` maps a degree to the piece of x, `y` to a lower piece of exp(x);
    see `cauchy_sum`.
    """
    return ctx.scale(Fraction(1, k), cauchy_sum(k, [(j, j, x, y) for j in range(1, k + 1)], ctx))


def exp_graded(x, ctx: GradedContext):
    """sum_k x^k / k! truncated at the context degree; x needs zero constant term.

    Built one graded component at a time by `exp_piece`.
    """
    if ctx.component(x, 0) != ctx.zero:
        raise ValueError("exp_graded needs a vanishing degree-0 part")
    comps = {j: ctx.component(x, j) for j in range(1, ctx.truncation + 1)}
    y = [ctx.one]
    for k in range(1, ctx.truncation + 1):
        y.append(exp_piece(k, comps.__getitem__, y.__getitem__, ctx))
    total = y[0]
    for k in range(1, ctx.truncation + 1):
        total = ctx.add(total, y[k])
    return total


def log_graded(u, ctx: GradedContext):
    """sum_k (-1)^{k-1} (u-1)^k / k truncated; u needs constant term 1."""
    if ctx.component(u, 0) != ctx.one:
        raise ValueError("log_graded needs degree-0 part equal to 1")
    v = ctx.add(u, ctx.scale(-1, ctx.one))
    acc = ctx.zero
    power = ctx.one
    for k in range(1, ctx.truncation + 1):
        power = ctx.mul(power, v)
        if power == ctx.zero:
            break
        acc = ctx.add(acc, ctx.scale(Fraction((-1) ** (k - 1), k), power))
    return acc


# -- free polynomial test algebra --------------------------------------------


@dataclass(frozen=True)
class PolyElement:
    """Element of a PolynomialAlgebra: map from exponent tuples to Fractions."""

    algebra: "PolynomialAlgebra"
    terms: dict

    def coefficient(self, monomial: dict) -> Fraction:
        key = self.algebra._key(monomial)
        return self.terms.get(key, Fraction(0))

    def degrees(self) -> tuple:
        return tuple(sorted({self.algebra._degree(k) for k in self.terms}))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.constant(other)
        return self.algebra.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return self.algebra.scale(-1, self)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.algebra.scale(other, self)
        return self.algebra.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.algebra.scale(Fraction(1, 1) / Fraction(scalar), self)

    def __pow__(self, k: int):
        out = self.algebra.one()
        for _ in range(k):
            out = self.algebra.mul(out, self)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.algebra.names
        bits = []
        for key in sorted(self.terms):
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(key) if e
            )
            bits.append(f"{self.terms[key]}*{mono}" if mono else str(self.terms[key]))
        return " + ".join(bits)


class PolynomialAlgebra:
    """Free commutative Q-algebra on weighted generators, degree-truncated.

    Used as the series module's test bed: universal identities (Newton round
    trips, exp/log inversion, the Todd and Chern-character expansions) are
    checked here with no geometry involved.
    """

    def __init__(self, generators: dict, truncation: int):
        self.names = tuple(generators)
        self.degrees = tuple(generators[g] for g in self.names)
        if any(d < 1 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        self.truncation = truncation

    def _degree(self, key: tuple) -> int:
        return sum(e * d for e, d in zip(key, self.degrees))

    def _key(self, monomial: dict) -> tuple:
        unknown = set(monomial) - set(self.names)
        if unknown:
            raise KeyError(f"unknown generators: {sorted(unknown)}")
        return tuple(monomial.get(g, 0) for g in self.names)

    def zero(self) -> PolyElement:
        return PolyElement(self, {})

    def one(self) -> PolyElement:
        return PolyElement(self, {(0,) * len(self.names): Fraction(1)})

    def constant(self, q) -> PolyElement:
        q = Fraction(q)
        return PolyElement(self, {(0,) * len(self.names): q} if q else {})

    def generator(self, name: str) -> PolyElement:
        i = self.names.index(name)
        key = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return PolyElement(self, {key: Fraction(1)})

    def add(self, a: PolyElement, b: PolyElement) -> PolyElement:
        out = dict(a.terms)
        for k, c in b.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return PolyElement(self, out)

    def scale(self, q, a: PolyElement) -> PolyElement:
        q = Fraction(q)
        if not q:
            return self.zero()
        return PolyElement(self, {k: q * c for k, c in a.terms.items()})

    def mul(self, a: PolyElement, b: PolyElement) -> PolyElement:
        out: dict = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                if self._degree(key) > self.truncation:
                    continue
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return PolyElement(self, out)

    def component(self, a: PolyElement, k: int) -> PolyElement:
        return PolyElement(
            self, {key: c for key, c in a.terms.items() if self._degree(key) == k}
        )

    def context(self) -> GradedContext:
        return GradedContext(
            truncation=self.truncation,
            zero=self.zero(),
            one=self.one(),
            add=self.add,
            scale=self.scale,
            mul=self.mul,
            component=self.component,
        )


# -- the Chow ring as a host algebra ------------------------------------------


def graded_context(shape: GrassmannShape) -> GradedContext:
    """Adapter exposing the Chow ring to the graded series combinators."""
    return GradedContext(
        truncation=shape.dim,
        zero=zero(shape),
        one=unit(shape),
        add=operator.add,
        scale=scale,
        mul=multiply,
        component=ChowElement.component,
    )


@lru_cache(maxsize=None)
def chern_S_inverse_series(shape: GrassmannShape) -> tuple:
    """Degree-1..t coefficients of the formal inverse of 1 + sigma_1 + ... .

    Degrees 1..d are the Chern classes of S; every degree above d must
    evaluate to zero in the Chow ring (the Whitney relations), which is what
    the invariant tests pin down.
    """
    t = shape.dim
    out = [unit(shape)]
    for k in range(1, t + 1):
        acc = zero(shape)
        for i in range(1, min(k, shape.cols) + 1):
            acc = acc - pieri(out[k - i], i)
        out.append(acc)
    return tuple(out[1:])
