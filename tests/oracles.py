"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: direct enumeration and textbook
formulas with no shared code paths with the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, gcd, lcm


def brute_force_ssyt(lam: tuple, n: int) -> int:
    """Count semistandard tableaux by filling cells one at a time.

    Rows weakly increase left to right, columns strictly increase top to
    bottom, entries in 1..n.
    """
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row)]

    def fill(i: int, values: dict) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, values[(r, c - 1)])
        if r > 0:
            lo = max(lo, values[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, n + 1):
            values[(r, c)] = v
            total += fill(i + 1, values)
        values.pop((r, c), None)
        return total

    return fill(0, {})


def gaussian_binomial(n: int, k: int) -> list:
    """Coefficient list of the q-binomial [n choose k]_q, by the Pascal rule."""
    if k < 0 or k > n:
        return [0]

    @lru_cache(maxsize=None)
    def poly(a: int, b: int) -> tuple:
        if b == 0 or b == a:
            return (1,)
        # [a,b] = [a-1,b-1] + q^b [a-1,b]
        left = poly(a - 1, b - 1)
        right = poly(a - 1, b)
        out = [0] * max(len(left), len(right) + b)
        for i, c in enumerate(left):
            out[i] += c
        for i, c in enumerate(right):
            out[i + b] += c
        return tuple(out)

    return list(poly(n, k))


def exact_determinant(mat: list) -> Fraction:
    m = [list(map(Fraction, row)) for row in mat]
    size = len(m)
    sign = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    out = Fraction(sign)
    for i in range(size):
        out *= m[i][i]
    return out


def schur_value(lam: tuple, xs: list) -> Fraction:
    """Schur polynomial at the given points, by the bialternant ratio."""
    big = len(xs)
    if len(lam) > big:
        return Fraction(0)
    full = list(lam) + [0] * (big - len(lam))
    num = [[x ** (full[j] + big - 1 - j) for j in range(big)] for x in xs]
    den = [[x ** (big - 1 - j) for j in range(big)] for x in xs]
    return exact_determinant(num) / exact_determinant(den)


def distinct_points(rng, count: int) -> list:
    pts = set()
    while len(pts) < count:
        pts.add(Fraction(rng.randint(1, 80), rng.randint(1, 9)))
    return sorted(pts)


def matching_sum_pfaffian(entries) -> Fraction:
    """Signed sum over perfect matchings, straight from the definition."""

    def rec(idx: tuple) -> Fraction:
        if not idx:
            return Fraction(1)
        first = idx[0]
        total = Fraction(0)
        for pos in range(1, len(idx)):
            sign = 1 if pos % 2 == 1 else -1
            rest = idx[1:pos] + idx[pos + 1:]
            total += sign * entries[first][idx[pos]] * rec(rest)
        return total

    size = len(entries)
    if size % 2:
        return Fraction(0)
    return rec(tuple(range(size)))


def expansion_pfaffian(entries) -> Fraction:
    """Expansion along the first remaining index, memoized over index
    subsets: O(2^k), the engine's former Pfaffian."""
    if len(entries) % 2:
        return Fraction(0)
    memo: dict = {(): Fraction(1)}

    def pf(idx: tuple) -> Fraction:
        hit = memo.get(idx)
        if hit is not None:
            return hit
        first = idx[0]
        acc = Fraction(0)
        for pos in range(1, len(idx)):
            c = entries[first][idx[pos]]
            if c:
                rest = idx[1:pos] + idx[pos + 1:]
                acc += c * pf(rest) if pos % 2 else -c * pf(rest)
        memo[idx] = acc
        return acc

    return pf(tuple(range(len(entries))))


def horizontal_strip(lam: tuple, mu: tuple) -> bool:
    """mu/lam is a horizontal strip: containment, no two new cells stacked."""
    lam = tuple(lam)
    mu = tuple(mu)
    if len(mu) < len(lam):
        return False
    padded = lam + (0,) * (len(mu) - len(lam))
    for i, m in enumerate(mu):
        if m < padded[i]:
            return False
        if i > 0 and m > padded[i - 1]:
            return False
    return True


def giambelli_expand(lam, shape) -> list:
    """Giambelli's determinant det(sigma_(lam_i + j - i)) in the special
    classes of the shape, expanded over all permutations.

    Returns [(coefficient, monomial), ...] sorted by monomial; a monomial is
    a descending tuple of sigma indices in 1..n-d, the unit monomial ().
    Entries with index below 0 or above n-d are the zero class.
    """
    lam = tuple(lam)
    acc: dict = {}
    for perm in permutations(range(len(lam))):
        idx = [lam[i] + perm[i] - i for i in range(len(lam))]
        if any(k < 0 or k > shape.cols for k in idx):
            continue
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        mono = tuple(sorted((k for k in idx if k), reverse=True))
        acc[mono] = acc.get(mono, 0) + (-1) ** inversions
    return sorted(((c, mono) for mono, c in acc.items() if c), key=lambda item: item[1])


@lru_cache(maxsize=None)
def _graded_basis(shape, degree: int) -> tuple:
    """`grasstodd.enumerate_box`, which keeps nothing, enumerated once per
    (shape, degree) for the basis scans of `strip_pieri`."""
    from grasstodd import enumerate_box

    return enumerate_box(shape, degree)


def strip_pieri(lam, m: int, shape) -> tuple:
    """[lam] * sigma_m: every box partition one horizontal m-strip larger
    than lam, found by scanning the graded basis."""
    return tuple(nu for nu in _graded_basis(shape, sum(lam) + m) if horizontal_strip(lam, nu))


def giambelli_pieri_product(lam, mu, shape) -> dict:
    """Integer coefficients of [lam] * [mu]: mu by Giambelli's determinant,
    each special class applied to [lam] by `strip_pieri`."""
    strips: dict = {}
    out: dict = {}
    for coeff, mono in giambelli_expand(mu, shape):
        terms = {tuple(lam): coeff}
        for m in mono:
            grown: dict = {}
            for rho, c in terms.items():
                if (rho, m) not in strips:
                    strips[rho, m] = strip_pieri(rho, m, shape)
                for nu in strips[rho, m]:
                    grown[nu] = grown.get(nu, 0) + c
            terms = grown
        for nu, c in terms.items():
            out[nu] = out.get(nu, 0) + c
    return {nu: c for nu, c in out.items() if c}


def random_antisymmetric(rng, size: int, zero_share: float = 0.0) -> list:
    """Random rational antisymmetric matrix; about `zero_share` of the
    entries above the diagonal are forced to zero."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if zero_share and rng.random() < zero_share:
                continue
            v = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            rows[i][j], rows[j][i] = v, -v
    return rows


def eager_h_echelons(bases: list, rows: int, cols: int) -> dict:
    """Echelon forms of multiplication by h = sigma_1, every degree at once.

    `bases[i]` lists the degree-i partitions of the rows x cols box in the
    order the engine indexes them. The column of lam in the degree-i map
    marks each partition one box larger than lam. Rows are reduced over Q,
    then each is scaled to a primitive integer vector with a positive pivot,
    which makes the result unique. Returns {i: ((pivot, row), ...)}.
    """
    out = {}
    for i in range(1, len(bases)):
        index = {lam: k for k, lam in enumerate(bases[i])}
        vectors = []
        for lam in bases[i - 1]:
            padded = list(lam) + [0] * (rows - len(lam))
            col = [Fraction(0)] * len(bases[i])
            for r in range(rows):
                if padded[r] < cols and (r == 0 or padded[r - 1] > padded[r]):
                    grown = padded[:]
                    grown[r] += 1
                    col[index[tuple(p for p in grown if p)]] = Fraction(1)
            vectors.append(col)
        out[i] = _primitive_rref(vectors)
    return out


def _primitive_rref(vectors: list) -> tuple:
    """Gauss-Jordan over Q; rows scaled to primitive integers, by pivot."""
    m = [list(v) for v in vectors]
    width = len(m[0]) if m else 0
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((k for k in range(r, len(m)) if m[k][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
    out = []
    for piv, row in zip(pivots, m):
        den = lcm(*(a.denominator for a in row))
        ints = [int(a * den) for a in row]
        g = gcd(*ints)
        out.append((piv, tuple(a // g for a in ints)))
    return tuple(out)


def eager_tau(todd_terms: dict, bases: list, echelons: dict) -> dict:
    """Every graded piece of a Todd class reduced mod h, the slow way.

    `todd_terms` maps partitions to coefficients of the whole class, all
    degrees at once; `bases` and `echelons` are as for `eager_h_echelons`.
    Degree j's coordinate vector is eliminated against that degree's
    echelon rows, leaving the unique representative that vanishes at every
    pivot. Returns {j: {partition: Fraction}} for j = 1..len(bases)-1,
    with zero coefficients dropped.
    """
    out = {}
    for j in range(1, len(bases)):
        vec = [Fraction(todd_terms.get(lam, 0)) for lam in bases[j]]
        for piv, row in echelons[j]:
            if vec[piv]:
                f = vec[piv] / row[piv]
                vec = [v - f * r for v, r in zip(vec, row)]
        out[j] = {lam: v for lam, v in zip(bases[j], vec) if v}
    return out


def _bernoulli_numbers(count: int) -> list:
    """B_0..B_count from sum_{j<=k} binom(k+1, j) B_j = 0."""
    b = [Fraction(1)]
    for k in range(1, count + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def series_todd_log_coeffs(trunc: int) -> list:
    """a_0..a_trunc of log(x / (1 - e^(-x))) by dense power-series
    arithmetic: the reciprocal of (1 - e^(-x)) / x, then its logarithm."""
    # (1 - e^(-x)) / x = sum_k (-1)^k x^k / (k+1)!
    a = [Fraction((-1) ** k, factorial(k + 1)) for k in range(trunc + 1)]
    q = [Fraction(1)] + [Fraction(0)] * trunc
    for k in range(1, trunc + 1):
        q[k] = -sum(a[i] * q[k - i] for i in range(1, k + 1))
    # l' q = q'  =>  l_k = q_k - (1/k) sum_{0<i<k} i l_i q_(k-i)
    out = [Fraction(0)] * (trunc + 1)
    for k in range(1, trunc + 1):
        s = k * q[k]
        for i in range(1, k):
            s -= i * out[i] * q[k - i]
        out[k] = s / k
    return out


def newton_power_sums(shape) -> list:
    """p_0..p_t of the Chern roots of Q, by Newton's identities in the
    special classes c_m(Q) = sigma_m, with products from `grasstodd.multiply`.

    p_0 is the rank n - d; the power sums of S* are (-1)^(m+1) p_m for m >= 1.
    """
    from grasstodd import multiply, scale, sigma, unit

    power_q = [scale(shape.cols, unit(shape))]
    for m in range(1, shape.dim + 1):
        acc = scale((-1) ** (m - 1) * m, sigma(shape, m))
        for i in range(1, m):
            acc = acc + scale((-1) ** (i - 1), multiply(sigma(shape, i), power_q[m - i]))
        power_q.append(acc)
    return power_q


def eager_tangent_classes(shape) -> dict:
    """Every tangent-bundle class of a Grassmannian, by textbook loops over
    `grasstodd.multiply` and `grasstodd.sigma`.

    ch(Q) from Newton's identities in the special classes; ch(S) = d - ch(Q)
    and ch_m(S*) = (-1)^m ch_m(S); ch(T) = ch(S*) ch(Q) degree by degree;
    c(T) from Newton's identities run backwards on i! ch_i(T); td(T) as the
    series exp(X) = sum_k X^k / k! with X = sum_m x_m, x_m = a_m m! ch_m(T),
    taken as the product over m of the exp series of x_m (sparsest first);
    a_1 = 1/2 and
    a_m = -B_m / (m m!) are the coefficients of log(x / (1 - e^(-x))).

    Returns lists indexed by degree 0..t ("ch_Q", "ch_S", "ch_S_dual",
    "ch_tangent"; "chern_tangent" from c_0 = 1) and the whole Todd class
    ("todd").
    """
    from grasstodd import multiply, scale, unit, zero

    t, d = shape.dim, shape.d
    ch_q = [scale(Fraction(1, factorial(m)), p) for m, p in enumerate(newton_power_sums(shape))]
    ch_s = [scale(d, unit(shape))] + [-c for c in ch_q[1:]]
    ch_s_dual = [scale((-1) ** m, c) for m, c in enumerate(ch_s)]
    ch_t = []
    for m in range(t + 1):
        acc = zero(shape)
        for i in range(m + 1):
            acc = acc + multiply(ch_s_dual[i], ch_q[m - i])
        ch_t.append(acc)
    chern = [unit(shape)]
    for m in range(1, t + 1):
        acc = zero(shape)
        for i in range(1, m + 1):
            acc = acc + scale((-1) ** (i - 1) * factorial(i), multiply(ch_t[i], chern[m - i]))
        chern.append(scale(Fraction(1, m), acc))
    bern = _bernoulli_numbers(t)
    todd = unit(shape)
    for m in range(t, 0, -1):
        a = Fraction(1, 2) if m == 1 else -bern[m] / (m * factorial(m))
        x = scale(a * factorial(m), ch_t[m])
        # exp of a sum of commuting classes is the product of their exps
        factor, term = unit(shape), unit(shape)
        for k in range(1, t // m + 1):
            term = scale(Fraction(1, k), multiply(term, x))
            factor = factor + term
        todd = multiply(todd, factor)
    return {"ch_Q": ch_q, "ch_S": ch_s, "ch_S_dual": ch_s_dual, "ch_tangent": ch_t,
            "chern_tangent": chern, "todd": todd}


def beta_power_sum(lam: tuple, j: int, d: int, n: int) -> dict:
    """[lam] * p_j for j >= 1 by the Murnaghan-Nakayama rule on the whole
    padded list of beta-numbers, the reference for the engine's step that
    slices lam.

    The beta-numbers of lam padded to d parts are lam_i + d - 1 - i. Adding
    j to one of them gives mu with sign (-1) to the number of beta-numbers
    jumped; a collision gives nothing, and so does a result above n - 1.
    """
    beta = [p + d - 1 - r for r, p in enumerate(tuple(lam) + (0,) * (d - len(lam)))]
    out = {}
    for i, b in enumerate(beta):
        moved = b + j
        if moved < n and moved not in beta:
            k = i  # moved lands at k, jumping the i - k beta-numbers before i
            while k and beta[k - 1] < moved:
                k -= 1
            new = beta[:k] + [moved] + beta[k:i] + beta[i + 1:]
            mu = tuple(v + r + 1 - d for r, v in enumerate(new) if v + r + 1 - d)
            out[mu] = -1 if (i - k) & 1 else 1
    return out


def gorenstein_parity_check(shape) -> bool:
    """True iff every odd-degree Todd component reduces to zero mod h."""
    from grasstodd import tau_components

    report = tau_components(shape)
    return all(r.is_zero for r in report.records if r.degree % 2 == 1)
