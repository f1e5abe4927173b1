"""Left ideals of the 2x2 integer matrix order at a prime p.

Ideals of norm p^N are triples (n, m, t): the left ideal generated by
[[p^n, t], [0, p^m]] with n + m = N and t reduced mod p^m.  All matrix
arithmetic is exact rational arithmetic with p-power denominators;
"integral" for a matrix entry means nonnegative p-adic valuation, while
an *element* is integral when its trace and norm are ordinary integers
(entries may then have denominator up to p^r).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .integers import INFINITY, is_prime, padic_val
from .local_roots import count_roots_mod_pk

_DESK_LIMIT = 10**6


def val_ext(x, p: int):
    """p-adic valuation extended to 0 (-> +inf) and rationals."""
    if x == 0:
        return INFINITY
    if isinstance(x, Fraction):
        return padic_val(x.numerator, p) - padic_val(x.denominator, p)
    return padic_val(x, p)


class IdealTriple(Record):
    p: int
    n: int
    m: int
    t: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or not 0 <= self.t < self.p**self.m:
            raise ValueError(f"triple out of normal form: {self}")

    @property
    def norm_exponent(self) -> int:
        return self.n + self.m


class PMatrix(Record):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @property
    def trace(self) -> Fraction:
        return self.a + self.d

    @property
    def norm(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @staticmethod
    def of(a, b, c, d) -> "PMatrix":
        return PMatrix(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "PMatrix") -> "PMatrix":
        return PMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "PMatrix") -> "PMatrix":
        return PMatrix(self.a + other.a, self.b + other.b,
                       self.c + other.c, self.d + other.d)

    def scale(self, s) -> "PMatrix":
        s = Fraction(s)
        return PMatrix(self.a * s, self.b * s, self.c * s, self.d * s)

    def inverse(self) -> "PMatrix":
        det = self.norm
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return PMatrix(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def min_valuation(self, p: int):
        return min(val_ext(e, p) for e in self.entries())

    def is_integral_at(self, p: int) -> bool:
        return self.min_valuation(p) >= 0


def generator(I: IdealTriple) -> PMatrix:
    p = I.p
    return PMatrix.of(p**I.n, I.t, 0, p**I.m)


def companion_matrix(trace, norm, p: int, r: int) -> PMatrix:
    """[[0, -norm * p^r], [p^-r, trace]]."""
    return PMatrix.of(0, -Fraction(norm) * p**r, Fraction(1, p**r), trace)


def enumerate_ideals(p: int, N: int) -> tuple[IdealTriple, ...]:
    """All ideals of norm p^N; there are 1 + p + ... + p^N of them."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 0 or p**N > _DESK_LIMIT:
        raise ValueError(f"p^N = {p}^{N} out of desk-scale range")
    out = []
    for n in range(N, -1, -1):
        m = N - n
        out.extend(IdealTriple(p, n, m, t) for t in range(p**m))
    return tuple(out)


def is_primitive(I: IdealTriple) -> bool:
    """Generated by a primitive element: n, m, or v(t) is zero (v(0) = inf)."""
    return I.n == 0 or I.m == 0 or I.t % I.p != 0


def _content(I: IdealTriple) -> int:
    c = min(I.n, I.m)
    if I.t:
        c = min(c, val_ext(I.t, I.p))
    return c


def _reduce_primitive(I: IdealTriple) -> tuple[int, IdealTriple]:
    c = _content(I)
    return c, IdealTriple(I.p, I.n - c, I.m - c, I.t // I.p**c)


def _superideal_triple(I: IdealTriple, q: int) -> IdealTriple:
    # the unique norm-p^q ideal containing a primitive I, q <= n + m
    p = I.p
    if I.n == 0:
        return IdealTriple(p, 0, q, I.t % p**q)
    if I.m == 0:
        return IdealTriple(p, q, 0, 0)
    n2 = min(I.n, q)
    return IdealTriple(p, n2, q - n2, I.t % p ** (q - n2))


def contained_in(j: int, I: IdealTriple, k: int, J: IdealTriple) -> bool:
    """Is p^j * I inside p^k * J?

    Both triples are reduced to primitive parts; containment then holds
    iff both norm exponents reach s - j + k and the unique super-ideals
    at that norm coincide (vacuously when s - j + k < 0).  The direct
    matrix-quotient test `contained_in_by_quotient` arbitrates this
    criterion in the tests.
    """
    if I.p != J.p:
        raise ValueError("ideals live at different primes")
    c1, I0 = _reduce_primitive(I)
    c2, J0 = _reduce_primitive(J)
    j, k = j + c1, k + c2
    r, s = I0.norm_exponent, J0.norm_exponent
    q = s - j + k
    if q < 0:
        return True
    if r < q or s < q:
        return False
    return _superideal_triple(I0, q) == _superideal_triple(J0, q)


def contained_in_by_quotient(j: int, I: IdealTriple, k: int, J: IdealTriple) -> bool:
    """Oracle: p^j G_I (p^k G_J)^-1 is entrywise integral at p."""
    p = I.p
    quot = generator(I).scale(p**j) * generator(J).scale(p**k).inverse()
    return quot.is_integral_at(p)


def normalize_to_triple(z: PMatrix, p: int) -> tuple[int, IdealTriple]:
    """Write the left ideal R_p z as p^c * (primitive triple).

    Row reduction over the local ring at p: unimodular row operations only,
    so the ideal is unchanged.
    """
    if z.norm == 0:
        raise ValueError("zero-determinant element generates no full ideal")
    if not z.is_integral_at(p):
        raise ValueError("generator must be entrywise integral at p")
    a, b, c, d = z.entries()
    if val_ext(c, p) < val_ext(a, p):
        a, b, c, d = c, d, a, b
    if c != 0:
        lam = c / a
        c, d = Fraction(0), d - lam * b
    # scale rows to make the diagonal exact p-powers
    va, vd = val_ext(a, p), val_ext(d, p)
    ua = a / p**va
    b = b / ua
    n, m = va, vd
    # reduce the corner mod p^m
    modulus = p**m
    bint = b.numerator * pow(b.denominator, -1, modulus) % modulus if m else 0
    triple = IdealTriple(p, n, m, bint)
    return _reduce_primitive(triple)


def unique_superideal(z: PMatrix, p: int, N: int) -> IdealTriple:
    """The unique ideal of norm p^N containing primitive integral z."""
    if not z.is_integral_at(p):
        raise ValueError("element must be entrywise integral at p")
    if z.min_valuation(p) != 0:
        raise ValueError("element must be primitive (not divisible by p)")
    if z.norm == 0:
        raise ValueError("element must have nonzero norm")
    vnorm = val_ext(z.norm, p)
    if not 0 <= N <= vnorm:
        raise ValueError(f"need 0 <= N <= v_p(Norm(z)) = {vnorm}")
    c, triple = normalize_to_triple(z, p)
    if c:
        raise ValueError("primitive element normalized to an imprimitive triple")
    return _superideal_triple(triple, N)


def right_order_contains(I: IdealTriple, y: PMatrix) -> bool:
    """Is y in RO(I)?  Equivalent to G y G^-1 integral for the generator G."""
    g = generator(I)
    return (g * y * g.inverse()).is_integral_at(I.p)


def is_optimally_embedded(w: PMatrix, p: int) -> bool:
    """No strictly larger element: (w + s)/p is non-integral for every shift.

    w itself must be integral.  For an integral w = [[a, b], [c, d]] some
    shift (w + s)/p is integral exactly when p divides b, c and a - d
    (take s = -a mod p), so w is optimal when one of the three has
    valuation 0.
    """
    return w.is_integral_at(p) and min(
        val_ext(w.b, p), val_ext(w.c, p), val_ext(w.a - w.d, p)) == 0


def _check_optimal(y: PMatrix, p: int, r: int) -> None:
    # the precondition of both the count and the canonical form
    if y.trace.denominator != 1 or y.norm.denominator != 1:
        raise ValueError("element must have integer trace and norm")
    if not is_optimally_embedded(y.scale(p**r), p):
        raise ValueError(f"p^{r} * y is not optimally embedded")


def count_right_order_ideals(p: int, N: int, y: PMatrix, r: int) -> int:
    """Primitive ideals of norm p^N whose right order contains y.

    Requires p^r y optimally embedded; the count is the number of roots of
    t^2 - Tr(y) t + Norm(y) modulo p^(N - r), zero when N < r.
    """
    if r < 0 or N < 0:
        raise ValueError("exponents must be nonnegative")
    _check_optimal(y, p, r)
    return count_roots_mod_pk(p, N - r, int(y.trace), int(y.norm))


def canonical_conjugate(y: PMatrix, p: int, r: int) -> PMatrix:
    """A in GL2(Z_p) with A y A^-1 = [[0, -Norm(y) p^r], [p^-r, Tr(y)]].

    Built from the three explicit cases keyed on which of c, b, a - d has
    valuation exactly -r.  Checking c first makes a matrix already in
    companion form return the identity.  `_check_optimal` makes all three
    valuations at least -r with minimum -r, so when neither c nor b has
    valuation -r, a - d does: the third case needs no test of its own.
    """
    _check_optimal(y, p, r)
    a, b, c, d = y.entries()
    pr = Fraction(p) ** r
    if val_ext(c, p) == -r:
        A = PMatrix(c * pr, -a * pr, Fraction(0), Fraction(1))
    elif val_ext(b, p) == -r:
        A = PMatrix(-d * pr, b * pr, Fraction(1), Fraction(0))
    else:
        A = PMatrix((c - d) * pr, (b - a) * pr, Fraction(1), Fraction(1))
    if val_ext(A.norm, p) != 0:
        raise ValueError("conjugating matrix is not unimodular at p")
    return A
