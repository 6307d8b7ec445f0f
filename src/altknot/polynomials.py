"""Exact integer univariate polynomials and characteristic polynomials.

Everything here is arbitrary-precision: coefficients are Python ints and
all algorithms are division-free or use only provably exact integer
divisions.  Floating point never enters.

Hot paths build tuples from lists (``tuple([...])``), not from generators:
``tuple()`` of an iterator of unknown length grows a 10-slot tuple, and
over a long run that parks megabytes of freed tuples on CPython's per-size
free lists, which keep that memory.

The public `IntPoly(...)` constructor is the one type gate for
coefficients.  `IntPoly`'s own arithmetic, `charpoly` and `divide_out`
compute their coefficients from checked ones, so they build their results
through the private `IntPoly._of`, which takes a list of ints, pops its
trailing zeros and checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, and_, itemgetter, mul, neg, sub
from typing import Callable, Sequence

from .limits import max_vertices


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, ascending coefficients, no trailing zeros.

    ``IntPoly((-2, -3, 0, 1))`` is ``x^3 - 3*x - 2``.  The zero polynomial
    is the empty tuple.  A coefficient of any type but `int` (`bool` and
    `float` included) raises ValueError rather than being truncated, and so
    does a scalar operand, an exponent of `**` or a point of evaluation of
    any type but `int`.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        if not set(map(type, c)) <= {int}:
            raise ValueError("polynomial coefficients must be integers")
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, power: int) -> int:
        """Coefficient of x**power (0 beyond the stored range); a power
        that is not an `int` (`bool` included) raises ValueError."""
        if type(power) is not int:
            raise ValueError(f"a coefficient is indexed by an integer "
                             f"power, got {power!r}")
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    # -- arithmetic ------------------------------------------------------

    @classmethod
    def _of(cls, coeffs: list[int]) -> IntPoly:
        """The polynomial of a list of `int` coefficients that the caller
        made from checked ones and no longer holds: trailing zeros are
        popped in place, and no type is checked again."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs))
        return p

    def __add__(self, other: IntPoly | int) -> IntPoly:
        a, b = self.coeffs, _coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly._of([*map(add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly._of(list(map(neg, self.coeffs)))

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        a, b = self.coeffs, _coerce(other).coeffs
        return IntPoly._of([*map(sub, a, b), *a[len(b):],
                            *map(neg, b[len(a):])])

    def __rsub__(self, other: int) -> IntPoly:
        return _coerce(other) - self

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        """Product with a polynomial, or with a scalar whose type is `int`;
        any other operand, `bool` included, raises ValueError."""
        if type(other) is int:
            return IntPoly._of(list(map(mul, self.coeffs, repeat(other))))
        a, b = self.coeffs, _coerce(other).coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        """Power by squaring; an exponent that is not an `int` >= 0
        (`bool` included) raises ValueError."""
        if type(n) is not int or n < 0:
            raise ValueError(f"power of a polynomial must be an integer "
                             f">= 0, got {n!r}")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Evaluate at an integer by Horner's rule; a point that is not an
        `int` (`bool` included) raises ValueError."""
        if type(x) is not int:
            raise ValueError(f"a polynomial is evaluated at an integer, "
                             f"got {x!r}")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- presentation ----------------------------------------------------

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts: list[str] = []
        for power in range(len(coeffs) - 1, -1, -1):
            c = coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                xs = "x" if power == 1 else f"x^{power}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({str(self)!r})"


ZERO = IntPoly(())
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def _coerce(v: IntPoly | int) -> IntPoly:
    return v if isinstance(v, IntPoly) else IntPoly((v,))


def _read(value: int, w: int) -> IntPoly:
    """The polynomial P with every |c_i| < 2^(w-1) and P(2^w) = value,
    read from the balanced base-2^w digits of value (Kronecker
    substitution), for a value that is such a P(2^w).

    The reading lemma.  Let x0 = 2^w.  (a) An integer polynomial D != 0
    with every |d_i| < x0 has D(x0) != 0: with d_j its lowest nonzero
    coefficient, D(x0) = x0^j * (d_j + x0 * Q(x0)) for an integer
    polynomial Q, and d_j + x0 * Q(x0) is congruent to d_j, which is
    nonzero modulo x0.  (b) So at most one P with every |c_i| < x0/2 has
    P(x0) = value, as the difference of two has every |d_i| < x0, and
    this reads it: with h = x0/2 and P of degree d, value plus h in each
    of n > d slots has the digit c_i + h, in [1, x0 - 1], in slot i <= d
    and h above, so no slot borrows from the next.  A degree-d P has
    |value| >= x0^d - (x0/2 - 1) * (x0^d - 1)/(x0 - 1) > x0^d / 2, so
    n = bitlen(|value|) // w + 1 slots are enough."""
    h, mask = 1 << (w - 1), (1 << w) - 1
    top = (abs(value).bit_length() // w + 1) * w
    u = value + h * (((1 << top) - 1) // mask)  # h in each of the n slots
    return IntPoly._of([(u >> s & mask) - h for s in range(0, top, w)])


# ---------------------------------------------------------------------------
# Chebyshev-type basis: J_k(x) = U_k(x/2), the normalized second-kind family.
# J_{-1} = 0, J_0 = 1, J_{k+2} = x*J_{k+1} - J_k.
# ---------------------------------------------------------------------------

def _J(x) -> Callable[[int], object]:
    """k -> J_k over the ring of x, k >= -1, by the recurrence: at X the
    polynomials, at an integer x0 their values J_k(x0), at
    `families._L1(1)` the l1 majorants of the J_k.

    J_k sits at index k + 1 of a table that starts at (x*0, x**0), grows
    when a larger index is asked for and is replaced whole, never mutated,
    so threads sharing one J at worst recompute a few terms, never read a
    torn table.  k < -1 raises ValueError rather than wrap round the end
    of the table."""
    table = (x * 0, x ** 0)

    def J(k: int):
        nonlocal table
        if k < -1:
            raise ValueError(f"J index must be >= -1, got {k}")
        if k + 1 < len(table):
            return table[k + 1]
        grown = list(table)
        while len(grown) < k + 2:
            grown.append(x * grown[-1] - grown[-2])
        if len(grown) > len(table):
            table = tuple(grown)
        return grown[k + 1]
    return J


_JPOLY = _J(X)  # jpoly's table, shared by the process


def jpoly(k: int) -> IntPoly:
    """The k-th normalized Chebyshev polynomial of the second kind, U_k(x/2).

    Defined for k >= -1 with jpoly(-1) = 0; computed by the three-term
    recurrence J_{k+2} = x*J_{k+1} - J_k into a shared table, so each J_k
    is built once per process.
    """
    if type(k) is not int or k < -1:
        raise ValueError(f"jpoly index must be an integer >= -1, got {k!r}")
    return _JPOLY(k)


# ---------------------------------------------------------------------------
# Characteristic polynomials, exactly.
# ---------------------------------------------------------------------------

def _shape_problem(rows: Sequence[Sequence[int]]) -> str:
    """Why rows is not a square matrix of ints (bool, float refused), or ''."""
    if not rows:
        return "matrix is empty"
    if any(len(row) != len(rows) for row in rows):
        return "matrix is not square"
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        return "matrix entries must be integers"
    return ""


def _layers(supports: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """`_power_traces`' layers of the rows whose supports are given."""
    return [[s[l] if l < len(s) else n for s in supports]
            for l in range(max(1, *map(len, supports)))]


def _plan(matrix) -> tuple:
    """`_power_traces`' arguments after the capacity for the rows of
    `matrix`: the layers `spectra.adjacency` gave it, else, unless
    `_shape_problem` finds a ValueError to raise, the layers, `extra`, c
    and `signed` of its rows."""
    if layers := getattr(matrix, "_layers", None):
        return (layers,)
    lines = getattr(matrix, "rows", matrix)
    if problem := _shape_problem(lines):
        raise ValueError(problem)
    n = len(lines)
    supports = [list(compress(range(n), line)) for line in lines]
    signed = min(map(min, lines)) < 0
    sums = ([sum(map(abs, line)) for line in lines] if signed
            else map(sum, lines))
    extra = [(i, j, lines[i][j] - 1) for i, s in enumerate(supports)
             for j in s if lines[i][j] != 1]
    return _layers(supports, n), extra, max(1, *sums), signed


def _power_traces(capacity: int, layers: list[list[int]], extra=(),
                  c: int = 0, signed: bool = False) -> list[int]:
    """trace(L^k) for k = 1..K, K the capacity, of the square int matrix L
    given by its layers, from its packed powers.

    Row i of L^k is one Python int, sum over j of (L^k)_ij * 2^(w*j), so
    entry j sits in the w-bit slot j (Kronecker substitution), and it sums
    L_ij times packed row j of L^(k-1) over the nonzero L_ij, in C-level
    passes: `layers[l]` names, for every row i, the l-th column of its
    support (n past a short support, where the packed list holds a 0).
    `spectra.adjacency` repeats a column by its multiplicity; `_plan`
    lists it once and puts (i, j, L_ij - 1) in `extra` for each L_ij != 1,
    added after the passes.  The first two layers take one fused pass, so
    an adjacency matrix costs one pass per power.  Each layer is one
    `operator.itemgetter` of its columns and of slot n, built once per
    call and applied to every power, so every product keeps its padding 0
    in slot n.  `signed` says L has a negative entry, and `c` is the c
    below, by default the number of layers, which it is when they repeat
    columns and there is no `extra`.

    The width suffices for every k <= K, the capacity.  Let c = max(1,
    ||L||_inf), the largest sum of |L_ij| over a row (for a matrix with no
    negative entry, the largest row sum), b = K*ceil(log2 c) and
    w = b + 2 + bitlen(n).  The infinity norm is submultiplicative, so
    |(L^k)_ij| <= ||L^k||_inf <= c^k <= c^K <= 2^b.  Packing is linear,
    so the packed row is the exact integer above whatever its entries;
    only reading needs the bound.  With no negative entry in L, no power
    has one, and every entry is its own digit in [0, 2^b]; otherwise
    adding h = 2^(b+1) to every slot (the bias) makes every digit entry + h
    lie in [2^b, 3*2^b].  Either way the digits lie in [0, 2^(b+2)), within
    [0, 2^w), so they are the row's base-2^w digits with no borrow between
    slots, and ANDing row i with the mask of its own slot i keeps
    digit_ii * 2^(w*i) alone.  The sum S of these n terms is read in one
    fold, S mod (2^w - 1): as 2^w = 1 modulo 2^w - 1, S is congruent to
    the sum of the n diagonal digits, which is below n * 2^(b+2) <=
    (2^bitlen(n) - 1) * 2^(b+2) < 2^w - 1, so the remainder is that sum
    itself.  The trace is that sum less n*h (0 with no bias).
    """
    n = len(layers[0])
    b = capacity * ((c or len(layers)) - 1).bit_length()
    w = b + 2 + n.bit_length()
    shifts = range(0, n * w, w)
    fold = (1 << w) - 1
    masks = [*map(fold.__lshift__, shifts)]
    h = 1 << (b + 1) if signed else 0
    bias, offset = sum(map(h.__lshift__, shifts)), n * h
    power = [*map((1).__lshift__, shifts), 0]
    first, second, *rest = [
        itemgetter(*layer, n)
        for layer in (layers if layers[1:] else [*layers, [n] * n])]
    traces = []
    for _ in range(capacity):
        prod = list(map(add, first(power), second(power)))
        for gather in rest:
            prod = list(map(add, prod, gather(power)))
        for i, j, v in extra:
            prod[i] += v * power[j]
        digits = map(add, prod, repeat(bias)) if signed else prod
        traces.append(sum(map(and_, digits, masks)) % fold - offset)
        power = prod
    return traces


# The rows object of the last matrix given with `rows` and the traces of its
# powers: replaced whole, never mutated, so threads never see it torn.
_traces_slot: tuple = (None, ())


def _matrix_traces(matrix, k: int) -> list[int]:
    """trace(M^1..M^K), K >= max(k, n), of the n rows of M: the slot's, so
    `charpoly` and `spectra.closed_path_count` share one kernel run per
    matrix, else `_power_traces` on what `_plan` gives.  A raw sequence,
    its own rows, bypasses the slot, as its caller may mutate it."""
    global _traces_slot
    rows = getattr(matrix, "rows", matrix)
    key, traces = _traces_slot
    if key is not rows or k > len(traces):
        traces = _power_traces(max(k, len(rows)), *_plan(matrix))
        if rows is not matrix:
            _traces_slot = (rows, traces)
    return traces


def charpoly(matrix) -> IntPoly:
    """det(x*I - M) of an integer matrix, exact.

    The power sums p_k = trace(M^k), k = 1..n, give the coefficients of
    det(x*I - M) = x^n + c_1*x^(n-1) + ... + c_n by Newton's identities,
    k*c_k = -(c_(k-1)*p_1 + c_(k-2)*p_2 + ... + c_0*p_k) with c_0 = 1.  The
    division by k is exact because the c_k are integers; a remainder
    raises ArithmeticError.

    The traces come from `_matrix_traces` on the rows of M, any sequence of
    sequences of ints or an AdjMatrix, after the `ALTKNOT_MAX_V` check:
    unless `spectra.adjacency` made it or it holds the trace slot, a matrix
    that is empty, not square or has an entry of another type (`bool` and
    `float` too) raises its ValueError rather than being truncated.  A raw
    sequence is read afresh on every call.
    """
    n = len(getattr(matrix, "rows", matrix))
    if n > (cap := max_vertices()):
        raise ValueError(f"matrix dimension {n} above the cap {cap} "
                         "(raise ALTKNOT_MAX_V to allow it)")
    traces = _matrix_traces(matrix, n)
    coeffs = [1]
    for k in range(1, n + 1):
        q, rem = divmod(sum(map(mul, reversed(coeffs), traces)), k)
        if rem:
            raise ArithmeticError(
                f"Newton's identities: division by {k} not exact")
        coeffs.append(-q)
    coeffs.reverse()
    return IntPoly._of(coeffs)


def divide_out(p: IntPoly, root_factor: IntPoly) -> tuple[IntPoly, bool]:
    """Synthetic division of p by a monic-in-magnitude linear factor.

    Returns ``(quotient, exact)`` where exact means the remainder is zero.
    The divisor must be degree 1 with leading coefficient +-1 (all designated
    factors here, like (x - 2) and (x + 1), are monic).  An argument that
    is not an IntPoly raises ValueError.
    """
    for arg in (p, root_factor):
        if not isinstance(arg, IntPoly):
            raise ValueError(f"divide_out takes polynomials, got {arg!r}")
    if root_factor.degree != 1 or abs(root_factor[1]) != 1:
        raise ValueError("divisor must be linear with leading coefficient +-1")
    lead, const = root_factor[1], root_factor[0]
    root = -const * lead  # the divisor's zero, as an exact integer
    coeffs = p.coeffs
    if not coeffs:
        return ZERO, True
    quotient = [0] * max(p.degree, 1)
    acc = 0
    for power in range(p.degree, 0, -1):
        acc = acc * root + coeffs[power]
        quotient[power - 1] = acc
    remainder = acc * root + coeffs[0]
    if lead == -1:
        quotient = [-q for q in quotient]
    return IntPoly._of(quotient), remainder == 0


def power_sums_from_charpoly(p: IntPoly, k_max: int) -> list[int]:
    """Traces of matrix powers 1..k_max recovered from det(x*I - M).

    Newton's identities relate the power sums of the eigenvalues to the
    characteristic coefficients; everything stays in exact integers.  With
    p = x^n + a_1 x^(n-1) + ... + a_n and a_i = 0 for i > n, they read
    p_k = -k*a_k - (a_1 p_(k-1) + ... + a_(k-1) p_1), and the sum is one
    C-level pass over a_1..a_min(k-1,n) against the sums so far, reversed.
    A k_max that is not an int >= 0 (bool and float too) raises
    ValueError; k_max = 0 gives [].
    """
    if type(k_max) is not int or k_max < 0:
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    n = p.degree
    if n < 1 or p[n] != 1:
        raise ValueError("expected a monic characteristic polynomial")
    a = p.coeffs[::-1]  # a[i] = a_i, a[0] = 1
    sums: list[int] = []
    for k in range(1, k_max + 1):
        sums.append(-(k * a[k] if k <= n else 0)
                    - sum(map(mul, a[1:k], reversed(sums))))
    return sums


@dataclass(frozen=True)
class CoefficientReport:
    """Pass/fail record of the coefficient rules tying the polynomial to faces.

    For a degree-V characteristic polynomial: the x^(V-1) coefficient is
    minus the loop count; with no loops, x^(V-2) carries -C_2 and x^(V-3)
    carries -C_3.
    """

    loop_rule: bool
    bigon_rule: bool | None
    triangle_rule: bool | None

    def all_pass(self) -> bool:
        return all(v is not False for v in
                   (self.loop_rule, self.bigon_rule, self.triangle_rule))


def coefficient_report(p: IntPoly, census, loops: int) -> CoefficientReport:
    """Check a_{V-1} = -loops, and for loop-free census a_{V-2} = -C_2,
    a_{V-3} = -C_3.  Rules whose power falls below x^0 report None (vacuous).
    """
    v = p.degree
    loop_rule = p[v - 1] == -loops if v >= 1 else loops == 0
    bigon_rule = triangle_rule = None
    if loops == 0 and not census.counts.get(1, 0):
        if v >= 2:
            bigon_rule = p[v - 2] == -census.counts.get(2, 0)
        if v >= 3:
            triangle_rule = p[v - 3] == -census.counts.get(3, 0)
    return CoefficientReport(loop_rule, bigon_rule, triangle_rule)
