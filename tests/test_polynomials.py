import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (charpoly_cofactor, check_generating_function,
                     check_quadratic_identity, invert_power_series,
                     jpoly_explicit)
from test_acceptance import _sweep_specs  # the criteria 2-6 corpus

from altknot import families as fam
from altknot import polynomials
from altknot import spectra as sp
from altknot.polynomials import (IntPoly, ONE, X, ZERO, charpoly,
                                 coefficient_report, divide_out, jpoly,
                                 power_sums_from_charpoly)

TREFOIL_MATRIX = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


# ---------------------------------------------------------------------------
# IntPoly basics
# ---------------------------------------------------------------------------

def test_canonical_form_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert not IntPoly((0, 0))
    assert IntPoly(()).degree == -1


def test_arithmetic():
    p = X ** 2 - 1
    q = X + 1
    assert p * q == X ** 3 + X ** 2 - X - 1
    assert p - p == ZERO
    assert (X - 2)(2) == 0
    assert (X ** 3 - 3 * X - 2)(2) == 0
    assert 2 * (X + 1) == IntPoly((2, 2))


def _convolve(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_arithmetic_against_list_oracle():
    # every result equals, hashes and prints as the polynomial built by
    # hand through the public constructor, whose coefficients are the
    # oracle's lists less their trailing zeros
    rng = random.Random(23)

    def coeffs():
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]

    def padded(a, b):
        size = max(len(a), len(b))
        return a + [0] * (size - len(a)), b + [0] * (size - len(b))

    for _ in range(400):
        a, b, s, e = coeffs(), coeffs(), rng.randint(-4, 4), rng.randint(0, 4)
        p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
        pa, pb = padded(a, b)
        power = [1]
        for _ in range(e):
            power = _convolve(power, a)
        cases = [
            (p + q, [x + y for x, y in zip(pa, pb)]),
            (p - q, [x - y for x, y in zip(pa, pb)]),
            (-p, [-x for x in a]),
            (p * q, _convolve(a, b)),
            (p * s, [x * s for x in a]),
            (s * p, [s * x for x in a]),
            (p + s, [x + y for x, y in zip(*padded(a, [s]))]),
            (s - p, [y - x for x, y in zip(*padded(a, [s]))]),
            (p ** e, power),
            (p - p, []),
        ]
        for got, want in cases:
            ref = IntPoly(tuple(want))
            while want and want[-1] == 0:
                want.pop()
            assert got.coeffs == tuple(want), (a, b, s, e)
            assert got == ref and hash(got) == hash(ref)
            assert repr(got) == repr(ref)
        assert (p - p).coeffs == () and (p - p) == ZERO


@pytest.mark.parametrize("operand", [2.5, 2.0, True, None])
def test_arithmetic_operands_follow_the_type_rule(operand):
    # a float once leaked AttributeError from `*` and TypeError from `**`;
    # True multiplied and raised to a power as 1, while `+` refused it
    for op in (lambda: X * operand, lambda: operand * X,
               lambda: X + operand, lambda: operand + X,
               lambda: X - operand, lambda: operand - X,
               lambda: X ** operand, lambda: X(operand)):
        with pytest.raises(ValueError):
            op()


@pytest.mark.parametrize("power", [2.5, 1.0, True, None, "1"])
def test_coefficient_index_follows_the_type_rule(power):
    # 2.5 once leaked TypeError and True read the x^1 coefficient
    p = X ** 2 + 3 * X + 5
    with pytest.raises(ValueError, match="integer power"):
        p[power]
    assert [p[k] for k in (-1, 0, 1, 2, 3)] == [0, 5, 3, 1, 0]


@pytest.mark.parametrize("poly,text", [
    (X ** 3 - 3 * X - 2, "x^3 - 3*x - 2"),
    (X ** 4 - 2 * X ** 2 - 4 * X, "x^4 - 2*x^2 - 4*x"),
    (X - 2, "x - 2"),
    (ZERO, "0"),
    (ONE, "1"),
    (-X ** 2 + 1, "-x^2 + 1"),
    (2 * X, "2*x"),
])
def test_display(poly, text):
    assert str(poly) == text


@pytest.mark.parametrize("coeffs", [(0.5,), (True,), ("2",), (2.0,)])
def test_coefficients_must_be_ints(coeffs):
    # each was once coerced through int(): to 0, 1, 2 and 2
    with pytest.raises(ValueError, match="must be integers"):
        IntPoly(coeffs)
    with pytest.raises(ValueError, match="must be integers"):
        IntPoly((1,) + coeffs + (1,))


# ---------------------------------------------------------------------------
# Reading a polynomial from its value at 2^w
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w", [2, 3, 8, 31, 64, 65, 100])
def test_read_takes_every_digit_at_the_edge_of_its_slot(w):
    # every coefficient is +-(2^(w-1) - 1), the largest the lemma allows,
    # in every sign pattern of four, and with a negative leading one
    top = (1 << (w - 1)) - 1
    for signs in range(16):
        coeffs = tuple(top if signs >> i & 1 else -top for i in range(4))
        read = polynomials._read(IntPoly(coeffs)(1 << w), w)
        assert read.coeffs == coeffs, (w, signs)
        assert set(map(type, read.coeffs)) == {int}


@pytest.mark.parametrize("w", [2, 5, 64])
def test_read_keeps_zero_digits_and_the_lowest_degrees(w):
    top = (1 << (w - 1)) - 1
    for coeffs in [(0, 0, 0, -1), (-top,), (top, 0, 0, 0, 0, -top),
                   (0, top, -1, 0, 1), (-1,) * 9, (1, -1) * 5]:
        p = IntPoly(coeffs)
        assert polynomials._read(p(1 << w), w).coeffs == coeffs, (w, coeffs)


@pytest.mark.parametrize("w", [1, 2, 64])
def test_read_of_zero_is_the_zero_polynomial(w):
    assert polynomials._read(0, w).coeffs == ()


def test_read_recovers_random_polynomials():
    rng = random.Random(30)
    for _ in range(300):
        w = rng.randrange(2, 90)
        top = (1 << (w - 1)) - 1
        p = IntPoly(tuple(rng.randint(-top, top)
                          for _ in range(rng.randrange(0, 40))))
        assert polynomials._read(p(1 << w), w) == p, (w, p)


# ---------------------------------------------------------------------------
# The Chebyshev-type basis
# ---------------------------------------------------------------------------

FIRST_EIGHT_KNOWN = [
    (1,),
    (0, 1),
    (-1, 0, 1),
    (0, -2, 0, 1),
    (1, 0, -3, 0, 1),
    (0, 3, 0, -4, 0, 1),
    (-1, 0, 6, 0, -5, 0, 1),
    (0, -4, 0, 10, 0, -6, 0, 1),
]


def test_first_eight_known_values():
    for k, coeffs in enumerate(FIRST_EIGHT_KNOWN):
        assert jpoly(k) == IntPoly(coeffs), f"J_{k}"


@pytest.mark.parametrize("k", [2.0, True, "2", None])
def test_jpoly_index_must_be_an_integer(k):
    with pytest.raises(ValueError, match="must be an integer"):
        jpoly(k)


def test_boundary_values():
    assert jpoly(-1) == ZERO
    assert jpoly(0) == ONE
    with pytest.raises(ValueError):
        jpoly(-2)


def test_recurrence_equals_explicit_sum_up_to_50():
    for k in range(-1, 51):
        assert jpoly(k) == jpoly_explicit(k), f"J_{k}"


def test_jpoly_table_any_order(monkeypatch):
    # the table grows only when a larger index is asked for; smaller ones
    # afterwards, in any order, read it
    monkeypatch.setattr(polynomials, "_JPOLY", polynomials._J(X))
    indices = list(range(200, -2, -1))
    for k in indices:
        assert jpoly(k) == jpoly_explicit(k), f"J_{k}"
    random.Random(7).shuffle(indices)
    for k in indices:
        assert jpoly(k) == jpoly_explicit(k), f"J_{k}"


def test_jpoly_table_threads(monkeypatch):
    expected = [jpoly_explicit(k) for k in range(120)]
    # threads grow one fresh table
    monkeypatch.setattr(polynomials, "_JPOLY", polynomials._J(X))
    errors = []

    def ask(order):
        for k in order:
            if jpoly(k) != expected[k]:
                errors.append(k)

    orders = [list(range(120)), list(range(119, -1, -1)),
              random.Random(1).sample(range(120), 120),
              [k for k in range(0, 120, 7)] * 5]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(order,))
                   for order in orders]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


def test_degree_and_parity():
    for k in range(0, 30):
        p = jpoly(k)
        assert p.degree == k
        assert all(c == 0 for i, c in enumerate(p.coeffs) if (i - k) % 2)


@pytest.mark.parametrize("k", [1, 2, 5, 17, 50])
def test_quadratic_identity(k):
    assert check_quadratic_identity(k)


def test_generating_function():
    assert check_generating_function(0)
    assert check_generating_function(3)
    assert check_generating_function(20)
    # the generic series inverter also reproduces a geometric series
    geo = invert_power_series([ONE, -X], 5)
    assert geo == [X ** k for k in range(6)]


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------

def test_known_charpolys():
    assert charpoly(TREFOIL_MATRIX) == X ** 3 - 3 * X - 2
    assert charpoly(((0, 2), (2, 0))) == X ** 2 - 4
    assert charpoly(((2,),)) == X - 2
    assert charpoly(TREFOIL_MATRIX) == (X - 2) * (X + 1) ** 2


def test_charpoly_rejects_bad_input():
    with pytest.raises(ValueError):
        charpoly(())
    with pytest.raises(ValueError):
        charpoly(((1, 2),))


@pytest.mark.parametrize("rows", [(), ((1, 2),), ((0, 2), (2, True))],
                         ids=["empty", "not-square", "bool-entry"])
def test_charpoly_refuses_a_matrix_with_the_shape_rule_text(rows):
    # one shape rule, so the text is AdjMatrix.problems()'s
    problem = sp.AdjMatrix(rows).problems()[0]
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        charpoly(rows)


@pytest.mark.parametrize("entry", [2.9, 0.5, "2", True])
def test_charpoly_rejects_non_integer_entries(entry):
    # each of these was once truncated through int(): 2.9 gave x - 2
    with pytest.raises(ValueError, match="entries must be integers"):
        charpoly(((entry,),))
    with pytest.raises(ValueError, match="entries must be integers"):
        charpoly(((0, 2), (2, entry)))


@pytest.mark.parametrize("rows, problem", [
    ([[0, 2.7], [True, 0]], "matrix entries must be integers"),
    ([[0, 1], [1]], "matrix is not square"),
], ids=["float-and-bool", "ragged"])
def test_cofactor_oracle_refuses_what_charpoly_refuses(rows, problem):
    # the cofactor oracle, now test code, reads its input unchecked: it
    # read these as x^2 - 2 and leaked IndexError
    with pytest.raises(ValueError, match=f"^{problem}$"):
        charpoly(rows)


def test_charpoly_against_cofactor_oracle_random():
    rng = random.Random(20240801)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        assert charpoly(m) == charpoly_cofactor(m)


def test_charpoly_against_cofactor_oracle_members(member_diagrams):
    for spec, d in member_diagrams:
        if d.vertex_count <= 7:
            m = sp.adjacency(d)
            assert charpoly(m) == charpoly_cofactor(m), str(spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_charpoly_invariant_under_relabeling(v, rng):
    m = sp.adjacency(fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (v,))))
    perm = list(range(v))
    rng.shuffle(perm)
    rows = tuple(tuple(m.rows[perm[i]][perm[j]] for j in range(v))
                 for i in range(v))
    assert charpoly(rows) == charpoly(m)


def reference_charpoly(matrix):
    """The Faddeev-LeVerrier loop with a per-entry sparse product over
    mutable list rows, kept verbatim as a stateless reference."""
    rows = getattr(matrix, "rows", matrix)
    n = len(rows)
    m = [[int(v) for v in row] for row in rows]
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in m]

    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_1 = I
    for k in range(1, n + 1):
        prod = [[sum(v * aux[j][col] for j, v in sparse[i]) for col in range(n)]
                for i in range(n)]
        trace = sum(prod[i][i] for i in range(n))
        q, r = divmod(trace, k)
        if r:
            raise ArithmeticError(
                f"Faddeev-LeVerrier division not exact: trace {trace} at k={k}")
        c = -q
        coeffs[n - k] = c
        if k < n:
            aux = prod
            for i in range(n):
                aux[i][i] += c
    return IntPoly(tuple(coeffs))


def test_charpoly_kernel_dense_random():
    rng = random.Random(4)
    for n in range(1, 17):
        for _ in range(3):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert charpoly(m) == reference_charpoly(m), m


def test_charpoly_kernel_permutations_and_identity():
    # single unit entries per row: the product's rows are the previous
    # matrix's own rows, so a shift written into a shared row would show
    rng = random.Random(5)
    for n in (1, 2, 3, 5, 8, 13, 16):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert charpoly(identity) == (X - 1) ** n
        for _ in range(3):
            perm = rng.sample(range(n), n)
            m = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
            assert charpoly(m) == reference_charpoly(m), perm
            doubled = [[2 * v for v in row] for row in m]
            assert charpoly(doubled) == reference_charpoly(doubled), perm


def test_charpoly_kernel_zero_rows():
    assert charpoly([[0] * 4 for _ in range(4)]) == X ** 4
    rng = random.Random(6)
    for n in (2, 5, 9, 16):
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), n // 2):
            m[i] = [0] * n
        assert charpoly(m) == reference_charpoly(m), m


SLOT_EDGE_SCALARS = sorted({s * c for j in range(1, 41)
                             for c in (1, 2 ** j, 2 ** j - 1, 2 ** j + 1)
                             for s in (1, -1)})


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_charpoly_packed_slots_at_the_bound(n):
    # c*I and c*P have every power's largest entry at |c|^k; for c = +-2^j,
    # |c|^n is exactly the slot bound 2^(w - 2)
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    for c in SLOT_EDGE_SCALARS:
        scaled = [[c * (i == j) for j in range(n)] for i in range(n)]
        assert charpoly(scaled) == (X - c) ** n, c
        permuted = [[c * (j == perm[i]) for j in range(n)] for i in range(n)]
        assert charpoly(permuted) == reference_charpoly(permuted), (c, perm)


def test_charpoly_packed_large_dense_entries():
    rng = random.Random(8)
    for n in range(1, 9):
        for bound in (10 ** 6, 10 ** 12):
            m = [[rng.randint(-bound, bound) for _ in range(n)]
                 for _ in range(n)]
            assert charpoly(m) == reference_charpoly(m), m
        extreme = [[rng.choice((-1, 1)) * 10 ** 12 for _ in range(n)]
                   for _ in range(n)]
        assert charpoly(extreme) == reference_charpoly(extreme), extreme


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_packed_against_cofactor_property(m):
    assert charpoly(m) == charpoly_cofactor(m)


def test_charpoly_kernel_criteria_corpus():
    for spec in _sweep_specs():
        m = sp.adjacency(fam.generate(spec))
        assert charpoly(m) == reference_charpoly(m), str(spec)


def test_divide_out():
    q, exact = divide_out(X ** 3 - 3 * X - 2, X - 2)
    assert exact and q == X ** 2 + 2 * X + 1
    q, exact = divide_out(X ** 2 - 4, X - 2)
    assert exact and q == X + 2
    _, exact = divide_out(X ** 2 + 1, X - 2)
    assert not exact
    q, exact = divide_out((X + 1) * (X ** 2 - 3), X + 1)
    assert exact and q == X ** 2 - 3
    with pytest.raises(ValueError):
        divide_out(X ** 2, 2 * X - 1)


@pytest.mark.parametrize("args", [(X ** 2 - 4, 5), (5, X - 2),
                                  ((-4, 0, 1), X - 2), (X ** 2 - 4, None)])
def test_divide_out_takes_polynomials(args):
    # an int once leaked AttributeError from either position
    with pytest.raises(ValueError, match="takes polynomials"):
        divide_out(*args)


def test_power_sums_match_closed_paths(member_diagrams):
    for spec, d in member_diagrams:
        m = sp.adjacency(d)
        p = charpoly(m)
        sums = power_sums_from_charpoly(p, d.vertex_count)
        for k in range(1, d.vertex_count + 1):
            assert sums[k - 1] == sp.closed_path_count(m, k), (str(spec), k)


@pytest.mark.parametrize("text", ["twistknot:V=12", "hopftwist:V=9",
                                  "kribbon:k=3,m=3"])
def test_power_sums_past_the_degree_match_closed_paths(text):
    # k_max = 2V: the sums for k > V run with a_k = 0 and a slice cut at a_V
    d = fam.generate(fam.parse_spec_string(text))
    m = sp.adjacency(d)
    v = d.vertex_count
    sums = power_sums_from_charpoly(charpoly(m), 2 * v)
    assert sums == [sp.closed_path_count(m, k) for k in range(1, 2 * v + 1)]


def signed_newton_sums(p, k_max):
    """power_sums_from_charpoly before it read the coefficients directly:
    the signed elementary symmetric functions in an interpreted double
    loop."""
    n = p.degree
    e = [(-1) ** i * p[n - i] if i <= n else 0 for i in range(k_max + 1)]
    sums = []
    for k in range(1, k_max + 1):
        pk = (-1) ** (k - 1) * k * e[k] if k <= n else 0
        for i in range(1, k):
            pk += (-1) ** (i - 1) * e[i] * sums[k - i - 1] if i <= n else 0
        sums.append(pk)
    return sums


@pytest.mark.parametrize("k_max", [True, False, 2.5, 3.0, "3", None])
def test_power_sums_k_max_must_be_an_integer(k_max):
    # True once returned [0] and 2.5 leaked TypeError from range
    with pytest.raises(ValueError, match="k_max must be an integer"):
        power_sums_from_charpoly(charpoly(TREFOIL_MATRIX), k_max)


@pytest.mark.parametrize("k_max", [-1, -3])
def test_power_sums_refuse_a_negative_k_max(k_max):
    # -3 once returned [] silently; 0 still asks for no sums
    p = charpoly(TREFOIL_MATRIX)
    with pytest.raises(ValueError, match=f"k_max must be .* got {k_max}$"):
        power_sums_from_charpoly(p, k_max)
    assert power_sums_from_charpoly(p, 0) == []


def test_power_sums_match_the_signed_newton_loop():
    rng = random.Random(20066)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = IntPoly(tuple(rng.randint(-9, 9) for _ in range(n)) + (1,))
        for k_max in (0, 1, n - 1, n, n + 1, 3 * n):
            assert (power_sums_from_charpoly(p, k_max)
                    == signed_newton_sums(p, k_max)), (p, k_max)


# ---------------------------------------------------------------------------
# Coefficient rules
# ---------------------------------------------------------------------------

class _Census:
    def __init__(self, counts):
        self.counts = counts


def test_coefficient_report_trefoil():
    rep = coefficient_report(X ** 3 - 3 * X - 2, _Census({2: 3, 3: 2}), 0)
    assert rep.loop_rule and rep.bigon_rule and rep.triangle_rule


def test_coefficient_report_four_knot():
    rep = coefficient_report(X ** 4 - 2 * X ** 2 - 4 * X,
                             _Census({2: 2, 3: 4}), 0)
    assert rep.all_pass()


def test_coefficient_report_one_vertex_twist():
    rep = coefficient_report(X - 2, _Census({1: 2, 2: 1}), 2)
    assert rep.loop_rule
    assert rep.bigon_rule is None and rep.triangle_rule is None


def test_coefficient_report_detects_violation():
    rep = coefficient_report(X ** 3 - 3 * X - 2, _Census({2: 1, 3: 2}), 0)
    assert rep.bigon_rule is False
