"""Independent oracles the tests check the library against: each states a
fact of the paper or a law of the code by a second method."""

from __future__ import annotations

import math

from altknot import diagram as dg
from altknot.polynomials import ONE, ZERO, X, IntPoly, jpoly


def jpoly_explicit(k):
    """J_k by the closed binomial sum instead of the recurrence:
    J_k(x) = sum_{j=0}^{floor(k/2)} (-1)^j * C(k-j, j) * x^(k-2j)."""
    coeffs = [0] * (k + 1)
    for j in range(k // 2 + 1):
        coeffs[k - 2 * j] = (-1) ** j * math.comb(k - j, j)
    return IntPoly(tuple(coeffs))


def check_quadratic_identity(k):
    """True iff J_k^2 - x*J_k*J_{k-1} + J_{k-1}^2 == 1 exactly."""
    jk, jk1 = jpoly(k), jpoly(k - 1)
    return jk * jk - X * jk * jk1 + jk1 * jk1 == ONE


def invert_power_series(denominator, n_terms):
    """Coefficients of t^0..t^n_terms of 1/denominator over Z[x], for a
    list of coefficients of powers of t with constant term 1."""
    out = []
    for k in range(n_terms + 1):
        acc = ONE if k == 0 else ZERO
        for i in range(1, min(k, len(denominator) - 1) + 1):
            acc = acc - denominator[i] * out[k - i]
        out.append(acc)
    return out


def check_generating_function(k_max):
    """True iff 1/(1 - t*x + t^2) expands to J_0..J_{k_max} in t."""
    terms = invert_power_series([ONE, -X, ONE], k_max)
    return all(terms[k] == jpoly(k) for k in range(k_max + 1))


def charpoly_cofactor(matrix):
    """det(x*I - M) by cofactor expansion over Z[x]: exponential in the
    dimension."""
    rows = getattr(matrix, "rows", matrix)
    n = len(rows)

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = ZERO
        for j, entry in enumerate(mat[0]):
            if entry:
                minor = [row[:j] + row[j + 1:] for row in mat[1:]]
                term = entry * det(minor)
                total = total + term if j % 2 == 0 else total - term
        return total

    return det([[(X if i == j else ZERO) - rows[i][j] for j in range(n)]
                for i in range(n)])


def all_ones_check(m):
    """True iff the all-ones vector is a left and right eigenvector with
    eigenvalue 2, i.e. all row and column sums equal 2."""
    if any(len(row) != m.n for row in m.rows):
        return False
    return all(s == 2 for lines in (m.rows, zip(*m.rows))
               for s in map(sum, lines))


def mirror(d):
    """The reflected diagram: every rotation ring reversed."""
    return dg.Diagram(d.kind, d.vertex_count, d.darts,
                      tuple(tuple(reversed(ring)) for ring in d.rotation))


def reference_canonical_code(d):
    """The brute-force canonical code: every root's whole BFS code built,
    then the minimum taken (as before the pruned version), on twin,
    successor and direction lists read once from the `Dart` fields and
    the rings."""
    n = len(d.darts)
    twin = [x.twin for x in d.darts]
    out = [x.direction == dg.OUT for x in d.darts]
    succ = [0] * n
    for a, b, c, e in d.rotation:
        succ[a], succ[b], succ[c], succ[e] = b, c, e, a
    best = None
    for root in range(n):
        label = [-1] * n
        label[root] = 0
        order = [root]
        for cur in order:
            t, s = twin[cur], succ[cur]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
            if label[s] < 0:
                label[s] = len(order)
                order.append(s)
        code = tuple([(label[twin[x]], label[succ[x]], out[x])
                      for x in order])
        if best is None or code < best:
            best = code
    if best is None:
        raise dg.DiagramError("canonical code of a diagram with no darts")
    return best


def mat2_mul(a, b):
    """The product of two 2x2 matrices over Z[x], each a pair of rows."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def ribbon_piece(l):
    """A necklace crossing grown into a ribbon of l crossings, as
    (M, alpha, beta): N(l) = [[J_l, -1], [1, J_{l-2}]] with
    alpha = beta = J_{l-1}.  l = 1 is the plain crossing [[x, -1], [1, 0]]
    with alpha = beta = 1."""
    return ((jpoly(l), -ONE), (ONE, jpoly(l - 2))), jpoly(l - 1), jpoly(l - 1)


def lane_out_piece(l):
    """A necklace crossing grown into a ribbon of l crossings along
    `LANE_OUT`, as (M, alpha, beta): T^l with alpha = beta = 1, where
    T = [[x, -1], [1, 0]] is the plain crossing."""
    m = ((ONE, ZERO), (ZERO, ONE))
    for _ in range(l):
        m = mat2_mul(m, ((X, -ONE), (ONE, ZERO)))
    return m, ONE, ONE


def twist_piece(t):
    """Edge 0 twisted t >= 1 times, as (M, alpha, beta):
    E(t) = diag(K_t, K_{t-1}) with alpha = K_t and beta = K_{t-1}, where
    K_t = J_t - J_{t-1}."""
    k_t, k_t1 = (jpoly(s) - jpoly(s - 1) for s in (t, t - 1))
    return ((k_t, ZERO), (ZERO, k_t1)), k_t, k_t1


def bead_charpoly(shape, piece=ribbon_piece):
    """tr(prod M_i) - prod alpha_i - prod beta_i over the pieces of a
    family shape (v, lengths, twist, 0), taken in necklace order: crossing
    i is piece(l_i), with l_i = 1 past `lengths`, and the twist piece sits
    just after piece 0.

    The bead lemma states that this is the characteristic polynomial of
    the member's adjacency matrix.  It is tested, not proved: the tests
    compare it with `charpoly` of the generated diagram."""
    v, lengths, twist, rings = shape
    if rings:
        raise ValueError("the bead lemma has no piece for a chained ring")
    return necklace_charpoly(
        [piece(l) for l in lengths + (1,) * (v - len(lengths))], twist)


def necklace_charpoly(pieces, twist=0):
    """tr(prod M_i) - prod alpha_i - prod beta_i over the necklace's
    pieces (M, alpha, beta) in necklace order, with the twist piece of
    edge 0, when `twist` is not 0, just after piece 0."""
    if twist:
        pieces = [pieces[0], twist_piece(twist), *pieces[1:]]
    m, alpha, beta = pieces[0]
    for m_i, alpha_i, beta_i in pieces[1:]:
        m, alpha, beta = mat2_mul(m, m_i), alpha * alpha_i, beta * beta_i
    return m[0][0] + m[1][1] - alpha - beta
