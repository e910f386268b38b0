"""The sparse kernels against the dense loops they replaced.

Each ``dense_*`` function (and ``DenseBasis``) below is the earlier dense
implementation, kept here as the reference: the action-map kernels and the
eliminations (``rref``, ``nullspace``, ``rank``, ``mat_inv``, ``Basis``, ``Span``) must
give equal values of the same type and, for the checks, the same witnesses
in the same order. Both keep every value in ``linalg``'s canonical form, an
int when it is integral and a Fraction otherwise, whether the inputs are
canonical or Fractions with denominator 1; the references divide and
canonicalize only through ``frac``, so ``int / int`` never makes a float. ``dense_transport`` and
``dense_transport_matrix`` are the dense change of basis: the corners,
restrictions, rebasings and balanced tensors rebuilt on them must equal the
sparse ``galgebra.transport`` path's. The references keep their stars and
action maps as dense matrices; ``dense_action`` reads a map's columns as
one, to compare them, and ``dense_star`` an algebra's star. The other way
round, ``dense_columns`` turns a dense matrix into the columns every map is
kept as, and ``dense_vectors`` dense vectors into the ``{col: value}`` dicts
every vector is kept as; ``densified`` turns one such dict back into a
dense vector for the dense references.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iskk import crossed as cr
from iskk import galgebra as ga
from iskk import induction as ind
from iskk import l2module as l2
from iskk import semigroup as sg
from iskk import linalg
from iskk import spectrum as sp
from iskk.errors import DependentVector, InvalidAction, InvalidCoefficientAlgebra
from iskk.linalg import (
    PRIME,
    Basis,
    Span,
    frac,
    mat_inv,
    mat_mul,
    nonzero_pairs,
    nullspace,
    rank,
    rref,
    zeros,
)


def identity(n):
    """The n x n identity as a dense matrix."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense_action(cols):
    """A square map given by its columns, as an action map or a star is kept,
    as a dense matrix: entry (r, j) is the value at row r of column j. Each
    column must list nonzero values at increasing rows."""
    out = [[0] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        rows = [r for r, _ in col]
        assert rows == sorted(set(rows)) and all(x for _, x in col), (j, col)
        for r, x in col:
            out[r][j] = x
    return out


def dense_columns(m, ncols):
    """The first ncols columns of the dense matrix m, each as the nonzero
    (row, value) pairs in row order: a map in the column format that
    ``StarHomomorphism.cols``, the stars and the actions are kept in."""
    return [nonzero_pairs([row[j] for row in m]) for j in range(ncols)]


def dense_vectors(vectors):
    """Dense vectors as ``{col: value}`` dicts without zeros, the format of
    embedding vectors and of ``Basis.vectors``."""
    return [{c: x for c, x in enumerate(v) if x} for v in vectors]


def densified(v, n):
    """The ``{col: value}`` dict v as a dense vector of length n."""
    return [v.get(c, 0) for c in range(n)]


def dense_star(alg):
    """The star of ``alg`` as a dense matrix: entry (r, j) is the
    coefficient of b_r in b_j*."""
    return dense_action(alg.star)


def dense_actions(a):
    return {g: dense_action(m) for g, m in a.action.items()}


def dense_mat_vec(m, v):
    nonzero = nonzero_pairs(v)
    return [sum(row[j] * x for j, x in nonzero if row[j]) for row in m]


def dense_mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for j in range(k):
            x = ai[j]
            if x:
                bj = b[j]
                for c in range(cols):
                    if bj[c]:
                        oi[c] += x * bj[c]
    return [[frac(x) for x in row] for row in out]


def dense_mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def dense_mul_vec(alg, u, v):
    out = zeros(alg.dim)
    for i, x in enumerate(u):
        if not x:
            continue
        for j, y in enumerate(v):
            if not y:
                continue
            cell = alg.mul.get((i, j))
            if cell:
                xy = x * y
                for k, c in cell.items():
                    out[k] += xy * c
    return out


def dense_char_matrices(a):
    s = a.sgp
    d = a.dim
    mats = []
    for f in sp.spectrum(s).gens:
        m = dense_action(a.action[f])
        for e in sp.spectrum(s).gens:
            if s.table[f][e] != f:
                em = dense_action(a.action[e])
                m = [[m[r][c] - sum(em[r][k] * m[k][c] for k in range(d) if m[k][c])
                      for c in range(d)] for r in range(d)]
        mats.append(m)
    return mats


def dense_mask_matrix(a, mask):
    mats = dense_char_matrices(a)
    out = [[0] * a.dim for _ in range(a.dim)]
    for i in sg.iter_mask(mask):
        for r in range(a.dim):
            for c in range(a.dim):
                out[r][c] += mats[i][r][c]
    return out


def dense_multiplicative_failures(m, sa, sb):
    images = [[row[j] for row in m] for j in range(sa.dim)]
    for i in range(sa.dim):
        for j in range(sa.dim):
            if dense_mat_vec(m, dense_mul_vec(sa, sa.basis_vec(i), sa.basis_vec(j))) != dense_mul_vec(
                    sb, images[i], images[j]):
                yield (i, j)


def dense_associativity_failures(alg):
    d = alg.dim
    basis = [alg.basis_vec(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            ij = dense_mul_vec(alg, basis[i], basis[j])
            for k in range(d):
                if dense_mul_vec(alg, ij, basis[k]) != dense_mul_vec(
                        alg, basis[i], dense_mul_vec(alg, basis[j], basis[k])):
                    yield (i, j, k)


def dense_star_failures(alg):
    d = alg.dim
    star = dense_star(alg)
    if not dense_mat_eq(dense_mat_mul(star, star), identity(d)):
        yield "star not involutive"
    basis = [alg.basis_vec(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            if dense_mat_vec(star, dense_mul_vec(alg, basis[i], basis[j])) != dense_mul_vec(
                    alg, dense_mat_vec(star, basis[j]), dense_mat_vec(star, basis[i])):
                yield (i, j)


def dense_central_multiplier_failures(alg, m):
    d = alg.dim
    basis = [alg.basis_vec(i) for i in range(d)]
    images = [[row[j] for row in m] for j in range(d)]
    for i in range(d):
        for j in range(d):
            left = dense_mul_vec(alg, images[i], basis[j])
            if left != dense_mul_vec(alg, basis[i], images[j]):
                yield (i, j)
            product = zeros(d)
            for k, v in alg.mul.get((i, j), {}).items():
                product[k] = v
            if dense_mat_vec(m, product) != left:
                yield (i, j, "not a multiplier")


def dense_rref(rows):
    """Gauss-Jordan elimination on dense rows: (reduced nonzero rows, pivots)."""
    work = [list(map(frac, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        if lead != 1:
            work[r] = [frac(x, lead) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [frac(a - f * b) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def dense_nullspace(m):
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = dense_rref(m)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = zeros(ncols)
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        basis.append(v)
    return basis


def dense_mat_inv(m):
    n = len(m)
    red, pivots = dense_rref([list(map(frac, m[i])) + identity(n)[i] for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


class DenseBasis:
    """Elimination that tracks each reduced row as a combination of the
    given vectors, so coordinates come out over those vectors."""

    def __init__(self, vectors):
        self.vectors = [list(map(frac, v)) for v in vectors]
        n = len(self.vectors)
        self._rows, self._pivots, self._trans = [], [], []
        for idx, v in enumerate(self.vectors):
            row = list(v)
            t = zeros(n)
            t[idx] = 1
            for r, p, tr in zip(self._rows, self._pivots, self._trans):
                if row[p]:
                    f = row[p]
                    row = [frac(a - f * b) for a, b in zip(row, r)]
                    t = [frac(a - f * b) for a, b in zip(t, tr)]
            piv = next((c for c, x in enumerate(row) if x), None)
            if piv is None:
                raise ValueError(f"vector {idx} is dependent on its predecessors")
            lead = row[piv]
            row = [frac(a, lead) for a in row]
            t = [frac(a, lead) for a in t]
            for i in range(len(self._rows)):
                if self._rows[i][piv]:
                    f = self._rows[i][piv]
                    self._rows[i] = [frac(a - f * b) for a, b in zip(self._rows[i], row)]
                    self._trans[i] = [frac(a - f * b) for a, b in zip(self._trans[i], t)]
            self._rows.append(row)
            self._pivots.append(piv)
            self._trans.append(t)

    @property
    def dim(self):
        return len(self.vectors)

    def coords(self, v):
        v = list(map(frac, v))
        out = zeros(self.dim)
        for r, p, tr in zip(self._rows, self._pivots, self._trans):
            if v[p]:
                f = v[p]
                v = [frac(a - f * b) for a, b in zip(v, r)]
                out = [frac(a + f * b) for a, b in zip(out, tr)]
        return out if all(x == 0 for x in v) else None


def dense_transport(alg, lifts, coords, label=""):
    """The algebra on the dense vectors ``lifts`` of ``alg``, with a dense
    star: basis vector i is lifts[i], products and stars are read back with
    ``coords``, which maps a dense vector to its dense coordinates over the
    new basis."""
    k = len(lifts)
    mul = {}
    for i in range(k):
        for j in range(k):
            cell = {t: v for t, v in enumerate(coords(dense_mul_vec(alg, lifts[i], lifts[j]))) if v}
            if cell:
                mul[(i, j)] = cell
    return SimpleNamespace(dim=k, mul=mul, star=dense_transport_matrix(dense_star(alg), lifts, coords),
                           label=label)


def dense_transport_matrix(m, lifts, coords):
    """The linear map m on the vectors ``lifts``: column j is coords(m lifts[j])."""
    cols = [coords(dense_mat_vec(m, v)) for v in lifts]
    return [list(row) for row in zip(*cols)]


def dense_basis_coords(vectors, error):
    """Coordinates over the vectors, raising ``error`` outside their span."""
    basis = DenseBasis(vectors)

    def coords(v):
        c = basis.coords(v)
        if c is None:
            raise error
        return c

    return coords


def dense_column_span(p):
    """The reduced rows of the column span of the matrix p."""
    return dense_rref([list(col) for col in zip(*p)])[0]


def types(m):
    return [[type(x) for x in row] for row in m]


# -- strategies ---------------------------------------------------------------

entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


def matrices(n, m):
    rows = st.lists(entries, min_size=m, max_size=m)
    return st.lists(rows, min_size=n, max_size=n)


def as_tuples(m, yes):
    return [tuple(row) for row in m] if yes else m


def typed(x):
    """x with every leaf paired with its type, so 1 and Fraction(1) differ,
    and 1.0 differs from both."""
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return (type(x), x)


@st.composite
def eliminations(draw):
    """Rows to eliminate (empty, all-zero, rectangular, with dependent rows,
    tuple rows, entries as drawn, canonical or all Fractions, so that
    integers come as Fractions with denominator 1 too, entries beyond
    2**64), a square matrix, and vectors to take coordinates of, some inside
    the span of the rows."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(matrices(n, m))
    kind = draw(st.sampled_from(["drawn", "zero", "dependent"]))
    if kind == "zero":
        rows = [[0] * m for _ in range(n)]
    elif kind == "dependent" and rows:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(entries)
        rows.insert(draw(st.integers(0, n)), [a + c * b for a, b in zip(rows[i], rows[j])])
    k = draw(st.integers(0, 5))
    square = draw(matrices(k, k))
    if k > 1 and draw(st.booleans()):
        square[-1] = [a - b for a, b in zip(square[0], square[1])]  # singular
    if draw(st.booleans()):
        # scale each row by a Fraction given a negative denominator, with
        # terms beyond 2**64 (denominator -1 gives integers beyond 2**64);
        # scaling keeps the spans, the dependencies and singularity
        terms = st.integers(2 ** 64, 2 ** 96)

        def scaled(mat):
            out = []
            for row in mat:
                c = Fraction(draw(terms), -draw(st.just(1) | terms))
                out.append([c * x for x in row])
            return out

        rows, square = scaled(rows), scaled(square)
    form = draw(st.sampled_from([frac, Fraction, None]))
    if form is not None:
        rows = [[form(x) for x in row] for row in rows]
        square = [[form(x) for x in row] for row in square]
    probes = draw(st.lists(st.lists(entries, min_size=m, max_size=m), max_size=3))
    coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    probes.append([sum(c * frac(r[col]) for c, r in zip(coeffs, rows)) for col in range(m)])
    return as_tuples(rows, draw(st.booleans())), as_tuples(square, draw(st.booleans())), probes + rows


def sparse_typed(coords):
    """Dense coordinates (or None) as the typed (index, value) pairs of their
    nonzeros, in index order."""
    return None if coords is None else [(k, typed(x)) for k, x in enumerate(coords) if x]


def basis_outcome(vectors, probes):
    """Basis over the ``{col: value}`` vectors with its coordinates of each
    dense probe, or the error."""
    try:
        b = Basis(vectors)
    except ValueError as e:
        return str(e)
    coords = [b.sparse_coords({c: x for c, x in enumerate(probe) if x}) for probe in probes]
    return b.dim, [[(c, typed(x)) for c, x in v.items()] for v in b.vectors], \
        [None if c is None else [(k, typed(x)) for k, x in c.items()] for c in coords]


def dense_basis_outcome(vectors, probes):
    try:
        b = DenseBasis(vectors)
    except ValueError as e:
        return str(e)
    return b.dim, [sparse_typed(v) for v in b.vectors], [sparse_typed(b.coords(probe)) for probe in probes]


@st.composite
def products(draw):
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a, b = draw(matrices(n, k)), draw(matrices(k, m))
    if draw(st.booleans()):
        b = [[0] * m for _ in range(k)]  # all-zero right factor
    return as_tuples(a, draw(st.booleans())), as_tuples(b, draw(st.booleans()))


@st.composite
def star_algebras(draw):
    d = draw(st.integers(0, 5))
    index = st.integers(0, max(d - 1, 0))
    cells = draw(st.dictionaries(st.tuples(index, index), st.dictionaries(index, entries, max_size=3),
                                 max_size=d * d))
    mul = cells if d else {}
    star = identity(d) if draw(st.booleans()) else draw(matrices(d, d))
    alg = ga.StarAlgebra(d, mul, dense_columns(star, d))
    u = draw(st.lists(entries, min_size=d, max_size=d))
    v = draw(st.lists(entries, min_size=d, max_size=d))
    return alg, as_tuples([u], draw(st.booleans()))[0], as_tuples([v], draw(st.booleans()))[0]


# -- the kernels ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(products())
def test_mat_mul_matches_the_dense_loop(ab):
    a, b = ab
    got, ref = mat_mul(a, b), dense_mat_mul(a, b)
    assert got == ref and types(got) == types(ref)


def test_mat_mul_edge_cases():
    assert mat_mul([], []) == dense_mat_mul([], []) == []
    assert mat_mul([[], []], []) == dense_mat_mul([[], []], []) == [[], []]
    a = [(1, 2), (0, 0)]  # tuple rows with int entries
    assert mat_mul(a, a) == dense_mat_mul(a, a) == [[1, 2], [0, 0]]
    assert types(mat_mul(a, a)) == types(dense_mat_mul(a, a))
    assert nonzero_pairs((0, Fraction(3), 0)) == [(1, Fraction(3))]


@st.composite
def square_pairs(draw):
    """Two square matrices of one size; the second is sometimes the first,
    or the first with one entry changed, so equal and nearly equal pairs
    come up."""
    n = draw(st.integers(0, 5))
    a = draw(matrices(n, n))
    kind = draw(st.sampled_from(["drawn", "same", "one entry"]))
    b = draw(matrices(n, n)) if kind == "drawn" or not n else [list(row) for row in a]
    if kind == "one entry" and n:
        b[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entries)
    return a, b


@settings(max_examples=300, deadline=None)
@given(square_pairs())
def test_compose_matches_the_dense_product(ab):
    a, b = ab
    ca, cb = dense_columns(a, len(a)), dense_columns(b, len(b))
    got = ga._compose(ca, cb)
    ref = dense_mat_mul(a, b)
    assert dense_action(got) == ref and types(dense_action(got)) == types(ref)
    assert got == dense_columns(ref, len(ref))  # columns in row order, without zeros


@settings(max_examples=300, deadline=None)
@given(square_pairs())
def test_column_equality_matches_dense_equality(ab):
    a, b = ab
    assert (dense_columns(a, len(a)) == dense_columns(b, len(b))) == dense_mat_eq(a, b)
    ca, cb = dense_columns(a, len(a)), dense_columns(b, len(b))
    assert (ga._compose(ca, cb) == ga._compose(cb, ca)) == dense_mat_eq(dense_mat_mul(a, b),
                                                                           dense_mat_mul(b, a))


def test_compose_edge_cases():
    one, two, half = [(0, 1)], [(0, Fraction(2))], [(0, Fraction(1, 2))]
    assert ga._compose([], []) == []
    assert ga._compose([[]], [one]) == [[]]                     # through a zero column
    assert ga._compose([two], [half]) == [[(0, 1)]]             # one entry, scaled
    assert ga._compose([two], [one]) == [two]
    # two entries meeting in one row cancel, and that row is dropped
    a = [[(0, 1)], [(0, -1)]]
    assert ga._compose(a, [[(0, 1), (1, 1)], [(1, 1)]]) == [[], [(0, -1)]]
    # rows come out in order whatever order the summed columns list them in
    a = [[(1, 1)], [(0, 1)]]
    assert ga._compose(a, [[(0, 1), (1, Fraction(3))], []]) == [[(0, Fraction(3)), (1, 1)], []]


@settings(max_examples=300, deadline=None)
@given(star_algebras())
def test_mul_vec_matches_the_dense_loop(problem):
    alg, u, v = problem
    got, ref = alg.mul_vec(u, v), dense_mul_vec(alg, u, v)
    assert got == ref and [type(x) for x in got] == [type(x) for x in ref]


@settings(max_examples=200, deadline=None)
@given(star_algebras(), st.data())
def test_algebra_checks_match_the_dense_loops(problem, data):
    # random constants are rarely associative or star-compatible, so the
    # witness lists are long and their order is compared too
    alg = problem[0]
    m = data.draw(matrices(alg.dim, alg.dim))
    cols = dense_columns(m, alg.dim)
    assert list(ga.associativity_failures(alg)) == list(dense_associativity_failures(alg))
    assert list(ga.star_failures(alg)) == list(dense_star_failures(alg))
    assert list(ga.central_multiplier_failures(alg, cols)) == list(dense_central_multiplier_failures(alg, m))
    assert list(ga.multiplicative_failures(cols, alg, alg)) == list(dense_multiplicative_failures(m, alg, alg))


# -- the action-map kernels on real coefficient algebras ---------------------

BUILDERS = ["chain:3", "diamond", "cyclic:3", "symmetric:3", "symmetric_inverse:2",
            "symmetric_inverse:3", "brandt_unital:2", "product:symmetric_inverse:2*chain:2"]


@pytest.mark.parametrize("spec", BUILDERS)
def test_char_and_mask_matrices_match_the_dense_loops(spec):
    s = sg.parse_builder(spec)
    a = ga.c0x_algebra(s)
    ref = dense_char_matrices(a)
    got = [dense_action(m) for m in a.char_matrices()]
    assert got == ref and [types(m) for m in got] == [types(m) for m in ref]
    size = sp.spectrum(s).size
    masks = [1 << i for i in range(size)] + [(1 << size) - 1, 0b0101010101 & ((1 << size) - 1), 0]
    for mask in masks:
        got_m, ref_m = dense_action(a.mask_matrix(mask)), dense_mask_matrix(a, mask)
        assert got_m == ref_m and types(got_m) == types(ref_m)
    for x in sp.spectrum(s).gens:
        germ = sp.extended(s, x)
        assert dense_action(a.germ_matrix(germ)) == dense_mat_mul(dense_action(a.action[x]),
                                                                  dense_mask_matrix(a, germ.chars))


@pytest.mark.parametrize("spec", BUILDERS)
def test_multiplicative_and_equivariance_failures_match_the_dense_loops(spec):
    s = sg.parse_builder(spec)
    a = ga.c0x_algebra(s)
    actions = dense_actions(a)
    broken = [list(row) for row in actions[s.unit]]
    broken[0][0] = Fraction(2)  # 2 b_0 is not idempotent, so b_0 b_0 fails
    for m in [actions[g] for g in s.elements()] + [broken]:
        got = list(ga.multiplicative_failures(dense_columns(m, a.dim), a.alg, a.alg))
        assert got == list(dense_multiplicative_failures(m, a.alg, a.alg))
    ident = ga.StarHomomorphism(a, a, ga._identity(a.dim))
    assert list(ga._equivariance_failures(ident, s.elements())) == []
    for g in s.elements():
        f = ga.StarHomomorphism(a, a, dense_columns(actions[g], a.dim))
        ref = [h for h in s.elements() if not dense_mat_eq(dense_mat_mul(actions[g], actions[h]),
                                                           dense_mat_mul(actions[h], actions[g]))]
        assert list(ga._equivariance_failures(f, s.elements())) == ref


@pytest.mark.parametrize("spec", ["symmetric_inverse:2", "brandt_unital:2"])
def test_validation_checks_match_the_dense_loops_on_valid_algebras(spec):
    s = sg.parse_builder(spec)
    for alg in (ga.c0x_algebra(s).alg, ga.matrix_algebra(2), ga.matrix_algebra(3)):
        assert list(ga.associativity_failures(alg)) == list(dense_associativity_failures(alg)) == []
        assert list(ga.star_failures(alg)) == list(dense_star_failures(alg)) == []
    a = ga.c0x_algebra(s)
    for g in s.elements():
        m = a.action[s.range_of(g)]
        assert list(ga.central_multiplier_failures(a.alg, m)) == []
        assert list(ga.central_multiplier_failures(a.alg, a.action[g])) == list(
            dense_central_multiplier_failures(a.alg, dense_action(a.action[g])))


# -- the eliminations -----------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(eliminations())
def test_eliminations_match_the_dense_loops(problem):
    # the rows are drawn dense for the references and handed over as dicts
    rows, square, probes = problem
    width = len(probes[-1])  # the rows' width, also when there are no rows
    given_rows = dense_vectors(rows)
    (red, pivots), (ref_red, ref_pivots) = rref(given_rows, width), dense_rref(rows)
    assert typed_rows(red) == typed_rows(ref_red) and pivots == ref_pivots
    # a zero row gives the dense reference the width of an empty matrix
    assert typed_rows(nullspace(given_rows, width)) == typed_rows(dense_nullspace(rows or [[0] * width]))
    assert rank(given_rows, width) == len(ref_pivots)
    inv, ref_inv = mat_inv(dense_vectors(square)), dense_mat_inv(square)
    assert (inv is None) == (ref_inv is None)
    if inv is not None:
        assert typed_rows(inv) == typed_rows(ref_inv)
    assert basis_outcome(given_rows, probes) == dense_basis_outcome(rows, probes)
    # the incremental Span reaches the same reduced rows, and its coordinates
    # over them are the dense reference basis's
    span, ref_basis = Span(given_rows), DenseBasis(ref_red)
    dense_rows = [densified(row, width) for row in span.sparse_rows]
    assert typed_rows(dense_rows) == typed_rows(ref_red) and span.pivots == ref_pivots
    for probe, sparse in zip(probes, dense_vectors(probes)):
        ref = sparse_typed(ref_basis.coords(probe))
        assert span.contains(sparse) == (ref is not None)
        got = span.sparse_coords(sparse)
        assert (None if got is None else [(k, typed(x)) for k, x in got.items()]) == ref


def test_elimination_edge_cases():
    assert rref([], 0) == dense_rref([]) == ([], [])
    assert rref([{}], 0) == dense_rref([[]]) == ([], [])
    assert rref([{}, {}], 2) == ([], [])
    assert nullspace([], 0) == [] and nullspace([], 2) == nullspace([{}], 2) == [{0: 1}, {1: 1}]
    assert rank([{1: 2}, {1: Fraction(1, 3)}], 2) == 1
    assert mat_inv([]) == [] and mat_inv([{}]) is None
    inv = mat_inv([{0: 2}, {1: 1}])
    assert inv == [{0: Fraction(1, 2)}, {1: 1}] and typed_rows(inv) == typed_rows([[Fraction(1, 2), 0], [0, 1]])
    empty = Basis([])
    assert empty.dim == 0 and empty.sparse_coords({}) == {} and empty.sparse_coords({0: 1}) is None
    b = Basis([{0: 1, 1: 1}, {1: 1}])
    got = b.sparse_coords({1: 3, 0: 2})
    assert list(got.items()) == [(0, 2), (1, 1)] and typed(list(got.values())) == typed([2, 1])
    assert b.sparse_coords({0: 1, 1: 1}) == {0: 1} and b.sparse_coords({2: 1}) is None
    for vectors, idx in (([{}], 0), ([{0: 1, 1: 2}, {0: 2, 1: 4}], 1), ([{0: 1}, {1: 1}, {0: 1, 1: 1}], 2)):
        with pytest.raises(ValueError, match=f"^vector {idx} is dependent on its predecessors$") as err:
            Basis(vectors)
        assert isinstance(err.value, DependentVector) and err.value.witness == {"index": idx}


# -- the full-rank certificate modulo a prime -----------------------------------


def typed_rows(rows):
    """Dense or dict rows as the typed (column, value) pairs of their nonzeros."""
    return [[(c, typed(x)) for c, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x]
            for row in rows]


class CountedIrref:
    """Counts the batch eliminations run while it is entered."""

    def __enter__(self):
        self.calls, self.real = 0, linalg._irref

        def counted(rows):
            self.calls += 1
            return self.real(rows)

        linalg._irref = counted
        return self

    def __exit__(self, *exc):
        linalg._irref = self.real


@st.composite
def tall_matrices(draw):
    """Square and tall matrices with small entries, all ints or some
    Fractions, nonsingular or singular (a column made a combination of the
    others). Their minors are far below ``PRIME``, so their rank modulo it
    is their rank over Q."""
    m = draw(st.integers(1, 6))
    n = m + draw(st.integers(0, 3))
    values = [-2, -1, 0, 0, 1, 1, 2, 3] + ([Fraction(1, 2), Fraction(-3, 4)] if draw(st.booleans()) else [])
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=m, max_size=m), min_size=n, max_size=n))
    if m > 1 and draw(st.booleans()):
        j, k, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(st.sampled_from(values))
        if j != k:
            for row in rows:
                row[j] = frac(c * row[k])
    return rows, m


@settings(max_examples=300, deadline=None)
@given(tall_matrices())
def test_certified_eliminations_match_the_dense_loops(problem):
    rows, ncols = problem
    given_rows = dense_vectors(rows)
    ref_red, ref_pivots = dense_rref(rows)
    with CountedIrref() as irref:
        red, pivots = rref(given_rows, ncols)
    # certified exactly when the rank is full, and then without an elimination
    assert irref.calls == (len(ref_pivots) < ncols)
    assert pivots == ref_pivots and typed_rows(red) == typed_rows(ref_red)
    null = nullspace(given_rows, ncols)
    assert all(type(v) is dict for v in red + null)
    assert typed_rows(null) == typed_rows(dense_nullspace(rows))
    assert rank(given_rows, ncols) == len(ref_pivots)


def test_rows_singular_mod_p_take_the_exact_fallback():
    # nonsingular over Q, singular modulo PRIME: det = PRIME, an entry PRIME,
    # or a Fraction whose scaled row is PRIME
    for m in ([[PRIME, 0], [0, 1]], [[1, 2], [3, 6 + PRIME]], [[0, 1], [PRIME, 0], [2 * PRIME, 0]],
              [[Fraction(PRIME, 2), 0], [0, Fraction(1, 3)]]):
        given_rows = dense_vectors(m)
        with CountedIrref() as irref:
            red, pivots = rref(given_rows, 2)
        assert irref.calls == 1 and pivots == [0, 1]
        assert typed_rows(red) == typed_rows(identity(2))
        assert nullspace(given_rows, 2) == [] and rank(given_rows, 2) == 2
    # singular over Q too: the fallback finds the kernel
    assert nullspace([{0: 1, 1: PRIME}, {0: 2, 1: 2 * PRIME}], 2) == [{0: -PRIME, 1: 1}]


def test_stacked_gram_matrices_are_certified_without_elimination():
    # check_independence's rank of the Gram matrices over all characters is
    # tall and full
    for spec in ("chain:3", "diamond", "brandt_unital:2", "symmetric_inverse:2"):
        with CountedIrref() as irref:
            report = l2.check_independence(sg.parse_builder(spec))
        assert report["pass"] and irref.calls == 0, spec


@pytest.mark.parametrize("spec", BUILDERS)
def test_independence_rank_matches_the_dense_gram(spec):
    # check_independence reads its rows off the phi_mask bits; the reference
    # stacks the dense Gram matrices of phi_inner, one per character, and
    # eliminates them with the dense loop
    s = sg.parse_builder(spec)
    basis = l2.l2_basis(s)
    entries = [[l2.phi_inner(s, g, h) for h in basis] for g in basis]
    stacked = [[cell[pos] for cell in row] for pos in range(sp.spectrum(s).size) for row in entries]
    r = len(dense_rref(stacked)[1])
    assert l2.check_independence(s) == {"check": "phi_independence", "basis_size": len(basis), "rank": r,
                                        "pass": r == len(basis)}


def test_rows_of_dicts_need_their_width():
    with pytest.raises(TypeError):
        rref([{0: 1}])


def test_trace_form_is_certified_without_elimination_only_when_semisimple():
    s = sg.parse_builder("symmetric_inverse:3")
    alg = cr.crossed(ga.trivial_algebra(s), kind="universal").alg
    with CountedIrref() as irref:
        assert nullspace(cr._trace_form(alg, alg.left_traces()), alg.dim) == []
    assert irref.calls == 0
    # span{e11, e22, e12} upper triangular: the radical is spanned by e12
    mul = {(0, 0): {0: 1}, (1, 1): {1: 1}, (0, 2): {2: 1}, (2, 1): {2: 1}}
    upper = ga.StarAlgebra(3, mul, dense_columns(identity(3), 3), "upper")
    with CountedIrref() as irref:
        assert nullspace(cr._trace_form(upper, upper.left_traces()), 3) == [{2: 1}]
    assert irref.calls == 1


# -- maps in the column format -----------------------------------------------


@st.composite
def linear_maps(draw):
    """A dense target x source matrix and its source dimension: square or
    not, singular or not (a row made a combination of two others), with int
    entries or Fractions, and at times one row scaled by ``PRIME``, which
    keeps its rank over Q but lowers it modulo ``PRIME``."""
    n = draw(st.integers(0, 5))
    m = n if draw(st.booleans()) else draw(st.integers(0, 5))
    rows = draw(matrices(n, m))
    if n > 2 and draw(st.booleans()):
        c = draw(entries)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    if n and draw(st.booleans()):
        rows[0] = [PRIME * x for x in rows[0]]
    if draw(st.booleans()):
        rows = [[Fraction(x) for x in row] for row in rows]
    return rows, m


@settings(max_examples=400, deadline=None)
@given(linear_maps())
def test_bijective_matches_the_dense_inverse(problem):
    rows, m = problem
    ref = len(rows) == m and dense_mat_inv(rows) is not None
    assert ga._bijective(dense_columns(rows, m), len(rows)) == ref


def test_bijective_takes_no_elimination_when_certified():
    # diag(PRIME, 1) is singular modulo PRIME but not over Q: only it takes
    # the exact fallback
    for m, bijective, calls in (([[1, 0], [0, 2]], True, 0), ([[PRIME, 0], [0, 1]], True, 1),
                                ([[1, 2], [2, 4]], False, 1), ([[1, 0]], False, 0)):
        with CountedIrref() as irref:
            assert ga._bijective(dense_columns(m, len(m[0])), len(m)) == bijective
        assert irref.calls == calls, m


@settings(max_examples=300, deadline=None)
@given(eliminations())
def test_basis_over_dicts_matches_the_dense_vectors(problem):
    rows, _, probes = problem
    assert basis_outcome(dense_vectors(rows), probes) == dense_basis_outcome(rows, probes)


def test_verify_iso_rejects_a_singular_map_with_its_dims():
    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    line = ga.trivial_algebra(s)
    for cols, src, dst, witness in (([[(0, 1)], [(0, 1)]], a, a, "dims 2 -> 2, invertible=False"),
                                    ([[(0, 1)]], line, a, "dims 1 -> 2, invertible=False")):
        report = ind._verify_iso(cols, src, dst, list(s.elements()), "lemma", "instance", {})
        assert report["checks"][0] == {"name": "bijective", "pass": False, "witness": witness}
        assert not report["pass"]
    report = ind._verify_iso(ga._identity(a.dim), a, a, list(s.elements()), "lemma", "instance", {})
    assert report["pass"] and [c["name"] for c in report["checks"]] == [
        "bijective", "multiplicative", "star_preserving", "equivariant"]


# -- the change of basis against the dense rebuild ---------------------------

TRANSPORT_SPECS = ["chain:2", "chain:3", "chain:4", "diamond", "cyclic:2", "cyclic:3", "cyclic:4",
                   "symmetric:3", "symmetric_inverse:2", "symmetric_inverse:3", "brandt_unital:2",
                   "brandt_unital:3", "adjoin_zero:chain:2", "product:chain:2*cyclic:2",
                   "product:symmetric_inverse:2*chain:2"]


def outcome(build):
    """build() as comparable data, or the type and message of its error."""
    try:
        return build()
    except Exception as e:  # the error itself is compared
        return type(e).__name__, str(e)


def h_fields(d):
    return list(d.alg.mul.items()), dense_star(d.alg), dense_actions(d), list(d.unit_of_basis), d.embed


def dense_fiber_rebase(a, h, projections, error, label):
    """Restriction to a groupoid on the fibers spanned by the projections'
    columns, read densely over all fibers at once."""
    basis, unit_of_basis = [], []
    for upos, p in enumerate(projections):
        rows = dense_column_span(p)
        basis += rows
        unit_of_basis += [upos] * len(rows)
    try:
        coords = dense_basis_coords(basis, error)
    except ValueError:
        raise error from None
    action = {}
    for x in h.elements:
        gm = dense_mat_mul(dense_action(a.action[x.g]), projections[h.unit_pos_of_mask(sp.germ_source(x))])
        action[x] = dense_transport_matrix(gm, basis, coords)
    alg = dense_transport(a.alg, basis, coords, label)
    return list(alg.mul.items()), alg.star, action, unit_of_basis, dense_vectors(basis)


def dense_signature_matrix(a, idems, chars, spectrum):
    m = identity(a.dim)
    for e in idems:
        pe = dense_action(a.action[e])
        if chars & ~spectrum.proj(e):
            pe = [[(1 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(pe)]
        m = dense_mat_mul(m, pe)
    return m


def dense_sgp_to_h_algebra(a, h):
    s = a.sgp
    hidem = sorted(e for e in sg.iter_mask(h.from_subset) if s.is_idempotent(e))
    projections = [dense_signature_matrix(a, hidem, u.chars, sp.spectrum(s)) for u in h.units]
    out = dense_fiber_rebase(a, h, projections, InvalidCoefficientAlgebra("rebasing is not closed"),
                             f"{a.label}|gpd")
    if len(out[4]) != a.dim:
        raise InvalidCoefficientAlgebra(f"groupoid rebasing changed dimension {a.dim} -> {len(out[4])}")
    return out


def corner_fields(sub, basis):
    return list(sub.alg.mul.items()), dense_star(sub.alg), dense_actions(sub), basis


def dense_subalgebra(a, p):
    basis = dense_column_span(p)
    coords = dense_basis_coords(basis, InvalidAction(f"corner of {a.label!r} is not closed"))
    action = {g: dense_transport_matrix(m, basis, coords) for g, m in dense_actions(a).items()}
    alg = dense_transport(a.alg, basis, coords)
    return list(alg.mul.items()), alg.star, action, dense_vectors(basis)


def dense_balanced_tensor(a, b):
    """The plain tensor modulo e(x) (x) y - x (x) e(y), read densely: the
    lifts are the unit vectors at the free columns of the relations'
    reduced form, and a class's coordinates are the reduced vector there."""
    big = ga.tensor_g(a, b)
    db = b.dim
    relations = []
    for e in sg.iter_mask(a.sgp._idem_mask):
        ea, eb = dense_action(a.action[e]), dense_action(b.action[e])
        for i in range(a.dim):
            for j in range(db):
                v = zeros(big.dim)
                for r in range(a.dim):
                    v[r * db + j] += ea[r][i]
                for r in range(db):
                    v[i * db + r] -= eb[r][j]
                relations.append(v)
    red, pivots = dense_rref(relations) if big.dim else ([], [])
    free = [c for c in range(big.dim) if c not in pivots]

    def coords(v):
        v = list(map(frac, v))
        for row, p in zip(red, pivots):
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return [v[c] for c in free]

    lifts = [[1 if i == c else 0 for i in range(big.dim)] for c in free]
    alg = dense_transport(big.alg, lifts, coords)
    return list(alg.mul.items()), alg.star, {g: dense_transport_matrix(m, lifts, coords)
                                             for g, m in dense_actions(big).items()}


@pytest.mark.parametrize("coeff", ["trivial", "c0x"])
@pytest.mark.parametrize("spec", TRANSPORT_SPECS)
def test_change_of_basis_matches_the_dense_rebuild(spec, coeff):
    s = sg.parse_builder(spec)
    a = ga.trivial_algebra(s) if coeff == "trivial" else ga.c0x_algebra(s)
    c0x = ga.c0x_algebra(s)

    def tensor():
        t = ga.balanced_tensor(a, c0x)
        return list(t.alg.mul.items()), dense_star(t.alg), dense_actions(t)

    assert outcome(tensor) == outcome(lambda: dense_balanced_tensor(a, c0x))
    if not ga.validate_g_algebra(a)["pass"]:
        return  # no action: the scalar line over a semigroup with zero divisors
    for sub in ("unit", "idempotents", "all"):
        h = ind.assoc_groupoid(s, sg.parse_subset(s, sub))
        projections = [dense_mask_matrix(a, u.chars) for u in h.units]
        assert h_fields(ga.restrict(a, h)) == dense_fiber_rebase(
            a, h, projections, InvalidAction(f"groupoid corner of {a.label!r} is not closed"),
            f"Res({a.label})")
        assert outcome(lambda: h_fields(ind.sgp_to_h_algebra(a, h))) == \
            outcome(lambda: dense_sgp_to_h_algebra(a, h))
        # unit projections need not be invariant under the action, so some
        # of these corners are not closed; the central idempotents' are
        central = [dense_action(a.action[e]) for e in sg.iter_mask(s._idem_mask)
                   if all(s.table[e][g] == s.table[g][e] for g in s.elements())]
        for p in projections + central:
            assert outcome(lambda: corner_fields(*ga.subalgebra_on_projection(a, dense_columns(p, a.dim)))) == \
                outcome(lambda: dense_subalgebra(a, p))


@pytest.mark.parametrize("spec", ["chain:3", "symmetric_inverse:2", "product:symmetric_inverse:2*chain:2"])
def test_transport_forms_products_only_across_mul_cells(spec, monkeypatch):
    # restrict to all germs: a product of two fiber vectors is formed only
    # when a mul cell pairs their supports, and the result (mul in its
    # iteration order included) is the dense rebuild's
    s = sg.parse_builder(spec)
    h = ind.assoc_groupoid(s, sg.parse_subset(s, "all"))
    c0x = ga.c0x_algebra(s)
    e = ind.assoc_groupoid(s, sg.parse_subset(s, "idempotents"))
    induced = ind.build_induced(s, e, ga.restrict(c0x, e)).galg
    real, calls = ga._product, []

    def counted(alg, u, v):
        calls.append((alg, u, v))
        return real(alg, u, v)

    monkeypatch.setattr(ga, "_product", counted)
    for a in (c0x, induced):
        calls.clear()
        d = ga.restrict(a, h)
        assert calls and all(any((i, j) in alg.mul for i in u for j in v) for alg, u, v in calls)
        assert len(calls) < d.dim ** 2
        projections = [dense_mask_matrix(a, u.chars) for u in h.units]
        assert h_fields(d) == dense_fiber_rebase(
            a, h, projections, InvalidAction(f"groupoid corner of {a.label!r} is not closed"),
            f"Res({a.label})")
