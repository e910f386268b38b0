import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from iskk import crossed as cr
from iskk import galgebra as ga
from iskk import induction as ind
from iskk import ktheory as kt
from iskk import semigroup as sg
from iskk import spectrum as spc
from iskk.errors import BrokenInvariant, InvalidAction, NotIdempotent
from iskk.linalg import Span, frac, nonzero_pairs
from test_kernels import (dense_action, dense_columns, dense_mat_vec, dense_nullspace, dense_star,
                          dense_transport, dense_vectors, densified, identity)


def test_group_algebra_z2():
    s = sg.parse_builder("cyclic:2")
    x = cr.crossed(ga.trivial_algebra(s), kind="universal")
    assert x.dim == 2
    d = cr.semisimple_quotient(x)
    assert d.radical_dim == 0 and d.blocks == 2 and d.splits


def test_chain_universal_vs_sieben():
    s = sg.parse_builder("chain:2")
    a = ga.trivial_algebra(s)
    uni = cr.crossed(a, kind="universal")
    tight = cr.crossed(a, kind="sieben")
    assert uni.dim == 2
    assert tight.dim == 1
    assert cr.semisimple_quotient(uni).blocks == 2
    assert cr.semisimple_quotient(tight).blocks == 1


def test_sieben_equals_universal_iff_trivial_idempotents():
    for spec, equal in [("cyclic:3", True), ("symmetric:3", True), ("chain:3", False),
                        ("diamond", False)]:
        s = sg.parse_builder(spec)
        a = ga.trivial_algebra(s)
        uni = cr.crossed(a, kind="universal")
        tight = cr.crossed(a, kind="sieben")
        assert tight.dim <= uni.dim
        assert (tight.dim == uni.dim) == equal, spec


def test_universal_dim_formula():
    for spec in ["chain:3", "diamond", "brandt_unital:2", "symmetric_inverse:2"]:
        s = sg.parse_builder(spec)
        c = ga.c0x_algebra(s)
        x = cr.crossed(c, kind="universal")
        expected = 0
        for g in s.elements():
            m = dense_action(c.action[s.range_of(g)])
            expected += sum(1 for i in range(c.dim) if m[i][i] == 1)
        assert x.dim == expected


def test_semigroup_algebra_of_i2_blocks():
    # the monoid algebra of partial injections on two points:
    # one block per rank-0 and rank-2-sign pair plus the 2x2 block
    s = sg.parse_builder("symmetric_inverse:2")
    x = cr.crossed(ga.trivial_algebra(s), kind="universal")
    assert x.dim == 7
    d = cr.semisimple_quotient(x)
    assert d.radical_dim == 0
    assert d.blocks == 4
    assert sorted(d.block_dims) == [1, 1, 1, 2]
    assert sum(b * b for b in d.block_dims) == d.quotient_dim == 7


def test_semigroup_algebra_of_i3_blocks():
    # Munn: QI3 = sum over ranks k of M_{C(3,k)}(Q S_k), and Q S_k splits, so
    # k=0 gives [1], k=1 gives [3], k=2 gives [3, 3] and k=3 gives [1, 1, 2]
    # (Steinberg, "Moebius functions and semigroup representation theory",
    # J. Combin. Theory Ser. A 113, 2006)
    s = sg.parse_builder("symmetric_inverse:3")
    x = cr.crossed(ga.trivial_algebra(s), kind="universal")
    assert x.dim == 34
    d = cr.semisimple_quotient(x)
    assert d.radical_dim == 0
    assert d.blocks == 7
    assert sorted(d.block_dims) == [1, 1, 1, 2, 3, 3, 3]
    assert sum(b * b for b in d.block_dims) == d.quotient_dim == 34


def test_matrix_algebra_single_block():
    d = cr.semisimple_quotient(ga.matrix_algebra(2))
    assert d.radical_dim == 0 and d.blocks == 1 and d.block_dims == [2]


def test_z3_center_does_not_split_with_witness():
    s = sg.parse_builder("cyclic:3")
    x = cr.crossed(ga.trivial_algebra(s), kind="universal")
    d = cr.semisimple_quotient(x)
    assert d.blocks == 3 and not d.splits
    assert d.witness_poly is not None and "x**2 + x + 1" in d.witness_poly
    assert d.method == "numeric"


@pytest.mark.parametrize("spec, witness", [
    # in Q[Z/n] the generator d_g has minimal polynomial x**n - 1, so the
    # witness is its least non-linear factor whatever the center basis
    ("cyclic:4", "x**2 + 1"),
    ("cyclic:5", "x**4 + x**3 + x**2 + x + 1"),
    # [(g,1)] in Q[Z/3 x I2] is central, its cube the unit of the block of
    # the units, so it satisfies x**4 - x = x (x - 1) (x**2 + x + 1)
    ("product:cyclic:3*symmetric_inverse:2", "x**2 + x + 1"),
])
def test_non_split_witness_is_canonical(spec, witness):
    s = sg.parse_builder(spec)
    d = cr.semisimple_quotient(cr.crossed(ga.trivial_algebra(s), kind="universal"))
    assert not d.splits
    assert d.witness_poly == witness


def test_s3_group_algebra():
    s = sg.parse_builder("symmetric:3")
    d = cr.semisimple_quotient(cr.crossed(ga.trivial_algebra(s), kind="universal"))
    assert d.blocks == 3
    assert sorted(d.block_dims) == [1, 1, 2]
    assert sum(b * b for b in d.block_dims) == d.quotient_dim == 6
    assert d.splits


def test_known_irreducible_counts():
    for spec, blocks in [("cyclic:2", 2), ("cyclic:3", 3), ("symmetric:3", 3)]:
        s = sg.parse_builder(spec)
        d = cr.semisimple_quotient(cr.crossed(ga.trivial_algebra(s), kind="universal"))
        assert d.blocks == blocks, spec


def test_radical_of_triangular_algebra():
    # span{e11, e22, e12} upper triangular: one-dimensional radical
    mul = {
        (0, 0): {0: 1}, (1, 1): {1: 1},
        (0, 2): {2: 1}, (2, 1): {2: 1},
    }
    alg = ga.StarAlgebra(3, mul, dense_columns(identity(3), 3), "upper")
    d = cr.semisimple_quotient(alg)
    assert d.radical_dim == 1
    assert d.quotient_dim == 2 and d.blocks == 2
    # idempotence: the quotient has zero radical
    d2 = cr.semisimple_quotient(d.quotient)
    assert d2.radical_dim == 0 and d2.blocks == 2


def test_groupoid_crossed_product():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("brandt_unital:2")
    h = assoc_groupoid(s, sg.idempotents(s))
    cx = ga.c0_units(h)
    x = cr.crossed(cx, kind="groupoid")
    assert x.dim == len(h.elements)
    d = cr.semisimple_quotient(x)
    assert d.blocks == len(h.units)


def test_groupoid_crossed_one_unit_group():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("symmetric_inverse:2")
    tau = s.index("[1>2,2>1]")
    h = assoc_groupoid(s, sg.generate(s, sg.bit(tau)))
    line = ga.trivial_line(h, 0)
    x = cr.crossed(line, kind="groupoid")
    assert x.dim == 2  # the group algebra of the isotropy
    assert cr.semisimple_quotient(x).blocks == 2


# ---------------------------------------------------------------------------
# the groupoid product against the dense all-pairs convolution

GROUPOID_SPECS = ["chain:2", "chain:3", "chain:4", "diamond", "cyclic:2", "cyclic:3", "cyclic:4",
                  "symmetric:3", "symmetric_inverse:2", "symmetric_inverse:3", "brandt_unital:2",
                  "brandt_unital:3", "adjoin_zero:chain:2", "product:chain:2*cyclic:2",
                  "product:symmetric_inverse:2*chain:2"]


def _dense_groupoid(d):
    """(dim, mul, star, labels) of the groupoid product by brute force: every
    pair of basis vectors (a d_h)(b d_g) is a alpha_h(b) d_hg, formed densely
    and read in the fiber of the range of hg."""
    gpd = d.gpd
    s = gpd.sgp
    fibs = {h: d.fiber_indices(gpd.unit_pos_of_mask(spc.germ_range(s, h))) for h in gpd.elements}
    layout, offs, labels = [], {}, []
    for h in gpd.elements:
        offs[h] = len(layout)
        for k in fibs[h]:
            layout.append((h, k))
            labels.append(f"[{k}]d_({h.g},{h.chars:#x})")
    dim = len(layout)
    mul = {}
    for i, (h, ki) in enumerate(layout):
        for j, (g, kj) in enumerate(layout):
            hg = spc.tilde_mul(s, h, g)
            if hg.is_zero():
                continue
            prod = d.alg.mul_vec(d.alg.basis_vec(ki), dense_mat_vec(dense_action(d.action[h]), d.alg.basis_vec(kj)))
            cell = {offs[hg] + fibs[hg].index(t): v for t, v in enumerate(prod) if v}
            if cell:
                mul[(i, j)] = cell
    star, coeff_star = [[0] * dim for _ in range(dim)], dense_star(d.alg)
    for i, (h, ki) in enumerate(layout):
        hs = spc.tilde_star(s, h)
        w = dense_mat_vec(dense_action(d.action[hs]), dense_mat_vec(coeff_star, d.alg.basis_vec(ki)))
        for t, v in enumerate(w):
            if v:
                star[offs[hs] + fibs[hs].index(t)][i] = v
    return dim, mul, star, labels


def _groupoid_coefficients(spec, coeff):
    """restrict, c0_units and every trivial_line over the germ groupoids of
    the unit, the idempotents and all of S; a restriction that is not a
    groupoid algebra (Brandt semigroups with trivial coefficients) is left out."""
    s = sg.parse_builder(spec)
    a = ga.trivial_algebra(s) if coeff == "trivial" else ga.c0x_algebra(s)
    for sub in ("unit", "idempotents", "all"):
        h = ind.assoc_groupoid(s, sg.parse_subset(s, sub))
        if not (spec.startswith("brandt") and coeff == "trivial"):
            yield ga.restrict(a, h)
        yield ga.c0_units(h)
        yield from (ga.trivial_line(h, u) for u in range(len(h.units)))


@pytest.mark.parametrize("coeff", ["trivial", "c0x"])
@pytest.mark.parametrize("spec", GROUPOID_SPECS)
def test_groupoid_product_equals_the_dense_convolution(spec, coeff):
    for d in _groupoid_coefficients(spec, coeff):
        x = cr.crossed(d, "groupoid")
        dim, mul, star, labels = _dense_groupoid(d)
        assert (x.kind, x.dim, x.basis_labels) == ("groupoid", dim, labels)
        assert list(x.alg.mul.items()) == list(mul.items())
        assert dense_star(x.alg) == star


def _two_unit_coefficients():
    """C0 of the two units of the germ groupoid of chain:2, to be broken."""
    s = sg.parse_builder("chain:2")
    d = ga.c0_units(ind.assoc_groupoid(s, sg.parse_subset(s, "all")))
    assert d.dim == 2 and d.unit_of_basis == (0, 1)
    return d


def test_groupoid_product_escape_is_a_typed_error():
    # b_0 b_0 = b_1: the product of two vectors of unit 0's fiber leaves it
    d = _two_unit_coefficients()
    d.alg.mul[(0, 0)] = {1: 1}
    with pytest.raises(InvalidAction, match="^crossed product coefficient escapes its range ideal$"):
        cr.crossed(d, "groupoid")


def test_groupoid_star_escape_is_a_typed_error():
    # unit 0 carries b_0 to b_1, so (b_0 d_u0)* = alpha_u0(b_0) d_u0 leaves
    # unit 0's fiber; every product b alpha_u0(b_0) = b b_1 with b in that fiber is 0
    d = _two_unit_coefficients()
    u0 = d.gpd.units[0]
    d.action[u0] = [[(1, 1)], []]
    with pytest.raises(InvalidAction, match="^crossed product star escapes its range ideal$"):
        cr.crossed(d, "groupoid")


def test_groupoid_product_makes_no_dense_products(monkeypatch):
    # products come from the coefficient algebra's cells, not from mul_vec
    s = sg.parse_builder("symmetric_inverse:2")
    d = ga.restrict(ga.c0x_algebra(s), ind.assoc_groupoid(s, sg.idempotents(s)))
    calls = []
    real = ga.StarAlgebra.mul_vec

    def counted(self, u, v):
        calls.append((u, v))
        return real(self, u, v)

    monkeypatch.setattr(ga.StarAlgebra, "mul_vec", counted)
    x = cr.crossed(d, "groupoid")
    assert x.dim > 0 and x.alg.mul
    assert calls == []


def test_numeric_oracle_agreement():
    for spec in ["cyclic:2", "cyclic:3", "chain:3", "diamond", "symmetric:3",
                 "symmetric_inverse:2"]:
        s = sg.parse_builder(spec)
        x = cr.crossed(ga.trivial_algebra(s), kind="universal")
        d = cr.semisimple_quotient(x)
        oracle = cr.numeric_block_oracle(x, seed=7)
        assert oracle["certified"], (spec, oracle)
        assert oracle["blocks"] == d.blocks, spec


def test_center_info():
    s = sg.parse_builder("chain:4")
    d = cr.semisimple_quotient(cr.crossed(ga.trivial_algebra(s), kind="universal"))
    assert d.center_dim == 4 and d.splits


# ---------------------------------------------------------------------------
# the semisimple step against independent oracles

SMALL_SPECS = ["chain:2", "chain:3", "diamond", "cyclic:2", "cyclic:3", "cyclic:4", "symmetric:3",
               "symmetric_inverse:2", "product:symmetric_inverse:2*chain:2"]
# a Brandt semigroup has zero divisors, so its trivial line carries no action
# (trivial_algebra's docstring); it enters with C0(X) coefficients only
SMALL_ALGEBRAS = [(spec, coeff, kind)
                  for spec in SMALL_SPECS for coeff in ("trivial", "c0x")
                  for kind in ("universal", "sieben")]
SMALL_ALGEBRAS += [("brandt_unital:2", "c0x", kind) for kind in ("universal", "sieben")]


def _small_algebra(spec, coeff, kind):
    s = sg.parse_builder(spec)
    a = ga.trivial_algebra(s) if coeff == "trivial" else ga.c0x_algebra(s)
    return cr.crossed(a, kind=kind).alg


def _dense_center(alg):
    """Brute force: the nullspace of all commutators [z, b_i], built from
    products of basis vectors, one dense row per (i, coordinate), and
    eliminated by the dense reference loop rather than the package's engine."""
    n = alg.dim
    prods = {(i, j): alg.mul_vec(alg.basis_vec(i), alg.basis_vec(j))
             for i in range(n) for j in range(n)}
    rows = [[prods[(j, i)][k] - prods[(i, j)][k] for j in range(n)]
            for i in range(n) for k in range(n)]
    return dense_nullspace(rows)


@pytest.mark.parametrize("spec, coeff, kind", SMALL_ALGEBRAS)
def test_sparse_center_matches_dense_commutator_nullspace(spec, coeff, kind):
    alg = _small_algebra(spec, coeff, kind)
    sparse = cr._center_basis(alg)
    dense = _dense_center(alg)
    assert len(sparse) == len(dense)
    span = Span(dense_vectors(dense))
    assert span.dim == len(dense)
    assert all(span.contains(z) for z in sparse)
    assert Span(sparse).dim == len(sparse)
    for z in (densified(v, alg.dim) for v in sparse):
        for i in range(alg.dim):
            b = alg.basis_vec(i)
            assert alg.mul_vec(z, b) == alg.mul_vec(b, z)


def test_unit_vector_of_matrix_algebra_is_identity():
    # basis e_ij at index 2i + j, so the identity is e_00 + e_11
    unit = ga.matrix_algebra(2).unit_vector()
    assert unit == {0: 1, 3: 1} and list(unit) == [0, 3] and all(type(x) is int for x in unit.values())


def test_unit_vector_none_without_two_sided_unit():
    # span{e11, e12} in M2: e11 is a left unit, but e12 x = 0 for every x
    mul = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    alg = ga.StarAlgebra(2, mul, dense_columns(identity(2), 2), "row")
    assert alg.unit_vector() is None
    # nilpotent: no unit at all
    assert ga.StarAlgebra(1, {}, [[(0, 1)]], "nil").unit_vector() is None


@pytest.mark.parametrize("spec, coeff, kind", SMALL_ALGEBRAS)
def test_central_idempotents_are_a_partition_of_unity(spec, coeff, kind):
    d = cr.semisimple_quotient(_small_algebra(spec, coeff, kind))
    q = d.quotient
    idems = [densified(e, q.dim) for e in d.central_idempotents]
    assert len(idems) == len({tuple(e) for e in idems})
    total = [0] * q.dim
    for e in idems:
        assert q.mul_vec(e, e) == e
        for i in range(q.dim):
            b = q.basis_vec(i)
            assert q.mul_vec(e, b) == q.mul_vec(b, e)
        total = [a + c for a, c in zip(total, e)]
    for e in idems:
        for f in idems:
            if e is not f:
                assert not any(q.mul_vec(e, f))
    for i in range(q.dim):
        b = q.basis_vec(i)
        assert q.mul_vec(total, b) == b == q.mul_vec(b, total)


@pytest.mark.parametrize("spec, coeff, kind", SMALL_ALGEBRAS)
def test_center_vectors_are_dicts_without_zeros(spec, coeff, kind):
    # the one vector format: {col: value} over the quotient's basis, no zero
    # value, ints where integral; the values are read, not the keys
    d = cr.semisimple_quotient(_small_algebra(spec, coeff, kind))
    assert len(d.center_basis) == d.center_dim and d.central_idempotents
    for v in d.center_basis + d.central_idempotents:
        assert type(v) is dict and v and all(type(c) is int and 0 <= c < d.quotient_dim for c in v)
        for x in v.values():
            assert x != 0 and (type(x) is int or (type(x) is Fraction and x.denominator != 1)), v


def test_k0_computes_the_decomposition_once(monkeypatch):
    calls = []
    original = cr.semisimple_quotient

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(cr, "semisimple_quotient", counted)
    monkeypatch.setattr(kt, "semisimple_quotient", counted)
    s = sg.parse_builder("cyclic:3")
    group = kt.k0(cr.crossed(ga.trivial_algebra(s), kind="universal"))
    assert group.rank == 3 and group.method == "numeric"
    assert len(calls) == 1


def test_numeric_oracle_reuses_a_decomposition():
    x = cr.crossed(ga.trivial_algebra(sg.parse_builder("cyclic:3")), kind="universal")
    d = cr.semisimple_quotient(x)
    assert cr.numeric_block_oracle(d, seed=7) == cr.numeric_block_oracle(x, seed=7)


def test_isqrt_exact_beyond_float_precision():
    m = 10 ** 20 + 7
    assert cr._isqrt_exact(m * m) == m
    assert cr._isqrt_exact(m * m + 1) is None
    assert cr._isqrt_exact(-4) is None


def test_non_squarefree_minimal_polynomial_is_a_typed_error(monkeypatch):
    real = cr._factors
    monkeypatch.setattr(cr, "_factors", lambda poly: [(f, 2 * m) for f, m in real(poly)])
    with pytest.raises(BrokenInvariant) as err:
        cr.semisimple_quotient(ga.matrix_algebra(2))
    assert err.value.witness == {"factor": "x - 1", "multiplicity": 2}


def test_non_idempotent_primary_component_is_a_typed_error(monkeypatch):
    # the center of M2 + M2 is cut in two; that of M2 alone is never cut
    real = cr._eval_poly
    monkeypatch.setattr(cr, "_eval_poly", lambda powers, poly: [2 * v for v in real(powers, poly)])
    with pytest.raises(NotIdempotent) as err:
        cr.semisimple_quotient(ga.star_sum([ga.matrix_algebra(2)] * 2))
    assert err.value.witness == {"factor": "x - 1"}


def test_non_idempotent_lifted_idempotent_is_a_typed_error(monkeypatch):
    # the exact e e = e check in the quotient catches center coordinates that
    # do not describe an idempotent there
    monkeypatch.setattr(cr, "_split_center", lambda z, unit: [([2 * v for v in unit], 1)])
    with pytest.raises(NotIdempotent) as err:
        cr.semisimple_quotient(ga.matrix_algebra(2))
    assert err.value.witness == {"piece": 0}


def test_non_central_center_product_is_a_typed_error(monkeypatch):
    # e00 is not central in M2, so the identity times itself, read at the
    # free columns 3 and 0, lifts to the identity plus e00
    real = cr._center_basis
    monkeypatch.setattr(cr, "_center_basis", lambda alg: real(alg) + [{0: 1}])
    with pytest.raises(BrokenInvariant, match="^a product of central vectors is not central$") as err:
        cr.semisimple_quotient(ga.matrix_algebra(2))
    assert err.value.witness == {"pair": (0, 0)}


def test_lifted_center_unit_that_is_no_unit_is_a_typed_error(monkeypatch):
    real = ga.StarAlgebra.unit_vector
    monkeypatch.setattr(ga.StarAlgebra, "unit_vector", lambda self: {k: 2 * v for k, v in real(self).items()})
    with pytest.raises(InvalidAction, match="^semisimple quotient has no unit; structure data unreliable$"):
        cr.semisimple_quotient(ga.matrix_algebra(2))


def test_minimal_polynomial_beyond_the_dimension_is_a_typed_error(monkeypatch):
    # a fresh column below all others keeps every tagged power independent
    # of the earlier ones below the algebra's columns
    class NeverDependent(Span):
        def add(self, v):
            return super().add({**v, -1 - self.dim: 1})

    monkeypatch.setattr(cr, "Span", NeverDependent)
    with pytest.raises(BrokenInvariant) as err:
        cr.semisimple_quotient(ga.matrix_algebra(2))
    assert err.value.witness == {"degree": 2, "dim": 1}


def test_split_witness_of_a_split_center_is_a_typed_error():
    # every basis vector of Q + Q has a split minimal polynomial
    with pytest.raises(BrokenInvariant):
        cr._split_witness(ga.diagonal_star_algebra(2), [1, 1], [])


# ---------------------------------------------------------------------------
# the center split on number fields, basis permutations and product counts


def _number_field_algebra(squares):
    """Q(sqrt a_1, ..., sqrt a_n) for the ``squares`` a_k, on the square roots
    of the products of subsets of them: basis vector i is the product of the
    sqrt a_k with bit k set in i. Commutative, with the identity as star."""
    n = 1 << len(squares)
    mul = {}
    for i in range(n):
        for j in range(n):
            c = 1
            for k, a in enumerate(squares):
                if i & j & (1 << k):
                    c *= a
            mul[(i, j)] = {i ^ j: Fraction(c)}
    return ga.StarAlgebra(n, mul, dense_columns(identity(n), n), "field")


def test_biquadratic_field_is_one_piece_of_four_blocks():
    # on 1, sqrt 2, sqrt 3, sqrt 6 no basis vector generates the field, so
    # its block count is its dimension, not the degree of a factor
    d = cr.semisimple_quotient(_number_field_algebra([2, 3]))
    assert d.to_json() == {"radical_dim": 0, "quotient_dim": 4, "center_dim": 4, "blocks": 4,
                           "block_dims": [1, 1, 1, 1], "splits": False, "witness_poly": "x**2 - 2",
                           "method": "numeric"}
    assert [list(e.items()) for e in d.central_idempotents] == [[(0, 1)]]


def test_two_copies_of_a_quadratic_field_are_two_pieces():
    alg = ga.star_sum([_number_field_algebra([2])] * 2)
    d = cr.semisimple_quotient(alg)
    assert (d.blocks, d.block_dims, d.splits, d.witness_poly) == (4, [1, 1, 1, 1], False, "x**2 - 2")
    assert sorted(sorted(e.items()) for e in d.central_idempotents) == [[(0, 1)], [(2, 1)]]


def _tensor(a, b):
    """a tensor b on the products of basis vectors, a_i b_k at index i * b.dim + k."""
    n = b.dim
    mul = {(i * n + k, j * n + m): {p * n + q: u * v for p, u in ca.items() for q, v in cb.items()}
           for (i, j), ca in a.mul.items() for (k, m), cb in b.mul.items()}
    star = [[x * y for x in ra for y in rb] for ra in dense_star(a) for rb in dense_star(b)]  # Kronecker
    return ga.StarAlgebra(a.dim * n, mul, dense_columns(star, a.dim * n), f"{a.label}x{b.label}")


def test_split_witness_tries_the_own_central_basis_vectors_first():
    # the center basis of M2(Q(sqrt 2)) + Q[Z/3] starts with the identity and
    # sqrt 2 of the matrix block, whose minimal polynomial has the factor
    # x**2 - 2; the first own central basis vector with a non-linear factor
    # is d_g of Q[Z/3], whose factor is x**2 + x + 1
    group = cr.crossed(ga.trivial_algebra(sg.parse_builder("cyclic:3")), kind="universal").alg
    matrices = _tensor(ga.matrix_algebra(2), _number_field_algebra([2]))
    d = cr.semisimple_quotient(ga.star_sum([matrices, group]))
    assert (d.center_dim, d.blocks, d.block_dims) == (5, 5, [2, 2, 1, 1, 1])
    assert d.witness_poly == "x**2 + x + 1"


def _permuted(alg, perm):
    """alg with basis vector i renumbered perm[i]."""
    mul = {(perm[i], perm[j]): {perm[k]: v for k, v in cell.items()}
           for (i, j), cell in alg.mul.items()}
    star = [[0] * alg.dim for _ in range(alg.dim)]
    for i, row in enumerate(dense_star(alg)):
        for j, v in enumerate(row):
            star[perm[i]][perm[j]] = v
    return ga.StarAlgebra(alg.dim, mul, dense_columns(star, alg.dim), alg.label)


@pytest.mark.parametrize("spec, coeff, kind", SMALL_ALGEBRAS)
def test_permuting_the_quotient_basis_permutes_the_central_idempotents(spec, coeff, kind):
    q = cr.semisimple_quotient(_small_algebra(spec, coeff, kind)).quotient
    perm = list(range(q.dim))
    random.Random(q.dim).shuffle(perm)
    d, e = cr.semisimple_quotient(q), cr.semisimple_quotient(_permuted(q, perm))
    assert e.to_json() == d.to_json()

    def moved(v):
        return frozenset((perm[i], x) for i, x in v.items())

    assert {moved(v) for v in d.central_idempotents} == {frozenset(v.items()) for v in e.central_idempotents}


def test_center_split_makes_no_quotient_dim_krylov(monkeypatch):
    # on kI2xI2 (dim 49, center dim 16) the only products of quotient vectors
    # are the c(c+1)/2 products of center basis vectors and then the unit
    # check, the lifted unit times each basis vector on either side; powers
    # of central elements and the e e = e checks are taken in the center
    s = sg.parse_builder("product:symmetric_inverse:2*symmetric_inverse:2")
    alg = cr.crossed(ga.trivial_algebra(s), kind="universal").alg
    calls, dense = [], []
    real_product, real_mul_vec = cr._product, ga.StarAlgebra.mul_vec

    def counted(a, u, v):
        if a.dim == alg.dim:
            calls.append((u, v))
        return real_product(a, u, v)

    def counted_mul_vec(self, u, v):
        dense.append(self.dim)
        return real_mul_vec(self, u, v)

    monkeypatch.setattr(cr, "_product", counted)
    monkeypatch.setattr(ga.StarAlgebra, "mul_vec", counted_mul_vec)
    d = cr.semisimple_quotient(alg)
    c, n = d.center_dim, d.quotient_dim
    assert (n, c, d.blocks) == (49, 16, 16)
    assert dense and alg.dim not in dense
    one = {}
    for e in d.central_idempotents:
        for k, x in e.items():
            one[k] = one.get(k, 0) + x
    one = {k: x for k, x in one.items() if x}
    assert calls[len(calls) - 2 * n:] == [p for j in range(n) for p in ((one, {j: 1}), ({j: 1}, one))]
    center = calls[:len(calls) - 2 * n]
    assert 0 < len(center) <= c * (c + 1) // 2
    assert all(u in d.center_basis and v in d.center_basis for u, v in center)


def test_zero_radical_makes_no_quotient_and_no_quotient_dim_unit_solve(monkeypatch):
    # kI2xI2 is semisimple: the quotient is the algebra itself, and the unit
    # is solved for in the 16-dim center only
    s = sg.parse_builder("product:symmetric_inverse:2*symmetric_inverse:2")
    alg = cr.crossed(ga.trivial_algebra(s), kind="universal").alg
    quotients, unit_dims = [], []
    real_quotient, real_unit = cr.quotient, ga.StarAlgebra.unit_vector

    def counted_quotient(*args):
        quotients.append(args)
        return real_quotient(*args)

    def counted_unit(self):
        unit_dims.append(self.dim)
        return real_unit(self)

    monkeypatch.setattr(cr, "quotient", counted_quotient)
    monkeypatch.setattr(ga.StarAlgebra, "unit_vector", counted_unit)
    d = cr.semisimple_quotient(alg)
    assert quotients == [] and alg.dim not in unit_dims
    assert (d.radical_dim, d.quotient_dim, d.center_dim) == (0, 49, 16)
    assert d.radical_space.free == list(range(49))
    assert (d.quotient.mul, d.quotient.star) == (alg.mul, alg.star)


def _kI2xI2():
    s = sg.parse_builder("product:symmetric_inverse:2*symmetric_inverse:2")
    return cr.crossed(ga.trivial_algebra(s), kind="universal").alg


def test_semisimple_quotient_takes_the_left_traces_once(monkeypatch):
    # the trace form and, with a zero radical, the block sizes read one
    # left_traces of the 49-dim algebra
    alg = _kI2xI2()
    dims = []
    real = ga.StarAlgebra.left_traces

    def counted(self):
        dims.append(self.dim)
        return real(self)

    monkeypatch.setattr(ga.StarAlgebra, "left_traces", counted)
    d = cr.semisimple_quotient(alg)
    assert (d.radical_dim, d.blocks) == (0, 16)
    assert dims.count(alg.dim) == 1


def _crt_by_inverse(poly, f):
    """The CRT polynomial of ``cr._crt`` through sympy's ``Poly``: rest
    times its inverse mod f, reduced mod poly, for every factor."""
    x = sympy.Symbol("x")
    p, g = sympy.Poly(poly, x, domain=sympy.QQ), sympy.Poly(f, x, domain=sympy.QQ)
    rest = p.exquo(g)
    return ((rest * sympy.invert(rest, g)) % p).rep.to_list()


def _split_rebuilding_every_piece(z, unit):
    """The center split that rebuilds each factor's CRT piece by an inverse,
    also the one piece of a single factor, which is e itself."""
    done, pieces = [], [(unit, z.dim)]
    traces = z.left_traces()
    for i in range(z.dim):
        cut = []
        for e, _ in pieces:
            start, d = cr._integral(e)
            poly, powers = cr._minimal_polynomial(z, start, z.basis_vec(i))
            for f, _ in cr._factors(poly):
                q, qd = cr._integral(_crt_by_inverse(poly, f))
                piece = [frac(v, qd * d) for v in cr._eval_poly(powers, q)]
                dim = sum(v * traces[l] for l, v in nonzero_pairs(piece))
                (done if len(f) - 1 == dim else cut).append((piece, dim))
        pieces = cut
    return done + pieces


def _split_work(monkeypatch, spec):
    """The center split of kS for the builder ``spec``, with its own factor
    counts (not those of a witness search after it), the factors it built a
    CRT polynomial for and the inverses taken mod a factor."""
    splits, factor_counts, crts, inverts = [], [], [], []
    real_split, real_factors, real_crt = cr._split_center, cr._factors, cr._crt
    real_invert = sympy.polys.euclidtools.dup_invert

    def split(z, unit):
        factor_counts.clear()
        splits.append((z, unit, real_split(z, unit), list(factor_counts)))
        return splits[-1][2]

    def factors(poly):
        out = real_factors(poly)
        factor_counts.append(len(out))
        return out

    def crt(poly, f):
        crts.append(f)
        return real_crt(poly, f)

    def invert(*args):
        inverts.append(args)
        return real_invert(*args)

    monkeypatch.setattr(cr, "_split_center", split)
    monkeypatch.setattr(cr, "_factors", factors)
    monkeypatch.setattr(cr, "_crt", crt)
    monkeypatch.setattr(sympy.polys.euclidtools, "dup_invert", invert)
    cr.semisimple_quotient(cr.crossed(ga.trivial_algebra(sg.parse_builder(spec)), kind="universal"))
    monkeypatch.undo()
    [(z, unit, pieces, counts)] = splits
    assert pieces == _split_rebuilding_every_piece(z, unit)
    return counts, crts, inverts


def test_split_center_inverts_only_for_the_pieces_it_cuts(monkeypatch):
    # one CRT polynomial per factor of a cut piece and none for a piece that
    # is not cut; every factor over kI2xI2 is linear, so none inverts
    counts, crts, inverts = _split_work(monkeypatch, "product:symmetric_inverse:2*symmetric_inverse:2")
    assert 1 in counts and max(counts) > 1
    assert len(crts) == sum(n for n in counts if n > 1)
    assert all(len(f) == 2 for f in crts) and inverts == []


def test_split_center_inverts_only_for_non_linear_factors(monkeypatch):
    # Q[Z/3] = Q + Q(w): x**2 + x + 1 takes the one inverse
    counts, crts, inverts = _split_work(monkeypatch, "cyclic:3")
    assert len(crts) == sum(n for n in counts if n > 1) == 2
    assert [len(f) for f in crts] == [2, 3] and len(inverts) == 1


# ---------------------------------------------------------------------------
# the tight product from its two-term relations, against independent oracles

TIGHT_SPECS = ["chain:2", "chain:3", "chain:4", "diamond", "cyclic:2", "cyclic:3", "cyclic:4",
               "symmetric:3", "symmetric_inverse:2", "symmetric_inverse:3", "brandt_unital:2",
               "brandt_unital:3", "product:symmetric_inverse:2*chain:2"]
TIGHT_COEFFS = ["trivial", "c0x", "induced:unit", "induced:idempotents", "induced:all"]
# universal products above this size make the closure oracle too slow for a unit test
TIGHT_MAX_DIM = 100


def _tight_coeff(spec, coeff):
    s = sg.parse_builder(spec)
    if coeff == "trivial":
        return ga.trivial_algebra(s)
    c0x = ga.c0x_algebra(s)
    if coeff == "c0x":
        return c0x
    h = ind.assoc_groupoid(s, sg.parse_subset(s, coeff.split(":")[1]))
    return ind.build_induced(s, h, ga.restrict(c0x, h)).galg


def _tight_corpus():
    cases = []
    for spec in TIGHT_SPECS:
        for coeff in TIGHT_COEFFS:
            if spec.startswith("brandt") and coeff == "trivial":
                continue  # no action there; see test_tight_errors_agree
            a = _tight_coeff(spec, coeff)
            spans = cr._range_spans(a)
            if sum(spans[a.sgp.range_of(g)].dim for g in a.sgp.elements()) <= TIGHT_MAX_DIM:
                cases.append((spec, coeff))
    return cases


TIGHT_CORPUS = _tight_corpus()


def _dense_quotient(alg, relations):
    """alg modulo span(relations) with a dense reduced Span: the lifts are the
    unit vectors at the non-pivot columns, the coordinates the reduced vector
    there."""
    span = Span(relations)
    free = [c for c in range(alg.dim) if c not in span.pivots]
    lifts = [alg.basis_vec(c) for c in free]
    return dense_transport(alg, lifts, lambda v: [span._reduce(dict(nonzero_pairs(v))).get(c, 0) for c in free])


def _closure_sieben(a):
    """The tight product as the universal product modulo the *-ideal that
    Sieben's idempotent relations generate, closed by brute force: for
    idempotents e <= f, a d_e - a d_f over the corner span{alpha_e(x) y}.
    The relations are written in the S basis {a d_g}, and on kS in its
    groupoid basis they are read through the product's zeta columns."""
    s = a.sgp
    uni = cr._universal(a)
    spans, offs = cr._range_spans(a), {}
    for g in s.elements():
        offs[g] = sum(spans[s.range_of(h)].dim for h in range(g))
    relations = []
    idem = [e for e in s.elements() if s.is_idempotent(e)]
    for e in idem:
        for f in idem:
            if e == f or not sg.leq(s, e, f):
                continue
            corner = Span()
            for i in range(a.dim):
                ex = dense_mat_vec(dense_action(a.action[e]), a.alg.basis_vec(i))
                if any(ex):
                    for j in range(a.dim):
                        corner.add(dense_vectors([a.alg.mul_vec(ex, a.alg.basis_vec(j))])[0])
            for row in corner.sparse_rows:
                v = [0] * uni.dim
                for k, c in spans[s.range_of(e)].sparse_coords(row).items():
                    v[offs[e] + k] += c
                for k, c in spans[s.range_of(f)].sparse_coords(row).items():
                    v[offs[f] + k] -= c
                if uni.zeta is not None:
                    v = densified(ga._apply(uni.zeta, dense_vectors([v])[0]), uni.dim)
                if any(v):
                    relations.append(v)
    ideal = Span()
    frontier = [v for v in relations if ideal.add(dense_vectors([v])[0])]
    star = dense_star(uni.alg)
    while frontier:
        nxt = []
        for v in frontier:
            candidates = [dense_mat_vec(star, v)]
            for i in range(uni.dim):
                b = uni.alg.basis_vec(i)
                candidates += [uni.alg.mul_vec(b, v), uni.alg.mul_vec(v, b)]
            nxt += [c for c in candidates if any(c) and ideal.add(dense_vectors([c])[0])]
        frontier = nxt
    return _dense_quotient(uni.alg, ideal.sparse_rows)


@pytest.mark.parametrize("spec, coeff", TIGHT_CORPUS)
def test_tight_product_equals_the_closed_ideal_quotient(spec, coeff):
    a = _tight_coeff(spec, coeff)
    tight = cr.crossed(a, kind="sieben").alg
    oracle = _closure_sieben(a)
    assert (tight.dim, tight.mul, dense_star(tight)) == (oracle.dim, oracle.mul, oracle.star)


@pytest.mark.parametrize("spec, coeff", TIGHT_CORPUS)
def test_two_term_relations_span_a_star_ideal(spec, coeff):
    uni = cr._universal(_tight_coeff(spec, coeff))
    alg = uni.alg
    span, star = Span(cr._tight_relations(uni)), dense_star(alg)

    def contains(v):
        return span.contains(dense_vectors([v])[0])

    for v in (densified(row, alg.dim) for row in span.sparse_rows):
        assert contains(dense_mat_vec(star, v))
        for i in range(alg.dim):
            b = alg.basis_vec(i)
            assert contains(alg.mul_vec(b, v)) and contains(alg.mul_vec(v, b))


@pytest.mark.parametrize("spec, coeff", TIGHT_CORPUS)
def test_tight_product_matches_the_germ_groupoid_product(spec, coeff):
    # the tight product of A is the groupoid product of A restricted to the
    # groupoid of germs of all of S (Exel's tight groupoid)
    a = _tight_coeff(spec, coeff)
    s = a.sgp
    tight = cr.crossed(a, kind="sieben")
    gpd = cr.crossed(ga.restrict(a, ind.assoc_groupoid(s, sg.parse_subset(s, "all"))), "groupoid")
    assert tight.dim == gpd.dim
    d, e = cr.semisimple_quotient(tight), cr.semisimple_quotient(gpd)
    assert (d.radical_dim, d.center_dim, d.block_dims, d.splits) == \
        (e.radical_dim, e.center_dim, e.block_dims, e.splits)


def _scalar_action(spec, scalars):
    """Q with element g acting as the scalar scalars[name of g]: the range
    ideal of g is Q or 0, so a hand-picked scalar breaks one containment."""
    s = sg.parse_builder(spec)
    q = ga.StarAlgebra(1, {(0, 0): {0: 1}}, [[(0, 1)]], "Q")
    return ga.GAlgebra(s, q, {g: [[(0, Fraction(scalars[s.names[g]]))] if scalars[s.names[g]] else []]
                              for g in s.elements()})


def test_universal_coefficient_escape_is_a_typed_error():
    # a = b = 1 over (1,2) and (1,1): a alpha_(1,2)(b) = 1, but the range
    # (1,2)(1,1)(2,1) = 0 acts as 0
    a = _scalar_action("brandt_unital:2", {"1": 1, "(1,1)": 1, "(1,2)": 1, "(2,1)": 1, "(2,2)": 1, "0": 0})
    with pytest.raises(InvalidAction, match="^crossed product coefficient escapes its range ideal$"):
        cr.crossed(a)


def test_universal_star_escape_is_a_typed_error():
    # every product stays in its range ideal, but (1 d_(1,2))* = alpha_(2,1)(1) d_(2,1)
    # is 1 d_(2,1), and the range (2,2) of (2,1) acts as 0
    a = _scalar_action("brandt_unital:2", {"1": 1, "(1,1)": 1, "(1,2)": 0, "(2,1)": 1, "(2,2)": 0, "0": 0})
    with pytest.raises(InvalidAction, match="^crossed product star escapes its range ideal$"):
        cr.crossed(a)


def test_tight_relation_escape_is_a_typed_error():
    # e1 <= 1, but the unit acts as 0, so the range ideal Q of e1 is not in
    # the range ideal 0 of 1; the universal product itself is well formed
    a = _scalar_action("chain:2", {"1": 0, "e1": 1})
    assert cr.crossed(a).dim == 1
    with pytest.raises(InvalidAction, match="^tight relation coefficient escapes range ideals$"):
        cr.crossed(a, kind="sieben")


@pytest.mark.parametrize("spec", ["brandt_unital:2", "brandt_unital:3"])
def test_tight_errors_agree(spec):
    a = _tight_coeff(spec, "trivial")
    s = a.sgp
    with pytest.raises(InvalidAction):
        cr.crossed(a, kind="sieben")
    with pytest.raises(InvalidAction):
        cr.crossed(ga.restrict(a, ind.assoc_groupoid(s, sg.parse_subset(s, "all"))), "groupoid")


# ---------------------------------------------------------------------------
# kS in Steinberg's groupoid basis against the S-basis reference

ZERO_FREE_SPECS = [spec for spec in dict.fromkeys(
    ["chain:1", *SMALL_SPECS, *TIGHT_SPECS, *GROUPOID_SPECS, "cyclic:5", "product:cyclic:3*symmetric_inverse:2",
     "product:symmetric_inverse:2*symmetric_inverse:2"]) if sg.parse_builder(spec).zero is None]


def _moebius_columns(s, flip=None):
    """The Moebius map [g] -> sum_{t <= g} mu(t, g) t as columns, column g
    the nonzero (t, mu(t, g)) in row order. mu comes from its recursion
    mu(g, g) = 1 and mu(t, g) = -sum_{t < u <= g} mu(u, g) over the natural
    order; ``flip`` = (t, g) negates mu(t, g)."""
    cols = []
    for g in s.elements():
        below = [t for t in s.elements() if sg.leq(s, t, g)]
        mu = {}
        # every u > t has a larger down-set than t, so it comes first
        for t in sorted(below, key=lambda t: -sum(sg.leq(s, u, t) for u in below)):
            mu[t] = 1 if t == g else -sum(m for u, m in mu.items() if sg.leq(s, t, u))
        if flip is not None and flip[1] == g:
            mu[flip[0]] = -mu[flip[0]]
        cols.append(sorted((t, m) for t, m in mu.items() if m))
    return cols


def _kS_in_both_bases(spec):
    s = sg.parse_builder(spec)
    a = ga.trivial_algebra(s)
    x, ref = cr.crossed(a, "universal"), cr._s_basis(a)
    # the S-basis reference has d_g at g
    assert ref.layout == [(g, 0) for g in s.elements()] and ref.zeta is None
    assert (x.kind, x.dim, x.universal_dim) == ("universal", s.n, s.n)
    assert x.basis_labels == [f"⌊{name}⌋" for name in s.names]
    return s, x, ref


@pytest.mark.parametrize("spec", ZERO_FREE_SPECS)
def test_moebius_map_is_a_star_isomorphism_onto_the_s_basis(spec):
    s, x, ref = _kS_in_both_bases(spec)
    cols = _moebius_columns(s)
    assert ga.verify_star_hom(ga.StarHomomorphism(x, ref, cols, "moebius"))["pass"]
    assert ga._bijective(cols, ref.dim)
    # the zeta columns invert it
    assert [ga._column(ga._apply(x.zeta, dict(col))) for col in cols] == ga._identity(s.n)
    # one mu flipped: mu(t, g) with t < g where S has one; on a group only
    # mu(1, 1) will do, since g -> -g is an automorphism of Q[Z/2]
    flips = [(t, g) for g, col in enumerate(cols) for t, _ in col if t != g] or [(s.unit, s.unit)]
    bad = _moebius_columns(s, flip=random.Random(spec).choice(flips))
    assert not ga.verify_star_hom(ga.StarHomomorphism(x, ref, bad, "flipped"))["pass"]


@pytest.mark.parametrize("spec", ZERO_FREE_SPECS)
def test_groupoid_basis_keeps_the_semisimple_data(spec):
    s, x, ref = _kS_in_both_bases(spec)
    d, e = cr.semisimple_quotient(x), cr.semisimple_quotient(ref)
    assert d.to_json() == e.to_json()
    # the radical is 0, so the central idempotents are vectors of kS itself
    cols = _moebius_columns(s)
    assert {frozenset(ga._apply(cols, v).items()) for v in d.central_idempotents} == \
        {frozenset(v.items()) for v in e.central_idempotents}


def test_groupoid_basis_multiplies_only_composable_arrows():
    # [g][h] = [gh] exactly when g*g = hh*: 172 cells at I3 against 34**2
    s, x, ref = _kS_in_both_bases("symmetric_inverse:3")
    cells = {(g, h): {s.table[g][h]: 1} for g in s.elements() for h in s.elements()
             if s.source(g) == s.range_of(h)}
    assert x.alg.mul == cells and len(cells) == 172 and len(ref.alg.mul) == 34 ** 2
    assert x.alg.star == [[(s.star[g], 1)] for g in s.elements()]


def _munn_block_dims(s):
    """The block dims of kS = sum over the D-classes D of M_{n_D}(k G_D)
    (Steinberg, J. Combin. Theory Ser. A 113, 2006), sorted: n_D m for n_D
    the number of idempotents of D and m each block dim of K0 of the group
    algebra of its maximal subgroup G_D. Both are read from the table: e D f
    when some x has xx* = e and x*x = f, and G_e is the x with xx* = e = x*x,
    whose group algebra is written here as structure constants."""
    table, star = s.table, s.star
    classes = []
    for e in (e for e in s.elements() if table[e][e] == e):
        for cls in classes:
            if any(table[x][star[x]] == cls[0] and table[star[x]][x] == e for x in s.elements()):
                cls.append(e)
                break
        else:
            classes.append([e])
    dims = []
    for cls in classes:
        e = cls[0]
        group = [x for x in s.elements() if table[x][star[x]] == e == table[star[x]][x]]
        pos = {x: i for i, x in enumerate(group)}
        alg = ga.StarAlgebra(len(group), {(pos[x], pos[y]): {pos[table[x][y]]: 1} for x in group for y in group},
                             [[(pos[star[x]], 1)] for x in group], "QG")
        dims += [len(cls) * m for m in kt.k0(alg).block_dims]
    return sorted(dims)


@pytest.mark.parametrize("spec", [spec for spec in ZERO_FREE_SPECS if spec in SMALL_SPECS + TIGHT_SPECS]
                         + ["product:symmetric_inverse:2*symmetric_inverse:2"])
def test_kS_blocks_match_the_munn_steinberg_decomposition(spec):
    s = sg.parse_builder(spec)
    assert sorted(kt.k0(cr.crossed(ga.trivial_algebra(s), "universal")).block_dims) == _munn_block_dims(s)


@pytest.mark.parametrize("spec, labels, idempotents", [
    ("adjoin_zero:cyclic:2", ["[0]d_1", "[0]d_g"],
     [[(0, Fraction(1, 2)), (1, Fraction(1, 2))], [(0, Fraction(1, 2)), (1, Fraction(-1, 2))]]),
    ("adjoin_zero:chain:2", ["[0]d_1", "[0]d_e1"], [[(1, 1)], [(0, 1), (1, -1)]]),
])
def test_scalar_line_with_a_declared_zero_keeps_the_contracted_s_basis(spec, labels, idempotents):
    # the zero acts as 0, so its d_0 drops: the contracted algebra, 2 dims
    # for 3 elements, exactly as built before the groupoid basis
    x = cr.crossed(ga.trivial_algebra(sg.parse_builder(spec)), "universal")
    assert (x.dim, x.basis_labels, x.zeta) == (2, labels, None)
    d = cr.semisimple_quotient(x)
    assert d.to_json() == {"radical_dim": 0, "quotient_dim": 2, "center_dim": 2, "blocks": 2,
                           "block_dims": [1, 1], "splits": True, "witness_poly": None, "method": "exact"}
    assert [sorted(e.items()) for e in d.central_idempotents] == idempotents


@pytest.mark.parametrize("spec", ["brandt_unital:2", "brandt_unital:3"])
def test_scalar_line_with_zero_divisors_still_has_no_universal_product(spec):
    with pytest.raises(InvalidAction, match="^crossed product coefficient escapes its range ideal$"):
        cr.crossed(ga.trivial_algebra(sg.parse_builder(spec)), "universal")


# ---------------------------------------------------------------------------
# the factors of the center's minimal polynomials against sympy's


def _reference_factors(poly):
    return sympy.polys.factortools.dup_factor_list(poly, sympy.QQ)[1]


def test_factors_match_sympy_on_the_corpus_minimal_polynomials(monkeypatch):
    # every minimal polynomial of the semisimple calls on the small, tight
    # and kS corpora and on the number fields above
    polys = []
    real = cr._minimal_polynomial

    def recorded(alg, start, zeta):
        out = real(alg, start, zeta)
        polys.append(out[0])
        return out

    monkeypatch.setattr(cr, "_minimal_polynomial", recorded)
    algebras = [_small_algebra(*case) for case in SMALL_ALGEBRAS]
    algebras += [cr.crossed(_tight_coeff(spec, coeff), "sieben") for spec, coeff in TIGHT_CORPUS]
    algebras += [cr.crossed(ga.trivial_algebra(sg.parse_builder(spec)), "universal") for spec in ZERO_FREE_SPECS]
    algebras += [_number_field_algebra([2, 3]), ga.star_sum([_number_field_algebra([2])] * 2)]
    for alg in algebras:
        cr.semisimple_quotient(alg)
    assert len(polys) > 400 and max(len(p) for p in polys) > 4
    for poly in polys:
        assert cr._factors(poly) == _reference_factors(poly), poly


@st.composite
def factored_polynomials(draw):
    """A product of linear and irreducible quadratic or cubic integral
    factors, some repeated, made monic as a minimal polynomial is or kept
    integral."""
    x = sympy.Symbol("x")
    product = sympy.Integer(draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["linear", "quadratic", "cubic"]))
        if kind == "linear":
            f = draw(st.integers(1, 6)) * x + draw(st.integers(-9, 9))
        elif kind == "quadratic":  # a negative discriminant, so no real root
            b = draw(st.integers(-4, 4))
            f = x ** 2 + b * x + draw(st.integers(b * b // 4 + 1, b * b // 4 + 6))
        else:  # x**3 - c for c no cube
            f = x ** 3 - draw(st.sampled_from([2, 3, 5, -6, 7, 10]))
        product *= f ** draw(st.integers(1, 2))
    coeffs = [sympy.QQ(int(c)) for c in sympy.Poly(product, x).all_coeffs()]
    if draw(st.booleans()):
        coeffs = [c / coeffs[0] for c in coeffs]
    return coeffs


@settings(max_examples=200, deadline=None)
@given(factored_polynomials())
def test_factors_match_sympy_on_drawn_products(poly):
    assert cr._factors(poly) == _reference_factors(poly)
