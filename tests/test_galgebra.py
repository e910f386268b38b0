from fractions import Fraction

import pytest

from iskk import galgebra as ga
from iskk import semigroup as sg
from iskk import spectrum as sp
from iskk.errors import InvalidAction, NotCentral
from test_kernels import dense_columns, dense_vectors, identity


def test_trivial_algebra_valid_on_chain_and_groups():
    for spec in ["chain:2", "chain:3", "cyclic:3", "symmetric:3", "diamond",
                 "symmetric_inverse:2"]:
        s = sg.parse_builder(spec)
        rep = ga.validate_g_algebra(ga.trivial_algebra(s))
        assert rep["pass"], (spec, rep)


def test_trivial_algebra_invalid_with_zero_divisors():
    s = sg.parse_builder("brandt_unital:2")
    rep = ga.validate_g_algebra(ga.trivial_algebra(s))
    assert not rep["pass"]
    failing = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert "action_homomorphism" in failing


def test_c0x_valid_everywhere():
    for spec in ["chain:2", "chain:4", "diamond", "cyclic:2", "brandt_unital:2",
                 "symmetric_inverse:2", "symmetric:3"]:
        s = sg.parse_builder(spec)
        rep = ga.validate_g_algebra(ga.c0x_algebra(s))
        assert rep["pass"], (spec, rep)


def test_noncentral_range_projection_detected():
    # C^2 where the idempotent acts by a non-central projection-like map
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    alg = ga.matrix_algebra(2)  # M2: swap-preserving star
    bad = [[1, 0, 0, 0],
           [0, 1, 0, 0],
           [0, 0, 0, 0],
           [0, 0, 0, 0]]  # cut to upper row-block: not central
    a = ga.GAlgebra(s, alg, {0: ga._identity(4), e: dense_columns(bad, 4)}, "bad")
    rep = ga.validate_g_algebra(a)
    assert not rep["pass"]
    failing = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert "range_projections_central" in failing or "star_endomorphisms" in failing


def test_char_matrices_partition_identity():
    for spec in ["chain:3", "diamond", "brandt_unital:2", "symmetric_inverse:2"]:
        s = sg.parse_builder(spec)
        a = ga.c0x_algebra(s)
        mats = a.char_matrices()
        assert len(mats) == sp.spectrum(s).size
        for m in mats:
            assert ga._compose(m, m) == m


def test_balanced_tensor_trivial_unit():
    s = sg.parse_builder("cyclic:2")
    a = ga.trivial_algebra(s)
    t = ga.balanced_tensor(a, a)
    assert t.dim == 1
    assert ga.validate_g_algebra(t)["pass"]


def test_balanced_tensor_c0x_squares_to_c0x():
    for spec in ["chain:2", "chain:3", "diamond"]:
        s = sg.parse_builder(spec)
        c = ga.c0x_algebra(s)
        t = ga.balanced_tensor(c, c)
        assert t.dim == sp.spectrum(s).size
        assert ga.validate_g_algebra(t)["pass"]


def test_balanced_tensor_complementary_corners_collapse():
    # corner lines with complementary idempotent supports tensor to zero
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    line_e = ga.GAlgebra(s, ga.diagonal_star_algebra(1), {0: [[(0, 1)]], e: [[(0, 1)]]}, "C_e")
    line_c = ga.GAlgebra(s, ga.diagonal_star_algebra(1), {0: [[(0, 1)]], e: [[]]}, "C_1-e")
    assert ga.validate_g_algebra(line_e)["pass"]
    assert ga.validate_g_algebra(line_c)["pass"]
    t = ga.balanced_tensor(line_e, line_c)
    assert t.dim == 0


def test_balanced_tensor_dim_bound():
    s = sg.parse_builder("diamond")
    c = ga.c0x_algebra(s)
    tv = ga.trivial_algebra(s)
    t = ga.balanced_tensor(c, tv)
    assert t.dim <= c.dim * tv.dim


def test_cutdown_unit_and_blocks():
    s = sg.parse_builder("chain:2")
    c = ga.c0x_algebra(s)
    part, rest = ga.cutdown(c, s.unit)
    assert part.dim == c.dim and rest.dim == 0

    e = s.index("e1")
    part, rest = ga.cutdown(c, e)
    assert (part.dim, rest.dim) == (1, 1)
    assert ga.validate_g_algebra(part)["pass"]


def test_cutdown_rank2_of_diagonal():
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    maps = {0: {0: 0, 1: 1, 2: 2}, e: {0: 0, 1: 1}}
    a = ga.from_points(s, 3, maps)
    assert ga.validate_g_algebra(a)["pass"]
    part, rest = ga.cutdown(a, e)
    assert (part.dim, rest.dim) == (2, 1)
    # reassembly preserves total structure
    back = ga.direct_sum(s, [part, rest])
    assert back.dim == a.dim
    assert ga.validate_g_algebra(back)["pass"]


def test_cutdown_noncentral_rejected():
    s = sg.parse_builder("symmetric_inverse:2")
    c = ga.c0x_algebra(s)
    e = s.index("[1>1]")
    with pytest.raises(NotCentral):
        ga.cutdown(c, e)


def test_restrict_groupoid_two_chain():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("chain:2")
    h = assoc_groupoid(s, 0b11)
    c = ga.c0x_algebra(s)
    d = ga.restrict(c, h)
    assert d.dim == 2
    assert sorted(d.unit_of_basis) == [0, 1]
    rep = ga.validate_h_algebra(d)
    assert rep["pass"], rep


def test_restrict_composes():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("diamond")
    c = ga.c0x_algebra(s)
    h_small = assoc_groupoid(s, sg.parse_subset(s, "generate:a"))
    d1 = ga.restrict(c, h_small)
    assert ga.validate_h_algebra(d1)["pass"]
    assert d1.dim == c.dim  # atoms partition the character space


@pytest.mark.parametrize("element", ["1", "e1"])
@pytest.mark.parametrize("cut", ["short", "long"])
def test_malformed_action_shape_raises_invalid_action(element, cut):
    # an action map is kept as exactly dim columns
    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    g = s.index(element)
    m = a.action[g]
    a.action[g] = m[:-1] if cut == "short" else m + [[]]
    with pytest.raises(InvalidAction) as err:
        ga.validate_g_algebra(a)
    assert err.value.witness == {"element": element, "columns": 1 if cut == "short" else 3}


@pytest.mark.parametrize("column, row", [
    ([(2, 1)], 2),                # below the last row
    ([(-1, 1)], -1),              # above the first row
    ([(1, 1), (0, 1)], 0),        # rows out of order
    ([(0, 1), (0, 1)], 0),        # a row twice
    ([(0, 0)], 0),                # a zero value
    ([(0, 1), (1, 0)], 1),        # a zero value after a good entry
])
def test_noncanonical_action_column_raises_invalid_action(column, row):
    # column equality stands for map equality only on canonical columns:
    # rows strictly increasing inside range(dim), values nonzero
    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    e = s.index("e1")
    a.action[e] = [a.action[e][0], column]
    with pytest.raises(InvalidAction) as err:
        ga.validate_g_algebra(a)
    assert err.value.witness == {"element": "e1", "column": 1, "row": row}


@pytest.mark.parametrize("shape", ["dense", "triple"])
def test_action_entry_that_is_not_a_pair_raises_invalid_action(shape):
    # the old dense format hands over rows of values; a column entry must be
    # a (row, value) pair
    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    if shape == "dense":
        a.action[s.unit] = identity(2)
        witness = {"element": "1", "column": 0, "entry": 0}
    else:
        e = s.index("e1")
        a.action[e] = [a.action[e][0], [(0, 1, 0)]]
        witness = {"element": "e1", "column": 1, "entry": 0}
    with pytest.raises(InvalidAction) as err:
        ga.validate_g_algebra(a)
    assert err.value.witness == witness


def test_malformed_star_and_germ_action_shapes_raise_invalid_action():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    a.alg.star = a.alg.star + [[(0, 1)]]  # a third column
    with pytest.raises(InvalidAction) as err:
        ga.validate_g_algebra(a)
    assert err.value.witness == {"element": "star", "columns": 3}
    d = ga.restrict(ga.c0x_algebra(s), assoc_groupoid(s, 0b11))
    assert ga.validate_h_algebra(d)["pass"]
    x = next(iter(d.action))
    key = (s.names[x.g], x.chars)
    good = d.action[x]
    d.action[x] = good[:1]  # one column of a 2-dim algebra
    with pytest.raises(InvalidAction) as err:
        ga.validate_h_algebra(d)
    assert err.value.witness == {"element": key, "columns": 1}
    d.action[x] = [[(1, 1), (0, 1)], []]  # unsorted rows
    with pytest.raises(InvalidAction) as err:
        ga.validate_h_algebra(d)
    assert err.value.witness == {"element": key, "column": 0, "row": 0}
    d.action[x] = [[], [(0, 0)]]  # a zero value
    with pytest.raises(InvalidAction) as err:
        ga.validate_h_algebra(d)
    assert err.value.witness == {"element": key, "column": 1, "row": 0}
    d.action[x] = good
    d.alg.star = [d.alg.star[0], [(0, 1), (2, 1)]]  # row 2 of a 2-dim algebra
    with pytest.raises(InvalidAction) as err:
        ga.validate_h_algebra(d)
    assert err.value.witness == {"element": "star", "column": 1, "row": 2}
    d.alg.star = d.alg.star[:1]
    with pytest.raises(InvalidAction) as err:
        ga.validate_h_algebra(d)
    assert err.value.witness == {"element": "star", "columns": 1}
    a = ga.c0x_algebra(s)
    a.alg.star = [[(-1, 1)], a.alg.star[1]]
    with pytest.raises(InvalidAction) as err:
        ga.validate_g_algebra(a)
    assert err.value.witness == {"element": "star", "column": 0, "row": -1}


def test_star_failures_read_the_star_columns():
    from test_kernels import dense_star_failures

    m2 = ga.matrix_algebra(2)
    assert list(ga.star_failures(m2)) == []
    # e00* = 2 e00 is sent back to 4 e00
    doubled = ga.StarAlgebra(4, m2.mul, [[(0, Fraction(2))]] + m2.star[1:])
    assert next(ga.star_failures(doubled)) == "star not involutive"
    # the identity is involutive but not antimultiplicative: (e00 e01)* = e01,
    # while e01* e00* = e01 e00 = 0
    plain = ga.StarAlgebra(4, m2.mul, [[(i, 1)] for i in range(4)])
    assert next(ga.star_failures(plain)) == (0, 1)
    for alg in (doubled, plain):
        assert list(ga.star_failures(alg)) == list(dense_star_failures(alg))


def test_restrict_with_overlapping_fibers_raises_invalid_action():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    a.action[s.index("e1")] = [[(0, 1)], [(0, 1), (1, 1)]]  # its unit fiber overlaps the other
    with pytest.raises(InvalidAction, match="groupoid corner of 'C0\\(X\\)' is not closed"):
        ga.restrict(a, assoc_groupoid(s, 0b11))


def test_star_hom_verification():
    s = sg.parse_builder("chain:2")
    c = ga.c0x_algebra(s)
    f = ga.StarHomomorphism(c, c, ga._identity(c.dim), "id")
    rep = ga.verify_star_hom(f, equivariant_keys=list(s.elements()))
    assert rep["pass"]
    bad = ga.StarHomomorphism(c, c, dense_columns([[1, 1], [0, 1]], 2), "bad")
    assert not ga.verify_star_hom(bad)["pass"]


@pytest.mark.parametrize("cols, witness", [
    (identity(2), {"element": "f", "column": 0, "entry": 0}),          # an old dense matrix
    ([[(0, 1)]], {"element": "f", "columns": 1}),                      # one column for dim 2
    ([[(0, 1)], [(2, 1)]], {"element": "f", "column": 1, "row": 2}),   # row outside range(2)
    ([[(1, 1), (0, 1)], []], {"element": "f", "column": 0, "row": 0}),  # rows out of order
    ([[(0, 0)], []], {"element": "f", "column": 0, "row": 0}),          # a zero value
])
def test_star_hom_columns_are_checked_before_the_axioms(cols, witness):
    c = ga.c0x_algebra(sg.parse_builder("chain:2"))
    with pytest.raises(InvalidAction) as err:
        ga.verify_star_hom(ga.StarHomomorphism(c, c, cols, "f"))
    assert err.value.witness == witness


def test_star_hom_columns_range_over_the_target():
    # a map into a larger algebra has source.dim columns over range(target.dim)
    s = sg.parse_builder("chain:2")
    c, line = ga.c0x_algebra(s), ga.trivial_algebra(s)
    assert ga.verify_star_hom(ga.StarHomomorphism(line, c, [[(1, 1)]], "f"))["pass"]
    with pytest.raises(InvalidAction, match=r"^homomorphism 'f' column 0 has row 1, outside range\(1\)$"):
        ga.verify_star_hom(ga.StarHomomorphism(c, line, [[(1, 1)], []], "f"))


def test_h_algebra_constructors():
    from iskk.induction import assoc_groupoid

    s = sg.parse_builder("brandt_unital:2")
    h = assoc_groupoid(s, sg.idempotents(s))
    cx = ga.c0_units(h)
    assert ga.validate_h_algebra(cx)["pass"]
    line = ga.trivial_line(h, 0)
    assert ga.validate_h_algebra(line)["pass"]
    both = ga.direct_sum(h, [cx, line])
    assert ga.validate_h_algebra(both)["pass"]
    assert both.dim == cx.dim + 1


# ---------------------------------------------------------------------------
# the shared plumbing against independent oracles

MERGE_CORPUS = ["chain:2", "chain:3", "diamond", "cyclic:2", "cyclic:3", "symmetric_inverse:2",
                "brandt_unital:2", "product:symmetric_inverse:2*chain:2"]


def _fields(d):
    return (d.alg.mul, d.alg.star, d.action, d.unit_of_basis, d.embed)


@pytest.mark.parametrize("spec", MERGE_CORPUS)
def test_restrict_and_rebasing_agree(spec):
    # the two differ only in how they get each unit's projection: from the
    # character projections, or as a product of the generating idempotents
    from iskk.induction import assoc_groupoid, sgp_to_h_algebra

    s = sg.parse_builder(spec)
    coeffs = [a for a in (ga.c0x_algebra(s), ga.trivial_algebra(s)) if ga.validate_g_algebra(a)["pass"]]
    for subset in ("unit", "idempotents", "all"):
        h = assoc_groupoid(s, sg.parse_subset(s, subset))
        for a in coeffs:
            assert _fields(ga.restrict(a, h)) == _fields(sgp_to_h_algebra(a, h)), (spec, subset, a.label)


PAIRS = [(ga.matrix_algebra(2), ga.diagonal_star_algebra(2)),
         (ga.diagonal_star_algebra(3), ga.matrix_algebra(2)),
         (ga.matrix_algebra(2), ga.matrix_algebra(3))]


@pytest.mark.parametrize("a, b", PAIRS)
def test_quotient_of_a_sum_by_a_summand(a, b):
    # A + B modulo B is A, whichever side B sits on
    for parts, b_first in (([a, b], False), ([b, a], True)):
        total = ga.star_sum(parts)
        offset = 0 if b_first else a.dim
        relations = [{offset + i: 1} for i in range(b.dim)]
        q, space = ga.quotient(total, relations)
        assert (q.dim, q.mul, q.star) == (a.dim, a.mul, a.star)
        assert space.dim == a.dim


def test_quotient_by_nothing_reads_the_structure_constants(monkeypatch):
    alg = ga.star_sum([ga.matrix_algebra(2), ga.diagonal_star_algebra(3)])

    def forbidden(*args):
        raise AssertionError("quotient must not multiply vectors")

    monkeypatch.setattr(ga.StarAlgebra, "mul_vec", forbidden)
    q, space = ga.quotient(alg, [])
    assert (q.dim, q.mul, q.star) == (alg.dim, alg.mul, alg.star)
    assert space.free == list(range(alg.dim))


def test_corner_of_a_sum_is_the_summand():
    s = sg.parse_builder("symmetric_inverse:2")
    a, b = ga.c0x_algebra(s), ga.trivial_algebra(s)
    total = ga.direct_sum(s, [a, b])
    assert ga.validate_g_algebra(total)["pass"]
    for part, kept in ((a, range(a.dim)), (b, range(a.dim, total.dim))):
        p = [[(i, 1)] if i in kept else [] for i in range(total.dim)]
        sub, basis = ga.subalgebra_on_projection(total, p)
        assert (sub.alg.mul, sub.alg.star, sub.action) == (part.alg.mul, part.alg.star, part.action)
        assert basis == dense_vectors(total.alg.basis_vec(i) for i in kept)


def test_empty_direct_sum_is_zero():
    s = sg.parse_builder("chain:2")
    zero = ga.direct_sum(s, [])
    assert zero.dim == 0 and set(zero.action) == set(s.elements())
    assert ga.validate_g_algebra(zero)["pass"]


def test_operations_reject_algebras_over_different_semigroups():
    from iskk.errors import BaseMismatch

    s, t = sg.parse_builder("chain:2"), sg.parse_builder("chain:2")
    a, b = ga.c0x_algebra(s), ga.c0x_algebra(t)
    with pytest.raises(BaseMismatch):
        ga.tensor_g(a, b)
    with pytest.raises(BaseMismatch):
        ga.balanced_tensor(a, b)
    with pytest.raises(BaseMismatch) as err:
        ga.direct_sum(s, [a, b])
    assert err.value.witness == {"part": 1, "label": b.label}


# ---------------------------------------------------------------------------
# a product, star or action image leaving its corner is a typed error

SWAP = [[(1, 1)], [(0, 1)]]  # star columns: b_0* = b_1, b_1* = b_0


def _chain_c0x(star=None, square=None):
    """C0(X) over chain:2, its two points b_0, b_1 the fibers of the two
    units of the germ groupoid of all of S. ``star`` replaces the star;
    ``square`` replaces b_0 b_0 by that combination of b_0 and b_1."""
    s = sg.parse_builder("chain:2")
    a = ga.c0x_algebra(s)
    if star is not None:
        a.alg.star = star
    if square is not None:
        a.alg.mul[(0, 0)] = square
    return s, a


def _all_germs(s):
    from iskk.induction import assoc_groupoid

    return assoc_groupoid(s, sg.parse_subset(s, "all"))


def test_corner_escape_of_a_product_or_star_is_a_typed_error():
    s = sg.parse_builder("chain:1")
    m2 = ga.GAlgebra(s, ga.matrix_algebra(2), {s.unit: ga._identity(4)})
    # span{e12}: e12 e12 = 0 stays, but e12* = e21 leaves; span{e12, e21}: e12 e21 = e11 leaves
    for diagonal in ([0, 1, 0, 0], [0, 1, 1, 0]):
        p = [[(i, Fraction(x))] if x else [] for i, x in enumerate(diagonal)]
        with pytest.raises(InvalidAction, match="^corner of 'M2' is not closed$"):
            ga.subalgebra_on_projection(m2, p)


def test_cutdown_star_escape_is_a_typed_error():
    # e1 acts as a central idempotent multiplier, but the swapped star moves its corner
    s, a = _chain_c0x(star=SWAP)
    with pytest.raises(InvalidAction, match=r"^corner of 'C0\(X\)' is not closed$"):
        ga.cutdown(a, s.index("e1"))


@pytest.mark.parametrize("broken", [{"square": {1: 1}}, {"star": SWAP}], ids=["product", "star"])
def test_restrict_escape_from_a_fiber_is_a_typed_error(broken):
    s, a = _chain_c0x(**broken)
    with pytest.raises(InvalidAction, match=r"^groupoid corner of 'C0\(X\)' is not closed$"):
        ga.restrict(a, _all_germs(s))


def test_restrict_germ_image_escape_is_a_typed_error():
    # the elements of I2 that move a point, acting as the identity, keep each
    # fiber in place, but their germs move the fiber of {1} to that of {2}
    s = sg.parse_builder("symmetric_inverse:2")
    a = ga.c0x_algebra(s)
    for g in s.elements():
        if not s.is_idempotent(g):
            a.action[g] = ga._identity(a.dim)
    with pytest.raises(InvalidAction, match=r"^groupoid corner of 'C0\(X\)' is not closed$"):
        ga.restrict(a, _all_germs(s))


@pytest.mark.parametrize("broken", [{"square": {1: 1}}, {"star": SWAP}], ids=["product", "star"])
def test_rebasing_and_range_cut_escapes_are_typed_errors(broken):
    from iskk.errors import InvalidCoefficientAlgebra
    from iskk.induction import c0_orbits_algebra, compute_GH, sgp_to_h_algebra

    s, a = _chain_c0x(**broken)
    h = _all_germs(s)
    with pytest.raises(InvalidCoefficientAlgebra, match="^rebasing is not closed$"):
        sgp_to_h_algebra(a, h)
    with pytest.raises(InvalidCoefficientAlgebra, match=r"^range-cut corner of 'C0\(X\)' is not closed$"):
        c0_orbits_algebra(s, compute_GH(s, h), a)


def test_restrict_and_range_cut_corners_make_no_dense_products(monkeypatch):
    # fibers and corners come from the coefficient algebra's cells, not from mul_vec
    from iskk.induction import c0_orbits_algebra, compute_GH, assoc_groupoid

    s = sg.parse_builder("symmetric_inverse:2")
    a = ga.c0x_algebra(s)
    calls = []
    real = ga.StarAlgebra.mul_vec

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(ga.StarAlgebra, "mul_vec", counted)
    for sub in ("idempotents", "all"):
        h = assoc_groupoid(s, sg.parse_subset(s, sub))
        d = ga.restrict(a, h)
        cut, _ = c0_orbits_algebra(s, compute_GH(s, h), a)
        assert d.dim == a.dim and d.alg.mul and cut.dim > 0 and cut.alg.mul
    assert calls == []
