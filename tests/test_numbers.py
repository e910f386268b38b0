"""The number-type contract: one canonical form for every exact value.

An exact value is canonical when it is an int, or a Fraction whose
denominator is not 1. The builders, the coefficient algebras derived from
them and every crossed product store ints on the corpus: all their
structure constants, stars and actions are integers. Every number that
``linalg`` hands out, from an elimination, a solve, a coordinate read or an
inverse, is canonical, whether its inputs were canonical or Fractions with
denominator 1.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from iskk import crossed as cr
from iskk import galgebra as ga
from iskk import induction as ind
from iskk import semigroup as sg
from iskk.linalg import Basis, QuotientSpace, Span, mat_inv, nullspace, rref, sparse_solve
from test_kernels import dense_vectors, eliminations
from test_spectrum import SMALL


def canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_canonical_tells_the_forms_apart():
    assert canonical(0) and canonical(-3) and canonical(Fraction(1, 2))
    assert not canonical(Fraction(2)) and not canonical(Fraction(0)) and not canonical(1.0)
    assert not canonical(True)


def all_canonical(vectors) -> bool:
    """Whether every vector is in the one vector format: a ``{col: value}``
    dict without zeros and with canonical values. Its values are read, not
    its keys, which iterating a dict would give."""
    return all(type(v) is dict and all(x != 0 and canonical(x) for x in v.values()) for v in vectors)


def test_all_canonical_reads_the_values():
    assert all_canonical([{0: 1, 3: Fraction(1, 2)}, {}])
    assert not all_canonical([{0: Fraction(2)}]) and not all_canonical([{1: 0}])
    assert not all_canonical([[1, 0]]) and not all_canonical([{0: 1.0}])


def stored_values(alg: ga.StarAlgebra, action=None) -> list:
    """Every structure constant, star entry and action entry of ``alg``."""
    values = [v for cell in alg.mul.values() for v in cell.values()]
    values += [x for col in alg.star for _, x in col]
    for m in (action or {}).values():
        values += [x for col in m for _, x in col]
    return values


def all_ints(values) -> bool:
    return all(type(v) is int for v in values)


@st.composite
def coefficient_algebras(draw):
    """A ``SMALL`` builder with the trivial line or C0(X) over it, and a
    subset spec for the groupoid. A Brandt semigroup has zero divisors, so
    its trivial line carries no action; it comes with C0(X) only."""
    spec = draw(st.sampled_from(SMALL))
    kinds = ["c0x"] if spec.startswith("brandt") else ["trivial", "c0x"]
    coeff = draw(st.sampled_from(kinds))
    subset = draw(st.sampled_from(["unit", "idempotents", "all"]))
    s = sg.parse_builder(spec)
    a = ga.trivial_algebra(s) if coeff == "trivial" else ga.c0x_algebra(s)
    return s, a, subset


@settings(max_examples=40, deadline=None)
@given(coefficient_algebras())
def test_builders_and_products_store_ints(problem):
    s, a, subset = problem
    assert all_ints(stored_values(a.alg, a.action))
    for kind in ("universal", "sieben"):
        assert all_ints(stored_values(cr.crossed(a, kind).alg)), kind
    d = ga.restrict(a, ind.assoc_groupoid(s, sg.parse_subset(s, subset)))
    assert all_ints(stored_values(d.alg, d.action))
    assert all_ints(stored_values(cr.crossed(d, "groupoid").alg))
    induced = ind.build_induced(s, d.gpd, d).galg
    assert all_ints(stored_values(induced.alg, induced.action))
    assert all_ints(stored_values(cr.crossed(induced, "sieben").alg))


@settings(max_examples=40, deadline=None)
@given(coefficient_algebras())
def test_semisimple_data_of_products_are_canonical(problem):
    # the center basis comes from sparse_solve, the radical space is a
    # QuotientSpace and the central idempotents are lifted from the center
    s, a, _ = problem
    for kind in ("universal", "sieben"):
        d = cr.semisimple_quotient(cr.crossed(a, kind))
        assert len(d.center_basis) == d.center_dim and all_canonical(d.center_basis)
        assert 0 < len(d.central_idempotents) <= d.blocks
        assert all_canonical(d.central_idempotents)
        assert all_ints(stored_values(d.quotient))


@settings(max_examples=300, deadline=None)
@given(eliminations())
def test_linalg_outputs_are_canonical(problem):
    rows, square, probes = problem
    ncols = len(probes[-1])  # the rows' width, also when there are no rows
    rows, square, probes = dense_vectors(rows), dense_vectors(square), dense_vectors(probes)
    red, _ = rref(rows, ncols)
    assert all_canonical(red) and all_canonical(nullspace(rows, ncols))
    system = dict(enumerate(rows))
    for probe in probes:
        x, kernel = sparse_solve(system, ncols, {r: x for r, x in probe.items() if r < len(rows)})
        assert all_canonical(kernel) and (x is None or all_canonical([x]))
    inv = mat_inv(square)
    assert inv is None or all_canonical(inv)
    span, space = Span(rows), QuotientSpace(ncols, rows)
    assert all_canonical(span.sparse_rows)
    try:
        basis = Basis(rows)
    except ValueError:
        basis = None
    for sparse in probes:
        coords = [span.sparse_coords(sparse), space.sparse_coords(sparse)]
        if basis is not None:
            coords.append(basis.sparse_coords(sparse))
        assert all_canonical([c for c in coords if c is not None])
