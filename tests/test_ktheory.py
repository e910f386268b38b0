from fractions import Fraction

import pytest

from iskk import galgebra as ga
from iskk import induction as ind
from iskk import ktheory as kt
from iskk import semigroup as sg
from iskk import spectrum as sp
from iskk.errors import HypothesesNotMet, NonIntegralMultiplicity
from iskk.linalg import mat_mul
from test_kernels import dense_columns, identity

CORPUS = ["chain:2", "chain:3", "diamond", "cyclic:2", "cyclic:3", "symmetric_inverse:2",
          "brandt_unital:2", "product:symmetric_inverse:2*chain:2"]


@pytest.mark.parametrize("spec", CORPUS)
@pytest.mark.parametrize("subset", ["unit", "idempotents"])
def test_imprimitivity_ranks_agree(spec, subset):
    s = sg.parse_builder(spec)
    rep = kt.verify_imprimitivity(s, sg.parse_subset(s, subset), ga.c0x_algebra(s))
    assert rep["pass"], rep
    d = rep["dims"]
    # Over the unit and over the idempotent germs the groupoid's arrows are its
    # units, so its crossed product is the restricted C0(X) itself: one block
    # per character.
    assert d["lhs_rank"] == d["rhs_rank"] == sp.spectrum(s).size
    assert d["rhs_blocks"] == [1] * d["rhs_rank"]
    assert len(d["lhs_blocks"]) == d["lhs_rank"]


@pytest.mark.parametrize("spec", [c for c in CORPUS if c != "brandt_unital:2"])
def test_green_julg_diagram(spec):
    s = sg.parse_builder(spec)
    c = ga.c0x_algebra(s)
    rep = kt.verify_green_julg_diagram(s, sg.parse_subset(s, "idempotents"), [c, c])
    assert rep["pass"], rep
    n = sp.spectrum(s).size  # one unit with a one-dimensional fiber per character
    assert rep["dims"]["part_ranks"] == [n, n]
    assert rep["dims"]["sum_rank"] == 2 * n


def test_green_julg_needs_a_nonzero_bottom_idempotent():
    s = sg.parse_builder("brandt_unital:2")
    with pytest.raises(HypothesesNotMet):
        kt.verify_green_julg_diagram(s, sg.parse_subset(s, "idempotents"), [ga.c0x_algebra(s)])


@pytest.mark.parametrize("spec", CORPUS)
def test_remark_counterexamples(spec):
    s = sg.parse_builder(spec)
    rep = kt.verify_remark_counterexamples(s, spec)
    assert rep["pass"], rep
    semilattice = sg.idempotents(s) == sg.mask_of(s.elements()) and s.zero is None
    notes = {c["name"]: c.get("note") for c in rep["checks"]}
    assert (notes["semilattice_rank_is_size"] is None) == semilattice


@pytest.mark.parametrize("spec", ["chain:3", "diamond", "symmetric_inverse:2"])
def test_k0_map_unit_atom_retract(spec):
    # the scalar line at a unit includes into C0(units) and evaluation splits
    # it off: p o f is the identity on K0, and f o p projects onto one block
    s = sg.parse_builder(spec)
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    cx = ga.c0_units(h)
    n = len(h.units)
    assert kt.k0_map(ga.StarHomomorphism(cx, cx, ga._identity(n))).matrix == identity(n)
    for upos in range(n):
        line = ga.trivial_line(h, upos)
        f = ga.StarHomomorphism(line, cx, dense_columns([[1] if i == upos else [0] for i in range(n)], 1))
        p = ga.StarHomomorphism(cx, line, dense_columns([[1 if j == upos else 0 for j in range(n)]], n))
        mf, mp = kt.k0_map(f).matrix, kt.k0_map(p).matrix
        assert mat_mul(mp, mf) == [[1]]
        assert sum(map(sum, mf)) == 1 and sum(map(sum, mp)) == 1


def test_green_julg_decomposes_each_algebra_once(monkeypatch):
    # the inclusion and the evaluation share their two algebras, the unit-atom
    # line and C0 of the units; each is decomposed once per diagram, and the
    # two crossed products of the additivity check once each
    s = sg.parse_builder("product:symmetric_inverse:2*chain:2")
    seen = []
    semisimple_quotient = kt.semisimple_quotient

    def counting(x):
        seen.append(x)  # holding x keeps its id unique
        return semisimple_quotient(x)

    monkeypatch.setattr(kt, "semisimple_quotient", counting)
    rep = kt.verify_green_julg_diagram(s, sg.idempotents(s), [ga.c0x_algebra(s)])
    assert rep["pass"], rep
    assert len(seen) == len({id(x) for x in seen}) == 4


def _scaled_line(scale):
    """The map of the scalar line of chain:2 to another copy of it that
    multiplies by ``scale``; k0_map reads its columns without checking that
    it is a *-homomorphism."""
    s = sg.parse_builder("chain:2")
    return ga.StarHomomorphism(ga.trivial_algebra(s), ga.trivial_algebra(s), [[(0, scale)]], "scaled")


@pytest.mark.parametrize("scale, message", [
    (Fraction(1, 2), r"^entry \(0,0\) = 1/2$"),
    (Fraction(-3, 2), r"^entry \(0,0\) = -3/2$"),
    (-1, r"^entry \(0,0\) = -1 negative$"),
    (Fraction(-2), r"^entry \(0,0\) = -2 negative$"),
])
def test_k0_map_rejects_non_integral_and_negative_multiplicities(scale, message):
    with pytest.raises(NonIntegralMultiplicity, match=message):
        kt.k0_map(_scaled_line(scale))


@pytest.mark.parametrize("scale", [1, 2, Fraction(3), Fraction(4, 2)])
def test_k0_map_entries_are_ints(scale):
    got = kt.k0_map(_scaled_line(scale)).matrix
    assert got == [[int(scale)]] and type(got[0][0]) is int
