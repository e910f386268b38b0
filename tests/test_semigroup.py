import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iskk import semigroup as sg
from iskk.errors import (
    BadUnit,
    IskkError,
    MalformedInput,
    NoUniqueInverse,
    NotAssociative,
    NotSubsemigroup,
    UnsupportedSize,
)
from test_spectrum import SMALL

BUILDERS = [
    "chain:2",
    "chain:3",
    "chain:4",
    "chain:5",
    "diamond",
    "cyclic:2",
    "cyclic:3",
    "symmetric:3",
    "brandt_unital:2",
    "symmetric_inverse:2",
    "symmetric_inverse:3",
]


@pytest.fixture(scope="module")
def corpus():
    return {spec: sg.parse_builder(spec) for spec in BUILDERS}


def test_z2_valid_star_identity():
    s = sg.parse_builder("cyclic:2")
    assert s.n == 2
    assert s.star == (0, 1)
    assert sg.idempotents(s) == sg.bit(0)


def test_two_chain_valid():
    s = sg.parse_builder("chain:2")
    assert s.star == (0, 1)
    assert sg.idempotents(s) == 0b11


def test_left_zero_semigroup_rejected():
    # x*y = x for both elements: every element is an inverse of every other
    with pytest.raises(NoUniqueInverse):
        sg.validate([[0, 0], [1, 1]], unit=0)


def _first_non_associative_triple(table):
    n = len(table)
    return next((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if table[table[a][b]][c] != table[a][table[b][c]])


def test_not_associative_detected():
    # the whole-row comparison must find the brute-force first triple, on
    # list rows and on tuple rows alike
    for rows in (list, tuple):
        table = [rows(r) for r in ([0, 1, 2], [1, 2, 1], [2, 0, 0])]
        with pytest.raises(NotAssociative) as err:
            sg.validate(table, unit=0)
        a, b, c = err.value.witness
        assert (a, b, c) == _first_non_associative_triple(table) == (1, 1, 1)
        assert str(err.value) == f"(x{a}*x{b})*x{c} != x{a}*(x{b}*x{c})"


@st.composite
def tables(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(draw(st.sampled_from([list, tuple])))
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_associativity_witness_is_the_brute_force_first_triple(table):
    try:
        sg.validate(table, unit=0)
    except NotAssociative as err:
        assert err.witness == _first_non_associative_triple(table)
        return
    except IskkError:
        pass
    n = len(table)
    assert all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def test_bad_unit_detected():
    with pytest.raises(BadUnit):
        sg.validate([[0, 1], [1, 0]], unit=1)


def test_brandt_idempotents():
    s = sg.parse_builder("brandt_unital:2")
    assert s.n == 6
    names = {s.names[e] for e in sg.iter_mask(sg.idempotents(s))}
    assert names == {"1", "(1,1)", "(2,2)", "0"}


def test_symmetric_inverse_counts():
    assert sg.parse_builder("symmetric_inverse:2").n == 7
    assert sg.parse_builder("symmetric_inverse:3").n == 34
    with pytest.raises(UnsupportedSize):
        sg.parse_builder("symmetric_inverse:4")


def test_leq_chain():
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    assert sg.leq(s, e, 0)
    assert not sg.leq(s, 0, e)


def test_leq_brandt():
    s = sg.parse_builder("brandt_unital:2")
    z, g, e11 = s.index("0"), s.index("(1,2)"), s.index("(1,1)")
    assert sg.leq(s, z, g)
    assert not sg.leq(s, e11, g)


def test_e_unitary():
    assert sg.is_e_unitary(sg.parse_builder("cyclic:3"))
    assert sg.is_e_unitary(sg.parse_builder("chain:4"))
    assert sg.is_e_unitary(sg.parse_builder("brandt_unital:2"))
    # the symmetric inverse monoid is not E-unitary: 1|1 <= transposition? no,
    # but the partial identity on {1} sits below the full transposition's
    # composite... check an explicit failure instead: e <= g with g = [1>1]
    # extended by nothing is idempotent, so use the known non-E-unitary I2.
    assert not sg.is_e_unitary(sg.parse_builder("symmetric_inverse:2"))


def test_generate():
    s = sg.parse_builder("cyclic:3")
    assert sg.generate(s, 0) == sg.bit(0)
    assert sg.generate(s, sg.bit(1)) == 0b111
    b = sg.parse_builder("brandt_unital:2")
    got = sg.generate(b, sg.bit(b.index("(1,2)")))
    assert got == sg.mask_of(b.elements())


def test_generate_idempotent_monotone():
    s = sg.parse_builder("symmetric_inverse:2")
    small = sg.generate(s, sg.bit(3))
    assert sg.generate(s, small) == small
    bigger = sg.generate(s, small | sg.bit(1))
    assert bigger & small == small


def test_check_subsemigroup():
    s = sg.parse_builder("symmetric_inverse:2")
    ok = sg.generate(s, sg.bit(s.index("[1>2]")))
    sg.check_subsemigroup(s, ok)
    with pytest.raises(NotSubsemigroup):
        # {g, g^2=0, 1} is product-closed but not star-closed for g = 1>2
        g = s.index("[1>2]")
        zero = s.table[g][g]
        sg.check_subsemigroup(s, sg.bit(s.unit) | sg.bit(g) | sg.bit(zero))


def test_json_roundtrip(corpus):
    for s in corpus.values():
        d = sg.to_json_dict(s)
        t = sg.from_json_dict(d)
        assert t.table == s.table and t.unit == s.unit and t.zero == s.zero


def test_parse_subset():
    s = sg.parse_builder("chain:3")
    assert sg.parse_subset(s, "all") == 0b111
    assert sg.parse_subset(s, "unit") == 1
    assert sg.parse_subset(s, "idempotents") == 0b111
    assert sg.parse_subset(s, "1,e1") == 0b011
    assert sg.parse_subset(s, "generate:e2") == 0b101


def test_product_and_adjoin_zero():
    p = sg.parse_builder("product:chain:2*cyclic:2")
    assert p.n == 4 and p.zero is None
    q = sg.parse_builder("adjoin_zero:cyclic:2")
    assert q.n == 3 and q.zero == 2
    with pytest.raises(MalformedInput):
        sg.parse_builder("adjoin_zero:brandt_unital:2")


@pytest.mark.parametrize("left", SMALL)
@pytest.mark.parametrize("right", SMALL)
def test_product_equals_its_validated_table(left, right):
    # the product is built from its factors without validate; validating its
    # table gives the same semigroup, zero included
    p = sg.parse_builder(f"product:{left}*{right}")
    v = sg.validate(p.table, unit=p.unit, zero=p.zero, names=p.names)
    assert (p.n, p.table, p.star, p.unit, p.names) == (v.n, v.table, v.star, v.unit, v.names)
    sa, sb = sg.parse_builder(left), sg.parse_builder(right)
    has_zero = sa.zero is not None and sb.zero is not None
    assert p.zero == (sa.zero * sb.n + sb.zero if has_zero else None)
    assert p.table[p.unit][p.unit] == p.unit and sg.idempotents(p) == sg.idempotents(v)


def test_product_with_clashing_names_is_malformed():
    a = sg.validate([[0, 1], [1, 1]], unit=0, names=["x", "x|y"])
    b = sg.validate([[0, 1], [1, 1]], unit=0, names=["y|z", "z"])
    with pytest.raises(MalformedInput, match="^element names are not distinct$"):
        sg.build("product", a, b)


# -- property suites ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BUILDERS), st.data())
def test_star_antihomomorphism(spec, data):
    s = sg.parse_builder(spec)
    g = data.draw(st.integers(0, s.n - 1))
    h = data.draw(st.integers(0, s.n - 1))
    assert s.star[s.star[g]] == g
    assert s.star[s.table[g][h]] == s.table[s.star[h]][s.star[g]]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(BUILDERS))
def test_leq_antisymmetric_exhaustive(spec):
    s = sg.parse_builder(spec)
    for g in s.elements():
        for h in s.elements():
            if sg.leq(s, g, h) and sg.leq(s, h, g):
                assert g == h


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(BUILDERS))
def test_idempotents_meet_semilattice(spec):
    s = sg.parse_builder(spec)
    idem = list(sg.iter_mask(sg.idempotents(s)))
    for e in idem:
        for f in idem:
            ef = s.table[e][f]
            assert s.is_idempotent(ef)
            # ef is the meet of e and f in the natural order
            assert sg.leq(s, ef, e) and sg.leq(s, ef, f)
            for d in idem:
                if sg.leq(s, d, e) and sg.leq(s, d, f):
                    assert sg.leq(s, d, ef)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUILDERS), st.data())
def test_generate_monotone_property(spec, data):
    s = sg.parse_builder(spec)
    gens = data.draw(st.integers(0, (1 << s.n) - 1))
    closed = sg.generate(s, gens)
    assert sg.generate(s, closed) == closed
    extra = data.draw(st.integers(0, s.n - 1))
    assert sg.generate(s, closed | sg.bit(extra)) & closed == closed
