from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iskk import semigroup as sg
from iskk import spectrum as sp
from iskk.errors import NotIdempotent, NotZeroOneValued

SMALL = ["chain:2", "chain:3", "diamond", "cyclic:2", "cyclic:3", "brandt_unital:2",
         "symmetric_inverse:2"]


def test_characters_two_chain():
    s = sg.parse_builder("chain:2")
    chars = sp.characters(s)
    # one character fixes e, the other only the unit
    assert sorted(map(len, chars)) == [1, 2]
    assert sp.spectrum(s).size == 2


def test_characters_group_single():
    s = sg.parse_builder("cyclic:3")
    assert sp.spectrum(s).size == 1


def test_characters_diamond():
    s = sg.parse_builder("diamond")
    assert sp.spectrum(s).size == 4


def test_character_count_invariant():
    for spec in SMALL + ["symmetric_inverse:3", "chain:5"]:
        s = sg.parse_builder(spec)
        expected = sg.popcount(sg.idempotents(s)) - (0 if s.zero is None else 1)
        assert sp.spectrum(s).size == expected


def test_proj_basics():
    s = sg.parse_builder("chain:2")
    x = sp.spectrum(s)
    assert sp.proj(s, 0) == x.full
    e = s.index("e1")
    assert sg.popcount(sp.proj(s, e)) == 1
    with pytest.raises(NotIdempotent):
        sp.proj(sg.parse_builder("cyclic:2"), 1)


def test_proj_zero_empty():
    s = sg.parse_builder("brandt_unital:2")
    assert sp.proj(s, s.index("0")) == 0


def test_proj_lattice_embedding():
    for spec in SMALL:
        s = sg.parse_builder(spec)
        idem = list(sg.iter_mask(sg.idempotents(s)))
        for e in idem:
            for f in idem:
                assert sp.proj(s, s.table[e][f]) == sp.proj(s, e) & sp.proj(s, f)
                if sg.leq(s, e, f):
                    assert sp.proj(s, e) & ~sp.proj(s, f) == 0


def test_act_proj_defining_case():
    for spec in SMALL:
        s = sg.parse_builder(spec)
        x = sp.spectrum(s)
        for g in s.elements():
            assert sp.act_proj(s, s.unit, x.full) == x.full
            dom = sp.proj(s, s.source(g))
            for e in sg.iter_mask(sg.idempotents(s)):
                if sg.leq(s, e, s.source(g)):
                    img = s.mul_many((g, e, s.star[g]))
                    assert sp.act_proj(s, g, sp.proj(s, e)) == sp.proj(s, img)


def test_act_proj_chain_cutdown():
    s = sg.parse_builder("chain:2")
    x = sp.spectrum(s)
    e = s.index("e1")
    assert sp.act_proj(s, e, x.full) == sp.proj(s, e)


def test_extended_canonical_identification():
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    pe = sp.proj(s, e)
    assert sp.extended(s, e, pe) == sp.extended(s, s.unit, pe)


def test_tilde_mul_unit_and_complements():
    s = sg.parse_builder("chain:2")
    x = sp.spectrum(s)
    one = sp.extended(s, s.unit, x.full)
    assert sp.tilde_mul(s, one, one) == one
    pe = sp.proj(s, s.index("e1"))
    a = sp.extended(s, s.unit, x.full & ~pe)
    b = sp.extended(s, s.unit, pe)
    assert sp.tilde_mul(s, a, b).is_zero()


def test_tilde_group_case():
    s = sg.parse_builder("cyclic:2")
    x = sp.spectrum(s)
    g = sp.extended(s, 1)
    assert g.chars == x.full
    assert sp.tilde_mul(s, g, g) == sp.extended(s, 0)
    assert sp.tilde_star(s, g) == g


def test_e_cont_sup_cases():
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    func, witness = sp.e_cont_sup(s, e)
    assert sp.alg_star_mask(func) == sp.proj(s, e)
    assert witness == sg.bit(e)

    g = sg.parse_builder("cyclic:3")
    func, witness = sp.e_cont_sup(g, 1)
    assert sp.alg_star_mask(func) == 0 and witness == 0

    b = sg.parse_builder("brandt_unital:2")
    func, witness = sp.e_cont_sup(b, b.index("(1,2)"))
    # only the declared zero sits below a nonunit arrow, and it is null
    assert sp.alg_star_mask(func) == 0
    assert witness == 0


def test_alg_star_mask_names_the_first_value_outside_zero_one():
    assert sp.alg_star_mask([1, 0, 1]) == 0b101
    for func, position, value in (([1, 0, 2], 2, "2"), ([0, Fraction(1, 2), -1], 1, "1/2")):
        with pytest.raises(ValueError, match=f"^function is not 0/1-valued at position {position}: ") as err:
            sp.alg_star_mask(func)
        assert isinstance(err.value, NotZeroOneValued)
        assert err.value.witness == {"position": position, "value": value}


def test_e_cont_witness_minimal_and_sup_full_set():
    for spec in SMALL:
        s = sg.parse_builder(spec)
        for g in s.elements():
            func, witness = sp.e_cont_sup(s, g)
            mask = sp.alg_star_mask(func)
            # equals pointwise max over the full unfiltered below-set
            full = 0
            for e in sg.iter_mask(sg.idempotents(s)):
                if sg.leq(s, e, g) and e != s.zero:
                    full |= sp.proj(s, e)
            assert mask == full
            # join of witness reproduces the sup; dropping any member shrinks it
            join = 0
            for e in sg.iter_mask(witness):
                join |= sp.proj(s, e)
            assert join == mask
            for e in sg.iter_mask(witness):
                other = 0
                for f in sg.iter_mask(witness & ~sg.bit(e)):
                    other |= sp.proj(s, f)
                assert other != mask or sp.proj(s, e) == 0


# -- exhaustive associativity / involution on sampled extended elements ------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_tilde_associative_involutive(spec, data):
    s = sg.parse_builder(spec)
    x = sp.spectrum(s)

    def draw_ext():
        g = data.draw(st.integers(0, s.n - 1))
        mask = data.draw(st.integers(0, x.full))
        return sp.extended(s, g, mask)

    a, b, c = draw_ext(), draw_ext(), draw_ext()
    assert sp.tilde_mul(s, sp.tilde_mul(s, a, b), c) == sp.tilde_mul(
        s, a, sp.tilde_mul(s, b, c)
    )
    assert sp.tilde_star(s, sp.tilde_star(s, a)) == a
    assert sp.tilde_star(s, sp.tilde_mul(s, a, b)) == sp.tilde_mul(
        s, sp.tilde_star(s, b), sp.tilde_star(s, a)
    )
    # xx*x = x in the extended semigroup
    assert sp.tilde_mul(s, sp.tilde_mul(s, a, sp.tilde_star(s, a)), a) == a


# -- the germ tables against the table-free formulas ---------------------------


def ref_act_mask(s, g, mask):
    """Image of a character mask under g, one generating idempotent at a time:
    the character of f <= g*g goes to the character of g f g*."""
    x = sp.spectrum(s)
    out = 0
    for i in sg.iter_mask(mask & x.proj(s.source(g))):
        out |= 1 << x.pos[s.mul_many((g, x.gens[i], s.star[g]))]
    return out


def ref_extended(s, g, chars):
    """The germ of g on chars inside proj(g*g), with the least element that
    agrees with g on every generating idempotent there."""
    x = sp.spectrum(s)
    chars &= x.proj(s.source(g))
    if not chars:
        return sp.ExtendedElement(s.unit, 0)
    gens = [x.gens[i] for i in sg.iter_mask(chars)]
    h = next(h for h in s.elements()
             if not chars & ~x.proj(s.source(h)) and all(s.table[h][f] == s.table[g][f] for f in gens))
    return sp.ExtendedElement(h, chars)


def ref_tilde_mul(s, a, b):
    gh = s.table[a.g][b.g]
    chars = ref_act_mask(s, s.star[b.g], a.chars) & b.chars & sp.spectrum(s).proj(s.source(gh))
    return ref_extended(s, gh, chars)


def ref_tilde_star(s, a):
    return ref_extended(s, s.star[a.g], ref_act_mask(s, a.g, a.chars))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_germ_tables_equal_the_table_free_formulas(spec, data):
    s = sg.parse_builder(spec)
    x = sp.spectrum(s)
    draws = [(data.draw(st.integers(0, s.n - 1)), data.draw(st.integers(0, x.full)))
             for _ in range(4)]
    germs = [sp.extended(s, g, mask) for g, mask in draws]
    for _ in range(2):  # the second round reads every table
        for (g, mask), a in zip(draws, germs):
            assert x.act_mask(g, mask) == ref_act_mask(s, g, mask)
            assert sp.extended(s, g, mask) == a == ref_extended(s, g, mask)
            assert sp.extended(s, g) == ref_extended(s, g, x.full)
            assert sp.germ_range(s, a) == ref_act_mask(s, a.g, a.chars)
            assert sp.tilde_star(s, a) == ref_tilde_star(s, a)
            for b in germs:
                assert sp.tilde_mul(s, a, b) == ref_tilde_mul(s, a, b)


GERM_TABLES = ("_act", "_germ", "_mul", "_star")


@pytest.mark.parametrize("spec", SMALL)
def test_each_parse_builder_result_starts_with_empty_tables(spec):
    s = sg.parse_builder(spec)
    a = sp.extended(s, s.n - 1)
    sp.tilde_mul(s, a, sp.tilde_star(s, a))
    assert all(getattr(sp.spectrum(s), t) for t in GERM_TABLES)
    fresh = sg.parse_builder(spec)
    assert fresh._spectrum is None
    assert sp.spectrum(fresh) is not sp.spectrum(s)
    assert all(getattr(sp.spectrum(fresh), t) == {} for t in GERM_TABLES)
