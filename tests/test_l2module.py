from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iskk import l2module as l2
from iskk import semigroup as sg
from iskk import spectrum as sp

CORPUS = ["chain:2", "chain:3", "diamond", "cyclic:2", "cyclic:3", "symmetric:3",
          "brandt_unital:2", "symmetric_inverse:2"]


def inner_oracle(s, g, h):
    """Independent form: gg* . join{1_e : e = e h g*}."""
    x = sp.spectrum(s)
    mask = 0
    for e in sg.iter_mask(sg.nonzero_idempotents(s)):
        if s.mul_many((e, h, s.star[g])) == e:
            mask |= x.proj(e)
    mask &= x.proj(s.range_of(g))
    return sp.alg_star_from_mask(s, mask)


def test_phi_inner_group_identity_gram():
    s = sg.parse_builder("cyclic:2")
    assert l2.phi_inner(s, 0, 0) == (Fraction(1),)
    assert l2.phi_inner(s, 0, 1) == (Fraction(0),)
    gm = l2.gram(s)
    assert gm.at_char(0) == [[1, 0], [0, 1]]


def test_phi_inner_two_chain_frozen_values():
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    pe = sp.proj(s, e)
    assert sp.alg_star_mask(l2.phi_inner(s, 0, e)) == pe
    assert sp.alg_star_mask(l2.phi_inner(s, e, e)) == pe
    assert sp.alg_star_mask(l2.phi_inner(s, 0, 0)) == sp.spectrum(s).full
    gm = l2.gram(s)
    # character generated by the unit does not see e; the other sees both
    assert gm.at_char(0) == [[1, 0], [0, 0]]
    assert gm.at_char(1) == [[1, 1], [1, 1]]


def test_phi_inner_diag_is_range_projection():
    for spec in CORPUS:
        s = sg.parse_builder(spec)
        for g in l2.l2_basis(s):
            assert sp.alg_star_mask(l2.phi_inner(s, g, g)) == sp.proj(s, s.range_of(g))


def test_phi_inner_against_oracle():
    for spec in CORPUS:
        s = sg.parse_builder(spec)
        for g in l2.l2_basis(s):
            for h in l2.l2_basis(s):
                assert l2.phi_inner(s, g, h) == inner_oracle(s, g, h)


def test_phi_inner_bounded_by_ranges():
    for spec in CORPUS:
        s = sg.parse_builder(spec)
        for g in l2.l2_basis(s):
            for h in l2.l2_basis(s):
                m = sp.alg_star_mask(l2.phi_inner(s, g, h))
                assert m & ~sp.proj(s, s.range_of(g)) == 0
                assert m & ~sp.proj(s, s.range_of(h)) == 0


def test_l2_act():
    s = sg.parse_builder("chain:2")
    e = s.index("e1")
    assert l2.l2_act(s, s.unit, {0: 1, e: 2}) == {0: 1, e: 2}
    assert l2.l2_act(s, e, {0: 1}) == {e: 1}
    z2 = sg.parse_builder("cyclic:2")
    assert l2.l2_act(z2, 1, {1: 1}) == {0: 1}


def test_l2_act_drops_zero():
    s = sg.parse_builder("brandt_unital:2")
    g, e22 = s.index("(1,2)"), s.index("(2,2)")
    # (1,2)*(1,1) = 0 is declared zero: the term vanishes
    assert l2.l2_act(s, g, {s.index("(1,1)"): 1}) == {}
    assert l2.l2_act(s, g, {e22: 1}) == {s.index("(1,2)"): 1}


def test_check_psd_and_independence_small():
    for spec in CORPUS:
        s = sg.parse_builder(spec)
        gm = l2.gram(s)
        rep = l2.check_psd(gm)
        assert rep["pass"], (spec, rep)
        ind = l2.check_independence(s)
        assert ind["pass"], (spec, ind)
        assert ind["rank"] == len(l2.l2_basis(s))


def test_psd_numeric_cross_check():
    for spec in ["chain:3", "brandt_unital:2", "symmetric_inverse:2"]:
        s = sg.parse_builder(spec)
        gm = l2.gram(s)
        for pos in range(sp.spectrum(s).size):
            m = np.array(gm.at_char(pos), dtype=float)
            assert np.linalg.eigvalsh(m).min() > -1e-9


def test_psd_certificate_rejects_indefinite():
    from iskk.linalg import psd_certificate

    ok, witness = psd_certificate([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert not ok and witness["kind"] == "zero_diagonal_nonzero_entry"
    ok, witness = psd_certificate([[Fraction(-1)]])
    assert not ok and witness["kind"] == "negative_diagonal"


def test_module_axioms():
    for spec in CORPUS + ["symmetric_inverse:2"]:
        s = sg.parse_builder(spec)
        rep = l2.check_module_axioms(s)
        assert rep["pass"], (spec, rep)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS), st.data())
def test_equivariance_pointwise(spec, data):
    s = sg.parse_builder(spec)
    basis = l2.l2_basis(s)
    j = data.draw(st.integers(0, s.n - 1))
    g = data.draw(st.sampled_from(basis))
    h = data.draw(st.sampled_from(basis))
    lhs = sp.act_alg_star(s, j, l2.phi_inner(s, g, h))
    jg, jh = s.table[j][g], s.table[j][h]
    if jg == s.zero or jh == s.zero:
        rhs = sp.alg_star_from_mask(s, 0)
    else:
        rhs = l2.phi_inner(s, jg, jh)
    assert lhs == rhs


def module_axioms_oracle(s):
    """check_module_axioms compared as functions on the character space,
    every inner product recomputed where it is used."""
    x = sp.spectrum(s)
    basis = l2.l2_basis(s)
    zero = sp.alg_star_from_mask(s, 0)

    def first(triples, bad):
        return next((tuple(s.names[t] for t in tr) for tr in triples if bad(*tr)), None)

    sym = first(((g, h) for g in basis for h in basis),
                lambda g, h: l2.phi_inner(s, g, h) != l2.phi_inner(s, h, g))
    idem = list(sg.iter_mask(sg.nonzero_idempotents(s)))

    def semi_bad(g, h, f):
        fh = s.table[f][h]
        lhs = l2.phi_inner(s, g, fh) if fh != s.zero else zero
        pf = x.proj(f)
        return lhs != tuple(v if pf >> i & 1 else 0 * v
                            for i, v in enumerate(l2.phi_inner(s, g, h)))

    semi = first(((g, h, f) for g in basis for h in basis for f in idem), semi_bad)

    def eq_bad(j, g, h):
        jg, jh = s.table[j][g], s.table[j][h]
        rhs = zero if s.zero in (jg, jh) else l2.phi_inner(s, jg, jh)
        return sp.act_alg_star(s, j, l2.phi_inner(s, g, h)) != rhs

    eq = first(((j, g, h) for j in s.elements() for g in basis for h in basis), eq_bad)
    checks = [{"name": name, "pass": w is None, "witness": w}
              for name, w in (("symmetry", sym), ("module_semilinearity", semi),
                              ("equivariance", eq))]
    return {"check": "module_axioms", "pass": all(c["pass"] for c in checks), "checks": checks}


@pytest.mark.parametrize("spec", CORPUS)
@pytest.mark.parametrize("broken", [None, "flip_one_pair", "add_first_character",
                                    "add_last_character"])
def test_module_axioms_match_the_recomputing_oracle(spec, broken, monkeypatch):
    # broken inner products break each of the three axioms on some specs;
    # the failures and witnesses must match too
    real = l2.phi_mask
    if broken == "flip_one_pair":
        monkeypatch.setattr(l2, "phi_mask", lambda s, g, h: real(s, g, h) ^ (g == 1 and h == 0))
    elif broken == "add_first_character":
        monkeypatch.setattr(l2, "phi_mask", lambda s, g, h: real(s, g, h) | 1)
    elif broken == "add_last_character":
        monkeypatch.setattr(l2, "phi_mask",
                            lambda s, g, h: real(s, g, h) | 1 << sp.spectrum(s).size - 1)
    s = sg.parse_builder(spec)
    assert l2.check_module_axioms(s) == module_axioms_oracle(s)


def test_module_axioms_act_once_per_element_and_distinct_mask(monkeypatch):
    s = sg.parse_builder("product:symmetric_inverse:2*symmetric_inverse:2")
    basis = l2.l2_basis(s)
    distinct = {l2.phi_mask(s, g, h) for g in basis for h in basis}
    calls = []
    real = sp.Spectrum.act_mask

    def counted(self, g, mask):
        calls.append((g, mask))
        return real(self, g, mask)

    monkeypatch.setattr(sp.Spectrum, "act_mask", counted)
    assert l2.check_module_axioms(s)["pass"]
    assert len(calls) == len(set(calls)) == len(s.elements()) * len(distinct)
