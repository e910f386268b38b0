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


def act_alg_star(s, j, func):
    """Reference action on functions: transport the coefficients of func
    along the partial character map of j."""
    cm = sp.spectrum(s).char_map(j)
    out = [Fraction(0)] * len(func)
    for i, v in enumerate(func):
        if v and i in cm:
            out[cm[i]] += v
    return tuple(out)


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


def dense_psd_certificate(m):
    """Reference pivoted LDL^T that updates whole rows: same pivots, same
    arithmetic on the nonzeros, same witnesses."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    idx = list(range(n))
    for step in range(n):
        piv, best = None, Fraction(0)
        for i in range(step, n):
            d = a[i][i]
            if d < 0:
                return False, {"kind": "negative_diagonal", "index": idx[i], "value": str(d)}
            if d > best:
                piv, best = i, d
        if piv is None:
            for i in range(step, n):
                for j in range(step, n):
                    if a[i][j] != 0:
                        return False, {"kind": "zero_diagonal_nonzero_entry",
                                       "index": (idx[i], idx[j]), "value": str(a[i][j])}
            return True, None
        a[step], a[piv] = a[piv], a[step]
        for row in a:
            row[step], row[piv] = row[piv], row[step]
        idx[step], idx[piv] = idx[piv], idx[step]
        for i in range(step + 1, n):
            f = a[i][step] / a[step][step]
            for j in range(step, n):
                a[i][j] -= f * a[step][j]
    return True, None


def _symmetric(n, entries):
    m = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entries[k]
            k += 1
    return m


small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def symmetric_matrices(draw):
    # "gram": B B^T is PSD, with rank drops and zero rows when B has them;
    # "any": every entry free, so some diagonal is negative or some row
    # is nonzero off a zero diagonal; "zero_diagonal": a zero diagonal
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gram", "any", "zero_diagonal"]))
    if kind == "gram":
        k = draw(st.integers(1, n))
        b = [[draw(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])) for _ in range(k)]
             for _ in range(n)]
        return [[sum((Fraction(x) * y for x, y in zip(bi, bj)), Fraction(0)) for bj in b]
                for bi in b]
    m = _symmetric(n, draw(st.lists(small_fractions, min_size=n * (n + 1) // 2,
                                    max_size=n * (n + 1) // 2)))
    if kind == "zero_diagonal":
        for i in range(n):
            m[i][i] = Fraction(0)
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_psd_certificate_matches_dense_reference(m):
    from iskk.linalg import psd_certificate

    assert psd_certificate(m) == dense_psd_certificate(m)


@pytest.mark.parametrize("m, kind", [
    ([[2, 1, 0], [1, 1, 0], [0, 0, 0]], None),
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], None),
    ([[1, 2], [2, 1]], "negative_diagonal"),           # 1 - 4 < 0 after one step
    ([[1, 0, 0], [0, -1, 0], [0, 0, 3]], "negative_diagonal"),
    ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], "zero_diagonal_nonzero_entry"),
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], "zero_diagonal_nonzero_entry"),
])
def test_psd_certificate_cases_match_dense_reference(m, kind):
    from iskk.linalg import psd_certificate

    m = [[Fraction(x) for x in row] for row in m]
    ok, witness = psd_certificate(m)
    assert (ok, witness) == dense_psd_certificate(m)
    assert ok == (kind is None) and (witness or {}).get("kind") == kind


def test_psd_certificate_witnesses_over_random_draws_cover_every_kind():
    # seeded draws of free and zero-diagonal matrices reach all three outcomes
    import random

    from iskk.linalg import psd_certificate

    rng = random.Random(0)
    kinds = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        m = _symmetric(n, [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                           for _ in range(n * (n + 1) // 2)])
        if rng.random() < 0.3:
            for i in range(n):
                m[i][i] = Fraction(0)
        ok, witness = psd_certificate(m)
        assert (ok, witness) == dense_psd_certificate(m)
        kinds.add(witness["kind"] if witness else None)
    assert kinds == {None, "negative_diagonal", "zero_diagonal_nonzero_entry"}


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
    lhs = act_alg_star(s, j, l2.phi_inner(s, g, h))
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
        return act_alg_star(s, j, l2.phi_inner(s, g, h)) != rhs

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
