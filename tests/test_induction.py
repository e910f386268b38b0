import pytest

from iskk import galgebra as ga
from iskk import induction as ind
from iskk import semigroup as sg
from iskk import spectrum as sp
from iskk.errors import BrokenInvariant, ChainTooLong, NotEUnitary, NotSubsemigroup
from test_kernels import dense_action, dense_columns, identity


def two_chain():
    return sg.parse_builder("chain:2")


def test_assoc_groupoid_trivial():
    s = two_chain()
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    assert len(h.elements) == 1 and len(h.units) == 1
    assert h.units[0].chars == sp.spectrum(s).full


def test_assoc_groupoid_two_chain():
    s = two_chain()
    h = ind.assoc_groupoid(s, 0b11)
    # atoms {proj(e)} and its complement; the germ of e collapses to a unit
    assert len(h.elements) == 2
    assert len(h.units) == 2
    masks = sorted(u.chars for u in h.units)
    pe = sp.proj(s, s.index("e1"))
    assert masks == sorted([pe, sp.spectrum(s).full & ~pe])


def test_assoc_groupoid_group_inside():
    s = sg.parse_builder("symmetric_inverse:2")
    tau = s.index("[1>2,2>1]")
    h = ind.assoc_groupoid(s, sg.generate(s, sg.bit(tau)))
    assert len(h.units) == 1
    assert len(h.elements) == 2  # a one-unit copy of the two-element group


def test_assoc_groupoid_rejects_non_subsemigroup():
    s = sg.parse_builder("symmetric_inverse:2")
    g = s.index("[1>2]")
    with pytest.raises(NotSubsemigroup):
        ind.assoc_groupoid(s, sg.bit(s.unit) | sg.bit(g))


def test_compute_gh_remark_case():
    s = two_chain()
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    gh = ind.compute_GH(s, h)
    assert len(gh.points) == 1 and gh.orbit_count() == 1


def test_compute_gh_group_case():
    s = sg.parse_builder("cyclic:3")
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    gh = ind.compute_GH(s, h)
    assert len(gh.points) == 3 and gh.orbit_count() == 3


def test_compute_gh_brute_force_cross_check():
    # orbits coincide with brute-force equivalence x ~ y iff exists t: xt = y
    for spec, sub in [("symmetric_inverse:2", "idempotents"),
                      ("brandt_unital:2", "idempotents"),
                      ("chain:3", "all")]:
        s = sg.parse_builder(spec)
        h = ind.assoc_groupoid(s, sg.parse_subset(s, sub))
        gh = ind.compute_GH(s, h)
        pts = gh.points
        for x in pts:
            for y in pts:
                related = any(
                    not sp.tilde_mul(s, x, t).is_zero() and sp.tilde_mul(s, x, t) == y
                    for t in h.elements
                )
                assert related == (gh.orbit_of[x] == gh.orbit_of[y]) or not related


def test_unit_pos_of_a_non_unit_mask_is_a_typed_error():
    s = two_chain()
    h = ind.assoc_groupoid(s, 0b11)
    full = sp.spectrum(s).full
    assert full not in {u.chars for u in h.units}
    with pytest.raises(BrokenInvariant) as err:
        h.unit_pos_of_mask(full)
    assert err.value.witness == {"mask": full}


def _gh_unfiltered(s, h, within=None):
    # compute_GH with the union over every germ of the groupoid
    spc = sp.spectrum(s)
    pool = sg.iter_mask(within) if within is not None else s.elements()
    points = sorted({sp.extended(s, g, u.chars) for g in pool for u in h.units
                     if u.chars & ~spc.proj(s.source(g)) == 0}, key=sp.germ_key)
    orbit = {x: {x} for x in points}
    for x in points:
        for t in h.elements:
            y = sp.tilde_mul(s, x, t)
            if not y.is_zero() and y in orbit and orbit[y] is not orbit[x]:
                merged = orbit[x] | orbit[y]
                for z in merged:
                    orbit[z] = merged
    reps = sorted({min(o, key=sp.germ_key) for o in orbit.values()}, key=sp.germ_key)
    orbit_of = {x: reps.index(min(orbit[x], key=sp.germ_key)) for x in points}
    transfer = {x: sp.tilde_mul(s, sp.tilde_star(s, reps[orbit_of[x]]), x) for x in points}
    return points, orbit_of, reps, transfer


def _m_unfiltered(s, lset, g, u):
    # _split_class's M = lcut & gug, with g.w.g* formed for every germ w of U
    rng = sp.germ_range(s, g)
    u_r = sp.tilde_unit(s, rng)
    lcut = {x for l in sg.iter_mask(lset)
            for x in [sp.tilde_mul(s, sp.tilde_mul(s, u_r, sp.extended(s, l)), u_r)]
            if not x.is_zero() and x.chars == rng}
    gug = {x for w in u.elements
           for x in [sp.tilde_mul(s, sp.tilde_mul(s, g, w), sp.tilde_star(s, g))]
           if not x.is_zero()}
    return sorted(lcut & gug, key=sp.germ_key)


def _gh_fields(gh):
    return gh.points, gh.orbit_of, gh.reps, gh.transfer


# the builders of the induction-lemmas benchmark workload, and I2
@pytest.mark.parametrize("spec", ["symmetric_inverse:2", "brandt_unital:3",
                                  "product:symmetric_inverse:2*chain:2", "symmetric_inverse:3",
                                  "product:symmetric_inverse:2*symmetric_inverse:2"])
def test_germ_loops_skip_only_zero_products(spec, monkeypatch):
    # compute_GH pairs a point only with the germs ranging onto its unit, and
    # _split_class conjugates only the isotropy at g's source; every skipped
    # product is 0, so both agree with the loops over all germs
    s = sg.parse_builder(spec)
    for sub in ("idempotents", "all"):
        h = ind.assoc_groupoid(s, sg.parse_subset(s, sub))
        assert _gh_fields(ind.compute_GH(s, h)) == _gh_unfiltered(s, h)
    d = ga.c0x_algebra(s)
    split_class, seen = ind._split_class, []

    def recording_split(s_, lset_, g_ext, d_, ind_u, shapes, instance=""):
        out = split_class(s_, lset_, g_ext, d_, ind_u, shapes, instance)
        seen.append((lset_, g_ext, ind_u, out))
        return out

    monkeypatch.setattr(ind, "_split_class", recording_split)
    for lset in ("unit", "all"):
        rep = ind.res_ind_split(s, sg.idempotents(s), sg.parse_subset(s, lset), d)[3]
        assert rep["pass"], rep
    assert seen
    for lset, g_ext, ind_u, (m, lprime, _, _) in seen:
        assert m == _m_unfiltered(s, lset, g_ext, ind_u.gh.gpd)
        assert _gh_fields(ind_u.gh) == _gh_unfiltered(s, ind_u.gh.gpd)
        m_gpd = ind.groupoid_from_elements(s, m)
        assert _gh_fields(ind.compute_GH(s, m_gpd, lprime)) == _gh_unfiltered(s, m_gpd, lprime)


def test_build_induced_remark_two_chain():
    # inducing the scalar line from the trivial sub-semigroup of the 2-chain
    # gives a line on which the proper idempotent acts as zero
    s = two_chain()
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    line = ga.trivial_line(h, 0)
    built = ind.build_induced(s, h, line)
    assert built.dim == 1
    e = s.index("e1")
    assert dense_action(built.galg.action[e]) == [[0]]
    assert ga.validate_g_algebra(built.galg)["pass"]


def test_build_induced_group_translation():
    # inducing the line from the trivial subgroup of a group yields functions
    # on the group with the translation action
    s = sg.parse_builder("cyclic:3")
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    line = ga.trivial_line(h, 0)
    built = ind.build_induced(s, h, line)
    assert built.dim == 3
    rep = ga.validate_g_algebra(built.galg)
    assert rep["pass"]
    m = dense_action(built.galg.action[1])
    assert sorted(sum(1 for v in row if v) for row in m) == [1, 1, 1]
    assert m != identity(3)


def test_build_induced_units_coefficient():
    s = sg.parse_builder("brandt_unital:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    cx = ga.c0_units(h)
    built = ind.build_induced(s, h, cx)
    assert built.dim == 5
    assert ga.validate_g_algebra(built.galg)["pass"]


def test_induced_direct_sum_intertwines():
    s = sg.parse_builder("symmetric_inverse:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    cx = ga.c0_units(h)
    line = ga.trivial_line(h, 0)
    both = ga.direct_sum(h, [cx, line])
    ind_both = ind.build_induced(s, h, both)
    ind_cx = ind.build_induced(s, h, cx)
    ind_line = ind.build_induced(s, h, line)
    assert ind_both.dim == ind_cx.dim + ind_line.dim
    # identify blockwise: an explicit permutation, one unit column per basis
    # vector of the sum, is an equivariant iso
    perm = []
    for part, offset in ((ind_cx, 0), (ind_line, cx.dim)):
        for (r, upos, fib, off) in part.blocks:
            both_block = next(b for b in ind_both.blocks if b[0] == r)
            for slot, didx in enumerate(fib):
                perm.append([(both_block[3] + both_block[2].index(didx + offset), 1)])
    assert sorted(perm) == ga._identity(ind_both.dim)
    hom = ga.StarHomomorphism(
        ga.direct_sum(s, [ind_cx.galg, ind_line.galg]),
        ind_both.galg, perm)
    rep = ga.verify_star_hom(hom, equivariant_keys=list(s.elements()))
    assert rep["pass"], rep


def test_induced_split_exactness():
    # split exact 0 -> line_a -> line_a + line_b -> line_b -> 0 stays split
    s = sg.parse_builder("brandt_unital:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    a = ga.trivial_line(h, 0)
    b = ga.trivial_line(h, 1)
    d = ga.direct_sum(h, [a, b])
    inc = ga.StarHomomorphism(a, d, dense_columns([[1], [0]], 1))
    quo = ga.StarHomomorphism(d, b, dense_columns([[0, 1]], 2))
    sec = ga.StarHomomorphism(b, d, dense_columns([[0], [1]], 1))
    ia, idd, ib = (ind.build_induced(s, h, x) for x in (a, d, b))
    inc_i = ind.induce_hom(inc, ia, idd)
    quo_i = ind.induce_hom(quo, idd, ib)
    sec_i = ind.induce_hom(sec, ib, idd)
    assert ia.dim + ib.dim == idd.dim
    assert ga._compose(quo_i.cols, inc_i.cols) == [[]] * ia.dim
    assert ga._compose(quo_i.cols, sec_i.cols) == ga._identity(ib.dim)
    from iskk.linalg import rank

    assert rank([dict(col) for col in inc_i.cols], idd.dim) == ia.dim


def test_induce_hom_functorial():
    s = sg.parse_builder("chain:3")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    cx = ga.c0_units(h)
    two = ga.direct_sum(h, [cx, cx])
    indc = ind.build_induced(s, h, cx)
    ind2 = ind.build_induced(s, h, two)
    n = len(h.units)
    # fold: (x, y) -> x + y, and the first inclusion
    fold = ga.StarHomomorphism(two, cx, dense_columns([[1 if j % n == i else 0 for j in range(2 * n)]
                                                       for i in range(n)], 2 * n))
    inc = ga.StarHomomorphism(cx, two, dense_columns([[1 if i == j else 0 for j in range(n)]
                                                      for i in range(2 * n)], n))
    f1 = ind.induce_hom(inc, indc, ind2)
    f2 = ind.induce_hom(fold, ind2, indc)
    composed = ga._compose(f2.cols, f1.cols)
    direct = ind.induce_hom(
        ga.StarHomomorphism(cx, cx, ga._compose(fold.cols, inc.cols)), indc, indc
    )
    assert composed == direct.cols
    ident = ind.induce_hom(ga.StarHomomorphism(cx, cx, ga._identity(n)), indc, indc)
    assert ident.cols == ga._identity(indc.dim)


# -- the worked isomorphism suites -------------------------------------------


def test_theta_res_ind_group_trivial():
    s = sg.parse_builder("cyclic:2")
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    rep = ind.theta_res_ind(s, h, ga.trivial_algebra(s), "Z2/{1}/C")
    assert rep["pass"], rep
    assert rep["dims"]["ind"] == 2


def test_theta_res_ind_two_chain_c0x():
    s = two_chain()
    h = ind.assoc_groupoid(s, 0b11)
    rep = ind.theta_res_ind(s, h, ga.c0x_algebra(s), "2chain/E/C0X")
    assert rep["pass"], rep
    assert rep["dims"]["ind"] == 2 and rep["dims"]["target"] == 2


def test_theta_res_ind_i2_idempotents():
    s = sg.parse_builder("symmetric_inverse:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    rep = ind.theta_res_ind(s, h, ga.c0x_algebra(s), "I2/E/C0X")
    assert rep["pass"], rep
    assert rep["dims"]["ind"] == rep["dims"]["target"]


def test_theta_res_ind_more_instances():
    for spec, sub in [("brandt_unital:2", "idempotents"),
                      ("symmetric:3", "unit"),
                      ("diamond", "generate:a")]:
        s = sg.parse_builder(spec)
        h = ind.assoc_groupoid(s, sg.parse_subset(s, sub))
        rep = ind.theta_res_ind(s, h, ga.c0x_algebra(s), f"{spec}/{sub}")
        assert rep["pass"], (spec, rep)


def test_theta_tensor_reduces_to_res_ind():
    # with the unit-space algebra as first factor the tensor clause is the
    # plain clause: source dimensions agree with the plain isomorphism
    s = two_chain()
    h = ind.assoc_groupoid(s, 0b11)
    units = ga.c0_units(h)
    rep = ind.theta_res_ind_tensor(s, h, units, ga.c0x_algebra(s), "2chain/units-as-C/C0X")
    assert rep["pass"], rep
    base = ind.theta_res_ind(s, h, ga.c0x_algebra(s))
    assert rep["dims"]["src"] == base["dims"]["ind"]
    # the restricted scalar line also passes, on its smaller carrier
    line = ga.restrict(ga.trivial_algebra(s), h)
    rep2 = ind.theta_res_ind_tensor(s, h, line, ga.c0x_algebra(s), "2chain/resC/C0X")
    assert rep2["pass"], rep2


def test_theta_tensor_two_chain_per_unit_line():
    s = two_chain()
    h = ind.assoc_groupoid(s, 0b11)
    a = ga.c0_units(h)
    rep = ind.theta_res_ind_tensor(s, h, a, ga.c0x_algebra(s), "2chain/units/C0X")
    assert rep["pass"], rep


def test_theta_tensor_i2_with_complement_dims():
    s = sg.parse_builder("symmetric_inverse:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    a = ga.c0_units(h)
    b = ga.c0x_algebra(s)
    rep = ind.theta_res_ind_tensor(s, h, a, b, "I2/units/C0X")
    assert rep["pass"], rep
    assert rep["dims"]["corner"] + rep["dims"]["complement"] == rep["dims"]["tensor"]


def test_central_decomp_group_full():
    s = sg.parse_builder("cyclic:2")
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    a = ga.c0_units(h)
    b = ga.trivial_algebra(s)
    p, (cdim, comp), rep, _, big = ind.central_decomp_tensor(s, h, a, b, "Z2")
    assert rep["pass"]
    assert comp == 0 and cdim == big.dim  # group: every range is full


def test_central_decomp_two_chain_rank():
    # over the full idempotent sub-semigroup the restricted scalar line gives a
    # rank-1 projection on the 2-dimensional tensor
    s = two_chain()
    h = ind.assoc_groupoid(s, 0b11)
    a = ga.restrict(ga.trivial_algebra(s), h)
    b = ga.c0x_algebra(s)
    p, (cdim, comp), rep, ia, big = ind.central_decomp_tensor(s, h, a, b, "2chain")
    assert rep["pass"]
    assert (cdim, comp) == (1, 1)


# -- splitting lemmas ---------------------------------------------------------


def test_technical_split_full_group():
    s = sg.parse_builder("cyclic:3")
    allmask = sg.mask_of(s.elements())
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    gh = ind.compute_GH(s, h)
    g_ext = gh.reps[0]
    m, lp, theta, rep = ind.technical_split(s, sg.bit(s.unit), allmask, g_ext,
                                            ga.trivial_algebra(s), "Z3 full")
    assert rep["pass"], rep
    assert len(m) == 1  # the one-unit isotropy of the trivial groupoid
    assert rep["dims"]["carrier"] == 3


def test_technical_split_trivial_l():
    s = sg.parse_builder("cyclic:3")
    h = ind.assoc_groupoid(s, sg.bit(s.unit))
    gh = ind.compute_GH(s, h)
    g_ext = gh.reps[1]
    m, lp, theta, rep = ind.technical_split(s, sg.bit(s.unit), sg.bit(s.unit), g_ext,
                                            ga.trivial_algebra(s), "Z3 point")
    assert rep["pass"], rep
    assert rep["dims"]["carrier"] == 1


def test_technical_split_empty_m():
    # an L without the ambient unit whose domain misses the class: empty map
    s = sg.parse_builder("brandt_unital:2")
    e11 = s.index("(1,1)")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    gh = ind.compute_GH(s, h)
    g22 = next(x for x in gh.points
               if sp.germ_range(s, x) == sp.proj(s, s.index("(2,2)"))
               and sp.germ_source(x) == sp.proj(s, s.index("(2,2)")))
    m, lp, theta, rep = ind.technical_split(s, sg.idempotents(s), sg.bit(e11), g22,
                                            ga.c0x_algebra(s), "disconnected")
    assert rep.get("empty") is True
    assert theta is None
    assert m == []


def test_res_ind_split_classical_cosets():
    # subgroup of a group against the trivial compact sub-semigroup:
    # classes are the left cosets
    s = sg.parse_builder("symmetric:3")
    rot = next(g for g in s.elements() if s.names[g] == "231")
    l = sg.generate(s, sg.bit(rot))  # A3, three elements
    j, summands, hom, rep = ind.res_ind_split(s, sg.bit(s.unit), l,
                                              ga.trivial_algebra(s), "S3/A3")
    assert rep["pass"], rep
    assert len(j) == 2  # |A3 \ S3| cosets
    assert rep["dims"]["res_ind_res"] == 6
    assert sorted(rep["dims"]["summands"]) == [3, 3]


def test_res_ind_split_two_chain():
    s = two_chain()
    j, summands, hom, rep = ind.res_ind_split(s, 0b11, sg.bit(s.unit),
                                              ga.c0x_algebra(s), "2chain/E/L=1")
    assert rep["pass"], rep
    assert sum(rep["dims"]["summands"]) == rep["dims"]["res_ind_res"]


def test_res_ind_split_i2():
    s = sg.parse_builder("symmetric_inverse:2")
    tau = s.index("[1>2,2>1]")
    l = sg.generate(s, sg.bit(tau))
    j, summands, hom, rep = ind.res_ind_split(s, sg.idempotents(s), l,
                                              ga.c0x_algebra(s), "I2/E/<tau>")
    assert rep["pass"], rep
    assert sum(rep["dims"]["summands"]) == rep["dims"]["res_ind_res"]


def test_res_ind_split_brandt():
    s = sg.parse_builder("brandt_unital:2")
    j, summands, hom, rep = ind.res_ind_split(s, sg.idempotents(s), sg.bit(s.unit),
                                              ga.c0x_algebra(s), "B21/E/L=1")
    assert rep["pass"], rep
    assert sum(rep["dims"]["summands"]) == rep["dims"]["res_ind_res"]


def test_res_ind_split_full_l():
    s = sg.parse_builder("symmetric_inverse:2")
    allmask = sg.mask_of(s.elements())
    j, summands, hom, rep = ind.res_ind_split(s, sg.idempotents(s), allmask,
                                              ga.c0x_algebra(s), "I2/E/L=G")
    assert rep["pass"], rep


@pytest.mark.parametrize("spec", ["symmetric_inverse:2", "symmetric_inverse:3", "brandt_unital:3"])
@pytest.mark.parametrize("lset", ["unit", "all"])
def test_res_ind_split_classes_match_standalone_technical_split(spec, lset, monkeypatch):
    # res_ind_split induces once and builds each class shape (M, L') once;
    # each class must come out exactly as a technical_split call that builds
    # its own
    s = sg.parse_builder(spec)
    d = ga.c0x_algebra(s)
    hprime, l = sg.idempotents(s), sg.parse_subset(s, lset)
    calls = {"build_induced": 0, "split": []}
    split_class, build_induced = ind._split_class, ind.build_induced

    def counting_build(*args, **kwargs):
        calls["build_induced"] += 1
        return build_induced(*args, **kwargs)

    def recording_split(s_, lset_, g_ext, d_, ind_u, shapes, instance=""):
        out = split_class(s_, lset_, g_ext, d_, ind_u, shapes, instance)
        calls["split"].append((g_ext, instance, out))
        return out

    monkeypatch.setattr(ind, "build_induced", counting_build)
    monkeypatch.setattr(ind, "_split_class", recording_split)
    j, summands, hom, rep = ind.res_ind_split(s, hprime, l, d, "hoisted")
    monkeypatch.undo()
    assert rep["pass"], rep
    assert len(calls["split"]) == len(j) == rep["dims"]["classes"]
    # one induction of the whole restriction plus one per class shape
    shapes = {(tuple(m), lprime) for _, _, (m, lprime, _, _) in calls["split"]}
    assert calls["build_induced"] == 1 + len(shapes)
    # classes of one shape share one summand algebra, and no other class has it
    sources = {}
    for _, _, (m, lprime, theta, _) in calls["split"]:
        assert sources.setdefault((tuple(m), lprime), theta.source) is theta.source
    assert len({id(src) for src in sources.values()}) == len(shapes)
    for g_ext, instance, (m, lprime, theta, class_rep) in calls["split"]:
        m2, lprime2, theta2, rep2 = ind.technical_split(s, hprime, l, g_ext, d, instance)
        assert (m, lprime, class_rep) == (m2, lprime2, rep2)
        assert theta.cols == theta2.cols
        assert theta.source.alg.mul == theta2.source.alg.mul
        assert theta.source.action == theta2.source.action


# -- iterated decompositions --------------------------------------------------


def test_ci0_length_one():
    s = two_chain()
    pairs, rep = ind.ci0_enumerate(s, [0b11], "2chain n=1")
    assert rep["pass"]
    assert len(pairs) == 1


def test_ci0_two_chain_depth_two():
    s = two_chain()
    pairs, rep, live = ind._ci0_tower(s, [0b11, 0b11], "2chain n=2")
    assert rep["pass"], rep
    assert sum(p[1].dim for p in pairs) == sum(rep["dims"]["summands"])
    tower = live["tower"]
    assert sum(rep["dims"]["ind_summands"]) == tower.dim
    for h2, b in pairs:
        assert b.alg.is_commutative()
    # oracle: minimal invariant ideals of the tower match the induced summands
    oracle = ind.minimal_invariant_ideal_dims(tower.galg)
    got = sorted(
        d for p in live["per_part"] for d in ind.minimal_invariant_ideal_dims(p.galg)
    )
    assert oracle == got


def test_ci0_i2_depth_two():
    s = sg.parse_builder("symmetric_inverse:2")
    chain_sub = sg.generate(s, sg.bit(s.index("[1>1]")))
    pairs, rep, live = ind._ci0_tower(s, [chain_sub, chain_sub], "I2 n=2")
    assert rep["pass"], rep
    for h2, b in pairs:
        assert b.alg.is_commutative()
    tower = live["tower"]
    oracle = ind.minimal_invariant_ideal_dims(tower.galg)
    got = sorted(
        d for p in live["per_part"] for d in ind.minimal_invariant_ideal_dims(p.galg)
    )
    assert oracle == got


def test_ci0_too_long():
    s = two_chain()
    with pytest.raises(ChainTooLong):
        ind.ci0_enumerate(s, [0b11] * 4)


# -- the refinement lemma ------------------------------------------------------


def test_bprime_no_refinement():
    # P inside the idempotents of L already: single copies, B' recovers B
    s = two_chain()
    e = s.index("e1")
    lset = 0b11
    a = ga.from_points(s, 2, {0: {0: 0, 1: 1}, e: {0: 0}})
    b = ga.c0x_algebra(s)
    bp, info, rep = ind.build_bprime(s, lset, sg.bit(e), a, b, "no refinement")
    assert rep["pass"], rep
    assert bp.dim == b.dim
    assert info["copies"] == [1] * info["coarse_classes"]


def test_bprime_trivial_coefficient():
    s = two_chain()
    a = ga.trivial_algebra(s)
    b = ga.c0x_algebra(s)
    bp, info, rep = ind.build_bprime(s, sg.bit(s.unit), 0, a, b, "A=C")
    assert rep["pass"], rep
    assert bp.dim == b.dim  # single coarse class holding everything


def test_bprime_refinement_doubles_block():
    # L = {1}: one coarse class; P = {e}: the coefficient plane splits into
    # two refined classes, so B' doubles B
    s = two_chain()
    e = s.index("e1")
    a = ga.from_points(s, 2, {0: {0: 0, 1: 1}, e: {0: 0}})
    assert ga.validate_g_algebra(a)["pass"]
    b = ga.c0x_algebra(s)
    bp, info, rep = ind.build_bprime(s, sg.bit(s.unit), sg.bit(e), a, b, "doubling")
    assert rep["pass"], rep
    assert info["coarse_classes"] == 1
    assert info["copies"] == [2]
    assert bp.dim == 2 * b.dim


def test_bprime_requires_e_unitary():
    s = sg.parse_builder("symmetric_inverse:2")
    tau = s.index("[1>2,2>1]")
    lset = sg.generate(s, sg.bit(tau))
    e = s.index("[1>1]")
    a = ga.trivial_algebra(s)
    with pytest.raises(NotEUnitary):
        # tau with the partial identities generates a non-E-unitary monoid
        ind.build_bprime(s, lset, sg.bit(e), a, ga.c0x_algebra(s))


def test_balanced_tensor_rejects_different_groupoids():
    from iskk.errors import BaseMismatch

    s = sg.parse_builder("chain:2")
    h1 = ind.assoc_groupoid(s, sg.idempotents(s))
    h2 = ind.assoc_groupoid(s, sg.idempotents(s))
    with pytest.raises(BaseMismatch):
        ind.h_balanced_tensor(ga.c0_units(h1), ga.c0_units(h2))
    with pytest.raises(BaseMismatch):
        ga.direct_sum(h1, [ga.c0_units(h1), ga.c0_units(h2)])


def test_balanced_tensor_keeps_pairs_over_one_unit():
    s = sg.parse_builder("brandt_unital:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    a = ga.direct_sum(h, [ga.c0_units(h), ga.trivial_line(h, 0)])
    b = ga.c0_units(h)
    t = ind.h_balanced_tensor(a, b)
    assert t.pairs == [(i, j) for i in range(a.dim) for j in range(b.dim)
                       if a.unit_of_basis[i] == b.unit_of_basis[j]]
    assert ga.validate_h_algebra(t)["pass"]
