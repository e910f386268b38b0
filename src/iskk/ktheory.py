"""K0 of finite-dimensional algebras and the verifiable rank identities.

k0 counts simple blocks over an algebraically closed field via exact center
data. Induced maps between split algebras are trace-normalized multiplicity
matrices. The headline checks: the counterexample values of the failed
adjunction (rank of the scalar line crossed by a semilattice and by the
trivial sub-semigroup), rank-level imprimitivity of induced coefficients, and
the compressed form of the Green-Julg diagram.
"""

from dataclasses import dataclass

from .crossed import crossed, numeric_block_oracle, semisimple_quotient
from .errors import BrokenInvariant, CenterDoesNotSplit, HypothesesNotMet, NonIntegralMultiplicity
from .galgebra import (
    StarHomomorphism,
    _apply,
    _product,
    c0_units,
    direct_sum,
    restrict,
    transport_matrix,
    trivial_algebra,
    trivial_line,
    verify_star_hom,
)
from .induction import assoc_groupoid, build_induced, check, make_report
from .linalg import frac, mat_mul
from .semigroup import FiniteInvSgp, bit, build, iter_mask, mask_of
from .spectrum import spectrum


@dataclass
class K0Group:
    rank: int
    block_dims: list
    method: str

    def to_json(self):
        return {"rank": self.rank, "block_dims": list(self.block_dims), "method": self.method}


@dataclass
class K0Map:
    matrix: list  # integer entries, target blocks x source blocks


def k0(x) -> K0Group:
    d = semisimple_quotient(x)
    if not d.splits and d.quotient_dim:
        oracle = numeric_block_oracle(d)
        if not (oracle["certified"] and oracle["blocks"] == d.blocks):
            raise CenterDoesNotSplit(
                "numeric block certification failed", witness_poly=d.witness_poly
            )
    return K0Group(d.blocks, d.block_dims, d.method)


def _split_block_data(x):
    """semisimple_quotient of x, which must split. It is kept on x, so the
    K0 maps of one diagram decompose each of its algebras once."""
    d = x.__dict__.get("_split_blocks")
    if d is None:
        d = semisimple_quotient(x)
        if not d.splits:
            raise CenterDoesNotSplit(
                "induced K0 maps need a rationally split center", witness_poly=d.witness_poly
            )
        x._split_blocks = d
    return d


def _quotient_map(f: StarHomomorphism, dsrc, ddst):
    """Descend a *-homomorphism to the semisimple quotients, as columns."""
    return transport_matrix(f.cols, [{c: 1} for c in dsrc.radical_space.free], ddst.radical_space,
                            BrokenInvariant("a quotient vector has no class"))


def k0_map(f: StarHomomorphism) -> K0Map:
    """Trace-normalized multiplicity matrix of a *-homomorphism.

    Entry (i, j) is tr(L_{z_i f(z_j)}) / tr(L_{z_i}) over the semisimple
    quotients, read from the ``{col: value}`` central idempotents by the
    sparse kernels; integrality is enforced.
    """
    dsrc = _split_block_data(f.source)
    ddst = _split_block_data(f.target)
    fq = _quotient_map(f, dsrc, ddst)
    traces = ddst.quotient.left_traces()

    def trace(x):  # tr L_x
        return sum(v * traces[l] for l, v in x.items())

    images = [_apply(fq, zj) for zj in dsrc.central_idempotents]
    out = []
    for i, zi in enumerate(ddst.central_idempotents):
        ti = trace(zi)
        row = []
        for j, img in enumerate(images):
            val = trace(_product(ddst.quotient, zi, img))
            m = frac(val, ti)
            if type(m) is not int:
                raise NonIntegralMultiplicity(f"entry ({i},{j}) = {m}")
            if m < 0:
                raise NonIntegralMultiplicity(f"entry ({i},{j}) = {m} negative")
            row.append(m)
        out.append(row)
    return K0Map(out)


# ---------------------------------------------------------------------------
# the Green-Julg style diagram at K0 level


def verify_green_julg_diagram(s: FiniteInvSgp, hprime: int, parts, instance="") -> dict:
    """The scalar line sits inside functions on the sub-semigroup's character
    space as the minimal-idempotent atom, split by evaluation; both maps are
    groupoid-equivariant and compose to the identity on K0. Crossed-product
    K0 is additive over direct sums of coefficients.
    """
    h = assoc_groupoid(s, hprime)
    sp = spectrum(s)
    checks = []

    hidem = [e for e in iter_mask(hprime) if s.is_idempotent(e)]
    bottom = hidem[0]
    for e in hidem[1:]:
        bottom = s.table[bottom][e]
    if bottom == s.zero:
        raise HypothesesNotMet("the minimal idempotent of the sub-semigroup is the declared zero")
    # the atom of the bottom idempotent: all its characters share one signature
    atom_mask = sp.proj(bottom)
    upos = None
    for i, u in enumerate(h.units):
        if u.chars == atom_mask:
            upos = i
    checks.append(check("minimal_atom_is_unit", None if upos is not None else "no such unit"))
    if upos is None:
        return make_report("green-julg-diagram", instance, checks, {})

    cx = c0_units(h)  # functions on the unit space = characters of E(H')
    line = trivial_line(h, upos)
    n = len(h.units)
    f_hom = StarHomomorphism(line, cx, [[(upos, 1)]], label="unit-atom inclusion")
    p_hom = StarHomomorphism(cx, line, [[(0, 1)] if j == upos else [] for j in range(n)],
                             label="unit-atom evaluation")
    rep_f = verify_star_hom(f_hom, equivariant_keys=list(h.elements))
    rep_p = verify_star_hom(p_hom, equivariant_keys=list(h.elements))
    checks.append(check("inclusion_hom", None if rep_f["pass"] else rep_f))
    checks.append(check("evaluation_hom", None if rep_p["pass"] else rep_p))

    mf, mp = k0_map(f_hom).matrix, k0_map(p_hom).matrix
    pf = mat_mul(mp, mf)
    checks.append(check("k0_p_after_f_identity", None if pf == [[1]] else pf))
    fp = mat_mul(mf, mp)
    checks.append(check("k0_f_p_idempotent", None if mat_mul(fp, fp) == fp else fp))
    checks.append(check("k0_identity_on_image", None if mat_mul(fp, mf) == mf else fp))

    # additivity of crossed-product K0 over direct sums of coefficients
    ranks = []
    res_parts = []
    for b in parts:
        d = b if hasattr(b, "gpd") else restrict(b, h)
        res_parts.append(d)
        ranks.append(k0(crossed(d, kind="groupoid")).rank)
    total = k0(crossed(direct_sum(h, res_parts), kind="groupoid")).rank
    checks.append(check("k0_additive_over_sums",
                        None if total == sum(ranks) else f"{total} != {ranks}"))
    return make_report("green-julg-diagram", instance, checks,
                       {"unit_count": n, "part_ranks": ranks, "sum_rank": total})


# ---------------------------------------------------------------------------
# imprimitivity at rank level


def verify_imprimitivity(s: FiniteInvSgp, hprime: int, f, instance="") -> dict:
    """rank K0(Ind(F) x^ G) == rank K0(F x H): the K0 shadow of the
    imprimitivity isomorphism between the tight crossed product of an induced
    algebra and the groupoid crossed product of its coefficient."""
    h = assoc_groupoid(s, hprime)
    d = f if hasattr(f, "gpd") else restrict(f, h)
    ind = build_induced(s, h, d)
    lhs = k0(crossed(ind.galg, kind="sieben"))
    rhs = k0(crossed(d, kind="groupoid"))
    checks = [check("rank_equality",
                    None if lhs.rank == rhs.rank else f"{lhs.rank} != {rhs.rank}")]
    return make_report("imprimitivity-k0", instance, checks,
                       {"lhs_rank": lhs.rank, "rhs_rank": rhs.rank,
                        "lhs_blocks": lhs.block_dims, "rhs_blocks": rhs.block_dims,
                        "ind_dim": ind.dim})


# ---------------------------------------------------------------------------
# the counterexample values


def verify_remark_counterexamples(s: FiniteInvSgp, instance="") -> dict:
    """Three verifiable shadows of the failed induction-restriction adjunction:

    1. when no projection other than the unit is connected to the unit, every
       proper projection annihilates the algebra induced from the trivial
       sub-semigroup (the algebraic germ of the vanishing pairing);
    2. for a semilattice, the scalar line crossed by it has rank = its size;
    3. the tight crossed product over the trivial sub-semigroup has rank 1.
    """
    checks = []
    sp = spectrum(s)

    # hypothesis: g*g = 1 forces gg* = 1
    offenders = [g for g in s.elements() if s.source(g) == s.unit and s.range_of(g) != s.unit]
    hyp_ok = not offenders
    proper = [e for e in iter_mask(s._idem_mask) if e != s.unit]
    if not hyp_ok:
        checks.append(check("vanishing_hypothesis",
                            f"projection {s.names[s.range_of(offenders[0])]} is connected to the unit"))
    elif not proper:
        checks.append(check("vanishing_hypothesis", None,
                            note="inapplicable: no proper projections (group case)"))
    else:
        h = assoc_groupoid(s, bit(s.unit))
        line = trivial_line(h, 0)
        ind = build_induced(s, h, line)
        witness = None
        for p in proper:
            if any(ind.galg.action[p]):
                witness = s.names[p]
                break
        checks.append(check("proper_projections_annihilate", witness))

    if s._idem_mask == mask_of(s.elements()) and s.zero is None:
        rank = k0(crossed(trivial_algebra(s), kind="universal")).rank
        m = sp.size
        checks.append(check("semilattice_rank_is_size",
                            None if rank == s.n == m else f"rank {rank}, size {s.n}"))
    else:
        checks.append(check("semilattice_rank_is_size", None,
                            note="inapplicable: not a zero-free semilattice"))

    triv = build("chain", 1)
    rank1 = k0(crossed(trivial_algebra(triv), kind="sieben")).rank
    checks.append(check("trivial_subsemigroup_rank_one", None if rank1 == 1 else rank1))
    return make_report("remark-counterexamples", instance, checks, {})
