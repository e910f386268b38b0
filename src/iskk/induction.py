"""Associated groupoids, induced algebras, and the splitting isomorphisms.

The central objects: the finite groupoid attached to a finite
sub-inverse-semigroup (germs of its elements at the atoms of its idempotent
Boolean algebra), the orbit space of germs it acts on, induced coefficient
algebras with their translation action, and mechanically verified
isomorphisms between restricted/induced compositions.

Every verification routine returns a JSON-ready report
{"lemma", "instance", "checks": [{name, pass, witness?}], "dims"} and never
hides a failure inside an assertion.
"""

from dataclasses import dataclass

from .errors import (
    BaseMismatch,
    BrokenInvariant,
    ChainTooLong,
    DependentVector,
    InvalidAction,
    InvalidCoefficientAlgebra,
    NotEquivariant,
    NotEUnitary,
    NotSubsemigroup,
)
from .galgebra import (
    GAlgebra,
    HAlgebra,
    StarAlgebra,
    StarHomomorphism,
    _apply,
    _bijective,
    _complement,
    _compose,
    _coords,
    _fiber_rebase,
    _first_failure,
    _identity,
    _product,
    _sum,
    central_multiplier_failures,
    corner,
    direct_sum,
    restrict,
    star_sum,
    subalgebra_on_projection,
    tensor_g,
    transport_matrix,
    trivial_algebra,
    validate_g_algebra,
    verify_star_hom,
)
from .linalg import Basis, Span
from .semigroup import (
    FiniteInvSgp,
    check_subsemigroup,
    generate,
    is_e_unitary,
    iter_mask,
    mask_of,
)
from .spectrum import (
    ExtendedElement,
    extended,
    germ_is_unit,
    germ_key,
    germ_range,
    germ_source,
    spectrum,
    tilde_mul,
    tilde_star,
    tilde_unit,
)


def make_report(lemma, instance, checks, dims=None):
    return {
        "lemma": lemma,
        "instance": instance,
        "checks": checks,
        "dims": dims or {},
        "pass": all(c["pass"] for c in checks),
    }


def check(name, witness=None, **extra):
    c = {"name": name, "pass": witness is None, "witness": witness}
    c.update(extra)
    return c


# ---------------------------------------------------------------------------
# finite groupoids inside the extended semigroup


@dataclass(frozen=True)
class FiniteGroupoid:
    sgp: FiniteInvSgp
    elements: tuple  # canonical ExtendedElements, sorted
    units: tuple     # the idempotent members, sorted
    from_subset: int | None = None  # generating sub-inverse-semigroup, if any

    def unit_pos_of_mask(self, mask: int) -> int:
        for i, u in enumerate(self.units):
            if u.chars == mask:
                return i
        raise BrokenInvariant(f"no groupoid unit with character mask {mask:#x}",
                              witness={"mask": mask})


def groupoid_from_elements(s: FiniteInvSgp, elems, from_subset=None) -> FiniteGroupoid:
    """Close the germ-set checks and package a groupoid; units must be disjoint."""
    elems = sorted(set(elems), key=germ_key)
    eset = set(elems)
    units = []
    for x in elems:
        if x.is_zero():
            raise NotSubsemigroup("groupoid contains the zero germ", witness=x)
        sx = tilde_mul(s, tilde_star(s, x), x)
        rx = tilde_mul(s, x, tilde_star(s, x))
        if sx not in eset or rx not in eset:
            raise NotSubsemigroup("groupoid misses a source/range unit", witness=x)
        if tilde_star(s, x) not in eset:
            raise NotSubsemigroup("groupoid not closed under inversion", witness=x)
        if germ_is_unit(s, x):
            units.append(x)
        for y in elems:
            prod = tilde_mul(s, x, y)
            if not prod.is_zero() and prod not in eset:
                raise NotSubsemigroup("groupoid not closed under products", witness=(x, y))
    seen = 0
    for u in units:
        if seen & u.chars:
            raise NotSubsemigroup("groupoid units overlap", witness=u)
        seen |= u.chars
    return FiniteGroupoid(s, tuple(elems), tuple(units), from_subset)


def assoc_groupoid(s: FiniteInvSgp, hprime: int) -> FiniteGroupoid:
    """Germs of a finite sub-inverse-semigroup at the atoms of its idempotent
    Boolean algebra: {h restricted to an atom below h*h}."""
    check_subsemigroup(s, hprime)
    sp = spectrum(s)
    hidem = [e for e in iter_mask(hprime) if s.is_idempotent(e)]
    # atoms: character classes with equal membership signature over E(H')
    sigs = {}
    for pos in range(sp.size):
        sig = tuple(sp.char_value(pos, e) for e in hidem)
        sigs.setdefault(sig, 0)
        sigs[sig] |= 1 << pos
    atoms = sorted(sigs.values())
    elems = set()
    for h in iter_mask(hprime):
        dom = sp.proj(s.source(h))
        for atom in atoms:
            if atom & ~dom == 0:
                elems.add(extended(s, h, atom))
    return groupoid_from_elements(s, elems, from_subset=hprime)


# ---------------------------------------------------------------------------
# the germ space a groupoid acts on


@dataclass
class GHSpace:
    sgp: FiniteInvSgp
    gpd: FiniteGroupoid
    points: list          # canonical germs (g, unit-atom), sorted
    orbit_of: dict        # point -> orbit index
    reps: list            # orbit index -> least point
    transfer: dict        # point -> t in the groupoid with point = rep . t

    def orbit_count(self):
        return len(self.reps)


def compute_GH(s: FiniteInvSgp, h: FiniteGroupoid, within: int | None = None) -> GHSpace:
    """Points {g restricted to a groupoid unit : unit <= g*g} with the right
    translation orbits, least-lexicographic representatives and transfer germs."""
    sp = spectrum(s)
    pool = iter_mask(within) if within is not None else s.elements()
    points = set()
    for g in pool:
        dom = sp.proj(s.source(g))
        for u in h.units:
            if u.chars & ~dom == 0:
                points.add(extended(s, g, u.chars))
    points = sorted(points, key=germ_key)
    pset = set(points)
    parent = {x: x for x in points}
    by_range = {}
    for t in h.elements:
        by_range.setdefault(germ_range(s, t), []).append(t)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in points:
        # units are disjoint, so x.t != 0 only when t ranges onto x's unit
        for t in by_range.get(x.chars, ()):
            y = tilde_mul(s, x, t)
            if not y.is_zero() and y in pset:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry, key=germ_key)] = min(rx, ry, key=germ_key)
    orbits = {}
    for x in points:
        orbits.setdefault(find(x), []).append(x)
    reps = sorted((min(v, key=germ_key) for v in orbits.values()), key=germ_key)
    orbit_of, transfer = {}, {}
    hset = set(h.elements)
    for idx, r in enumerate(reps):
        for x in orbits[find(r)]:
            orbit_of[x] = idx
            t = tilde_mul(s, tilde_star(s, r), x)
            if t not in hset or tilde_mul(s, r, t) != x:
                raise BrokenInvariant("no groupoid germ carries an orbit's representative to its point",
                                      witness={"rep": r, "point": x, "transfer": t})
            transfer[x] = t
    return GHSpace(s, h, points, orbit_of, reps, transfer)


# ---------------------------------------------------------------------------
# induced algebras


@dataclass
class InducedAlgebra:
    galg: GAlgebra
    gh: GHSpace
    coeff: HAlgebra
    blocks: list  # per orbit: (rep, unit_pos, coeff basis indices, offset)

    @property
    def dim(self):
        return self.galg.dim


def build_induced(s: FiniteInvSgp, h: FiniteGroupoid, d: HAlgebra,
                  within: int | None = None, label="") -> InducedAlgebra:
    """Equivariant coefficient functions on the germ space: one free value per
    orbit representative in the fiber of its source unit, translated by g."""
    gh = compute_GH(s, h, within)
    blocks = []
    offset = 0
    for idx, r in enumerate(gh.reps):
        upos = h.unit_pos_of_mask(germ_source(r))
        fib = d.fiber_indices(upos)
        blocks.append((r, upos, fib, offset))
        offset += len(fib)
    dim = offset

    mul, star = {}, []
    for (r, upos, fib, off) in blocks:
        for a, da in enumerate(fib):
            for b, db in enumerate(fib):
                cell = d.alg.mul.get((da, db))
                if cell:
                    out = {}
                    for k, v in cell.items():
                        if k in fib:
                            out[off + fib.index(k)] = v
                        elif v:
                            raise InvalidCoefficientAlgebra(
                                "fiber product escapes its unit fiber", witness=(da, db)
                            )
                    if out:
                        mul[(off + a, off + b)] = out
            if any(k not in fib for k, _ in d.alg.star[da]):
                raise InvalidCoefficientAlgebra("star escapes fiber", witness=da)
            star.append([(off + fib.index(k), v) for k, v in d.alg.star[da]])

    sp = spectrum(s)
    action = {}
    pool = iter_mask(within) if within is not None else s.elements()
    for g in pool:
        m = [[] for _ in range(dim)]
        gstar_ext = extended(s, s.star[g])
        rng_mask = sp.proj(s.range_of(g))
        for (r1, upos1, fib1, off1) in blocks:
            if germ_range(s, r1) & ~rng_mask:
                continue
            y = tilde_mul(s, gstar_ext, r1)
            idx2 = gh.orbit_of[y]
            (r2, upos2, fib2, off2) = blocks[idx2]
            tm = d.action[tilde_star(s, gh.transfer[y])]
            for b, db in enumerate(fib2):
                m[off2 + b] = [(off1 + fib1.index(k), v) for k, v in tm[db]]
        action[g] = m

    lbl = label or f"Ind({d.label})"
    galg = GAlgebra(s, StarAlgebra(dim, mul, star, lbl), action, lbl)
    return InducedAlgebra(galg, gh, d, blocks)


def induce_hom(f: StarHomomorphism, ind_a: InducedAlgebra, ind_b: InducedAlgebra) -> StarHomomorphism:
    """Apply an equivariant coefficient homomorphism pointwise on germ values:
    each block's basis vector of Ind(A) goes to the image of its coefficient,
    read in the same block of Ind(B)."""
    da, db = ind_a.coeff, ind_b.coeff
    for j, col in enumerate(f.cols):
        for i, _ in col:
            if da.unit_of_basis[j] != db.unit_of_basis[i]:
                raise NotEquivariant("homomorphism does not preserve unit fibers", witness=(i, j))
    if [germ_key(r) for r in ind_a.gh.reps] != [germ_key(r) for r in ind_b.gh.reps]:
        raise NotEquivariant("induced algebras live over different germ spaces")
    cols = [[(off_b + fib_b.index(i), v) for i, v in f.cols[dja]]
            for (_, _, fib_a, _), (_, _, fib_b, off_b) in zip(ind_a.blocks, ind_b.blocks) for dja in fib_a]
    return StarHomomorphism(ind_a.galg, ind_b.galg, cols, label=f"Ind({f.label})")


# ---------------------------------------------------------------------------
# class functions on the orbit space with coefficients


def c0_orbits_algebra(s: FiniteInvSgp, gh: GHSpace, b: GAlgebra, label=""):
    """The span of (orbit class) x (range-cut coefficient): the translation
    ideal inside functions-on-orbits tensor the coefficient algebra.

    It is the direct sum over orbits of the ``corner`` of b on the range of
    the orbit's representative; g maps the block of r into the block of g.r.
    Returns (GAlgebra, blocks), one (rep, range mask, offset, corner Span)
    per orbit."""
    sp = spectrum(s)
    error = InvalidCoefficientAlgebra(f"range-cut corner of {b.label!r} is not closed")
    blocks, algs = [], []
    offset = 0
    for r in gh.reps:
        rng = germ_range(s, r)
        alg, span = corner(b.alg, b.mask_matrix(rng), error)
        blocks.append((r, rng, offset, span))
        algs.append(alg)
        offset += alg.dim

    lbl = label or f"C0(orbits,{b.label})"
    alg = star_sum(algs, lbl)
    action = {}
    for g in s.elements():
        m = [[] for _ in range(alg.dim)]
        src_mask = sp.proj(s.source(g))
        gext = extended(s, g)
        for (r, rng, off, span) in blocks:
            if rng & ~src_mask:
                continue
            (_, _, off2, span2) = blocks[gh.orbit_of[tilde_mul(s, gext, r)]]
            blk = transport_matrix(b.action[g], span.sparse_rows, span2, error)
            for k, col in enumerate(blk):
                m[off + k] = [(off2 + r, v) for r, v in col]
        action[g] = m
    return GAlgebra(s, alg, action, lbl), blocks


def _verify_iso(cols, src_alg: GAlgebra, dst_alg: GAlgebra, keys, lemma, instance, dims):
    """Simultaneous bijectivity, multiplicativity, star and equivariance checks
    of the map from src_alg to dst_alg given by its columns."""
    bijective = _bijective(cols, dst_alg.dim)
    checks = [check("bijective", None if bijective else
                    f"dims {src_alg.dim} -> {dst_alg.dim}, invertible={bijective}")]
    checks += verify_star_hom(StarHomomorphism(src_alg, dst_alg, cols), equivariant_keys=keys)["checks"]
    return make_report(lemma, instance, checks, dims)


def theta_res_ind(s: FiniteInvSgp, h: FiniteGroupoid, b: GAlgebra, instance="") -> dict:
    """Induced restriction of a coefficient algebra versus class functions:
    f |-> sum over orbit representatives r of (class r) x r(f(r))."""
    d = restrict(b, h)
    ind = build_induced(s, h, d)
    target, tblocks = c0_orbits_algebra(s, ind.gh, b)
    cols = []
    for (r, _, fib, _), (_, _, toff, tspan) in zip(ind.blocks, tblocks):
        lifts = [d.embed[da] for da in fib]
        try:
            blk = transport_matrix(b.germ_matrix(r), lifts, tspan,
                                   InvalidAction(f"image escapes class fiber at rep {r}"))
        except InvalidAction as err:
            return make_report("theta-res-ind", instance, [check("bijective", str(err))],
                               {"ind": ind.dim, "target": target.dim})
        cols += [[(toff + t, v) for t, v in col] for col in blk]
    return _verify_iso(
        cols, ind.galg, target, list(s.elements()), "theta-res-ind", instance,
        {"ind": ind.dim, "target": target.dim, "orbits": ind.gh.orbit_count()},
    )


# ---------------------------------------------------------------------------
# balanced groupoid tensor and the tensor-clause isomorphism


def h_balanced_tensor(a: HAlgebra, b: HAlgebra, label="") -> HAlgebra:
    """Tensor of groupoid algebras balanced over the unit space: the quotient
    by Q_u x 1 - 1 x Q_u. Each such relation is a multiple of one coordinate
    b_i x b_j, nonzero exactly when i and j lie over different units, so the
    quotient keeps the pairs (i, j) over one unit."""
    if a.gpd is not b.gpd:
        raise BaseMismatch("tensor factors live over different groupoids",
                           witness=(a.label, b.label))
    gpd = a.gpd
    pairs = [(i, j) for i in range(a.dim) for j in range(b.dim)
             if a.unit_of_basis[i] == b.unit_of_basis[j]]
    pos = {pair: x for x, pair in enumerate(pairs)}
    k = len(pairs)

    def place(out, ka, kb, v):
        if (ka, kb) in pos:
            out[pos[(ka, kb)]] = v
        elif v:
            raise InvalidCoefficientAlgebra("balanced product escapes pairs", witness=(ka, kb))

    mul = {}
    for x, (i1, j1) in enumerate(pairs):
        for y, (i2, j2) in enumerate(pairs):
            out = {}
            for ka, va in a.alg.mul.get((i1, i2), {}).items():
                for kb, vb in b.alg.mul.get((j1, j2), {}).items():
                    place(out, ka, kb, va * vb)
            if out:
                mul[(x, y)] = out
    star = [[(pos[(ka, kb)], va * vb) for ka, va in a.alg.star[i] for kb, vb in b.alg.star[j]]
            for i, j in pairs]
    action = {}
    for germ in gpd.elements:
        ma, mb = a.action[germ], b.action[germ]
        action[germ] = [[(pos[(r, t)], va * vb) for r, va in ma[i] for t, vb in mb[j]] for i, j in pairs]
    lbl = label or f"{a.label}(x)U{b.label}"
    out = HAlgebra(gpd, StarAlgebra(k, mul, star, lbl), action, [a.unit_of_basis[i] for i, _ in pairs], lbl)
    out.pairs = pairs
    return out


def central_decomp_tensor(s: FiniteInvSgp, h: FiniteGroupoid, a: HAlgebra, b: GAlgebra,
                          instance="") -> tuple:
    """The range-cut projection on Ind(A) (x) B: idempotent, central multiplier,
    commuting with the action; returns (p as columns, (corner dim, complement
    dim), report, Ind(A), Ind(A) (x) B)."""
    ind = build_induced(s, h, a)
    big = tensor_g(ind.galg, b)
    db = b.dim
    p = [[] for _ in range(big.dim)]
    for (r, upos, fib, off) in ind.blocks:
        mr = b.mask_matrix(germ_range(s, r))
        for u in range(off, off + len(fib)):
            for j, col in enumerate(mr):
                p[u * db + j] = [(u * db + i, x) for i, x in col]
    checks = [check("idempotent", None if _compose(p, p) == p else "p^2 != p"),
              check("central_multiplier", _first_failure(central_multiplier_failures(big.alg, p)))]

    def action_commutes():
        for g in s.elements():
            if _compose(big.action[g], p) != _compose(p, big.action[g]):
                yield s.names[g]

    checks.append(check("action_commutes", _first_failure(action_commutes())))

    corner_rank = sum(1 for j, col in enumerate(p) if (j, 1) in col)
    dims = {"tensor": big.dim, "corner": corner_rank, "complement": big.dim - corner_rank}
    report = make_report("central-decomp-tensor", instance, checks, dims)
    return p, (dims["corner"], dims["complement"]), report, ind, big


def theta_res_ind_tensor(s: FiniteInvSgp, h: FiniteGroupoid, a: HAlgebra, b: GAlgebra,
                         instance="") -> dict:
    """Induction of a balanced tensor versus the range-cut corner of the plain
    tensor: (class r) x a x b |-> (class r) x a x r(b), verified an iso."""
    resb = restrict(b, h)
    ab = h_balanced_tensor(a, resb)
    src = build_induced(s, h, ab)
    p, (cdim, _), prep, ind_a, big = central_decomp_tensor(s, h, a, b, instance)
    cut, cut_basis = subalgebra_on_projection(big, p, "corner")
    cut_span = Basis(cut_basis)
    db = b.dim

    # source block (r, (i,j)) maps to e_{Ind(A)(r,i)} (x) r(embed_B(j))
    cols = []
    for bidx, (r, _, fib, _) in enumerate(src.blocks):
        gm = b.germ_matrix(r)
        aoff = ind_a.blocks[bidx][3]
        afib = ind_a.blocks[bidx][2]
        error = InvalidAction(f"image escapes corner at rep {r}")
        try:
            for abj in fib:
                i, j = ab.pairs[abj]
                u = aoff + afib.index(i)
                full = {u * db + t: v for t, v in _apply(gm, resb.embed[j]).items()}
                cols.append(list(_coords(cut_span, full, error).items()))
        except InvalidAction as err:
            return make_report("theta-res-ind-tensor", instance, [check("bijective", str(err))],
                               {"src": src.dim, "corner": cdim})
    report = _verify_iso(
        cols, src.galg, cut, list(s.elements()), "theta-res-ind-tensor", instance,
        {"src": src.dim, "corner": cdim, "tensor": big.dim,
         "complement": big.dim - cdim},
    )
    report["checks"].extend(prep["checks"])
    report["pass"] = report["pass"] and prep["pass"]
    return report


# ---------------------------------------------------------------------------
# the technical splitting of a carrier class


def technical_split(s: FiniteInvSgp, uprime: int, lset: int, g_ext: ExtendedElement,
                    d: GAlgebra, instance="") -> tuple:
    """Split one translation class of the germ space: functions carried on the
    class of g are an induced algebra over the one-unit groupoid at gg*.

    Returns (m_elements, lprime_mask, theta (or None when the class is empty),
    report). theta maps the small induced algebra onto the carrier block.
    """
    u = assoc_groupoid(s, uprime)
    return _split_class(s, lset, g_ext, d, build_induced(s, u, restrict(d, u)), {}, instance)


def _split_class(s: FiniteInvSgp, lset: int, g_ext: ExtendedElement, d: GAlgebra,
                 ind_u: InducedAlgebra, shapes: dict, instance="") -> tuple:
    """technical_split with the induced restriction Ind(Res_U(d)) over the
    associated groupoid U already built, so one induction serves every class.

    shapes holds what classes of one shape share, filled on first use: L' by
    its generator mask, and (Res_M(d), Ind_M, the basis of Res_M(d)'s
    embedding) by (M's elements, L'). Given d, groupoid_from_elements,
    restrict, build_induced and Basis read nothing but M's elements and L', so
    a shared entry is exactly what the class would build. What depends on g
    (the conjugate mask, M itself, the carrier and theta) is built per class.
    """
    u, resu = ind_u.gh.gpd, ind_u.coeff
    uprime = u.from_subset
    sp = spectrum(s)
    g0 = g_ext.g
    conj = mask_of(
        s.mul_many((g0, e, s.star[g0]))
        for e in iter_mask(uprime)
        if s.is_idempotent(e)
    )
    gens = lset | conj
    if gens not in shapes:
        shapes[gens] = generate(s, gens)
    lprime = shapes[gens]
    rng = germ_range(s, g_ext)
    u_r = tilde_unit(s, rng)

    lcut = set()
    for l in iter_mask(lset):
        x = tilde_mul(s, tilde_mul(s, u_r, extended(s, l)), u_r)
        if not x.is_zero() and x.chars == rng:
            lcut.add(x)
    gug = set()
    for w in u.elements:
        # units are disjoint, so g.w.g* != 0 only for w in the isotropy at g's source
        if not w.chars == g_ext.chars == germ_range(s, w):
            continue
        x = tilde_mul(s, tilde_mul(s, g_ext, w), tilde_star(s, g_ext))
        if not x.is_zero():
            gug.add(x)
    m_elems = sorted(lcut & gug, key=germ_key)

    # carrier: orbits reachable from g's orbit by allowed left translations
    start = ind_u.gh.orbit_of[g_ext]
    carrier = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for oidx in frontier:
            x = ind_u.gh.reps[oidx]
            for l in iter_mask(lset):
                if germ_range(s, x) & ~sp.proj(s.source(l)):
                    continue
                y = tilde_mul(s, extended(s, l), x)
                oy = ind_u.gh.orbit_of[y]
                if oy not in carrier:
                    carrier.add(oy)
                    nxt.append(oy)
        frontier = nxt
    carrier_dim = sum(len(ind_u.blocks[o][2]) for o in carrier)

    dims = {"carrier": carrier_dim, "m_size": len(m_elems)}
    if not m_elems:
        rep = make_report("technical-split", instance,
                          [check("empty_class", None if carrier_dim == 0 else
                                 f"carrier dim {carrier_dim} but M empty")],
                          dims)
        rep["empty"] = True
        return m_elems, lprime, None, rep

    shape = (tuple(m_elems), lprime)
    if shape not in shapes:
        m_gpd = groupoid_from_elements(s, m_elems)
        res_m = restrict(d, m_gpd)
        ind_m = build_induced(s, m_gpd, res_m, within=lprime)
        shapes[shape] = (res_m, ind_m, Basis(res_m.embed))
    res_m, ind_m, span_m = shapes[shape]
    dims["ind_m"] = ind_m.dim

    # theta^{-1}: evaluate a carrier function j at l.g and push through g
    carrier_list = sorted(carrier)
    carrier_offsets = {}
    pos = 0
    for o in carrier_list:
        carrier_offsets[o] = pos
        pos += len(ind_u.blocks[o][2])
    if pos != ind_m.dim:
        rep = make_report("technical-split", instance,
                          [check("dimensions_match", f"carrier {pos} != induced {ind_m.dim}")],
                          dims)
        return m_elems, lprime, None, rep

    dg = d.germ_matrix(g_ext)
    embed_cols = [v.items() for v in resu.embed]  # resu's basis in d's coordinates
    theta_inv = [{} for _ in range(pos)]  # column per carrier position, over ind_m's basis
    for (rho, _, _, off_m) in ind_m.blocks:
        lrep = None
        for l in iter_mask(lset):
            if tilde_mul(s, extended(s, l), u_r) == rho:
                lrep = l
                break
        if lrep is None:
            rep = make_report("technical-split", instance,
                              [check("point_presentation", f"no L presentation of {rho}")], dims)
            return m_elems, lprime, None, rep
        x_pt = tilde_mul(s, extended(s, lrep), g_ext)
        oidx = ind_u.gh.orbit_of[x_pt]
        fib2 = ind_u.blocks[oidx][2]
        tm = resu.action[tilde_star(s, ind_u.gh.transfer[x_pt])]
        col_off = carrier_offsets.get(oidx)
        if col_off is None:
            raise BrokenInvariant("class presentation left the carrier",
                                  witness={"point": rho, "orbit": oidx})
        error = InvalidAction(f"value escapes M-fiber at {rho}")
        try:
            for bslot, db_idx in enumerate(fib2):
                # value of the indicator function at x_pt, pushed into D and cut to rng
                pushed = _apply(dg, _apply(embed_cols, dict(tm[db_idx])))
                theta_inv[col_off + bslot].update(
                    (off_m + k, v) for k, v in _coords(span_m, pushed, error).items())
        except InvalidAction as err:
            rep = make_report("technical-split", instance, [check("value_in_fiber", str(err))], dims)
            return m_elems, lprime, None, rep

    # theta: column j is the coordinates of ind_m's basis vector j over the
    # columns of theta^{-1}, a carrier vector
    try:
        theta_basis = Basis(theta_inv)
    except DependentVector:
        theta_basis = None
    checks = [check("dimensions_match"),
              check("bijective", None if theta_basis is not None else "theta not invertible")]
    if theta_basis is None:
        return m_elems, lprime, None, make_report("technical-split", instance, checks, dims)

    # embed the carrier block back into the full induced algebra and verify
    carrier_cols = []
    for o in carrier_list:
        (_, _, fib, off) = ind_u.blocks[o]
        carrier_cols.extend(range(off, off + len(fib)))
    theta = [[(carrier_cols[c], v) for c, v in theta_basis.sparse_coords({j: 1}).items()]
             for j in range(pos)]

    theta_hom = StarHomomorphism(ind_m.galg, ind_u.galg, theta, label="theta")
    checks.extend(verify_star_hom(theta_hom, equivariant_keys=list(iter_mask(lset)))["checks"])
    report = make_report("technical-split", instance, checks, dims)
    report["carrier_cols"] = carrier_cols
    return m_elems, lprime, theta_hom, report


def res_ind_split(s: FiniteInvSgp, hprime: int, lset: int, d: GAlgebra, instance="") -> tuple:
    """Decompose the restriction of an induced restriction along translation
    classes: one technical split per class, assembled into a verified
    equivariant isomorphism with exact dimension bookkeeping.

    Classes of one shape (the same M-groupoid and L') share L', Res_M(d) and
    Ind_M, built once per call by _split_class, so their summands share one
    theta.source object. The shared objects depend on nothing but the shape
    and d, so every summand is exactly what its own build would give."""
    sp = spectrum(s)
    h = assoc_groupoid(s, hprime)
    resd = restrict(d, h)
    ind = build_induced(s, h, resd)

    # translation classes of orbits under allowed left L-moves
    norb = ind.gh.orbit_count()
    parent = list(range(norb))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # left moves have orbit-invariant validity (ranges are constant on orbits)
    for oidx in range(norb):
        x = ind.gh.reps[oidx]
        for l in iter_mask(lset):
            if germ_range(s, x) & ~sp.proj(s.source(l)):
                continue
            y = tilde_mul(s, extended(s, l), x)
            a, b = find(oidx), find(ind.gh.orbit_of[y])
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes = {}
    for oidx in range(norb):
        classes.setdefault(find(oidx), []).append(oidx)

    j_reps = []
    summands = []
    checks = []
    shapes = {}  # what classes of one shape share; see _split_class
    for root in sorted(classes):
        orbits = classes[root]
        cdim = sum(len(ind.blocks[o][2]) for o in orbits)
        if cdim == 0:
            continue
        g_rep = min((ind.gh.reps[o] for o in orbits), key=germ_key)
        m_elems, lprime, theta, rep = _split_class(s, lset, g_rep, d, ind, shapes,
                                                   instance=f"{instance}/class{len(j_reps)}")
        checks.append(check(f"class_{len(j_reps)}_split", None if rep["pass"] else rep))
        if not rep["pass"]:
            return j_reps, summands, None, make_report("res-ind-split", instance, checks, {})
        j_reps.append(g_rep)
        summands.append({"m": m_elems, "lprime": lprime, "theta": theta,
                         "carrier_cols": rep["carrier_cols"]})

    # each summand algebra is the source of its theta
    parts = [s_["theta"].source for s_ in summands]
    dim_sum = sum(p.dim for p in parts)
    dims = {"res_ind_res": ind.dim,
            "summands": [p.dim for p in parts],
            "classes": len(summands)}
    checks.append(check("dimension_identity",
                        None if dim_sum == ind.dim else f"{dim_sum} != {ind.dim}"))

    # assemble the block isomorphism and verify it globally
    phi = [col for s_ in summands for col in s_["theta"].cols]
    checks.append(check("bijective", None if _bijective(phi, ind.dim) else "assembled map not invertible"))
    hom = StarHomomorphism(direct_sum(s, parts), ind.galg, phi, label="res-ind-split")
    rep2 = verify_star_hom(hom, equivariant_keys=list(iter_mask(lset)))
    checks.extend(rep2["checks"])
    return j_reps, summands, hom, make_report("res-ind-split", instance, checks, dims)


# ---------------------------------------------------------------------------
# iterated decompositions into induced commutative coefficients


def sgp_to_h_algebra(a: GAlgebra, h: FiniteGroupoid, label="") -> HAlgebra:
    """Rebase a (sub)semigroup algebra fiberwise over an associated groupoid.

    The unit atoms are Boolean combinations of the generating sub-semigroup's
    idempotents, so only those action matrices are needed.
    """
    s = a.sgp
    if h.from_subset is None:
        raise InvalidCoefficientAlgebra("groupoid has no generating sub-semigroup recorded")
    hidem = sorted(e for e in iter_mask(h.from_subset) if s.is_idempotent(e))
    missing = [e for e in hidem if e not in a.action]
    if missing:
        raise InvalidCoefficientAlgebra(f"action does not cover idempotents {missing}")
    sp = spectrum(s)
    projections = [_signature_matrix(a, hidem, [(u.chars & ~sp.proj(e)) == 0 for e in hidem])
                   for u in h.units]
    out = _fiber_rebase(a, h, projections, InvalidCoefficientAlgebra("rebasing is not closed"),
                        label or f"{a.label}|gpd")
    if out.dim != a.dim:
        raise InvalidCoefficientAlgebra(f"groupoid rebasing changed dimension {a.dim} -> {out.dim}")
    return out


def minimal_invariant_ideal_dims(a: GAlgebra) -> list:
    """Brute-force oracle: dimensions of the ideals generated by single basis
    vectors under products, star and the action, deduplicated by containment."""
    ideals = []
    for seed in range(a.dim):
        v0 = {seed: 1}
        if any(sp_.contains(v0) for sp_ in ideals):
            continue
        span = Span([v0])
        changed = True
        while changed:
            changed = False
            for v in list(span.sparse_rows):
                candidates = [_apply(a.alg.star, v)]
                for i in range(a.dim):
                    candidates.append(_product(a.alg, {i: 1}, v))
                    candidates.append(_product(a.alg, v, {i: 1}))
                for g, m in a.action.items():
                    candidates.append(_apply(m, v))
                for c in candidates:
                    if c and span.add(c):
                        changed = True
        ideals.append(span)
    return sorted(sp_.dim for sp_ in ideals)


def ci0_enumerate(s: FiniteInvSgp, chain: list, instance="") -> tuple:
    """Iterated induce-restrict tower over a chain of sub-inverse-semigroups,
    decomposed into induced finite-dimensional commutative coefficients.

    Returns (pairs, report): pairs are (groupoid, HAlgebra) with the verified
    identity  direct-sum of Ind(pairs)  ==  the iterated tower algebra.
    """
    pairs, report, _ = _ci0_tower(s, chain, instance)
    return pairs, report


def _ci0_tower(s: FiniteInvSgp, chain: list, instance="") -> tuple:
    """ci0_enumerate with its live objects: (pairs, report, live). live holds
    the tower InducedAlgebra under "tower" and, for a chain of length 2, the
    induction of each summand under "per_part"; it is empty when a check
    stops the tower early."""
    if len(chain) > 3:
        raise ChainTooLong("chains of length > 3 are out of desk scale")
    d = trivial_algebra(s)
    rep0 = validate_g_algebra(d)
    if not rep0["pass"]:
        raise InvalidCoefficientAlgebra("the scalar line is not a valid action here")

    h1 = assoc_groupoid(s, chain[0])
    res1 = restrict(d, h1)
    ind1 = build_induced(s, h1, res1)
    checks = [check("level1_valid", None if validate_g_algebra(ind1.galg)["pass"] else "invalid")]
    if len(chain) == 1:
        pairs = [(h1, res1)]
        return pairs, make_report("ci0", instance, checks, {"tower": ind1.dim}), {"tower": ind1}

    # level 2: split the restriction of the tower so far along classes
    l2 = chain[1]
    h2 = assoc_groupoid(s, l2)
    j_reps, summands, hom, split_rep = res_ind_split(s, chain[0], l2, d,
                                                     instance=f"{instance}/level2")
    checks.append(check("level2_split", None if split_rep["pass"] else split_rep))
    if not split_rep["pass"]:
        return [], make_report("ci0", instance, checks, {}), {}

    tower2 = build_induced(s, h2, sgp_to_h_algebra(hom.target, h2))  # hom.target: Res Ind Res(D)
    pairs = []
    part_h = []
    for s_ in summands:
        bh = sgp_to_h_algebra(s_["theta"].source, h2)
        com = bh.alg.is_commutative()
        checks.append(check("summand_commutative", None if com else bh.label))
        pairs.append((h2, bh))
        part_h.append(bh)

    # transported assembled iso in the rebased coordinates, then induced
    sum_h = direct_sum(h2, part_h)
    phi_h = _rebase_hom(hom, sum_h, tower2.coeff, part_h)
    ind_sum = build_induced(s, h2, sum_h)
    ind_phi = induce_hom(phi_h, ind_sum, tower2)
    iso_rep = verify_star_hom(ind_phi, equivariant_keys=list(s.elements()))
    checks.extend(iso_rep["checks"])
    checks.append(check("induced_iso_bijective",
                        None if _bijective(ind_phi.cols, tower2.dim) else f"{ind_sum.dim} vs {tower2.dim}"))

    # direct sum of inductions agrees with induction of the direct sum
    per_part = [build_induced(s, h2, bh) for bh in part_h]
    checks.append(check("ind_intertwines_sums",
                        None if sum(p.dim for p in per_part) == ind_sum.dim
                        else f"{[p.dim for p in per_part]} vs {ind_sum.dim}"))

    if len(chain) == 3:
        # the tower3 coefficient is already finite-dimensional and commutative:
        # decompose it into minimal invariant ideals for smaller summands
        h3 = assoc_groupoid(s, chain[2])
        res3 = sgp_to_h_algebra(tower2.galg, h3)
        checks.append(check("level3_commutative", None if res3.alg.is_commutative() else res3.label))
        pairs = [(h3, res3)]
        tower3 = build_induced(s, h3, res3)
        report = make_report("ci0", instance, checks, {
            "tower": tower3.dim,
            "summands": [p[1].dim for p in pairs],
        })
        return pairs, report, {"tower": tower3}

    report = make_report("ci0", instance, checks, {
        "tower": tower2.dim,
        "summands": [bh.dim for bh in part_h],
        "ind_summands": [p.dim for p in per_part],
    })
    return pairs, report, {"tower": tower2, "per_part": per_part}


def _rebase_hom(hom: StarHomomorphism, sum_h: HAlgebra, target_h: HAlgebra, part_h):
    """Express an assembled semigroup-level iso in rebased fiber coordinates:
    column j embeds sum_h's basis vector j into the concatenated semigroup
    coordinates of the parts, applies hom and reads the image over target_h's
    basis. Each part is rebased on its own semigroup algebra, whose dimension
    it keeps."""
    tspan = Basis(target_h.embed)
    cols = []
    off = 0
    for pidx, bh in enumerate(part_h):
        for j, v in enumerate(bh.embed):
            lift = {off + k: x for k, x in v.items()}  # shifted to the part's block
            error = BrokenInvariant("the assembled split leaves the rebased target's span",
                                    witness={"part": pidx, "basis": j})
            cols.append(list(_coords(tspan, _apply(hom.cols, lift), error).items()))
        off += bh.dim
    return StarHomomorphism(sum_h, target_h, cols, label="rebased-split")


# ---------------------------------------------------------------------------
# the refinement lemma: mirroring a finer projection lattice on the other side


def build_bprime(s: FiniteInvSgp, lset: int, pset: int, a: GAlgebra, b: GAlgebra,
                 instance="") -> tuple:
    """Mirror the refined projection structure of a commutative coefficient
    algebra onto a module-side algebra: B' = sum of copies of the coarse
    corners, with the extended action routed block-by-block.

    Returns (bprime: GAlgebra over the generated sub-semigroup, info, report).
    """
    check_subsemigroup(s, lset)
    for p in iter_mask(pset):
        if not s.is_idempotent(p):
            raise NotEUnitary(f"{s.names[p]} is not a projection", witness=p)
    lprime = generate(s, lset | pset)
    if not is_e_unitary(s, subset=lprime):
        raise NotEUnitary("the generated sub-inverse-semigroup is not E-unitary")

    lp_idem = [e for e in iter_mask(lprime) if s.is_idempotent(e)]
    l_idem = [e for e in iter_mask(lset) if s.is_idempotent(e)]

    # commutative point model of A: diagonal structure constants required
    for (i, j), cell in a.alg.mul.items():
        if i != j or set(cell) - {i}:
            raise InvalidCoefficientAlgebra("coefficient algebra is not in point form")
    npoints = a.dim

    def point_sig(point, idems):
        return tuple(1 if (point, 1) in a.action[e][point] else 0 for e in idems)

    fine = {}
    for q in range(npoints):
        fine.setdefault(point_sig(q, lp_idem), []).append(q)
    coarse = {}
    for q in range(npoints):
        coarse.setdefault(point_sig(q, l_idem), []).append(q)
    coarse_sigs = sorted(coarse)
    fine_sigs = sorted(fine)
    fine_of_coarse = {cs: [] for cs in coarse_sigs}
    for fs in fine_sigs:
        witness_point = fine[fs][0]
        fine_of_coarse[point_sig(witness_point, l_idem)].append(fs)
    n_copies = {cs: len(fine_of_coarse[cs]) for cs in coarse_sigs}

    # B-side coarse corners: character classes of the E(L)-signature algebra
    # whose signatures are realized on the coefficient side; signatures the
    # coefficients annihilate form a defect corner outside the mirror
    sp = spectrum(s)
    char_sig = {}
    for pos in range(sp.size):
        sig = tuple(sp.char_value(pos, e) for e in l_idem)
        char_sig.setdefault(sig, 0)
        char_sig[sig] |= 1 << pos
    terms = {cs: [] for cs in coarse_sigs}
    defect_terms = []
    for sig in char_sig:
        terms.get(sig, defect_terms).append(_signature_matrix(b, l_idem, sig))
    n_mats = {cs: _sum(terms[cs], b.dim) for cs in coarse_sigs}
    defect = _sum(defect_terms, b.dim)
    defect_rank = len({r for col in defect for r, _ in col})  # its nonzero rows

    total = _sum([defect, *n_mats.values()], b.dim)
    checks = [check("corners_resolve_identity",
                    None if total == _identity(b.dim) else "sum of corners != 1"),
              check("reassembles_b",
                    None if defect_rank == 0 else f"defect corner of rank {defect_rank}")]

    error = InvalidAction(f"corner of {b.label!r} is not closed")
    corners = {cs: corner(b.alg, n_mats[cs], error) for cs in coarse_sigs}
    checks.append(check("reassembly_dimension",
                        None if sum(c[0].dim for c in corners.values()) + defect_rank == b.dim
                        else [c[0].dim for c in corners.values()]))

    # B' basis: one copy of the coarse corner per fine class it contains
    blocks = []  # (coarse_sig, fine_sig, offset)
    offset = 0
    for cs in coarse_sigs:
        for fs in fine_of_coarse[cs]:
            blocks.append((cs, fs, offset))
            offset += corners[cs][0].dim
    dim_bp = offset

    # route the refined action block-by-block: a fine block maps into the fine
    # block of its image, with the module action of any presenting element
    block_index = {(cs, fs): k for k, (cs, fs, off) in enumerate(blocks)}
    action = {}
    ambiguity = None
    for lp in iter_mask(lprime):
        m = [[] for _ in range(dim_bp)]
        src_e = s.source(lp)
        for (cs, fs, off) in blocks:
            pts = fine[fs]
            if any((q, 1) not in a.action[src_e][q] for q in pts):
                continue
            img = []
            for q in pts:
                hits = [r for r, _ in a.action[lp][q]]
                if len(hits) != 1:
                    raise InvalidCoefficientAlgebra(
                        "coefficient action is not a partial point bijection"
                    )
                img.append(hits[0])
            fs2 = point_sig(img[0], lp_idem)
            cs2 = point_sig(img[0], l_idem)
            if set(img) != set(fine[fs2]):
                raise InvalidCoefficientAlgebra("action does not permute fine classes")
            # presenting elements: l in L with l*(source of lp) == lp
            presenters = [l for l in iter_mask(lset) if s.table[l][src_e] == lp]
            maps = []
            span_src, span_dst = corners[cs][1], corners[cs2][1]
            for l in presenters:
                try:  # a presenter whose image leaves the target corner is not used
                    maps.append(transport_matrix(b.action[l], span_src.sparse_rows, span_dst, error))
                except InvalidAction:
                    continue
            if not maps:
                continue
            for other in maps[1:]:
                if other != maps[0]:
                    ambiguity = (s.names[lp], cs, fs)
            off2 = blocks[block_index[(cs2, fs2)]][2]
            for jj, col in enumerate(maps[0]):
                m[off + jj] = [(off2 + ii, v) for ii, v in col]
        action[lp] = m
    checks.append(check("well_defined_presentations", ambiguity))

    bprime = GAlgebra(s, star_sum([corners[cs][0] for (cs, _, _) in blocks], "B'"), action, "B'")
    vrep = validate_g_algebra(bprime)
    checks.append(check("bprime_action_valid", None if vrep["pass"] else vrep))
    info = {
        "lprime": lprime,
        "coarse_classes": len(coarse_sigs),
        "copies": [n_copies[cs] for cs in coarse_sigs],
        "corner_dims": [corners[cs][0].dim for cs in coarse_sigs],
    }
    report = make_report("refinement-bprime", instance, checks, {
        "b": b.dim, "bprime": dim_bp, **{k: v for k, v in info.items() if k != "lprime"},
    })
    return bprime, info, report


def _signature_matrix(b: GAlgebra, idems, sig):
    """The product over idems of e or 1 - e, as sig says, as columns."""
    m = None
    for e, inside in zip(idems, sig):
        term = b.action[e] if inside else _complement(b.action[e])
        m = term if m is None else _compose(m, term)
    return m if m is not None else _identity(b.dim)
