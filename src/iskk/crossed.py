"""Algebraic crossed products and exact Wedderburn-style decompositions.

The universal product of the scalar line over a semigroup S with no
declared zero, every element acting as the identity (``trivial_algebra``),
is the semigroup algebra kS. ``_steinberg`` writes it in Steinberg's
groupoid basis, the Moebius sums of the elements, where it is the algebra
of the underlying groupoid: only composable arrows multiply. Its zeta
columns d_t = sum_{u <= t} of the basis vectors at u give the elements of S
back, and the tight relations are written through them. Every other
coefficient algebra, and the scalar line over a semigroup with a declared
zero (the contracted algebra, or ``InvalidAction`` where zero divisors leave
no action), takes the S basis {a d_g}.

The S-basis universal and the groupoid crossed products share one builder,
``_convolution``: basis {a d_g} with a running over the sparse reduced rows
of the ``Span`` at the range of g, and (a d_g)(b d_h) = a alpha_g(b) d_gh.
The universal product takes S and its range ideals; the groupoid product
takes the germs and their range fibers, with no product for a zero germ. It
reads nonzero coordinates only, one product a alpha_g(b) per a and distinct
(range of h, index of b), formed only when a ``mul`` cell of the
coefficient algebra pairs a column of a with one of alpha_g(b), and writes
the star as the sparse columns (a d_g)*, as every ``StarAlgebra`` keeps it.
Images, products and coordinates come from the sparse kernels ``_apply``,
``_product`` and ``_coords`` of ``galgebra``, which every change of basis
uses. The tight (Sieben) product identifies a d_r with a d_t for r <= t;
those two-term relations already span a *-ideal (proof in ``_sieben``), so
it is the universal product modulo their span.

Every number is exact and in ``linalg``'s canonical form: an int where it
is integral, so integral coefficients give integral structure constants,
and a Fraction only where a reduction divides. Semisimple quotients are
computed over the rationals: the radical is the null space of the regular
trace form, kept as sparse rows. Over Q, kS of a finite inverse semigroup is
semisimple, so that form is nonsingular on the corpus, and ``linalg.rref``
certifies it by its full rank modulo a prime, with no elimination; any other
form goes to the exact elimination over QQ. Block data comes from splitting
the quotient's center, as its own c-dim commutative algebra, one center
basis vector at a time; there is no generic central element. The split runs
on integral numerators: Krylov powers and idempotency checks multiply ints,
and the minimal polynomials, their factors and the CRT polynomials are
sympy's dense polynomials over QQ. A floating eigenvalue clustering oracle
can cross-check the block count. When the center does not split over the
rationals, the reported witness is a non-linear irreducible factor found by
a fixed search.

When the radical is 0 the quotient is the algebra itself, relabelled; no
quotient is formed, and the trace form's ``left_traces`` serve it too. The
center comes from one sparse exact system (``linalg.sparse_solve``) built
straight from the structure constants: the kernel of the commutators with
every basis vector. Every product of two center basis vectors is checked
exactly to be the lift of its center coordinates, so the lift from the
c-dim center algebra is an injective algebra map, and the unit and the
idempotency of each primitive central idempotent are read in c dims. The
lifted unit is checked to be a two-sided unit by one sparse product with
each basis vector. Each block size comes from tr L_e, which is the rank of
L_e because e is idempotent.

Vectors of the algebra, the center basis and the central idempotents
included, are ``{col: value}`` dicts multiplied by ``galgebra._product``.
Only dense data stay dense: the split of the c-dim center (c <= 16 on every
measured case) with ``mul_vec``, ``left_traces`` and the float oracle.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import sympy

from .errors import BrokenInvariant, InvalidAction, NonIntegralMultiplicity, NotIdempotent
from .galgebra import (
    GAlgebra,
    HAlgebra,
    StarAlgebra,
    _apply,
    _cell_columns,
    _coords,
    _product,
    _right_partners,
    quotient,
)
from .linalg import QuotientSpace, Span, _qq, frac, nonzero_pairs, nullspace, sparse_solve, zeros
from .semigroup import iter_mask, leq
from .spectrum import germ_range, tilde_mul, tilde_star


@dataclass
class CrossedProductAlgebra:
    kind: str
    alg: StarAlgebra
    basis_labels: list
    universal_dim: int
    # the ``_convolution`` data of the basis; None for a tight product and
    # for kS in its groupoid basis
    layout: list = field(default=None, repr=False)
    offs: dict = field(default=None, repr=False)
    spans: dict = field(default=None, repr=False)
    coeff: object = field(default=None, repr=False)
    # kS in its groupoid basis only: column t is d_t = sum_{u <= t} [u]
    zeta: list = field(default=None, repr=False)

    @property
    def dim(self):
        return self.alg.dim


def _range_spans(a: GAlgebra):
    spans = {}
    for g in a.sgp.elements():
        e = a.sgp.range_of(g)
        if e not in spans:
            spans[e] = Span(map(dict, a.action[e]))
    return spans


def _universal(a: GAlgebra) -> CrossedProductAlgebra:
    """The universal crossed product of ``a`` by its semigroup S.

    When ``a`` is the scalar line with every element acting as the identity
    and S declares no zero, the product is kS, built by ``_steinberg`` in the
    groupoid basis [g], where [g][h] = [gh] only for composable arrows
    (g*g = hh*). It carries the S basis only as its zeta columns: column t
    is d_t = sum_{u <= t} [u], the image of t. No Moebius function is
    computed: the product and star come from the table and the zeta
    columns from the down-sets, and the tight relations d_r - d_t are
    written through the zeta columns.

    Every other ``a`` takes the S basis {a d_g} of ``_s_basis``; so does the
    scalar line over a semigroup with a declared zero, which acts as 0
    there: its product is the contracted algebra, or ``InvalidAction`` when
    zero divisors leave no action."""
    if _is_scalar_line(a):
        return _steinberg(a)
    return _s_basis(a)


def _is_scalar_line(a: GAlgebra) -> bool:
    """Whether ``a`` is ``trivial_algebra`` of a semigroup with no declared
    zero: Q with every element acting as the identity."""
    one = [[(0, 1)]]
    return (a.sgp.zero is None and a.alg.dim == 1 and a.alg.mul == {(0, 0): {0: 1}}
            and a.alg.star == one and all(a.action.get(g) == one for g in a.sgp.elements()))


def _steinberg(a: GAlgebra) -> CrossedProductAlgebra:
    """kS for the scalar line ``a`` over S, in Steinberg's groupoid basis
    [s] = sum_{t <= s} mu(t, s) t, labelled ``⌊name⌋``: [g][h] = [gh] when
    g*g = hh*, and 0 otherwise, and [g]* = [g*]. That is the algebra of the
    groupoid of arrows g: g*g -> gg*.

    No mu is needed to write it. The zeta map t -> d_t = sum_{u <= t} [u],
    the inverse of the Moebius map, is multiplicative: the pairs u <= s and
    v <= t with u*u = vv* are the pairs (s f, t e) with e = (uv)*(uv) and
    f = t e t*, one for each w = uv <= st (Steinberg, "Moebius functions
    and semigroup representation theory", J. Combin. Theory Ser. A 113,
    2006). It is a bijection, unitriangular in the natural order, so it is
    an isomorphism kS -> kG(S) that sends t to d_t. Its columns, read from
    the down-sets of S, are kept as ``zeta``; they carry the S-basis layout
    of the product (d_t at t, as ``_s_basis`` orders it) to
    ``_tight_relations``."""
    s = a.sgp
    ranged = {}  # e -> the h with hh* = e, in order
    for h in s.elements():
        ranged.setdefault(s.range_of(h), []).append(h)
    mul = {(g, h): {s.table[g][h]: 1} for g in s.elements() for h in ranged[s.source(g)]}
    star = [[(s.star[g], 1)] for g in s.elements()]
    zeta = [[(u, 1) for u in iter_mask(s.down_set(t))] for t in s.elements()]
    return CrossedProductAlgebra("universal", StarAlgebra(s.n, mul, star, "AxG"),
                                 [f"⌊{name}⌋" for name in s.names], s.n, coeff=a, zeta=zeta)


def _s_basis(a: GAlgebra) -> CrossedProductAlgebra:
    """The universal product of ``a`` on the S basis {a d_g}: the
    ``_convolution`` of S and its range ideals."""
    s = a.sgp
    return _convolution("universal", a, s.elements(), s.range_of, _range_spans(a),
                        lambda g, h: s.table[g][h], s.star.__getitem__,
                        lambda g, k: f"[{k}]d_{s.names[g]}", "AxG")


def _convolution(kind, coeff, elements, range_of, spans, mul, star, label, name):
    """The convolution algebra of the coefficient algebra ``coeff`` over
    ``elements``: basis a d_g, with a running over the reduced rows of
    ``spans[range_of(g)]``, and (a d_g)(b d_h) = a alpha_g(b) d_gh for
    gh = mul(g, h). None means no product, and for the h of one range either
    every mul(g, h) is None or none is. The star is (a d_g)* = alpha_g*(a*) d_g*
    with g* = star(g). Basis vector (g, k) is called label(g, k), and the
    algebra ``name``."""
    rng = {g: range_of(g) for g in elements}
    layout, offs, labels = [], {}, []  # (g, local index) per basis vector, g's first index
    for g in elements:
        offs[g] = len(layout)
        for k in range(spans[rng[g]].dim):
            layout.append((g, k))
            labels.append(label(g, k))
    dim = len(layout)

    # b and the range of gh (g hh* g* in S, gg* for composable germs) depend
    # on h only through its range and b's index, so the layout is grouped by
    # that key once, and each product is reduced once per (a, key) and placed
    # at d_gh for every h in the group.
    groups = {}  # (range of h, index of b) -> [(j, h)]
    for j, (h, k) in enumerate(layout):
        groups.setdefault((rng[h], k), []).append((j, h))
    escape = InvalidAction("crossed product coefficient escapes its range ideal")
    right = _cell_columns(coeff.alg)
    cells_at = {}
    for g in elements:
        coeffs = spans[rng[g]].sparse_rows
        if not coeffs:
            continue
        # whether h has a product with g depends only on the range of h
        keyed = [(members, _apply(coeff.action[g], spans[e].sparse_rows[k]))
                 for (e, k), members in groups.items() if mul(g, members[0][1]) is not None]
        partners = _right_partners(right, [acted for _, acted in keyed])
        for ki, a in enumerate(coeffs):
            cells = {}
            for n in partners(a):  # a alpha_g(b) is 0 for every other key
                members, acted = keyed[n]
                prod = _product(coeff.alg, a, acted)
                if not prod:
                    continue
                coords = _coords(spans[rng[mul(g, members[0][1])]], prod, escape)
                for j, h in members:
                    off = offs[mul(g, h)]
                    cells[j] = {off + k: v for k, v in coords.items()}
            i = offs[g] + ki
            for j in sorted(cells):
                cells_at[(i, j)] = cells[j]
    adjoint = []  # its columns, in basis order
    escape = InvalidAction("crossed product star escapes its range ideal")
    for g in elements:
        gs = star(g)
        for a in spans[rng[g]].sparse_rows:
            coords = _coords(spans[rng[gs]], _apply(coeff.action[gs], _apply(coeff.alg.star, a)), escape)
            adjoint.append([(offs[gs] + k, v) for k, v in coords.items()])
    return CrossedProductAlgebra(kind, StarAlgebra(dim, cells_at, adjoint, name), labels, dim,
                                 layout, offs, spans, coeff)


def _sieben(a: GAlgebra) -> CrossedProductAlgebra:
    """The tight product: the universal product modulo the span of the
    two-term relations a d_r - a d_t, for r <= t in S and a running over the
    basis of the range ideal of r.

    That span is already the *-ideal the relations generate, so nothing is
    closed. With the product (a d_g)(b d_h) = a alpha_g(b) d_gh:

    - right product: (a d_r - a d_t)(b d_u) = x d_ru - x d_tu with
      x = a alpha_r(b), which is a alpha_t(b) because a lies in D_rr*, and
      ru <= tu;
    - left product: (b d_u)(a d_r - a d_t) = y d_ur - y d_ut with
      y = b alpha_u(a), and ur <= ut;
    - star: (a d_r)* = alpha_r*(a*) d_r*, and r* <= t*;
    - Sieben's idempotent relations a d_e - a d_f (e <= f) are the case of
      idempotent r and t, and they give the rest back: a d_rr* - a d_tt*
      times 1_{D_tt*} d_t on the right is a d_r - a d_t.
    """
    uni = _universal(a)
    alg, _ = quotient(uni.alg, _tight_relations(uni), "Ax^G")
    return CrossedProductAlgebra("sieben", alg, [f"q{i}" for i in range(alg.dim)], uni.dim)


def _tight_relations(uni: CrossedProductAlgebra) -> list:
    """The two-term relations a d_r - a d_t of ``_sieben`` as sparse
    ``{index: value}`` vectors of the universal product ``uni``. On kS in
    the groupoid basis they are d_r - d_t, written through ``uni.zeta``."""
    s = uni.coeff.sgp
    if uni.zeta is not None:
        return [_apply(uni.zeta, {r: 1, t: -1})
                for r in s.elements() for t in s.elements() if r != t and leq(s, r, t)]
    spans, offs = uni.spans, uni.offs
    relations = []
    escape = InvalidAction("tight relation coefficient escapes range ideals")
    for r in s.elements():
        rows = spans[s.range_of(r)].sparse_rows
        for t in s.elements():
            if r == t or not leq(s, r, t):
                continue
            target = spans[s.range_of(t)]
            for k, row in enumerate(rows):
                coords = _coords(target, row, escape)
                rel = {offs[r] + k: 1}
                for m, c in coords.items():
                    rel[offs[t] + m] = -c
                relations.append(rel)
    return relations


def _groupoid(d: HAlgebra) -> CrossedProductAlgebra:
    """The convolution over the germs, on each unit's fiber as the span of
    its basis vectors; a zero germ product means no product."""
    gpd = d.gpd
    s = gpd.sgp
    fibers = [d.fiber_indices(u) for u in range(len(gpd.units))]
    spans = {u: Span({i: 1} for i in fib) for u, fib in enumerate(fibers)}
    rng = {h: gpd.unit_pos_of_mask(germ_range(s, h)) for h in gpd.elements}

    def mul(g, h):
        gh = tilde_mul(s, g, h)
        return None if gh.is_zero() else gh

    return _convolution("groupoid", d, gpd.elements, rng.__getitem__, spans, mul,
                        lambda h: tilde_star(s, h),
                        lambda h, k: f"[{fibers[rng[h]][k]}]d_({h.g},{h.chars:#x})", "DxH")


def crossed(coeff, kind="universal") -> CrossedProductAlgebra:
    """Crossed product of a coefficient algebra.

    kind 'universal'/'sieben' expect a GAlgebra; 'groupoid' expects an
    HAlgebra. Universal and groupoid products share one convolution build;
    a product or star leaving its range span raises InvalidAction.
    """
    if kind == "universal":
        return _universal(coeff)
    if kind == "sieben":
        return _sieben(coeff)
    if kind == "groupoid":
        return _groupoid(coeff)
    raise InvalidAction(f"unknown crossed product kind {kind!r}")


# ---------------------------------------------------------------------------
# semisimple structure


@dataclass
class SemisimpleDecomposition:
    """Wedderburn data of an algebra's semisimple quotient over the rationals.

    ``blocks``, ``block_dims``, ``splits``, ``method`` and
    ``central_idempotents`` come from splitting ``center_basis`` one vector
    at a time; the primitive central idempotents are listed in the order in
    which that split finalizes them. ``witness_poly`` is None when the
    center splits; otherwise it is an irreducible factor over the rationals,
    of degree > 1, of the minimal polynomial of a canonical central element,
    printed as a primitive integer polynomial in ``x`` (see
    ``semisimple_quotient``).

    ``radical_space`` is the algebra's space modulo its radical: its
    ``sparse_coords`` give a vector's class over the quotient's basis, and
    quotient basis vector i is the class of the unit vector at
    ``radical_space.free[i]``. When the radical is 0 it is the identity
    space, with every column free, and ``quotient`` has the algebra's own
    structure constants and star.
    ``center_basis`` is the basis of the quotient's center that is split;
    its vectors and the central idempotents are ``{col: value}`` dicts.
    Both are kept for reuse and left out of ``to_json``.
    """

    radical_dim: int
    quotient: StarAlgebra
    quotient_dim: int
    center_dim: int
    blocks: int
    block_dims: list
    splits: bool
    witness_poly: str | None
    central_idempotents: list
    method: str
    radical_space: QuotientSpace = field(repr=False)
    center_basis: list = field(repr=False)

    def to_json(self):
        return {
            "radical_dim": self.radical_dim,
            "quotient_dim": self.quotient_dim,
            "center_dim": self.center_dim,
            "blocks": self.blocks,
            "block_dims": list(self.block_dims),
            "splits": self.splits,
            "witness_poly": self.witness_poly,
            "method": self.method,
        }


def _as_star_algebra(x) -> StarAlgebra:
    if isinstance(x, StarAlgebra):
        return x
    if isinstance(x, CrossedProductAlgebra):
        return x.alg
    if isinstance(x, (GAlgebra, HAlgebra)):
        return x.alg
    if hasattr(x, "galg"):
        return x.galg.alg
    raise TypeError(f"not an algebra: {x!r}")


def _trace_form(alg: StarAlgebra, t_vec) -> list:
    """The regular trace form, tr L_{b_i b_j} at (i, j), as sparse
    ``{col: value}`` rows with one entry per mul cell at most."""
    rows = [{} for _ in range(alg.dim)]
    for (i, j), cell in alg.mul.items():
        v = sum(x * t_vec[l] for l, x in cell.items())
        if v:
            rows[i][j] = v
    return rows


def _center_basis(alg: StarAlgebra):
    """Basis of the center as the kernel of one sparse system.

    z is central iff sum_j z_j (b_j b_i - b_i b_j) = 0 for every i, so row
    (i, k) holds c_ji^k - c_ij^k at column j. Pairs whose cells (i, j) and
    (j, i) are equal add nothing.
    """
    rows = {}
    for i, j in {(min(p), max(p)) for p in alg.mul if p[0] != p[1]}:
        ij, ji = alg.mul.get((i, j), {}), alg.mul.get((j, i), {})
        if ij == ji:
            continue
        for k in ij.keys() | ji.keys():
            v = ji.get(k, 0) - ij.get(k, 0)
            if v:
                rows.setdefault((i, k), {})[j] = v
                rows.setdefault((j, k), {})[i] = -v
    return sparse_solve(rows, alg.dim)[1]


def _center_algebra(alg: StarAlgebra, center, free) -> StarAlgebra:
    """The center of ``alg`` as its own commutative algebra, on the center
    basis z_k of ``center``. A central v is sum_k v[f_k] z_k for the ``free``
    columns f_k, so cell (i, j) is z_i z_j read there; the c(c+1)/2 products
    with i <= j, taken by ``_product``, fill it. It has no star: none is read.

    Each product is checked exactly to equal the lift sum_k cell_k z_k of its
    cell (``BrokenInvariant`` with the pair otherwise). The z_k are
    independent, so the lift e -> sum_k e_k z_k is injective; with the check
    it sends z_i z_j to the product in ``alg`` for every pair, so by
    bilinearity it is an algebra map. An equation in this algebra, such as
    e e = e, then holds exactly when it holds for the lifts in ``alg``."""
    mul = {}
    for i, zi in enumerate(center):
        for j in range(i, len(center)):
            prod = _product(alg, zi, center[j])
            cell = {k: prod[f] for k, f in enumerate(free) if f in prod}
            if _lift(center, cell.items()) != prod:
                raise BrokenInvariant("a product of central vectors is not central",
                                      witness={"pair": (i, j)})
            if cell:
                mul[(i, j)] = mul[(j, i)] = cell
    return StarAlgebra(len(center), mul, None, f"Z({alg.label})")


def _lift(center, coords) -> dict:
    """sum_k x z_k over the (k, x) in ``coords``, for the center basis z_k
    of ``center``, as a ``{col: value}`` dict without zeros and with
    canonical values."""
    out = {}
    for k, x in coords:
        for col, v in center[k].items():
            out[col] = out.get(col, 0) + x * v
    return {col: v if type(v) is int else frac(v) for col, v in out.items() if v}


def _minimal_polynomial(alg: StarAlgebra, start, zeta):
    """Monic minimal polynomial of multiplication by zeta on the vectors
    start zeta**k, as a dense list of ``QQ`` coefficients from the leading
    one down, and the vectors start zeta**k (k < deg) it was read from; from
    the unit, it is zeta's. With int cells, an integral start and a basis
    vector zeta, every power is integral.

    Power k enters one ``Span`` tagged with a 1 at its own column n + k past
    the algebra's n columns, so every reduced row is a combination of tagged
    powers. The first power whose reduced row has no column below n is
    dependent on the earlier ones: that row is sum_k a_k (power k + tag k)
    with sum_k a_k power k = 0 and a_deg != 0, and its tag columns carry the
    a_k. No second elimination solves for them."""
    n = alg.dim
    span = Span()
    powers = []
    current = start
    for deg in range(n + 2):
        span.add({**dict(nonzero_pairs(current)), n + deg: 1})
        if span.pivots[-1] >= n:
            row = span.sparse_rows[-1]
            lead = row[n + deg]
            coeffs = _qq({c - n: frac(x, lead) for c, x in row.items()})
            return sympy.polys.densebasic.dup_from_raw_dict(coeffs, sympy.QQ), powers
        powers.append(current)
        current = alg.mul_vec(current, zeta)
    raise BrokenInvariant("minimal polynomial search exceeded the dimension bound",
                          witness={"degree": deg, "dim": n})


def _factors(poly) -> list:
    """The irreducible factors over QQ of a dense ``QQ`` polynomial, with
    their multiplicities, as sympy's ``dup_factor_list`` lists them: each a
    primitive integral polynomial with a positive leading coefficient, in
    the order of sympy's ``_sort_factors``.

    A linear polynomial is its own factor. Otherwise the rational roots come
    off first, x for the trailing zero coefficients and then each p/q in
    lowest terms with p dividing the constant term and q the leading one of
    the primitive integral polynomial. A remainder of degree 2 or 3 has no
    rational root, so it is irreducible; only one of degree 4 or more goes
    to ``dup_factor_list``."""
    qq = sympy.QQ
    nums = _integral(poly)[0]
    g = math.gcd(*nums) * (1 if nums[0] > 0 else -1)
    f = [c // g for c in nums]
    if len(f) == 2:
        return [([qq(c) for c in f], 1)]
    out = []
    mult = 0
    while f[-1] == 0:
        f.pop()
        mult += 1
    if mult:
        out.append(([qq(1), qq(0)], mult))
    for q in sympy.divisors(f[0]):
        for p in chain.from_iterable((d, -d) for d in sympy.divisors(abs(f[-1]))):
            if math.gcd(p, q) != 1:
                continue
            mult = 0
            while len(f) > 1:
                value, qk = f[0], 1  # q**deg f(p/q)
                for c in f[1:]:
                    qk *= q
                    value = value * p + c * qk
                if value:
                    break
                quo = [f[0] // q]  # f / (q x - p), exact
                for c in f[1:-1]:
                    quo.append((c + p * quo[-1]) // q)
                f = quo
                mult += 1
            if mult:
                out.append(([qq(q), qq(-p)], mult))
    if 2 < len(f) < 5:
        out.append(([qq(c) for c in f], 1))
    elif len(f) > 4:
        out.extend(sympy.polys.factortools.dup_factor_list([qq(c) for c in f], qq)[1])
    return sympy.polys.polyutils._sort_factors(out)


def _crt(poly, f) -> list:
    """The q of degree < deg poly with q = 1 mod f and q = 0 mod poly / f,
    for a factor f of a squarefree poly, dense ``QQ`` polynomials. For a
    linear f = a x + b that is rest / rest(-b / a), with rest = poly / f, and
    otherwise rest times its inverse mod f, reduced mod poly."""
    polys, qq = sympy.polys, sympy.QQ
    rest = polys.densearith.dup_exquo(poly, f, qq)
    if len(f) == 2:
        at_root = polys.densetools.dup_eval(rest, qq.quo(-f[1], f[0]), qq)
        return polys.densearith.dup_quo_ground(rest, at_root, qq)
    inverse = polys.euclidtools.dup_invert(rest, f, qq)
    return polys.densearith.dup_rem(polys.densearith.dup_mul(rest, inverse, qq), poly, qq)


def _poly_str(f) -> str:
    """A dense ``QQ`` polynomial printed as sympy prints it in x, such as
    ``x**2 - 2``; every witness polynomial is printed here."""
    return str(sympy.Poly(f, sympy.Symbol("x"), domain=sympy.QQ).as_expr())


def _integral(values):
    """(numerators, d) for d the lcm of the denominators of ``values`` (ints,
    Fractions or ``QQ`` values): the integers d v, and d."""
    d = math.lcm(*[int(v.denominator) for v in values])
    return [int(v.numerator) * (d // int(v.denominator)) for v in values], d


def _is_idempotent(z: StarAlgebra, num, d) -> bool:
    """Whether num / d is idempotent in z, for integral num: (num/d)(num/d)
    = num/d exactly when num num = d num, which multiplies only ints."""
    return z.mul_vec(num, num) == [d * v for v in num]


def _split_center(z: StarAlgebra, unit) -> list:
    """The primitive idempotents of a commutative semisimple algebra z over
    the rationals, as (coordinates, dim e z) pairs in the order in which
    they are finalized.

    One pass: from the unit, each basis vector z_i in order cuts every piece
    e by the CRT idempotents of the factors of the minimal polynomial of z_i
    on e z; with a single factor that piece is e itself, kept as it is. A
    piece where that is one irreducible factor of degree dim e z is the
    field Q[z_i e], finalized at once; the rest are finalized last.

    They are fields too. On K_1 + K_2, fields of degrees n_1 and n_2, an
    element (u, v) with an irreducible minimal polynomial p has u and v both
    roots of p, so Tr_1(u)/n_1 = Tr_2(v)/n_2 (the mean root of p). Such
    elements lie in a proper hyperplane, which cannot hold all the e z_i, as
    they span e z; one of them cuts e. So a piece has dim e z blocks, not
    the degree of a factor: no basis vector generates Q(sqrt 2, sqrt 3).

    The arithmetic is integral: the Krylov powers start from e scaled by the
    lcm d of its denominators, and a CRT piece q(z_i) e is built and checked
    as its integral numerator over a denominator. A piece becomes canonical
    values only when it is kept.
    """
    done, pieces = [], [(unit, z.dim)]
    traces = z.left_traces()
    for i in range(z.dim):
        cut = []
        for e, n in pieces:
            start, d = _integral(e)
            poly, powers = _minimal_polynomial(z, start, z.basis_vec(i))
            factors = _factors(poly)
            for f, mult in factors:
                if mult != 1:
                    raise BrokenInvariant("minimal polynomial of a semisimple center is not squarefree",
                                          witness={"factor": _poly_str(f), "multiplicity": mult})
            if len(factors) == 1:  # z_i does not cut e: its one CRT piece is e
                (done if len(factors[0][0]) - 1 == n else cut).append((e, n))
                continue
            for f, _ in factors:
                q, qd = _integral(_crt(poly, f))
                num, den = _eval_poly(powers, q), qd * d
                if not _is_idempotent(z, num, den):
                    raise NotIdempotent("primary central idempotent is not idempotent",
                                        witness={"factor": _poly_str(f)})
                dim = frac(sum(v * traces[l] for l, v in nonzero_pairs(num)), den)
                (done if len(f) - 1 == dim else cut).append(([frac(v, den) for v in num], dim))
        pieces = cut
    return done + pieces


def semisimple_quotient(x) -> SemisimpleDecomposition:
    """Radical via the regular trace form, block data by splitting the
    center as its own c-dim algebra with ``_split_center``.

    A primitive central idempotent e with e z a field of degree n has
    dim(e A) = tr L_e = n * m**2 for the block size m; tr L_e is linear in e.

    When the center does not split, ``witness_poly`` is chosen by
    ``_split_witness``. It tries these central elements of the quotient in
    order:

    1. the quotient's own basis vectors that are central, in index order
       (images of the structure basis, such as d_g in a group algebra);
    2. each vector of the center basis alone.

    The first candidate whose minimal polynomial has a non-linear irreducible
    factor decides. Among its non-linear factors the least degree wins, ties
    broken by the printed form. Step 1 keeps the witness independent of how
    the center basis is computed: in Q[Z/n], d_g has minimal polynomial
    x**n - 1.
    """
    alg = _as_star_algebra(x)
    if alg.dim == 0:
        return SemisimpleDecomposition(0, alg, 0, 0, 0, [], True, None, [], "exact",
                                       QuotientSpace(0), [])
    traces = alg.left_traces()
    radical = nullspace(_trace_form(alg, traces), alg.dim)
    if radical:
        qalg, space = quotient(alg, radical, f"{alg.label}/rad")
        traces = qalg.left_traces()
    else:
        qalg, space = StarAlgebra(alg.dim, alg.mul, alg.star, f"{alg.label}/rad"), QuotientSpace(alg.dim)
    if qalg.dim == 0:
        return SemisimpleDecomposition(len(radical), qalg, 0, 0, 0, [], True, None, [], "exact",
                                       space, [])
    center = _center_basis(qalg)
    cdim = len(center)

    # sparse_solve's kernel vector k is 1 at its free column f_k, 0 at the
    # other free columns and nonzero elsewhere only at pivot columns before
    # f_k, so f_k is its largest column
    free = [max(v) for v in center]
    z = _center_algebra(qalg, center, free)
    # the lift is an injective algebra map, so it sends z's unit to the
    # quotient's unit whenever the quotient has one
    unit = z.unit_vector()
    one = {} if unit is None else _lift(center, unit.items())
    for j in range(qalg.dim):
        b = {j: 1}
        if _product(qalg, one, b) != b or _product(qalg, b, one) != b:
            raise InvalidAction("semisimple quotient has no unit; structure data unreliable")
    # the split multiplies dense c-dim vectors: its unit is made dense here
    unit = [unit.get(k, 0) for k in range(cdim)]
    pieces = _split_center(z, unit)

    idems = []
    block_dims = []
    for e, n in pieces:
        # exact in c dims: the lift is an injective algebra map
        if not _is_idempotent(z, *_integral(e)):
            raise NotIdempotent("primitive central idempotent is not idempotent",
                                witness={"piece": len(idems)})
        lifted = _lift(center, nonzero_pairs(e))
        idems.append(lifted)
        # L of the lift is idempotent, so its rank is its trace
        d_i = sum(v * traces[l] for l, v in lifted.items())
        m2, rem = divmod(d_i, n)
        if rem != 0:
            raise NonIntegralMultiplicity(f"primary component dim {d_i} not divisible by {n}")
        m = _isqrt_exact(m2)
        if m is None:
            raise NonIntegralMultiplicity(f"block dimension {m2} is not a perfect square")
        block_dims.extend([m] * int(n))

    blocks = len(block_dims)
    if blocks != cdim:
        raise BrokenInvariant("primary blocks do not fill the center",
                              witness={"blocks": blocks, "center_dim": cdim})
    splits = all(n == 1 for _, n in pieces)
    # a central b_i is sum_k b_i[f_k] z_k, the z_k with f_k = i: the own
    # central basis vectors are the z_k with one nonzero entry
    own = [k for k, v in enumerate(center) if len(v) == 1]
    witness = None if splits else _split_witness(z, unit, own)
    method = "exact" if splits else "numeric"
    return SemisimpleDecomposition(
        len(radical), qalg, qalg.dim, cdim, blocks, sorted(block_dims, reverse=True),
        splits, witness, idems, method, space, center,
    )


def _split_witness(z: StarAlgebra, unit, own) -> str:
    """Canonical non-linear factor witnessing that the center z, with unit
    ``unit``, does not split; ``own`` lists the basis vectors of z that are
    basis vectors of the quotient, and the candidate order is given in
    ``semisimple_quotient``."""
    start = _integral(unit)[0]
    for k in chain(own, range(z.dim)):
        poly = _minimal_polynomial(z, start, z.basis_vec(k))[0]
        nonlinear = [f for f, _ in _factors(poly) if len(f) > 2]
        if nonlinear:
            return min((len(f) - 1, _poly_str(f)) for f in nonlinear)[1]
    # commuting z_k that all split would diagonalize together over Q
    raise BrokenInvariant("the center does not split, yet every center basis vector splits",
                          witness={"center_dim": z.dim})


def _eval_poly(powers, poly):
    """poly(zeta) start from the powers start zeta**k, for a dense polynomial
    with int coefficients and deg poly < len(powers)."""
    acc = zeros(len(powers[0]))
    for c, p in zip(reversed(poly), powers):
        if c:
            acc = [a + c * u for a, u in zip(acc, p)]
    return acc


def _isqrt_exact(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def numeric_block_oracle(x, seed: int = 0, tol: float = 1e-9) -> dict:
    """Float eigenvalue clustering of a random central element of the
    semisimple quotient; returns cluster count and certification data.

    ``x`` is an algebra, or its ``SemisimpleDecomposition``, whose quotient
    and center basis are then used as they are.
    """
    d = x if isinstance(x, SemisimpleDecomposition) else semisimple_quotient(x)
    if d.quotient_dim == 0:
        return {"blocks": 0, "certified": True, "max_residual": 0.0}
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(1, 1000, size=len(d.center_basis))
    zeta = zeros(d.quotient.dim)
    for c, vec in zip(coeffs, d.center_basis):
        for k, v in vec.items():
            zeta[k] += int(c) * v
    lz = np.array([[float(v) for v in row] for row in d.quotient.left_mult_matrix(zeta)])
    eig = np.linalg.eigvals(lz)
    clusters = []
    for lam in eig:
        for cl in clusters:
            if abs(lam - cl[0]) < 1e-6:
                cl.append(lam)
                break
        else:
            clusters.append([lam])
    max_residual = 0.0
    mults_ok = True
    for cl in clusters:
        mean = sum(cl) / len(cl)
        max_residual = max(max_residual, max(abs(c - mean) for c in cl))
        if _isqrt_exact(len(cl)) is None:
            mults_ok = False
    return {
        "blocks": len(clusters),
        "certified": max_residual < tol and mults_ok,
        "max_residual": float(max_residual),
        "multiplicities": sorted(len(c) for c in clusters),
    }
