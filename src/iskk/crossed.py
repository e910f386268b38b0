"""Algebraic crossed products and exact Wedderburn-style decompositions.

The universal crossed product has basis {a d_g} with a running over the range
ideal of g, given by the sparse reduced rows of its ``Span``; it is built
from nonzero coordinates only, one product a alpha_g(b) per a and distinct
(range of h, index of b). The tight (Sieben) product further identifies
a d_r with a d_t for r <= t. Those two-term relations already span a *-ideal (the proof is in
``_sieben``), so the tight product is the universal one modulo their span,
with no ideal closure. Groupoid coefficients give the usual convolution
algebra with non-composable products equal to zero.

Semisimple quotients are computed over the rationals: the radical is the
null space of the regular trace form, and block data comes from splitting
the quotient's center, as its own c-dim commutative algebra, one center
basis vector at a time; there is no generic central element. A floating
eigenvalue clustering oracle can cross-check the block count. When the
center does not split over the rationals, the reported witness is a
non-linear irreducible factor found by a fixed search.

The center and the unit each come from one sparse exact system
(``linalg.sparse_solve``) built straight from the structure constants: the
center is the kernel of the commutators with every basis vector, the unit
solves x b_j = b_j = b_j x. Each primitive central idempotent is lifted from
its center coordinates and checked to be idempotent, and its block size
comes from tr L_e, which is the rank of L_e because e is idempotent.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np
import sympy

from .errors import BrokenInvariant, InvalidAction, NonIntegralMultiplicity, NotIdempotent
from .galgebra import GAlgebra, HAlgebra, StarAlgebra, quotient, zero_matrix
from .linalg import (ONE, ZERO, QuotientSpace, Span, mat_vec, nonzero_columns, nonzero_pairs, nullspace,
                     sparse_solve, zeros)
from .semigroup import leq
from .spectrum import germ_range, tilde_mul, tilde_star


@dataclass
class CrossedProductAlgebra:
    kind: str
    alg: StarAlgebra
    basis_labels: list
    universal_dim: int

    @property
    def dim(self):
        return self.alg.dim


def _range_spans(a: GAlgebra):
    spans = {}
    for g in a.sgp.elements():
        e = a.sgp.range_of(g)
        if e not in spans:
            spans[e] = Span(map(list, zip(*a.action[e])))
    return spans


def _universal(a: GAlgebra) -> CrossedProductAlgebra:
    s = a.sgp
    spans = _range_spans(a)
    layout = []  # (g, local index) per crossed basis vector
    offs = {}
    labels = []
    pos = 0
    for g in s.elements():
        sp = spans[s.range_of(g)]
        offs[g] = pos
        for k in range(sp.dim):
            layout.append((g, k))
            labels.append(f"[{k}]d_{s.names[g]}")
            pos += 1
    dim = pos

    # (a d_g)(b d_h) = a alpha_g(b) d_gh. Both b and the range g hh* g* of gh
    # depend on h only through hh* and b's index, so the layout is grouped by
    # that key once, and each product is reduced once per (a, key) and placed
    # at d_gh for every h in the group.
    groups = {}  # (hh*, index of b) -> [(j, h)]
    for j, (h, k) in enumerate(layout):
        groups.setdefault((s.range_of(h), k), []).append((j, h))
    cols = {g: nonzero_columns(a.action[g], a.dim) for g in s.elements()}
    mul = {}
    for g in s.elements():
        coeffs = spans[s.range_of(g)].sparse_rows
        if not coeffs:
            continue
        acted = {(e, k): _apply(cols[g], spans[e].sparse_rows[k]) for e, k in groups}
        for ki, coeff in enumerate(coeffs):
            cells = {}
            for key, members in groups.items():
                prod = _product(a.alg, coeff, acted[key])
                if not prod:
                    continue
                coords = spans[s.range_of(s.table[g][members[0][1]])].sparse_coords(prod)
                if coords is None:
                    raise InvalidAction("crossed product coefficient escapes its range ideal")
                for j, h in members:
                    off = offs[s.table[g][h]]
                    cells[j] = {off + k: v for k, v in coords.items()}
            i = offs[g] + ki
            for j in sorted(cells):
                mul[(i, j)] = cells[j]
    star = zero_matrix(dim)
    star_cols = nonzero_columns(a.alg.star, a.dim)
    for g in s.elements():
        gstar = s.star[g]
        for ki, coeff in enumerate(spans[s.range_of(g)].sparse_rows):
            w = _apply(cols[gstar], _apply(star_cols, coeff))
            coords = spans[s.range_of(gstar)].sparse_coords(w)
            if coords is None:
                raise InvalidAction("crossed product star escapes its range ideal")
            for k, v in coords.items():
                star[offs[gstar] + k][offs[g] + ki] = v
    out = CrossedProductAlgebra("universal", StarAlgebra(dim, mul, star, "AxG"), labels, dim)
    out.layout = layout
    out.offs = offs
    out.spans = spans
    out.coeff = a
    return out


def _apply(cols, v: dict) -> dict:
    """m v for m given by its ``nonzero_columns`` and v a ``{col: value}`` dict
    without zeros, as such a dict."""
    out = {}
    for c, x in v.items():
        for r, y in cols[c]:
            out[r] = out.get(r, ZERO) + y * x
    return {r: x for r, x in out.items() if x}


def _product(alg: StarAlgebra, u: dict, v: dict) -> dict:
    """u v for ``{col: value}`` dicts without zeros, from the nonzero pairs
    on the ``mul`` cells, as such a dict."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            cell = alg.mul.get((i, j))
            if cell:
                xy = x * y
                for k, c in cell.items():
                    out[k] = out.get(k, ZERO) + xy * c
    return {k: x for k, x in out.items() if x}


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
    ``{index: value}`` vectors of the universal product ``uni``."""
    s = uni.coeff.sgp
    spans, offs = uni.spans, uni.offs
    relations = []
    for r in s.elements():
        rows = spans[s.range_of(r)].sparse_rows
        for t in s.elements():
            if r == t or not leq(s, r, t):
                continue
            target = spans[s.range_of(t)]
            for k, row in enumerate(rows):
                coords = target.sparse_coords(row)
                if coords is None:
                    raise InvalidAction("tight relation coefficient escapes range ideals")
                rel = {offs[r] + k: ONE}
                for m, c in coords.items():
                    rel[offs[t] + m] = -c
                relations.append(rel)
    return relations


def _groupoid(d: HAlgebra) -> CrossedProductAlgebra:
    gpd = d.gpd
    s = gpd.sgp
    layout = []
    offs = {}
    labels = []
    pos = 0
    for h in gpd.elements:
        rng_pos = gpd.unit_pos_of_mask(germ_range(s, h))
        fib = d.fiber_indices(rng_pos)
        offs[h] = pos
        for k in fib:
            layout.append((h, k))
            labels.append(f"[{k}]d_({h.g},{h.chars:#x})")
            pos += 1
    dim = pos
    fibs = {h: d.fiber_indices(gpd.unit_pos_of_mask(germ_range(s, h))) for h in gpd.elements}

    mul = {}
    for i, (h, ki) in enumerate(layout):
        for j, (g2, kj) in enumerate(layout):
            prod_g = tilde_mul(s, h, g2)
            if prod_g.is_zero():
                continue
            bvec = mat_vec(d.action[h], d.alg.basis_vec(kj))
            prod = d.alg.mul_vec(d.alg.basis_vec(ki), bvec)
            if not any(prod):
                continue
            fib = fibs[prod_g]
            cell = {}
            for t, v in enumerate(prod):
                if v:
                    if t not in fib:
                        raise InvalidAction("groupoid convolution escapes its fiber")
                    cell[offs[prod_g] + fib.index(t)] = v
            if cell:
                mul[(i, j)] = cell
    star = zero_matrix(dim)
    for i, (h, ki) in enumerate(layout):
        hs = tilde_star(s, h)
        w = mat_vec(d.action[hs], d.alg.star_vec(d.alg.basis_vec(ki)))
        fib = fibs[hs]
        for t, v in enumerate(w):
            if v:
                star[offs[hs] + fib.index(t)][i] = v
    return CrossedProductAlgebra("groupoid", StarAlgebra(dim, mul, star, "DxH"), labels, dim)


def crossed(coeff, kind="universal") -> CrossedProductAlgebra:
    """Crossed product of a coefficient algebra.

    kind 'universal'/'sieben' expect a GAlgebra; 'groupoid' expects an
    HAlgebra.
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

    ``radical_space`` is the algebra's space modulo its radical; its
    ``to_coords`` and ``lifts`` map to and from the quotient's basis.
    ``center_basis`` is the basis of the quotient's center that is split.
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


def _left_traces(alg: StarAlgebra) -> list:
    """tr L_{b_l} = sum_k c_lk^k for every basis vector b_l, in one pass over the cells."""
    t = zeros(alg.dim)
    for (l, k), cell in alg.mul.items():
        t[l] += cell.get(k, ZERO)
    return t


def _trace_form(alg: StarAlgebra):
    t_vec = _left_traces(alg)
    t = zero_matrix(alg.dim)
    for (i, j), cell in alg.mul.items():
        t[i][j] = sum((v * t_vec[l] for l, v in cell.items()), ZERO)
    return t


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
            v = ji.get(k, ZERO) - ij.get(k, ZERO)
            if v:
                rows.setdefault((i, k), {})[j] = v
                rows.setdefault((j, k), {})[i] = -v
    return sparse_solve(rows, alg.dim)[1]


def _center_algebra(alg: StarAlgebra, pairs, free) -> StarAlgebra:
    """The center of ``alg`` as its own commutative algebra, on the center
    basis z_k given by its ``nonzero_pairs``. A central v is sum_k v[f_k] z_k
    for the ``free`` columns f_k, so cell (i, j) is z_i z_j read there; the
    c(c+1)/2 products with i <= j fill it. It has no star: none is read."""
    mul = {}
    for i, zi in enumerate(pairs):
        for j in range(i, len(pairs)):
            prod = alg.mul_pairs(zi, pairs[j])
            cell = {k: prod[f] for k, f in enumerate(free) if prod[f]}
            if cell:
                mul[(i, j)] = mul[(j, i)] = cell
    return StarAlgebra(len(pairs), mul, None, f"Z({alg.label})")


def _minimal_polynomial(alg: StarAlgebra, start, zeta):
    """Monic minimal polynomial of multiplication by zeta on the vectors
    start zeta**k, as exact rational coefficients, and the vectors
    start zeta**k (k < deg) it was read from; from the unit, it is zeta's."""
    span = Span([start])
    powers = [list(start)]
    x = sympy.symbols("x")
    for deg in range(1, alg.dim + 2):
        current = alg.mul_vec(powers[-1], zeta)
        if not span.add(current):
            # dependency: solve for coefficients over previous powers
            rows = {t: {d: p[t] for d, p in enumerate(powers) if p[t]} for t in range(alg.dim)}
            coeffs = sparse_solve(rows, deg, dict(enumerate(current)))[0]
            if coeffs is None:
                raise BrokenInvariant("a dependent power of a central element solves to nothing",
                                      witness={"degree": deg})
            poly = sympy.Poly(
                x ** deg - sum(sympy.Rational(c) * x ** d for d, c in enumerate(coeffs)),
                x,
            )
            return poly, powers
        powers.append(current)
    raise BrokenInvariant("minimal polynomial search exceeded the dimension bound",
                          witness={"degree": deg, "dim": alg.dim})


def _split_center(z: StarAlgebra, unit) -> list:
    """The primitive idempotents of a commutative semisimple algebra z over
    the rationals, as (coordinates, dim e z) pairs in the order in which
    they are finalized.

    One pass: from the unit, each basis vector z_i in order cuts every piece
    e by the CRT idempotents of the factors of the minimal polynomial of z_i
    on e z. A piece where that is one irreducible factor of degree dim e z
    is the field Q[z_i e], finalized at once; the rest are finalized last.

    They are fields too. On K_1 + K_2, fields of degrees n_1 and n_2, an
    element (u, v) with an irreducible minimal polynomial p has u and v both
    roots of p, so Tr_1(u)/n_1 = Tr_2(v)/n_2 (the mean root of p). Such
    elements lie in a proper hyperplane, which cannot hold all the e z_i, as
    they span e z; one of them cuts e. So a piece has dim e z blocks, not
    the degree of a factor: no basis vector generates Q(sqrt 2, sqrt 3).
    """
    done, pieces = [], [(unit, z.dim)]
    for i in range(z.dim):
        cut = []
        for e, _ in pieces:
            poly, powers = _minimal_polynomial(z, e, z.basis_vec(i))
            factors = poly.factor_list()[1]
            for f, mult in factors:
                if mult != 1:
                    raise BrokenInvariant("minimal polynomial of a semisimple center is not squarefree",
                                          witness={"factor": str(f.as_expr()), "multiplicity": mult})
            for f, _ in factors:
                rest = poly.exquo(f)  # q = 1 mod f and 0 mod the other factors
                piece = _eval_poly(powers, (rest * sympy.invert(rest, f)) % poly)
                if z.mul_vec(piece, piece) != piece:
                    raise NotIdempotent("primary central idempotent is not idempotent",
                                        witness={"factor": str(f.as_expr())})
                dim = z.trace_left_mult(piece)
                (done if f.degree() == dim else cut).append((piece, dim))
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
    t = _trace_form(alg)
    radical = nullspace(t)
    qalg, space = quotient(alg, radical, f"{alg.label}/rad")
    if qalg.dim == 0:
        return SemisimpleDecomposition(len(radical), qalg, 0, 0, 0, [], True, None, [], "exact",
                                       space, [])
    center = _center_basis(qalg)
    cdim = len(center)
    unit = qalg.unit_vector()
    if unit is None:
        raise InvalidAction("semisimple quotient has no unit; structure data unreliable")

    # sparse_solve's kernel vector k is 1 at its free column f_k, 0 at the
    # other free columns and nonzero elsewhere only at pivot columns before
    # f_k, so f_k is its last nonzero column
    pairs = [nonzero_pairs(z) for z in center]
    free = [p[-1][0] for p in pairs]
    z = _center_algebra(qalg, pairs, free)
    unit = [unit[f] for f in free]
    pieces = _split_center(z, unit)

    lift = list(zip(*center))  # center coordinates to quotient vectors
    traces = _left_traces(qalg)
    idems = []
    block_dims = []
    for e, n in pieces:
        vec = mat_vec(lift, e)
        if qalg.mul_vec(vec, vec) != vec:
            raise NotIdempotent("primitive central idempotent is not idempotent",
                                witness={"piece": len(idems)})
        idems.append(vec)
        # L_vec is idempotent, so its rank is its trace
        d_i = sum((v * traces[l] for l, v in nonzero_pairs(vec)), ZERO)
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
    own = [k for k, p in enumerate(pairs) if len(p) == 1]
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
    for k in chain(own, range(z.dim)):
        poly = _minimal_polynomial(z, unit, z.basis_vec(k))[0]
        nonlinear = [f for f, _ in poly.factor_list()[1] if f.degree() > 1]
        if nonlinear:
            return min((f.degree(), str(f.as_expr())) for f in nonlinear)[1]
    # commuting z_k that all split would diagonalize together over Q
    raise BrokenInvariant("the center does not split, yet every center basis vector splits",
                          witness={"center_dim": z.dim})


def _eval_poly(powers, poly):
    """poly(zeta) from the powers of zeta, for deg poly < len(powers)."""
    acc = zeros(len(powers[0]))
    for c, p in zip(reversed(poly.all_coeffs()), powers):
        if c != 0:
            f = Fraction(int(c.p), int(c.q))
            acc = [a + f * u for a, u in zip(acc, p)]
    return acc


def _isqrt_exact(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def center_info(x) -> dict:
    d = semisimple_quotient(x)
    return {
        "center_dim": d.center_dim,
        "splits": d.splits,
        "witness_poly": d.witness_poly,
        "blocks": d.blocks,
        "method": d.method,
    }


def center_dim(x) -> int:
    return semisimple_quotient(x).center_dim


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
        zeta = [a + Fraction(int(c)) * b for a, b in zip(zeta, vec)]
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
