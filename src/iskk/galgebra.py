"""Finite-dimensional *-algebras over the rationals with semigroup actions.

Every value is kept in ``linalg``'s canonical form: an int when it is
integral, a Fraction otherwise. The builders store ints, and the sparse
kernels return canonical values.

A StarAlgebra holds sparse structure constants and its star as columns,
``star[j]`` the nonzero (row, value) pairs of b_j* in row order, as
``_apply`` reads them. A GAlgebra adds one action map per semigroup element
(possibly only for a sub-semigroup's elements) in the same format:
``action[g][j]`` holds the nonzero (row, value) pairs of alpha_g(b_j) in row
order. Every linear map is kept so, the character, mask and germ maps, the
projections and the *-homomorphisms between two algebras included:
``StarHomomorphism.cols[j]`` holds the nonzero (row, value) pairs of f(b_j).
``_compose`` gives the columns of a composite, two maps in this format are
equal exactly when their lists of columns are, and ``_bijective`` reads a
map's bijectivity off its rank. Groupoid coefficient algebras (HAlgebra)
keep a fiber-adapted basis: every basis vector belongs to the fiber of one
groupoid unit, so unit actions are coordinate projections.

Every vector is a ``{col: value}`` dict without zeros and with canonical
values, the embedding vectors and the unit of ``unit_vector`` included, and
every algebra check reads both sides through ``_product`` and ``_apply``.
Only the dense c-dim center of ``crossed``'s split and its float oracle use
``StarAlgebra.mul_vec`` (with ``basis_vec`` and ``left_mult_matrix``) and
the table ``left_traces``.

Every change of basis goes through one path. ``transport`` expresses an
algebra on new vectors, given as sparse ``{col: value}`` lifts, and
``transport_matrix`` a linear map on them; both read the results as
coordinates over a ``Span``, ``Basis`` or ``QuotientSpace`` through its
``sparse_coords`` and raise the caller's typed error for a vector outside
it. Products and images come from the sparse kernels ``_product`` and
``_apply``, which the crossed products share. ``corner`` is the algebra on
the range of a projection given by its columns: the corners of
``subalgebra_on_projection``, the fibers of ``restrict`` and the induction
module's corners. Quotients go through ``quotient``, which reads the
products of its lifts straight from the structure constants; direct sums go
through ``direct_sum``.
"""

from dataclasses import dataclass

from .errors import BaseMismatch, BrokenInvariant, InvalidAction, NotCentral
from .linalg import (
    Span,
    QuotientSpace,
    frac,
    nonzero_pairs,
    rank,
    sparse_solve,
    zeros,
)
from .semigroup import FiniteInvSgp, iter_mask
from .spectrum import ExtendedElement, germ_range, germ_source, spectrum, tilde_mul


# ---------------------------------------------------------------------------
# raw *-algebras


class StarAlgebra:
    """Structure constants ``mul[(i, j)] = {k: value}`` for b_i b_j and the
    star's columns ``star[j]`` (see above); no action."""

    def __init__(self, dim, mul, star, label=""):
        self.dim = dim
        self.mul = mul  # dict[(i,j)] -> dict[k] -> int, or Fraction when not integral
        self.star = star
        self.label = label

    def mul_vec(self, u, v):
        """u v for dense vectors u and v, as a dense vector (the module
        docstring says who reads it)."""
        out = zeros(self.dim)
        v = nonzero_pairs(v)
        for i, x in nonzero_pairs(u):
            for j, y in v:
                cell = self.mul.get((i, j))
                if cell:
                    xy = x * y
                    for k, c in cell.items():
                        out[k] += xy * c
        return out

    def basis_vec(self, i):
        v = zeros(self.dim)
        v[i] = 1
        return v

    def left_mult_matrix(self, x):
        cols = [self.mul_vec(x, self.basis_vec(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def left_traces(self):
        """tr L_{b_l} = sum_k c_lk^k for every basis vector b_l, in one pass
        over the cells; tr L_x is then sum_l x_l tr L_{b_l}."""
        t = zeros(self.dim)
        for (l, k), cell in self.mul.items():
            t[l] += cell.get(k, 0)
        return t

    def unit_vector(self):
        """Two-sided unit if one exists, else None.

        Solves x b_j = b_j = b_j x as one sparse system: a mul cell (a, b)
        puts its constants into the rows (left, b, k) at column a and
        (right, a, k) at column b. The unit is unique when it exists; it
        is returned as a ``{col: value}`` dict.
        """
        rows = {}
        for (a, b), cell in self.mul.items():
            for k, c in cell.items():
                rows.setdefault(("left", b, k), {})[a] = c
                rows.setdefault(("right", a, k), {})[b] = c
        rhs = {}
        for j in range(self.dim):
            rhs[("left", j, j)] = rhs[("right", j, j)] = 1
        return sparse_solve(rows, self.dim, rhs)[0]

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i):
                if self.mul.get((i, j), {}) != self.mul.get((j, i), {}):
                    return False
        return True


def diagonal_star_algebra(n, label=""):
    mul = {(i, i): {i: 1} for i in range(n)}
    return StarAlgebra(n, mul, [[(i, 1)] for i in range(n)], label)


def matrix_algebra(n, label=None):
    """Full matrix algebra with basis e_ij at index i*n+j."""
    mul = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mul[(i * n + j, k * n + l)] = {i * n + l: 1}
    star = [[(j * n + i, 1)] for i in range(n) for j in range(n)]  # e_ij* = e_ji
    return StarAlgebra(n * n, mul, star, label or f"M{n}")


def star_sum(algs, label=""):
    """Direct sum of *-algebras, the basis of each following its predecessors."""
    mul = {}
    off = 0
    for a in algs:
        for (i, j), cell in a.mul.items():
            mul[(off + i, off + j)] = {off + k: v for k, v in cell.items()}
        off += a.dim
    return StarAlgebra(off, mul, _diagonal_sum([a.star for a in algs]),
                       label or "+".join(a.label for a in algs) or "0")


# ---------------------------------------------------------------------------
# linear maps as columns: m[j] is the nonzero (row, value) pairs of m b_j, in
# row order


def _identity(n) -> list:
    return [[(j, 1)] for j in range(n)]


def _diagonal_sum(maps) -> list:
    """The block-diagonal sum of square maps, in order."""
    out, off = [], 0
    for m in maps:
        out.extend([(off + r, x) for r, x in col] for col in m)
        off += len(m)
    return out


def _kron(a, b) -> list:
    """The Kronecker product a (x) b of square maps: column j1 n + j2, for b
    of size n, is a[j1] (x) b[j2], in row order."""
    n = len(b)
    return [[(r1 * n + r2, x1 * x2) for r1, x1 in c1 for r2, x2 in c2] for c1 in a for c2 in b]


def _column(v: dict) -> list:
    """A ``{row: value}`` dict as a column: its nonzero pairs in row order,
    with canonical values."""
    return sorted((r, frac(x)) for r, x in v.items() if x)


def _compose(a, b) -> list:
    """The columns of a b. A column of b with one entry (r, y) gives y times
    column r of a, which is already in row order."""
    out = []
    for col in b:
        if len(col) == 1:
            r, y = col[0]
            out.append(a[r] if y == 1 else [(k, frac(x * y)) for k, x in a[r]])
        else:
            out.append(_column(_apply(a, dict(col))) if col else [])
    return out


def _sum(maps, n) -> list:
    """The columns of the sum of ``maps``, each given by its n columns."""
    out = []
    for j in range(n):
        acc = {}
        for m in maps:
            for r, x in m[j]:
                acc[r] = acc.get(r, 0) + x
        out.append(_column(acc))
    return out


def _complement(m) -> list:
    """The columns of 1 - m for a square m."""
    return [_column({**{r: -x for r, x in col}, j: 1 - dict(col).get(j, 0)})
            for j, col in enumerate(m)]


def _bijective(cols, n) -> bool:
    """Whether the map given by its columns ``cols`` onto an n-dimensional
    space is bijective: n columns of rank n, which ``rank`` certifies
    modulo ``PRIME`` without an elimination when it can."""
    return len(cols) == n and rank([dict(c) for c in cols], n) == n


# ---------------------------------------------------------------------------
# expressing an algebra on new vectors


def _apply(cols, v: dict) -> dict:
    """m v for m given by its columns (a list or dict of ``nonzero_pairs``,
    indexed by column) and v a ``{col: value}`` dict without zeros, as such a
    dict with canonical values."""
    out = {}
    for c, x in v.items():
        for r, y in cols[c]:
            out[r] = out.get(r, 0) + y * x
    return {r: x if type(x) is int else frac(x) for r, x in out.items() if x}


def _product(alg: StarAlgebra, u: dict, v: dict) -> dict:
    """u v for ``{col: value}`` dicts without zeros, from the nonzero pairs
    on the ``mul`` cells, as such a dict with canonical values."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            cell = alg.mul.get((i, j))
            if cell:
                xy = x * y
                for k, c in cell.items():
                    out[k] = out.get(k, 0) + xy * c
    return {k: x if type(x) is int else frac(x) for k, x in out.items() if x}


def _cell_columns(alg: StarAlgebra) -> dict:
    """Column a -> the set of columns b with a ``mul`` cell (a, b)."""
    right = {}
    for a, b in alg.mul:
        right.setdefault(a, set()).add(b)
    return right


def _right_partners(right: dict, vectors):
    """The function that maps a ``{col: value}`` vector u to the positions j,
    in order, at which a ``mul`` cell pairs a column of u with a column of
    vectors[j], for ``right`` the ``_cell_columns`` of the algebra; the
    product of u with any other vectors[j] is 0."""
    holders = {}  # column -> the positions of the vectors that have it
    for j, v in enumerate(vectors):
        for c in v:
            holders.setdefault(c, []).append(j)

    def partners(u) -> list:
        found = set()
        for a in u:
            for b in right.get(a, ()):
                found.update(holders.get(b, ()))
        return sorted(found)

    return partners


def _coords(space, v: dict, error) -> dict:
    """The coordinates of the ``{col: value}`` vector v over ``space`` (a
    Span, Basis or QuotientSpace) as its ``sparse_coords``; raises ``error``
    when v has none."""
    c = space.sparse_coords(v)
    if c is None:
        raise error
    return c


def transport(alg: StarAlgebra, lifts, space, error, label="") -> StarAlgebra:
    """The algebra on the vectors ``lifts`` of ``alg``, each a ``{col: value}``
    dict without zeros: basis vector i is lifts[i], and products and stars
    are read back as coordinates over ``space``. ``error`` is raised when one
    has none (never for a QuotientSpace, where every vector has a class).

    The product of lifts i and j is formed only when a ``mul`` cell pairs a
    column of lift i with one of lift j; every other product is 0."""
    partners = _right_partners(_cell_columns(alg), lifts)
    mul = {}
    for i, u in enumerate(lifts):
        for j in partners(u):
            cell = _coords(space, _product(alg, u, lifts[j]), error)
            if cell:
                mul[(i, j)] = cell
    return StarAlgebra(len(lifts), mul, transport_matrix(alg.star, lifts, space, error), label)


def transport_matrix(m, lifts, space, error) -> list:
    """The linear map m, given by its columns, on the ``{col: value}``
    vectors ``lifts``, as columns: column j is the coordinates of m lifts[j]
    over ``space``, and ``error`` is raised when it has none."""
    return [list(_coords(space, _apply(m, v), error).items()) for v in lifts]


def corner(alg: StarAlgebra, p, error, label="") -> tuple:
    """The corner of ``alg`` on the span of the columns of the projection p:
    (StarAlgebra on the span's reduced rows, that Span). ``error`` is raised
    when a product or a star leaves the span."""
    span = Span(map(dict, p))
    return transport(alg, span.sparse_rows, span, error, label), span


def quotient(alg: StarAlgebra, relations, label="") -> tuple:
    """alg modulo the span of ``relations``, which must be a two-sided
    *-ideal: (StarAlgebra, QuotientSpace). The quotient's basis vector i is
    the class of the unit vector at ``space.free[i]``.

    The lifts are unit vectors at the free columns, so the product of lifts
    i and j is the ``alg.mul`` cell of their columns, reduced sparsely, and
    star column j is alg's star column at free column j, reduced."""
    space = QuotientSpace(alg.dim, relations)
    pos = space.free_pos
    cells = []
    for (a, b), cell in alg.mul.items():
        if a in pos and b in pos:
            red = space.sparse_coords(cell)
            if red:
                cells.append(((pos[a], pos[b]), red))
    star = [list(space.sparse_coords(dict(alg.star[c])).items()) for c in space.free]
    return StarAlgebra(space.dim, dict(sorted(cells)), star, label), space


# ---------------------------------------------------------------------------
# algebras with inverse-semigroup actions


class GAlgebra:
    """A *-algebra with an action map per semigroup element, each kept as
    its columns: ``action[g][j]`` is alpha_g(b_j) as its nonzero (row, value)
    pairs, in row order.

    The action dict may cover only a sub-semigroup (always including the
    unit); such algebras arise as modules over generated sub-semigroups.
    """

    def __init__(self, sgp: FiniteInvSgp, alg: StarAlgebra, action: dict, label=""):
        self.sgp = sgp
        self.alg = alg
        self.action = action
        self.label = label or alg.label
        self._char_mats = None

    @property
    def dim(self):
        return self.alg.dim

    def char_matrices(self):
        """Minimal character projections acting on the algebra, as columns."""
        if self._char_mats is not None:
            return self._char_mats
        s = self.sgp
        sp = spectrum(s)
        comp = {e: _complement(self.action[e]) for e in sp.gens}
        mats = []
        for f in sp.gens:
            m = self.action[f]
            for e in sp.gens:
                if s.table[f][e] != f:  # f <= e fails: multiply by (1 - e)
                    m = _compose(comp[e], m)
            mats.append(m)
        if _sum(mats, self.dim) != _identity(self.dim):
            raise InvalidAction(
                f"character projections of {self.label!r} do not sum to the identity"
            )
        self._char_mats = mats
        return mats

    def mask_matrix(self, mask: int):
        """Action of the indicator function of a character set, as columns."""
        mats = self.char_matrices()
        return _sum([mats[i] for i in iter_mask(mask)], self.dim)

    def germ_matrix(self, x: ExtendedElement):
        """Extended action of a germ, as columns: alpha_g composed with its
        domain projection."""
        return _compose(self.action[x.g], self.mask_matrix(x.chars))


def trivial_algebra(s: FiniteInvSgp) -> GAlgebra:
    """The scalar line with every element acting as the identity.

    With a declared zero the zero element acts as 0 instead; validation then
    fails exactly when the semigroup has zero divisors, matching the fact
    that no such action exists there.
    """
    action = {}
    for g in s.elements():
        if s.zero is not None and g == s.zero:
            action[g] = [[]]
        else:
            action[g] = [[(0, 1)]]
    return GAlgebra(s, diagonal_star_algebra(1, "C"), action, "C")


def c0x_algebra(s: FiniteInvSgp) -> GAlgebra:
    """Functions on the character space with the conjugation action."""
    sp = spectrum(s)
    n = sp.size
    action = {}
    for g in s.elements():
        m = [[] for _ in range(n)]
        for i, j in sp.char_map(g).items():
            m[i] = [(j, 1)]
        action[g] = m
    return GAlgebra(s, diagonal_star_algebra(n, "C0(X)"), action, "C0(X)")


def from_points(s: FiniteInvSgp, npoints: int, maps: dict, label="points") -> GAlgebra:
    """Commutative algebra of functions on a finite set with partial bijections.

    maps[g] is a dict point -> point giving the (injective) partial action.
    """
    action = {}
    for g in s.elements():
        m = [[] for _ in range(npoints)]
        for p, q in maps.get(g, {}).items():
            m[p] = [(q, 1)]
        action[g] = m
    return GAlgebra(s, diagonal_star_algebra(npoints, label), action, label)


# ---------------------------------------------------------------------------
# validation


def _first_failure(gen):
    for witness in gen:
        return witness
    return None


def _report(kind, label, checks) -> dict:
    for c in checks:
        c["pass"] = c["witness"] is None
    return {"check": kind, "label": label, "pass": all(c["pass"] for c in checks), "checks": checks}


def _live(alg: StarAlgebra, us, vectors) -> list:
    """For each vector u of ``us``, the set of j at which a ``mul`` cell of
    ``alg`` pairs a column of u with one of vectors[j]: u vectors[j] is 0 at
    every other j, and a check skips j where its other side is 0 too."""
    partners = _right_partners(_cell_columns(alg), vectors)
    return [set(partners(u)) for u in us]


def associativity_failures(alg: StarAlgebra):
    """(i, j, k) for each basis triple with (b_i b_j) b_k != b_i (b_j b_k);
    both sides are read from the mul cells by ``_product``, and both are 0
    when neither (i, j) nor (j, k) has a cell."""
    d, mul = alg.dim, alg.mul
    for i in range(d):
        for j in range(d):
            ij = mul.get((i, j))
            for k in range(d):
                jk = mul.get((j, k))
                if (ij or jk) and _product(alg, ij or {}, {k: 1}) != _product(alg, {i: 1}, jk or {}):
                    yield (i, j, k)


def star_failures(alg: StarAlgebra):
    """"star not involutive", then (i, j) for each basis pair with
    (b_i b_j)* != b_j* b_i*; the star is involutive when it maps each of its
    columns back to the basis vector."""
    d, stars = alg.dim, alg.star
    cols = [dict(col) for col in stars]
    if any(_apply(stars, col) != {j: 1} for j, col in enumerate(cols)):
        yield "star not involutive"
    live = _live(alg, cols, cols)
    for i in range(d):
        for j in range(d):
            cell = alg.mul.get((i, j))
            if (cell or i in live[j]) and _apply(stars, cell or {}) != _product(alg, cols[j], cols[i]):
                yield (i, j)


def central_multiplier_failures(alg: StarAlgebra, m):
    """Witnesses that the linear map m, given by its columns, is not a
    central multiplier of alg: (i, j) where (m b_i) b_j != b_i (m b_j), and
    (i, j, "not a multiplier") where m(b_i b_j) != (m b_i) b_j."""
    d = alg.dim
    cols, units = [dict(col) for col in m], [{k: 1} for k in range(d)]
    lhs, rhs = _live(alg, cols, units), _live(alg, units, cols)
    for i in range(d):
        for j in range(d):
            if j not in lhs[i] and j not in rhs[i] and (i, j) not in alg.mul:
                continue  # all three products are 0
            left = _product(alg, cols[i], units[j])
            if left != _product(alg, units[i], cols[j]):
                yield (i, j)
            if _apply(m, alg.mul.get((i, j), {})) != left:
                yield (i, j, "not a multiplier")


def multiplicative_failures(m, sa: StarAlgebra, sb: StarAlgebra):
    """(i, j) for each basis pair of sa with m(b_i b_j) != (m b_i)(m b_j), for
    m from sa to sb given by its columns.

    m(b_i b_j) is read from the ``sa.mul`` cell (i, j) as a combination of
    m's columns."""
    cols = [dict(col) for col in m]
    live = _live(sb, cols, cols)
    for i in range(sa.dim):
        for j in range(sa.dim):
            cell = sa.mul.get((i, j))
            if (cell or j in live[i]) and _apply(m, cell or {}) != _product(sb, cols[i], cols[j]):
                yield (i, j)


def star_preserving_failures(m, sa: StarAlgebra, sb: StarAlgebra):
    """i for each basis vector of sa with m(b_i*) != (m b_i)*, for m from sa
    to sb given by its columns."""
    for i in range(sa.dim):
        if _apply(m, dict(sa.star[i])) != _apply(sb.star, dict(m[i])):
            yield i


def _endomorphism_failures(alg: StarAlgebra, m):
    """(i, "star") and (i, j) where m, given by its columns, fails to be a
    *-endomorphism of alg."""
    for i in star_preserving_failures(m, alg, alg):
        yield (i, "star")
    yield from multiplicative_failures(m, alg, alg)


def _check_shapes(alg: StarAlgebra, action: dict, name):
    """Raise InvalidAction unless the star and every action map (its key
    labelled by ``name``) are dim canonical columns over range(dim), as
    ``_check_columns`` says. The star's element is "star"."""
    d = alg.dim
    _check_columns("star", "star", alg.star, d, d)
    for x, m in action.items():
        _check_columns(f"action of {name(x)!r}", name(x), m, d, d)


def _check_columns(what, key, cols, ncols, nrows):
    """Raise InvalidAction unless the map ``what`` is ncols canonical columns
    over range(nrows): a map without ncols columns has witness {element:
    key, columns}, an entry at position k of a column that is not a (row,
    value) pair, as in a dense row of values, has witness {element, column,
    entry: k}, and a row outside range(nrows), a row not above the row
    before it or a zero value has witness {element, column, row}."""
    if len(cols) != ncols:
        raise InvalidAction(f"{what} has {len(cols)} columns, not {ncols}",
                            witness={"element": key, "columns": len(cols)})
    for j, col in enumerate(cols):
        last = -1
        for k, entry in enumerate(col):
            try:
                r, x = entry
            except (TypeError, ValueError):
                raise InvalidAction(f"{what} column {j} entry {k} is not a (row, value) pair",
                                    witness={"element": key, "column": j, "entry": k}) from None
            if r not in range(nrows):
                fault = f"outside range({nrows})"
            elif r <= last:
                fault = f"after row {last}"
            elif not x:
                fault = "with value 0"
            else:
                last = r
                continue
            raise InvalidAction(f"{what} column {j} has row {r}, {fault}",
                                witness={"element": key, "column": j, "row": r})


def validate_g_algebra(a: GAlgebra) -> dict:
    """Exhaustive check of the *-algebra and action axioms; reports witnesses.
    Raises InvalidAction first if a map is not in the column format."""
    s, alg = a.sgp, a.alg
    d = alg.dim
    keys = set(a.action)
    _check_shapes(alg, a.action, s.names.__getitem__)

    def hom():
        if s.unit not in keys or a.action[s.unit] != _identity(d):
            yield "unit does not act as identity"
            return
        if s.zero is not None and s.zero in keys:
            if any(a.action[s.zero]):
                yield "declared zero does not act as zero"
                return
        for g in keys:
            for h in keys:
                gh = s.table[g][h]
                if gh in keys and _compose(a.action[g], a.action[h]) != a.action[gh]:
                    yield (s.names[g], s.names[h])

    def endo():
        for g in keys:
            for w in _endomorphism_failures(alg, a.action[g]):
                yield (s.names[g], *w)

    def central():
        seen = set()
        for g in keys:
            e = s.range_of(g)
            if e in seen or e not in keys:
                continue
            seen.add(e)
            for w in central_multiplier_failures(alg, a.action[e]):
                yield (s.names[e], *w)

    return _report("g_algebra", a.label, [
        {"name": "associative", "witness": _first_failure(associativity_failures(alg))},
        {"name": "star_antimultiplicative", "witness": _first_failure(star_failures(alg))},
        {"name": "action_homomorphism", "witness": _first_failure(hom())},
        {"name": "star_endomorphisms", "witness": _first_failure(endo())},
        {"name": "range_projections_central", "witness": _first_failure(central())},
    ])


# ---------------------------------------------------------------------------
# groupoid coefficient algebras (fiber-adapted basis)


class HAlgebra:
    """Coefficient algebra over a finite groupoid; also a C0(units)-algebra.

    ``action[x][j]`` is the action of the germ x on b_j as its nonzero (row,
    value) pairs, in row order, as for a GAlgebra. unit_of_basis[i] is the
    index (into gpd.units) of the fiber holding basis vector i. embed, when
    present, maps basis vectors into a parent algebra.
    """

    def __init__(self, gpd, alg: StarAlgebra, action: dict, unit_of_basis, label="", embed=None, parent=None):
        self.gpd = gpd
        self.alg = alg
        self.action = action  # dict ExtendedElement -> columns
        self.unit_of_basis = tuple(unit_of_basis)
        self.label = label or alg.label
        self.embed = embed  # embed[i]: b_i as a {col: value} dict without zeros, in parent coordinates
        self.parent = parent

    @property
    def dim(self):
        return self.alg.dim

    def fiber_indices(self, unit_pos: int):
        return [i for i, u in enumerate(self.unit_of_basis) if u == unit_pos]

    def unit_projection(self, unit_pos: int):
        """The coordinate projection on a unit's fiber, as columns."""
        return [[(i, 1)] if u == unit_pos else [] for i, u in enumerate(self.unit_of_basis)]


def validate_h_algebra(d: HAlgebra) -> dict:
    """Groupoid-sense validation: units act as orthogonal central coordinate
    projections spanning the algebra; arrows act as fiber *-isomorphisms.
    Raises InvalidAction first if a map is not in the column format."""
    s = d.gpd.sgp
    alg = d.alg
    n = alg.dim

    def key(x):  # a germ as JSON-safe data
        return (s.names[x.g], x.chars)
    _check_shapes(alg, d.action, key)

    def unit_structure():
        for upos, u in enumerate(d.gpd.units):
            if u not in d.action:
                yield f"missing unit action {key(u)}"
                continue
            if d.action[u] != d.unit_projection(upos):
                yield f"unit {key(u)} is not its coordinate projection"
        # fibers multiply within themselves and orthogonally across units;
        # b_i b_j is read at the nonzero values of the mul cell (i, j)
        for i in range(n):
            for j in range(n):
                prod = [k for k, v in alg.mul.get((i, j), {}).items() if v]
                if d.unit_of_basis[i] != d.unit_of_basis[j]:
                    if prod:
                        yield (i, j, "cross-fiber product nonzero")
                else:
                    for k in prod:
                        if d.unit_of_basis[k] != d.unit_of_basis[i]:
                            yield (i, j, "product leaves fiber")

    def arrows():
        for x, m in d.action.items():
            src = d.gpd.unit_pos_of_mask(germ_source(x))
            rng = d.gpd.unit_pos_of_mask(germ_range(s, x))
            for i, col in enumerate(m):
                if d.unit_of_basis[i] != src:
                    if col:
                        yield (key(x), i, "acts outside source fiber")
                    continue
                for r, _ in col:
                    if d.unit_of_basis[r] != rng:
                        yield (key(x), i, "image outside range fiber")
            for y, my in d.action.items():
                prod = tilde_mul(s, x, y)
                expected = d.action.get(prod)
                got = _compose(m, my)
                if prod.is_zero():
                    if any(got):
                        yield (key(x), key(y), "non-composable product acts nonzero")
                elif expected is not None and got != expected:
                    yield (key(x), key(y), "composition mismatch")
            for w in _endomorphism_failures(alg, m):
                yield (key(x), *w)

    return _report("h_algebra", d.label, [
        {"name": "associative", "witness": _first_failure(associativity_failures(alg))},
        {"name": "star_antimultiplicative", "witness": _first_failure(star_failures(alg))},
        {"name": "c0_units_structure", "witness": _first_failure(unit_structure())},
        {"name": "arrow_actions", "witness": _first_failure(arrows())},
    ])


def trivial_line(gpd, unit_pos: int, label="C") -> HAlgebra:
    """Fiber C at one groupoid unit, zero elsewhere."""
    s = gpd.sgp
    alg = diagonal_star_algebra(1, label)
    action = {}
    for x in gpd.elements:
        src = gpd.unit_pos_of_mask(germ_source(x))
        rng = gpd.unit_pos_of_mask(germ_range(s, x))
        action[x] = [[(0, 1)]] if src == unit_pos and rng == unit_pos else [[]]
    return HAlgebra(gpd, alg, action, [unit_pos], label)


def c0_units(gpd, label="C0(units)") -> HAlgebra:
    """Functions on the unit space; arrows translate source to range."""
    s = gpd.sgp
    n = len(gpd.units)
    alg = diagonal_star_algebra(n, label)
    action = {}
    for x in gpd.elements:
        m = [[] for _ in range(n)]
        src = gpd.unit_pos_of_mask(germ_source(x))
        rng = gpd.unit_pos_of_mask(germ_range(s, x))
        m[src] = [(rng, 1)]
        action[x] = m
    return HAlgebra(gpd, alg, action, list(range(n)), label)


def direct_sum(base, parts, label=""):
    """Direct sum of GAlgebras over the semigroup ``base``, or of HAlgebras
    over the groupoid ``base``; the empty sum is the zero algebra.

    Each part's basis follows its predecessors' and every action map is
    block-diagonal. A sum of GAlgebras keeps the elements that act on every
    part.
    """
    for pos, p in enumerate(parts):
        if (p.gpd if isinstance(p, HAlgebra) else p.sgp) is not base:
            raise BaseMismatch("direct summands live over different bases",
                               witness={"part": pos, "label": p.label})
    lbl = label or "+".join(p.label for p in parts) or "0"
    alg = star_sum([p.alg for p in parts], lbl)
    if isinstance(base, FiniteInvSgp):
        keys = [g for g in base.elements() if all(g in p.action for p in parts)]
        return GAlgebra(base, alg, {g: _diagonal_sum([p.action[g] for p in parts]) for g in keys}, lbl)
    action = {x: _diagonal_sum([p.action[x] for p in parts]) for x in base.elements}
    return HAlgebra(base, alg, action, [u for p in parts for u in p.unit_of_basis], lbl)


# ---------------------------------------------------------------------------
# corners, restriction, cut-downs


def subalgebra_on_projection(a: GAlgebra, p, label="") -> tuple:
    """Corner of a central projection, given by its columns: (GAlgebra, its
    basis vectors as ``{col: value}`` dicts in a's coordinates)."""
    error = InvalidAction(f"corner of {a.label!r} is not closed")
    alg, span = corner(a.alg, p, error, label)
    action = {g: transport_matrix(m, span.sparse_rows, span, error) for g, m in a.action.items()}
    return GAlgebra(a.sgp, alg, action, label), span.sparse_rows


def cutdown(a: GAlgebra, p: int) -> tuple:
    """Split along a central idempotent semigroup element: (pA, (1-p)A)."""
    s = a.sgp
    if not s.is_idempotent(p):
        raise NotCentral(f"{s.names[p]} is not idempotent", witness=p)
    for g in s.elements():
        if s.table[p][g] != s.table[g][p]:
            raise NotCentral(f"{s.names[p]} does not commute with {s.names[g]}", witness=(p, g))
    m = a.action[p]
    if _compose(m, m) != m:
        raise NotCentral(f"action of {s.names[p]} is not idempotent", witness=p)
    witness = _first_failure(central_multiplier_failures(a.alg, m))
    if witness is not None:
        raise NotCentral(f"action of {s.names[p]} is not a central multiplier", witness=witness)
    part, _ = subalgebra_on_projection(a, m, f"{s.names[p]}({a.label})")
    rest, _ = subalgebra_on_projection(a, _complement(m), f"(1-{s.names[p]})({a.label})")
    return part, rest


def restrict(a: GAlgebra, h) -> HAlgebra:
    """Cut a semigroup algebra down to a finite groupoid: the corner of the
    unit-projection sum, with the germ actions, in a fiber-adapted basis."""
    return _fiber_rebase(a, h, [a.mask_matrix(u.chars) for u in h.units],
                         InvalidAction(f"groupoid corner of {a.label!r} is not closed"),
                         f"Res({a.label})")


def _fiber_rebase(a: GAlgebra, h, projections, error, label) -> HAlgebra:
    """a on a fiber-adapted basis over the groupoid h: the fiber of unit u is
    the ``corner`` of a on the span of the columns of projections[u], and a
    germ x maps the fiber of its source unit into the fiber of its range unit
    by x.g. ``error`` is raised when the fibers overlap, or when a product, a
    star or a germ image leaves its fiber."""
    s = a.sgp
    fibers = [corner(a.alg, p, error) for p in projections]
    lifts = [v for _, span in fibers for v in span.sparse_rows]
    if Span(lifts).dim < len(lifts):  # overlapping fibers
        raise error
    offs, unit_of_basis = [], []
    for upos, (alg, _) in enumerate(fibers):
        offs.append(len(unit_of_basis))
        unit_of_basis.extend([upos] * alg.dim)
    action = {}
    for x in h.elements:
        src = h.unit_pos_of_mask(germ_source(x))
        rng = h.unit_pos_of_mask(germ_range(s, x))
        m = [[] for _ in lifts]
        blk = transport_matrix(a.action[x.g], fibers[src][1].sparse_rows, fibers[rng][1], error)
        for i, col in enumerate(blk):
            m[offs[src] + i] = [(offs[rng] + r, v) for r, v in col]
        action[x] = m
    return HAlgebra(h, star_sum([alg for alg, _ in fibers], label), action, unit_of_basis, label,
                    embed=lifts, parent=a)


# ---------------------------------------------------------------------------
# tensor products


def tensor_g(a: GAlgebra, b: GAlgebra, label="") -> GAlgebra:
    """Plain tensor product with the diagonal action."""
    if a.sgp is not b.sgp:
        raise BaseMismatch("tensor factors live over different semigroups",
                           witness=(a.label, b.label))
    da, db = a.dim, b.dim
    mul = {}
    for (i1, j1), cell1 in a.alg.mul.items():
        for (i2, j2), cell2 in b.alg.mul.items():
            out = {}
            for k1, v1 in cell1.items():
                for k2, v2 in cell2.items():
                    out[k1 * db + k2] = v1 * v2
            mul[(i1 * db + i2, j1 * db + j2)] = out
    action = {g: _kron(a.action[g], b.action[g]) for g in set(a.action) & set(b.action)}
    return GAlgebra(a.sgp, StarAlgebra(da * db, mul, _kron(a.alg.star, b.alg.star), label), action,
                    label or f"{a.label}(x){b.label}")


def balanced_tensor(a: GAlgebra, b: GAlgebra, label="") -> GAlgebra:
    """Tensor product balanced over the character algebra: quotient of the
    plain tensor by e(x) (x) y - x (x) e(y) for every idempotent e."""
    s = a.sgp
    big = tensor_g(a, b)
    db = b.dim
    relations = []
    for e in iter_mask(s._idem_mask):
        ea, eb = a.action[e], b.action[e]
        for i in range(a.dim):
            for j in range(db):
                v = {r * db + j: x for r, x in ea[i]}
                for r, x in eb[j]:
                    v[i * db + r] = v.get(i * db + r, 0) - x
                v = {c: x for c, x in v.items() if x}
                if v:
                    relations.append(v)
    lbl = label or f"{a.label}(x)X{b.label}"
    alg, q = quotient(big.alg, relations, lbl)
    lifts = [{c: 1} for c in q.free]
    error = BrokenInvariant("a balanced tensor vector has no class")
    action = {g: transport_matrix(m, lifts, q, error) for g, m in big.action.items()}
    return GAlgebra(s, alg, action, lbl)


# ---------------------------------------------------------------------------
# *-homomorphisms


@dataclass
class StarHomomorphism:
    source: object
    target: object
    cols: list  # cols[j]: the nonzero (row, value) pairs of f(b_j), in row order
    label: str = ""


def verify_star_hom(f: StarHomomorphism, equivariant_keys=None) -> dict:
    """Multiplicativity, star preservation and optional equivariance.
    Raises InvalidAction first unless ``f.cols`` is source.dim canonical
    columns over range(target.dim); the witness's element is f's label."""
    sa = f.source.alg if hasattr(f.source, "alg") else f.source
    sb = f.target.alg if hasattr(f.target, "alg") else f.target
    _check_columns(f"homomorphism {f.label!r}", f.label, f.cols, sa.dim, sb.dim)
    checks = [
        {"name": "multiplicative", "witness": _first_failure(multiplicative_failures(f.cols, sa, sb))},
        {"name": "star_preserving", "witness": _first_failure(star_preserving_failures(f.cols, sa, sb))},
    ]
    if equivariant_keys is not None:
        checks.append({"name": "equivariant",
                       "witness": _first_failure(_equivariance_failures(f, equivariant_keys))})
    return _report("star_homomorphism", f.label, checks)


def _equivariance_failures(f: StarHomomorphism, keys):
    """g for each key with f alpha_g != alpha_g f."""
    for g in keys:
        if _compose(f.cols, f.source.action[g]) != _compose(f.target.action[g], f.cols):
            yield g
