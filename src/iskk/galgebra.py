"""Finite-dimensional *-algebras over the rationals with semigroup actions.

A GAlgebra holds structure constants, a star matrix and one action matrix per
semigroup element (possibly only for a sub-semigroup's elements). Groupoid
coefficient algebras (HAlgebra) keep a fiber-adapted basis: every basis vector
belongs to the fiber of one groupoid unit, so unit actions are coordinate
projections.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidAction, NotCentral
from .linalg import (
    ONE,
    ZERO,
    Basis,
    Span,
    QuotientSpace,
    identity,
    mat_mul,
    mat_vec,
    sparse_solve,
    zeros,
)
from .semigroup import FiniteInvSgp, bit, iter_mask, mask_of
from .spectrum import ExtendedElement, germ_range, germ_source, spectrum, tilde_mul


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def zero_matrix(n, m=None):
    m = n if m is None else m
    return [[ZERO] * m for _ in range(n)]


def mat_kron(a, b):
    na, nb = len(a), len(b)
    ma = len(a[0]) if a else 0
    mb = len(b[0]) if b else 0
    out = zero_matrix(na * nb, ma * mb)
    for i in range(na):
        for j in range(ma):
            x = a[i][j]
            if x:
                for k in range(nb):
                    for l in range(mb):
                        if b[k][l]:
                            out[i * nb + k][j * mb + l] = x * b[k][l]
    return out


# ---------------------------------------------------------------------------
# raw *-algebras


class StarAlgebra:
    """Structure constants (sparse), star matrix, no action."""

    def __init__(self, dim, mul, star, label=""):
        self.dim = dim
        self.mul = mul  # dict[(i,j)] -> dict[k] -> Fraction
        self.star = star
        self.label = label

    def mul_vec(self, u, v):
        out = zeros(self.dim)
        for i, x in enumerate(u):
            if not x:
                continue
            for j, y in enumerate(v):
                if not y:
                    continue
                cell = self.mul.get((i, j))
                if cell:
                    xy = x * y
                    for k, c in cell.items():
                        out[k] += xy * c
        return out

    def star_vec(self, v):
        return mat_vec(self.star, v)

    def basis_vec(self, i):
        v = zeros(self.dim)
        v[i] = ONE
        return v

    def left_mult_matrix(self, x):
        cols = [self.mul_vec(x, self.basis_vec(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def trace_left_mult(self, x):
        """tr(L_x) without materializing the matrix."""
        t = ZERO
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j in range(self.dim):
                cell = self.mul.get((i, j))
                if cell:
                    c = cell.get(j)
                    if c:
                        t += xi * c
        return t

    def unit_vector(self):
        """Two-sided unit if one exists, else None.

        Solves x b_j = b_j = b_j x as one sparse system: a mul cell (a, b)
        puts its constants into the rows (left, b, k) at column a and
        (right, a, k) at column b. The unit is unique when it exists.
        """
        rows = {}
        for (a, b), cell in self.mul.items():
            for k, c in cell.items():
                rows.setdefault(("left", b, k), {})[a] = c
                rows.setdefault(("right", a, k), {})[b] = c
        rhs = {}
        for j in range(self.dim):
            rhs[("left", j, j)] = rhs[("right", j, j)] = ONE
        return sparse_solve(rows, self.dim, rhs)[0]

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i):
                if self.mul.get((i, j), {}) != self.mul.get((j, i), {}):
                    return False
        return True


def diagonal_star_algebra(n, label=""):
    mul = {(i, i): {i: ONE} for i in range(n)}
    return StarAlgebra(n, mul, identity(n), label)


def matrix_algebra(n, label=None):
    """Full matrix algebra with basis e_ij at index i*n+j."""
    mul = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mul[(i * n + j, k * n + l)] = {i * n + l: ONE}
    star = zero_matrix(n * n)
    for i in range(n):
        for j in range(n):
            star[j * n + i][i * n + j] = ONE
    return StarAlgebra(n * n, mul, star, label or f"M{n}")


def star_algebra_direct_sum(a, b, label=""):
    dim = a.dim + b.dim
    mul = {}
    for (i, j), cell in a.mul.items():
        mul[(i, j)] = dict(cell)
    for (i, j), cell in b.mul.items():
        mul[(a.dim + i, a.dim + j)] = {a.dim + k: v for k, v in cell.items()}
    star = zero_matrix(dim)
    for i in range(a.dim):
        for j in range(a.dim):
            star[i][j] = a.star[i][j]
    for i in range(b.dim):
        for j in range(b.dim):
            star[a.dim + i][a.dim + j] = b.star[i][j]
    return StarAlgebra(dim, mul, star, label or f"{a.label}+{b.label}")


# ---------------------------------------------------------------------------
# algebras with inverse-semigroup actions


class GAlgebra:
    """A *-algebra with an action matrix per semigroup element.

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

    def act(self, g: int, v):
        return mat_vec(self.action[g], v)

    def char_matrices(self):
        """Minimal character projections acting on the algebra."""
        if self._char_mats is not None:
            return self._char_mats
        s = self.sgp
        sp = spectrum(s)
        mats = []
        for i, f in enumerate(sp.gens):
            m = [row[:] for row in self.action[f]]
            for e in sp.gens:
                if s.table[f][e] != f:  # f <= e fails: multiply by (1 - e)
                    em = self.action[e]
                    m = [
                        [m[r][c] - sum(em[r][k] * m[k][c] for k in range(self.dim) if m[k][c])
                         for c in range(self.dim)]
                        for r in range(self.dim)
                    ]
            mats.append(m)
        total = zero_matrix(self.dim)
        for m in mats:
            for r in range(self.dim):
                for c in range(self.dim):
                    total[r][c] += m[r][c]
        if not mat_eq(total, identity(self.dim)):
            raise InvalidAction(
                f"character projections of {self.label!r} do not sum to the identity"
            )
        self._char_mats = mats
        return mats

    def mask_matrix(self, mask: int):
        """Action of the indicator function of a character set."""
        mats = self.char_matrices()
        out = zero_matrix(self.dim)
        for i in iter_mask(mask):
            m = mats[i]
            for r in range(self.dim):
                for c in range(self.dim):
                    out[r][c] += m[r][c]
        return out

    def germ_matrix(self, x: ExtendedElement):
        """Extended action of a germ: alpha_g composed with its domain projection."""
        return mat_mul(self.action[x.g], self.mask_matrix(x.chars))


def galgebra(sgp, alg, action, label=""):
    return GAlgebra(sgp, alg, action, label)


def trivial_algebra(s: FiniteInvSgp) -> GAlgebra:
    """The scalar line with every element acting as the identity.

    With a declared zero the zero element acts as 0 instead; validation then
    fails exactly when the semigroup has zero divisors, matching the fact
    that no such action exists there.
    """
    action = {}
    for g in s.elements():
        if s.zero is not None and g == s.zero:
            action[g] = [[ZERO]]
        else:
            action[g] = [[ONE]]
    return GAlgebra(s, diagonal_star_algebra(1, "C"), action, "C")


def c0x_algebra(s: FiniteInvSgp) -> GAlgebra:
    """Functions on the character space with the conjugation action."""
    sp = spectrum(s)
    n = sp.size
    action = {}
    for g in s.elements():
        m = zero_matrix(n)
        for i, j in sp.char_map(g).items():
            m[j][i] = ONE
        action[g] = m
    return GAlgebra(s, diagonal_star_algebra(n, "C0(X)"), action, "C0(X)")


def from_points(s: FiniteInvSgp, npoints: int, maps: dict, label="points") -> GAlgebra:
    """Commutative algebra of functions on a finite set with partial bijections.

    maps[g] is a dict point -> point giving the (injective) partial action.
    """
    action = {}
    for g in s.elements():
        m = zero_matrix(npoints)
        for p, q in maps.get(g, {}).items():
            m[q][p] = ONE
        action[g] = m
    return GAlgebra(s, diagonal_star_algebra(npoints, label), action, label)


def direct_sum_g(a: GAlgebra, b: GAlgebra, label="") -> GAlgebra:
    assert a.sgp is b.sgp
    alg = star_algebra_direct_sum(a.alg, b.alg, label)
    action = {}
    for g in set(a.action) & set(b.action):
        m = zero_matrix(alg.dim)
        for i in range(a.dim):
            for j in range(a.dim):
                m[i][j] = a.action[g][i][j]
        for i in range(b.dim):
            for j in range(b.dim):
                m[a.dim + i][a.dim + j] = b.action[g][i][j]
        action[g] = m
    return GAlgebra(a.sgp, alg, action, label or f"{a.label}+{b.label}")


# ---------------------------------------------------------------------------
# validation


def _first_failure(gen):
    for witness in gen:
        return witness
    return None


def validate_g_algebra(a: GAlgebra) -> dict:
    """Exhaustive check of the *-algebra and action axioms; reports witnesses."""
    s, alg = a.sgp, a.alg
    d = alg.dim
    basis = [alg.basis_vec(i) for i in range(d)]
    checks = []

    def assoc():
        for i in range(d):
            for j in range(d):
                ij = alg.mul_vec(basis[i], basis[j])
                for k in range(d):
                    lhs = alg.mul_vec(ij, basis[k])
                    rhs = alg.mul_vec(basis[i], alg.mul_vec(basis[j], basis[k]))
                    if lhs != rhs:
                        yield (i, j, k)

    checks.append({"name": "associative", "witness": _first_failure(assoc())})

    def star_ok():
        if not mat_eq(mat_mul(a.alg.star, a.alg.star), identity(d)):
            yield "star not involutive"
        for i in range(d):
            for j in range(d):
                lhs = alg.star_vec(alg.mul_vec(basis[i], basis[j]))
                rhs = alg.mul_vec(alg.star_vec(basis[j]), alg.star_vec(basis[i]))
                if lhs != rhs:
                    yield (i, j)

    checks.append({"name": "star_antimultiplicative", "witness": _first_failure(star_ok())})

    keys = set(a.action)

    def hom():
        if s.unit not in keys or not mat_eq(a.action[s.unit], identity(d)):
            yield "unit does not act as identity"
            return
        if s.zero is not None and s.zero in keys:
            if not mat_eq(a.action[s.zero], zero_matrix(d)):
                yield "declared zero does not act as zero"
                return
        for g in keys:
            for h in keys:
                gh = s.table[g][h]
                if gh in keys and not mat_eq(
                    mat_mul(a.action[g], a.action[h]), a.action[gh]
                ):
                    yield (s.names[g], s.names[h])

    checks.append({"name": "action_homomorphism", "witness": _first_failure(hom())})

    def endo():
        for g in keys:
            m = a.action[g]
            for i in range(d):
                gi = mat_vec(m, basis[i])
                if mat_vec(m, alg.star_vec(basis[i])) != alg.star_vec(gi):
                    yield (s.names[g], i, "star")
                for j in range(d):
                    lhs = mat_vec(m, alg.mul_vec(basis[i], basis[j]))
                    rhs = alg.mul_vec(gi, mat_vec(m, basis[j]))
                    if lhs != rhs:
                        yield (s.names[g], i, j)

    checks.append({"name": "star_endomorphisms", "witness": _first_failure(endo())})

    def central():
        seen = set()
        for g in keys:
            e = s.range_of(g)
            if e in seen or e not in keys:
                continue
            seen.add(e)
            m = a.action[e]
            for i in range(d):
                mi = mat_vec(m, basis[i])
                for j in range(d):
                    if alg.mul_vec(mi, basis[j]) != alg.mul_vec(basis[i], mat_vec(m, basis[j])):
                        yield (s.names[e], i, j)

    checks.append({"name": "range_projections_central", "witness": _first_failure(central())})

    for c in checks:
        c["pass"] = c["witness"] is None
    return {"check": "g_algebra", "label": a.label, "pass": all(c["pass"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# groupoid coefficient algebras (fiber-adapted basis)


class HAlgebra:
    """Coefficient algebra over a finite groupoid; also a C0(units)-algebra.

    unit_of_basis[i] is the index (into gpd.units) of the fiber holding basis
    vector i. embed, when present, maps basis vectors into a parent algebra.
    """

    def __init__(self, gpd, alg: StarAlgebra, action: dict, unit_of_basis, label="", embed=None, parent=None):
        self.gpd = gpd
        self.alg = alg
        self.action = action  # dict ExtendedElement -> matrix
        self.unit_of_basis = tuple(unit_of_basis)
        self.label = label or alg.label
        self.embed = embed  # list of vectors in parent coordinates
        self.parent = parent

    @property
    def dim(self):
        return self.alg.dim

    def fiber_indices(self, unit_pos: int):
        return [i for i, u in enumerate(self.unit_of_basis) if u == unit_pos]

    def unit_projection(self, unit_pos: int):
        m = zero_matrix(self.dim)
        for i in self.fiber_indices(unit_pos):
            m[i][i] = ONE
        return m


def validate_h_algebra(d: HAlgebra) -> dict:
    """Groupoid-sense validation: units act as orthogonal central coordinate
    projections spanning the algebra; arrows act as fiber *-isomorphisms."""
    s = d.gpd.sgp
    alg = d.alg
    n = alg.dim
    basis = [alg.basis_vec(i) for i in range(n)]
    checks = []

    def assoc():
        for i in range(n):
            for j in range(n):
                ij = alg.mul_vec(basis[i], basis[j])
                for k in range(n):
                    if alg.mul_vec(ij, basis[k]) != alg.mul_vec(basis[i], alg.mul_vec(basis[j], basis[k])):
                        yield (i, j, k)

    checks.append({"name": "associative", "witness": _first_failure(assoc())})

    def star_ok():
        if not mat_eq(mat_mul(alg.star, alg.star), identity(n)):
            yield "star not involutive"
        for i in range(n):
            for j in range(n):
                if alg.star_vec(alg.mul_vec(basis[i], basis[j])) != alg.mul_vec(
                    alg.star_vec(basis[j]), alg.star_vec(basis[i])
                ):
                    yield (i, j)

    checks.append({"name": "star_antimultiplicative", "witness": _first_failure(star_ok())})

    def unit_structure():
        for upos, u in enumerate(d.gpd.units):
            if u not in d.action:
                yield f"missing unit action {u}"
                continue
            if not mat_eq(d.action[u], d.unit_projection(upos)):
                yield f"unit {u} is not its coordinate projection"
        # fibers multiply within themselves and orthogonally across units
        for i in range(n):
            for j in range(n):
                prod = alg.mul_vec(basis[i], basis[j])
                if d.unit_of_basis[i] != d.unit_of_basis[j]:
                    if any(prod):
                        yield (i, j, "cross-fiber product nonzero")
                else:
                    for k, v in enumerate(prod):
                        if v and d.unit_of_basis[k] != d.unit_of_basis[i]:
                            yield (i, j, "product leaves fiber")

    checks.append({"name": "c0_units_structure", "witness": _first_failure(unit_structure())})

    def arrows():
        for x, m in d.action.items():
            src = d.gpd.unit_pos_of_mask(germ_source(s, x))
            rng = d.gpd.unit_pos_of_mask(germ_range(s, x))
            for i in range(n):
                col = [m[r][i] for r in range(n)]
                if d.unit_of_basis[i] != src:
                    if any(col):
                        yield (x, i, "acts outside source fiber")
                    continue
                for r, v in enumerate(col):
                    if v and d.unit_of_basis[r] != rng:
                        yield (x, i, "image outside range fiber")
            for y, my in d.action.items():
                prod = tilde_mul(s, x, y)
                expected = d.action.get(prod)
                got = mat_mul(m, my)
                if prod.is_zero():
                    if not mat_eq(got, zero_matrix(n)):
                        yield (x, y, "non-composable product acts nonzero")
                elif expected is not None and not mat_eq(got, expected):
                    yield (x, y, "composition mismatch")
            for i in range(n):
                mi = mat_vec(m, basis[i])
                if mat_vec(m, alg.star_vec(basis[i])) != alg.star_vec(mi):
                    yield (x, i, "star")
                for j in range(n):
                    if mat_vec(m, alg.mul_vec(basis[i], basis[j])) != alg.mul_vec(
                        mi, mat_vec(m, basis[j])
                    ):
                        yield (x, i, j)

    checks.append({"name": "arrow_actions", "witness": _first_failure(arrows())})

    for c in checks:
        c["pass"] = c["witness"] is None
    return {
        "check": "h_algebra",
        "label": d.label,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def trivial_line(gpd, unit_pos: int, label="C") -> HAlgebra:
    """Fiber C at one groupoid unit, zero elsewhere."""
    s = gpd.sgp
    alg = diagonal_star_algebra(1, label)
    action = {}
    for x in gpd.elements:
        src = gpd.unit_pos_of_mask(germ_source(s, x))
        rng = gpd.unit_pos_of_mask(germ_range(s, x))
        action[x] = [[ONE]] if src == unit_pos and rng == unit_pos else [[ZERO]]
    return HAlgebra(gpd, alg, action, [unit_pos], label)


def c0_units(gpd, label="C0(units)") -> HAlgebra:
    """Functions on the unit space; arrows translate source to range."""
    s = gpd.sgp
    n = len(gpd.units)
    alg = diagonal_star_algebra(n, label)
    action = {}
    for x in gpd.elements:
        m = zero_matrix(n)
        src = gpd.unit_pos_of_mask(germ_source(s, x))
        rng = gpd.unit_pos_of_mask(germ_range(s, x))
        m[rng][src] = ONE
        action[x] = m
    return HAlgebra(gpd, alg, action, list(range(n)), label)


def h_direct_sum(a: HAlgebra, b: HAlgebra, label="") -> HAlgebra:
    assert a.gpd is b.gpd
    alg = star_algebra_direct_sum(a.alg, b.alg, label)
    action = {}
    for x in a.gpd.elements:
        m = zero_matrix(alg.dim)
        ma, mb = a.action[x], b.action[x]
        for i in range(a.dim):
            for j in range(a.dim):
                m[i][j] = ma[i][j]
        for i in range(b.dim):
            for j in range(b.dim):
                m[a.dim + i][a.dim + j] = mb[i][j]
        action[x] = m
    return HAlgebra(
        a.gpd, alg, action, list(a.unit_of_basis) + list(b.unit_of_basis),
        label or f"{a.label}+{b.label}",
    )


# ---------------------------------------------------------------------------
# corners, restriction, cut-downs


def subalgebra_on_projection(a: GAlgebra, p, label="") -> tuple:
    """Corner of a central projection matrix: (GAlgebra, embedding vectors)."""
    span = Span()
    for j in range(a.dim):
        span.add([p[i][j] for i in range(a.dim)])
    basis = [list(r) for r in span.rows]
    k = len(basis)

    def coords(v):
        c = span.coords(v)
        if c is None:
            raise InvalidAction(f"corner of {a.label!r} is not closed")
        return c

    mul = {}
    for i in range(k):
        for j in range(k):
            cell = {t: v for t, v in enumerate(coords(a.alg.mul_vec(basis[i], basis[j]))) if v}
            if cell:
                mul[(i, j)] = cell
    star = [[ZERO] * k for _ in range(k)]
    for j in range(k):
        for i, v in enumerate(coords(a.alg.star_vec(basis[j]))):
            star[i][j] = v
    action = {}
    for g, m in a.action.items():
        cols = [coords(mat_vec(m, basis[j])) for j in range(k)]
        action[g] = [[cols[j][i] for j in range(k)] for i in range(k)]
    sub = GAlgebra(a.sgp, StarAlgebra(k, mul, star, label), action, label)
    return sub, basis


def cutdown(a: GAlgebra, p: int) -> tuple:
    """Split along a central idempotent semigroup element: (pA, (1-p)A)."""
    s = a.sgp
    if not s.is_idempotent(p):
        raise NotCentral(f"{s.names[p]} is not idempotent", witness=p)
    for g in s.elements():
        if s.table[p][g] != s.table[g][p]:
            raise NotCentral(f"{s.names[p]} does not commute with {s.names[g]}", witness=(p, g))
    m = a.action[p]
    if not mat_eq(mat_mul(m, m), m):
        raise NotCentral(f"action of {s.names[p]} is not idempotent", witness=p)
    for i in range(a.dim):
        x = a.alg.basis_vec(i)
        mx = mat_vec(m, x)
        for j in range(a.dim):
            y = a.alg.basis_vec(j)
            if a.alg.mul_vec(mx, y) != a.alg.mul_vec(x, mat_vec(m, y)):
                raise NotCentral(f"action of {s.names[p]} is not a central multiplier", witness=(i, j))
    comp = [[(ONE if i == j else ZERO) - m[i][j] for j in range(a.dim)] for i in range(a.dim)]
    part, _ = subalgebra_on_projection(a, m, f"{s.names[p]}({a.label})")
    rest, _ = subalgebra_on_projection(a, comp, f"(1-{s.names[p]})({a.label})")
    return part, rest


def restrict(a: GAlgebra, h) -> HAlgebra:
    """Cut a semigroup algebra down to a finite groupoid: the corner of the
    unit-projection sum, with the germ actions, in a fiber-adapted basis."""
    s = a.sgp
    basis = []
    unit_of_basis = []
    for upos, u in enumerate(h.units):
        m = a.mask_matrix(u.chars)
        span = Span()
        for j in range(a.dim):
            span.add([m[i][j] for i in range(a.dim)])
        for row in span.rows:
            basis.append(list(row))
            unit_of_basis.append(upos)
    k = len(basis)
    basis_all = Basis(basis)

    def coords(v):
        c = basis_all.coords(v)
        if c is None:
            raise InvalidAction(f"groupoid corner of {a.label!r} is not closed")
        return c

    mul = {}
    for i in range(k):
        for j in range(k):
            cell = {t: v for t, v in enumerate(coords(a.alg.mul_vec(basis[i], basis[j]))) if v}
            if cell:
                mul[(i, j)] = cell
    star = [[ZERO] * k for _ in range(k)]
    for j in range(k):
        for i, v in enumerate(coords(a.alg.star_vec(basis[j]))):
            star[i][j] = v
    action = {}
    for x in h.elements:
        gm = a.germ_matrix(x)
        cols = [coords(mat_vec(gm, basis[j])) for j in range(k)]
        action[x] = [[cols[j][i] for j in range(k)] for i in range(k)]
    label = f"Res({a.label})"
    return HAlgebra(h, StarAlgebra(k, mul, star, label), action, unit_of_basis, label,
                    embed=basis, parent=a)


# ---------------------------------------------------------------------------
# tensor products


def tensor_g(a: GAlgebra, b: GAlgebra, label="") -> GAlgebra:
    """Plain tensor product with the diagonal action."""
    assert a.sgp is b.sgp
    da, db = a.dim, b.dim
    mul = {}
    for (i1, j1), cell1 in a.alg.mul.items():
        for (i2, j2), cell2 in b.alg.mul.items():
            out = {}
            for k1, v1 in cell1.items():
                for k2, v2 in cell2.items():
                    out[k1 * db + k2] = v1 * v2
            mul[(i1 * db + i2, j1 * db + j2)] = out
    star = mat_kron(a.alg.star, b.alg.star)
    action = {}
    for g in set(a.action) & set(b.action):
        action[g] = mat_kron(a.action[g], b.action[g])
    return GAlgebra(a.sgp, StarAlgebra(da * db, mul, star, label), action,
                    label or f"{a.label}(x){b.label}")


def _quotient_algebra(sgp, big: GAlgebra, relations, label):
    q = QuotientSpace(big.dim, relations)
    k = q.dim
    lifts = [q.lift([ONE if t == i else ZERO for t in range(k)]) for i in range(k)]
    mul = {}
    for i in range(k):
        for j in range(k):
            cell = {t: v for t, v in enumerate(q.to_coords(big.alg.mul_vec(lifts[i], lifts[j]))) if v}
            if cell:
                mul[(i, j)] = cell
    star = [[ZERO] * k for _ in range(k)]
    for j in range(k):
        for i, v in enumerate(q.to_coords(big.alg.star_vec(lifts[j]))):
            star[i][j] = v
    action = {}
    for g, m in big.action.items():
        cols = [q.to_coords(mat_vec(m, lifts[j])) for j in range(k)]
        action[g] = [[cols[j][i] for j in range(k)] for i in range(k)]
    return GAlgebra(sgp, StarAlgebra(k, mul, star, label), action, label), q


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
            for j in range(b.dim):
                v = zeros(big.dim)
                for r in range(a.dim):
                    if ea[r][i]:
                        v[r * db + j] += ea[r][i]
                for r in range(b.dim):
                    if eb[r][j]:
                        v[i * db + r] -= eb[r][j]
                if any(v):
                    relations.append(v)
    out, _ = _quotient_algebra(s, big, relations, label or f"{a.label}(x)X{b.label}")
    return out


# ---------------------------------------------------------------------------
# *-homomorphisms


@dataclass
class StarHomomorphism:
    source: object
    target: object
    matrix: list  # target.dim x source.dim
    label: str = ""

    def apply(self, v):
        return mat_vec(self.matrix, v)


def verify_star_hom(f: StarHomomorphism, equivariant_keys=None) -> dict:
    """Multiplicativity, star preservation and optional equivariance."""
    sa = f.source.alg if hasattr(f.source, "alg") else f.source
    sb = f.target.alg if hasattr(f.target, "alg") else f.target
    checks = []

    def multiplicative():
        for i in range(sa.dim):
            fi = f.apply(sa.basis_vec(i))
            for j in range(sa.dim):
                lhs = f.apply(sa.mul_vec(sa.basis_vec(i), sa.basis_vec(j)))
                rhs = sb.mul_vec(fi, f.apply(sa.basis_vec(j)))
                if lhs != rhs:
                    yield (i, j)

    checks.append({"name": "multiplicative", "witness": _first_failure(multiplicative())})

    def star_pres():
        for i in range(sa.dim):
            if f.apply(sa.star_vec(sa.basis_vec(i))) != sb.star_vec(f.apply(sa.basis_vec(i))):
                yield i

    checks.append({"name": "star_preserving", "witness": _first_failure(star_pres())})

    if equivariant_keys is not None:
        def equivariant():
            for g in equivariant_keys:
                ma = f.source.action[g]
                mb = f.target.action[g]
                if not mat_eq(mat_mul(f.matrix, ma), mat_mul(mb, f.matrix)):
                    yield g

        checks.append({"name": "equivariant", "witness": _first_failure(equivariant())})

    for c in checks:
        c["pass"] = c["witness"] is None
    return {"check": "star_homomorphism", "label": f.label, "pass": all(c["pass"] for c in checks), "checks": checks}
