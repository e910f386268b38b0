"""Exact rational linear algebra: RREF, kernels, spans, quotients, LDL^T PSD checks.

All matrices are lists/tuples of rows of fractions.Fraction; nothing here is
floating point. ``mat_vec`` and ``mat_mul`` keep that dense interface but
multiply only nonzero entries. ``sparse_solve`` takes sparse rows instead
and eliminates them with sympy's sparse RREF over QQ, and ``QuotientSpace``
reduces its relations the same way, once, and reduces sparse vectors
without densifying.
"""

from fractions import Fraction
from functools import cached_property

from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import sdm_irref, sdm_nullspace_from_rref

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n: int) -> list:
    return [ZERO] * n


def identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def nonzero_pairs(v) -> list:
    """The (index, value) pairs of v with value != 0, in index order."""
    return [(j, x) for j, x in enumerate(v) if x]


def nonzero_rows(m) -> list:
    """Each row of m as its ``nonzero_pairs``."""
    return [nonzero_pairs(row) for row in m]


def mat_vec(m, v) -> list:
    nonzero = nonzero_pairs(v)
    return [sum((row[j] * x for j, x in nonzero if row[j]), ZERO) for row in m]


def mat_mul(a, b) -> list:
    """a b, touching only nonzero entries: each row of a and of b is read
    once as its (column, value) pairs."""
    return rows_mul(nonzero_rows(a), nonzero_rows(b), len(b[0]) if b else 0)


def rows_mul(a_rows, b_rows, cols) -> list:
    """The dense product of two matrices given by their ``nonzero_rows``;
    ``cols`` is the column count of the right factor. Callers that multiply
    one matrix many times split it into rows once."""
    out = []
    for ai in a_rows:
        oi = [ZERO] * cols
        for j, x in ai:
            for c, y in b_rows[j]:
                oi[c] += x * y
        out.append(oi)
    return out


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def rref(rows):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns)."""
    work = [list(map(frac, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        lead = work[r][c]
        if lead != 1:
            work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(m) -> list:
    """Basis of {v : m v = 0} for a matrix given as rows."""
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = zeros(ncols)
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        basis.append(v)
    return basis


def sparse_solve(rows: dict, ncols: int, rhs: dict | None = None):
    """Solve sum_c rows[r][c] x_c = rhs[r] exactly for every row key r.

    ``rows`` maps any hashable row key to a ``{col: Fraction}`` dict that
    omits zeros; ``rhs`` maps row keys to right-hand sides (missing keys and
    ``rhs=None`` mean 0, and a key absent from ``rows`` is a zero row).
    Returns ``(x, kernel)``: one solution as a dense list (None when the
    system is inconsistent) and a basis of the kernel as dense lists, the one
    read off the reduced row echelon form (1 at each free column, 0 at the
    other free columns).
    """
    aug = {}
    for key, row in rows.items():
        qrow = {c: QQ(v.numerator, v.denominator) for c, v in row.items() if v}
        if qrow:
            aug[key] = qrow
    for key, v in (rhs or {}).items():
        if v:
            aug.setdefault(key, {})[ncols] = QQ(v.numerator, v.denominator)
    red, pivots, nonzero_cols = sdm_irref(dict(enumerate(aug.values())))
    if pivots and pivots[-1] == ncols:
        x = None
    else:
        x = zeros(ncols)
        for i, p in enumerate(pivots):
            x[p] = _frac_qq(red[i].get(ncols, QQ.zero))
    kernel = []
    for vec in sdm_nullspace_from_rref(red, QQ.one, ncols, pivots, nonzero_cols)[0]:
        dense = zeros(ncols)
        for c, v in vec.items():
            dense[c] = _frac_qq(v)
        kernel.append(dense)
    return x, kernel


def _frac_qq(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def mat_inv(m):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(m)
    aug = [list(map(frac, m[i])) + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


class Span:
    """Row span with reduced basis; supports membership and coordinates."""

    def __init__(self, vectors=()):
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def add(self, v) -> bool:
        """Reduce v against the span; add if independent. Returns True if added."""
        v = self._reduce(list(map(frac, v)))
        for c, x in enumerate(v):
            if x:
                v = [a / x for a in v]
                # keep rows sorted by pivot and fully reduced
                for i, row in enumerate(self.rows):
                    if row[c]:
                        self.rows[i] = [a - row[c] * b for a, b in zip(row, v)]
                pos = sum(1 for p in self.pivots if p < c)
                self.rows.insert(pos, v)
                self.pivots.insert(pos, c)
                return True
        return False

    def _reduce(self, v):
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return is_zero_vec(self._reduce(list(map(frac, v))))

    def coords(self, v):
        """Coefficients of v over the reduced basis rows, or None."""
        v = list(map(frac, v))
        cs = [v[p] for p in self.pivots]
        if is_zero_vec(self._reduce(v)):
            return cs
        return None

    @property
    def dim(self) -> int:
        return len(self.rows)


class Basis:
    """Independent vectors with coordinate solving in the given order."""

    def __init__(self, vectors):
        self.vectors = [list(map(frac, v)) for v in vectors]
        n = len(self.vectors)
        self._rows = []    # internal rref rows
        self._pivots = []
        self._trans = []   # rref row as a combination of self.vectors
        for idx, v in enumerate(self.vectors):
            row = list(v)
            t = zeros(n)
            t[idx] = ONE
            for r, p, tr in zip(self._rows, self._pivots, self._trans):
                if row[p]:
                    f = row[p]
                    row = [a - f * b for a, b in zip(row, r)]
                    t = [a - f * b for a, b in zip(t, tr)]
            piv = next((c for c, x in enumerate(row) if x), None)
            if piv is None:
                raise ValueError(f"vector {idx} is dependent on its predecessors")
            lead = row[piv]
            row = [a / lead for a in row]
            t = [a / lead for a in t]
            for i in range(len(self._rows)):
                if self._rows[i][piv]:
                    f = self._rows[i][piv]
                    self._rows[i] = [a - f * b for a, b in zip(self._rows[i], row)]
                    self._trans[i] = [a - f * b for a, b in zip(self._trans[i], t)]
            self._rows.append(row)
            self._pivots.append(piv)
            self._trans.append(t)

    @property
    def dim(self):
        return len(self.vectors)

    def coords(self, v):
        """Coefficients of v over the original vectors, or None."""
        v = list(map(frac, v))
        out = zeros(self.dim)
        for r, p, tr in zip(self._rows, self._pivots, self._trans):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, r)]
                out = [a + f * b for a, b in zip(out, tr)]
        if not is_zero_vec(v):
            return None
        return out


class QuotientSpace:
    """Ambient space modulo a relation span, with reduced representatives.

    The relations, ``{col: value}`` dicts or dense lists, are put in reduced
    row echelon form once with sympy's sparse ``sdm_irref``. That form is
    unique for the span, so the free (non-pivot) columns, the coordinates and
    the lifts depend only on the span, not on the relations that span it.
    """

    def __init__(self, ambient_dim: int, relations=()):
        self.ambient_dim = ambient_dim
        rows = {}
        for i, rel in enumerate(relations):
            items = rel.items() if isinstance(rel, dict) else enumerate(rel)
            qrow = {c: QQ(v.numerator, v.denominator) for c, v in items if v}
            if qrow:
                rows[i] = qrow
        red, pivots, _ = sdm_irref(rows)
        pivset = set(pivots)
        self.free = [c for c in range(ambient_dim) if c not in pivset]
        self.free_pos = {c: i for i, c in enumerate(self.free)}
        # pivot column -> minus the rest of its reduced row, over free positions:
        # the unit vector at the pivot is congruent to that combination
        self._pivot_rows = {p: {self.free_pos[c]: -_frac_qq(v) for c, v in red[i].items() if c != p}
                            for i, p in enumerate(pivots)}

    @property
    def dim(self) -> int:
        return len(self.free)

    def to_coords(self, v) -> list:
        """Coordinates of a dense vector's class over the free columns."""
        out = [frac(v[c]) for c in self.free]
        for p, row in self._pivot_rows.items():
            x = v[p]
            if x:
                for i, r in row.items():
                    out[i] += x * r
        return out

    def sparse_coords(self, vec: dict) -> dict:
        """``to_coords`` of a ``{col: value}`` vector as a ``{position: value}``
        dict, in position order and without zeros."""
        out = {}
        for c, x in vec.items():
            i = self.free_pos.get(c)
            if i is not None:
                out[i] = out.get(i, ZERO) + x
            else:
                for i, r in self._pivot_rows[c].items():
                    out[i] = out.get(i, ZERO) + x * r
        return {i: out[i] for i in sorted(out) if out[i]}

    @cached_property
    def lifts(self) -> list:
        """The reduced representatives of the quotient's basis vectors: the
        unit vectors at the free columns."""
        out = []
        for c in self.free:
            v = zeros(self.ambient_dim)
            v[c] = ONE
            out.append(v)
        return out


def psd_certificate(m):
    """Exact pivoted LDL^T check that a symmetric rational matrix is PSD.

    Returns (True, None) or (False, witness) where witness identifies the
    failing pivot: negative diagonal entry, or a nonzero row with a fully
    zero diagonal (which PSD forbids).
    """
    n = len(m)
    a = [list(map(frac, row)) for row in m]
    idx = list(range(n))
    for step in range(n):
        piv, best = None, ZERO
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
                        return False, {
                            "kind": "zero_diagonal_nonzero_entry",
                            "index": (idx[i], idx[j]),
                            "value": str(a[i][j]),
                        }
            return True, None
        if piv != step:
            a[step], a[piv] = a[piv], a[step]
            for row in a:
                row[step], row[piv] = row[piv], row[step]
            idx[step], idx[piv] = idx[piv], idx[step]
        d = a[step][step]
        for i in range(step + 1, n):
            f = a[i][step] / d
            if f:
                for j in range(step, n):
                    a[i][j] -= f * a[step][j]
    return True, None
