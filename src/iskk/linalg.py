"""Exact rational linear algebra; nothing here is floating point.

Every exact number is kept in one canonical form: a Python int when it is
integral and a ``fractions.Fraction`` with denominator > 1 otherwise. The
structure constants, stars and actions of the corpus are all integers, so
they stay ints, whose arithmetic is far cheaper than a Fraction's. ``frac``
is the one place that divides or builds a Fraction: every number a
reduction produces (a pivot scaling, an elimination read back from ``QQ``,
an LDL^T multiplier) goes through it, so ``int / int`` never makes a float.

Vectors have one format, a ``{col: value}`` dict without zeros and with
canonical values, which every entry point takes and returns; ``rref``,
``rank`` and ``nullspace`` also take the width ``ncols``. Only ``mat_mul``,
on the small int matrices of K0 maps, and ``psd_certificate``, on one Gram
matrix per character, read dense lists, as their data are dense.

One batch engine, ``_irref`` (sympy's sparse reduced row echelon form over
QQ), serves ``rref`` and its readers ``rank``, ``nullspace`` and ``mat_inv``,
``sparse_solve`` and ``QuotientSpace``. ``_qq`` is the only code that
converts to ``QQ``, for ``_irref`` and for the center's polynomials in
``crossed``, and it takes each entry's numerator and denominator as they
are, since ints and Fractions are already reduced. Before ``_irref``,
``rref`` tries a certificate: rows scaled to integers that have full column
rank modulo the fixed prime ``PRIME`` have full column rank over Q, so their
form is the identity. A lower rank modulo ``PRIME`` proves nothing, and
those rows go to ``_irref`` as they are. ``Span`` is the one incremental
engine; it keeps its reduced rows as dicts and touches only nonzeros.
``Basis`` is sparse vectors plus one ``mat_inv``: it reduces its vectors in
a ``Span`` and inverts the small matrix of their entries at the span's
pivots, which turns coordinates over the reduced rows into coordinates over
the vectors.

The three coordinate spaces share one interface: ``sparse_coords`` maps a
``{col: value}`` vector to its coordinates as a ``{position: value}`` dict
without zeros, over a ``Span``'s reduced rows, a ``Basis``'s own vectors or
a ``QuotientSpace``'s free columns; the first two return None for a vector
outside them. ``galgebra.transport`` reads every change of basis through it.

``psd_certificate`` is a pivoted LDL^T check that updates only the nonzero
columns of each pivot row; ``mat_mul`` touches only nonzero entries.
"""

import bisect
import math
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.matrices.sdm import sdm_irref, sdm_nullspace_from_rref

from .errors import DependentVector

# The prime of the full-rank certificate in ``rref``: the largest below 2**30,
# so every residue fits in one 30-bit digit of a CPython int.
PRIME = 1_073_741_789


def frac(p, q=1):
    """p / q exactly, for rationals p and q != 0, in canonical form: an int
    when it is integral, else a Fraction in lowest terms; ``frac(x)`` is x
    in canonical form."""
    if type(p) is int and type(q) is int:
        if q == 1:
            return p
        n, r = divmod(p, q)
        if not r:
            return n
    x = Fraction(p, q)
    return x.numerator if x.denominator == 1 else x


def zeros(n: int) -> list:
    return [0] * n


def nonzero_pairs(v) -> list:
    """The (index, value) pairs of v with value != 0, in index order."""
    return [(j, x) for j, x in enumerate(v) if x]


def mat_mul(a, b) -> list:
    """a b with canonical entries, touching only nonzero entries: each row of
    b is read once as its (column, value) pairs."""
    cols = len(b[0]) if b else 0
    b_rows = [nonzero_pairs(row) for row in b]
    out = []
    for row in a:
        oi = [0] * cols
        for j, x in enumerate(row):
            if x:
                for c, y in b_rows[j]:
                    oi[c] += x * y
        out.append([x if type(x) is int else frac(x) for x in oi])
    return out


def _qq(row: dict) -> dict:
    """A ``{key: value}`` dict of canonical values as a ``{key: QQ}`` dict
    without zeros: the one conversion to ``QQ``, read by the batch
    elimination and the center's polynomials.

    Ints and Fractions are already in lowest terms with a positive
    denominator, so each value is built from its numerator and denominator
    without a second gcd, by ``QQ.dtype._new`` where the dtype has one
    (sympy's pure-Python ``PythonMPQ``) and by the dtype itself otherwise.
    ``_frac_qq`` converts back."""
    mpq = getattr(QQ.dtype, "_new", QQ.dtype)
    return {c: mpq(v.numerator, v.denominator) for c, v in row.items() if v}


def _irref(rows):
    """The batch elimination: the reduced row echelon form, over QQ, of
    ``{col: value}`` rows. Returns sympy's ``(reduced rows, pivots, nonzero
    columns)``; the reduced rows are ``{col: QQ}`` dicts keyed by position,
    in pivot order."""
    qrows = {}
    for i, row in enumerate(rows):
        qrow = _qq(row)
        if qrow:
            qrows[i] = qrow
    return sdm_irref(qrows)


def _full_rank_mod_p(rows, ncols) -> bool:
    """Whether the ``{col: value}`` rows over ``ncols`` columns are certified
    to have full column rank: each row is scaled by the lcm of its
    denominators to an integer row, and those have full column rank modulo
    ``PRIME``. Then some ncols x ncols minor is nonzero modulo ``PRIME``, so
    it is a nonzero integer, and the rank over Q is ncols too. False says
    nothing.

    The rows are reduced one at a time against echelon rows keyed by their
    leading column, as ``Span`` does, and the pass stops once every column
    leads a row; with fewer rows than columns it does not start."""
    if len(rows) < ncols:
        return False
    echelon = {}  # leading column -> row modulo PRIME, 1 there
    for row in rows:
        items = [(c, x) for c, x in row.items() if x]
        scale = math.lcm(*[x.denominator for _, x in items])
        v = {}
        for c, x in items:
            y = x.numerator * (scale // x.denominator) % PRIME
            if y:
                v[c] = y
        while v:
            c = min(v)
            lead = echelon.get(c)
            if lead is None:
                inv = pow(v[c], -1, PRIME)
                echelon[c] = {k: y * inv % PRIME for k, y in v.items()}
                break
            f = v[c]
            for k, y in lead.items():
                y = (v.get(k, 0) - f * y) % PRIME
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
        if len(echelon) == ncols:
            return True
    return False


def rref(rows, ncols: int):
    """Reduced row echelon form of ``{col: value}`` rows over ``ncols``
    columns. Returns (reduced nonzero rows, pivot columns); the reduced rows
    are ``{col: value}`` dicts in column order.

    Rows certified to have full column rank (``_full_rank_mod_p``) reduce to
    the identity, returned without an elimination; every other input goes
    to ``_irref``."""
    if _full_rank_mod_p(rows, ncols):
        pivots = list(range(ncols))
        return [{c: 1} for c in pivots], pivots
    red, pivots, _ = _irref(rows)
    return [_from_qq(red[i]) for i in range(len(pivots))], pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(m, ncols: int) -> list:
    """Basis of {v : m v = 0} for a matrix given as ``{col: value}`` rows
    over ``ncols`` columns, as ``{col: value}`` dicts in column order."""
    red, pivots = rref(m, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = {free: 1}
        for i, p in enumerate(pivots):
            x = red[i].get(free)
            if x:
                v[p] = -x
        basis.append(dict(sorted(v.items())))
    return basis


def sparse_solve(rows: dict, ncols: int, rhs: dict | None = None):
    """Solve sum_c rows[r][c] x_c = rhs[r] exactly for every row key r.

    ``rows`` maps any hashable row key to a ``{col: value}`` dict that
    omits zeros; ``rhs`` maps row keys to right-hand sides (missing keys and
    ``rhs=None`` mean 0, and a key absent from ``rows`` is a zero row).
    Returns ``(x, kernel)``: one solution (None when the system is
    inconsistent) and a basis of the kernel, the one read off the reduced row
    echelon form (1 at each free column, 0 at the other free columns), all
    ``{col: value}`` dicts in column order.
    """
    aug = dict(rows)
    for key, v in (rhs or {}).items():
        if v:
            aug[key] = {**aug.get(key, {}), ncols: v}
    red, pivots, nonzero_cols = _irref(aug.values())
    x = None
    if not pivots or pivots[-1] != ncols:  # consistent
        x = {p: _frac_qq(red[i][ncols]) for i, p in enumerate(pivots) if ncols in red[i]}
    kernel = sdm_nullspace_from_rref(red, QQ.one, ncols, pivots, nonzero_cols)[0]
    return x, [_from_qq(vec) for vec in kernel]


def _frac_qq(q):
    """A ``QQ`` value as a canonical int or Fraction."""
    return frac(int(q.numerator), int(q.denominator))


def _from_qq(row: dict) -> dict:
    """A ``{col: QQ}`` row as a ``{col: value}`` dict of canonical values in
    column order."""
    return {c: _frac_qq(row[c]) for c in sorted(row)}


def mat_inv(m):
    """Inverse of a square rational matrix given as n ``{col: value}`` rows,
    as such rows in column order, or None if singular."""
    n = len(m)
    red, pivots = rref([{**row, n + i: 1} for i, row in enumerate(m)], 2 * n)
    if pivots != list(range(n)):
        return None
    return [{c - n: x for c, x in row.items() if c >= n} for row in red]


class Span:
    """Row span with a reduced basis; supports membership and coordinates.

    The reduced rows are ``sparse_rows``: ``{col: value}`` dicts without
    zeros, in pivot order, each 1 at its own pivot and 0 at every other
    pivot. So a vector of the span is the combination of the rows with its
    own entries at the pivots as coefficients, and every method touches only
    nonzeros.
    """

    def __init__(self, vectors=()):
        self.sparse_rows = []
        self.pivots = []
        self._row_at = {}  # pivot -> its reduced row
        for v in vectors:
            self.add(v)

    def add(self, v) -> bool:
        """Reduce v against the span; add if independent. Returns True if added."""
        v = self._reduce(_sparse(v))
        if not v:
            return False
        c = min(v)
        x = v[c]
        if x != 1:
            v = {k: frac(y, x) for k, y in v.items()}
        # keep every row fully reduced
        for row in self.sparse_rows:
            f = row.get(c)
            if f:
                _subtract(row, f, v)
        pos = bisect.bisect(self.pivots, c)
        self.sparse_rows.insert(pos, v)
        self.pivots.insert(pos, c)
        self._row_at[c] = v
        return True

    def _reduce(self, v: dict) -> dict:
        """v minus the combination of the rows with v's pivot entries as
        coefficients, for v a ``{col: value}`` dict without zeros. The
        rows are 0 at each other's pivots, so the order does not matter."""
        out = dict(v)
        for p, f in v.items():
            row = self._row_at.get(p)
            if row is not None:
                _subtract(out, f, row)
        return out

    def sparse_coords(self, v) -> dict | None:
        """Coefficients of v over the reduced rows as a ``{position: value}``
        dict in position order and without zeros, or None."""
        v = _sparse(v)
        if self._reduce(v):
            return None
        return {bisect.bisect_left(self.pivots, p): v[p] for p in sorted(v) if p in self._row_at}

    def contains(self, v) -> bool:
        return not self._reduce(_sparse(v))

    @property
    def dim(self) -> int:
        return len(self.sparse_rows)


def _sparse(v: dict) -> dict:
    """A copy of the ``{col: value}`` dict v, without zeros and with
    canonical values."""
    return {c: x if type(x) is int else frac(x) for c, x in v.items() if x}


def _subtract(out: dict, f, row: dict):
    """out -= f row in place, for sparse dicts of canonical values; zeros
    are dropped and the values kept canonical."""
    for c, x in row.items():
        y = out.get(c, 0) - f * x
        if not y:
            out.pop(c, None)
        elif type(y) is int:
            out[c] = y
        else:
            out[c] = frac(y)


class Basis:
    """Independent ``{col: value}`` vectors B_i, with coordinates over them
    in the given order. With R_j, p_j the span's reduced rows and pivots,
    B_i = sum_j C[i][j] R_j for C[i][j] = B_i[p_j], so coordinates over B
    are (coordinates over R) inv(C)."""

    def __init__(self, vectors):
        self.vectors = [_sparse(v) for v in vectors]
        self._span = Span()
        for idx, v in enumerate(self.vectors):
            if not self._span.add(v):
                raise DependentVector(f"vector {idx} is dependent on its predecessors",
                                      witness={"index": idx})
        pivots = self._span.pivots
        self._inv_rows = mat_inv([{j: v[p] for j, p in enumerate(pivots) if p in v} for v in self.vectors])

    @property
    def dim(self):
        return len(self.vectors)

    def sparse_coords(self, v) -> dict | None:
        """Coefficients of v over the original vectors as an ``{index: value}``
        dict in index order and without zeros, or None."""
        c = self._span.sparse_coords(v)
        if c is None:
            return None
        out = {}
        for j, x in c.items():
            for i, y in self._inv_rows[j].items():
                out[i] = out.get(i, 0) + x * y
        return _canonical(out)


class QuotientSpace:
    """Ambient space modulo a relation span, with reduced representatives.

    The ``{col: value}`` relations are put in reduced
    row echelon form once with ``_irref``. That form is unique for the span,
    so the free (non-pivot) columns and the coordinates depend only on the
    span, not on the relations that span it. The class of the unit vector at
    free column ``free[i]`` is the quotient's basis vector i.
    """

    def __init__(self, ambient_dim: int, relations=()):
        red, pivots, _ = _irref(relations)
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

    def sparse_coords(self, vec: dict) -> dict:
        """Coordinates of the class of a ``{col: value}`` vector over the free
        columns, as a ``{position: value}`` dict in position order and without
        zeros."""
        out = {}
        for c, x in vec.items():
            i = self.free_pos.get(c)
            if i is not None:
                out[i] = out.get(i, 0) + x
            else:
                for i, r in self._pivot_rows[c].items():
                    out[i] = out.get(i, 0) + x * r
        return _canonical(out)


def _canonical(out: dict) -> dict:
    """A ``{position: value}`` dict in position order, without zeros and with
    canonical values."""
    return {i: x if type(x) is int else frac(x) for i in sorted(out) if (x := out[i])}


def psd_certificate(m):
    """Exact pivoted LDL^T check that a symmetric rational matrix is PSD.

    Returns (True, None) or (False, witness) where witness identifies the
    failing pivot: negative diagonal entry, or a nonzero row with a fully
    zero diagonal (which PSD forbids).
    """
    n = len(m)
    a = [list(row) for row in m]
    idx = list(range(n))
    for step in range(n):
        piv, best = None, 0
        for i in range(step, n):
            d = a[i][i]
            if not d:
                continue
            if d < 0:
                return False, {"kind": "negative_diagonal", "index": idx[i], "value": str(d)}
            if d > best:
                piv, best = i, d
        if piv is None:
            for i in range(step, n):
                for j in range(step, n):
                    if a[i][j]:
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
        pivot_row = [(j, x) for j, x in enumerate(a[step][step:], step) if x]
        for i in range(step + 1, n):
            if a[i][step]:
                f = frac(a[i][step], d)
                row = a[i]
                for j, x in pivot_row:
                    row[j] -= f * x
    return True, None
