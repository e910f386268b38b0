"""Finite inverse semigroups given by multiplication tables.

Elements are dense indices 0..n-1; the table is the single source of truth.
The involution, idempotents and the natural partial order are derived and
cached. Element subsets are plain int bitmasks.
"""

from itertools import permutations

from .errors import (
    BadUnit,
    BadZero,
    IdempotentsDontCommute,
    MalformedInput,
    NoUniqueInverse,
    NotAssociative,
    NotSubsemigroup,
    UnsupportedSize,
)

# ---------------------------------------------------------------------------
# bitmask helpers


def bit(i: int) -> int:
    return 1 << i


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_mask(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


class FiniteInvSgp:
    """A validated finite inverse semigroup.

    Treat instances as immutable; derived data (the spectrum, the order's
    down-sets) is cached on the instance, so sharing across threads is
    read-only safe.
    """

    def __init__(self, table, star, unit, zero, names):
        self.n = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.star = tuple(star)
        self.unit = unit
        self.zero = zero
        self.names = tuple(names)
        self._idem_mask = mask_of(
            e for e in range(self.n) if self.table[e][e] == e
        )
        self._spectrum = None
        self._down_sets = None

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.star[a]

    def elements(self) -> range:
        return range(self.n)

    def name(self, i: int) -> str:
        return self.names[i]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MalformedInput(f"unknown element name {name!r}") from None

    def is_idempotent(self, e: int) -> bool:
        return bool(self._idem_mask >> e & 1)

    def mul_many(self, items) -> int:
        it = iter(items)
        acc = next(it)
        for x in it:
            acc = self.table[acc][x]
        return acc

    def source(self, g: int) -> int:
        """g*g, the domain idempotent."""
        return self.table[self.star[g]][g]

    def range_of(self, g: int) -> int:
        """gg*, the range idempotent."""
        return self.table[g][self.star[g]]

    def down_set(self, h: int) -> int:
        """Bitmask of {g : g <= h} = {e*h : e idempotent} in the natural
        partial order; every down-set is built on first use."""
        if self._down_sets is None:
            idem = list(iter_mask(self._idem_mask))
            self._down_sets = [mask_of(self.table[e][a] for e in idem) for a in self.elements()]
        return self._down_sets[h]

    def __repr__(self):
        z = "" if self.zero is None else f", zero={self.names[self.zero]}"
        return f"FiniteInvSgp(n={self.n}, unit={self.names[self.unit]}{z})"


# ---------------------------------------------------------------------------
# validation


def validate(table, unit, zero=None, names=None) -> FiniteInvSgp:
    """Validate a multiplication table as a unital finite inverse semigroup.

    Derives the involution. Raises NotAssociative / BadUnit / BadZero /
    NoUniqueInverse / IdempotentsDontCommute with a witness on failure.
    """
    n = len(table)
    if n == 0:
        raise MalformedInput("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedInput(f"table row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise MalformedInput(f"table entry {x!r} out of range 0..{n - 1}")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    if len(set(names)) != n:
        raise MalformedInput("element names are not distinct")
    if not 0 <= unit < n:
        raise MalformedInput("unit index out of range")

    # compare whole rows, (ab)c against a(bc) for every c at once, and scan c
    # only on a row that differs; rows are lists, as a tuple never equals one
    rows = [list(row) for row in table]
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            if rows[ab] == [ra[bc] for bc in rows[b]]:
                continue
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAssociative(
                        f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})",
                        witness=(a, b, c),
                    )
    star = []
    for g in range(n):
        invs = [
            h
            for h in range(n)
            if table[table[g][h]][g] == g and table[table[h][g]][h] == h
        ]
        if len(invs) != 1:
            raise NoUniqueInverse(
                f"element {names[g]} has {len(invs)} inverses", witness=(g, tuple(invs))
            )
        star.append(invs[0])

    for g in range(n):
        if table[unit][g] != g or table[g][unit] != g:
            raise BadUnit(f"{names[unit]} is not a two-sided unit at {names[g]}", witness=(unit, g))
    if zero is not None:
        for g in range(n):
            if table[zero][g] != zero or table[g][zero] != zero:
                raise BadZero(
                    f"{names[zero]} is not absorbing at {names[g]}", witness=(zero, g)
                )

    idem = [e for e in range(n) if table[e][e] == e]
    for e in idem:
        for f in idem:
            if table[e][f] != table[f][e]:
                raise IdempotentsDontCommute(
                    f"{names[e]}*{names[f]} != {names[f]}*{names[e]}", witness=(e, f)
                )

    return FiniteInvSgp(table, star, unit, zero, names)


# ---------------------------------------------------------------------------
# derived structure


def idempotents(s: FiniteInvSgp) -> int:
    """Bitmask of {e : e*e = e}."""
    return s._idem_mask


def leq(s: FiniteInvSgp, g: int, h: int) -> bool:
    """Natural partial order: g <= h iff g = e*h for some idempotent e."""
    return bool(s.down_set(h) >> g & 1)


def nonzero_idempotents(s: FiniteInvSgp) -> int:
    m = s._idem_mask
    if s.zero is not None:
        m &= ~bit(s.zero)
    return m


def is_e_unitary(s: FiniteInvSgp, subset: int | None = None) -> bool:
    """True iff e <= g for a nonzero idempotent e forces g idempotent.

    With subset given, the check runs inside that sub-inverse-semigroup
    (its own idempotents, the ambient declared zero).
    """
    elems = list(iter_mask(subset)) if subset is not None else list(s.elements())
    idem = [e for e in elems if s.is_idempotent(e) and e != s.zero]
    for g in elems:
        if s.is_idempotent(g):
            continue
        for e in idem:
            if s.table[e][g] == e:
                return False
    return True


def generate(s: FiniteInvSgp, gens: int) -> int:
    """Smallest subset containing gens and the unit, closed under * and star."""
    seen = bit(s.unit)
    frontier = [s.unit]
    for g in iter_mask(gens):
        if not seen >> g & 1:
            seen |= bit(g)
            frontier.append(g)
    out = list(frontier)
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(out):
                for p in (s.table[g][h], s.table[h][g]):
                    if not seen >> p & 1:
                        seen |= bit(p)
                        nxt.append(p)
                        out.append(p)
            st = s.star[g]
            if not seen >> st & 1:
                seen |= bit(st)
                nxt.append(st)
                out.append(st)
        frontier = nxt
    return seen


def check_subsemigroup(s: FiniteInvSgp, subset: int, require_unit: bool = True) -> None:
    """Raise NotSubsemigroup unless subset is closed under * and star."""
    elems = list(iter_mask(subset))
    if require_unit and not subset >> s.unit & 1:
        raise NotSubsemigroup("subset does not contain the unit", witness=s.unit)
    for g in elems:
        if not subset >> s.star[g] & 1:
            raise NotSubsemigroup(
                f"subset not star-closed at {s.names[g]}", witness=g
            )
        for h in elems:
            if not subset >> s.table[g][h] & 1:
                raise NotSubsemigroup(
                    f"subset not closed at {s.names[g]}*{s.names[h]}", witness=(g, h)
                )


# ---------------------------------------------------------------------------
# builders


def _build_chain(m: int) -> FiniteInvSgp:
    if m < 1:
        raise UnsupportedSize("chain length must be >= 1")
    names = ["1"] + [f"e{i}" for i in range(1, m)]
    table = [[max(i, j) for j in range(m)] for i in range(m)]
    return validate(table, unit=0, names=names)


def _build_diamond() -> FiniteInvSgp:
    # meet-semilattice 1 > a,b > ab with a^b = ab; bottom not declared zero
    names = ["1", "a", "b", "ab"]
    meet = {
        (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
        (1, 1): 1, (1, 2): 3, (1, 3): 3,
        (2, 2): 2, (2, 3): 3,
        (3, 3): 3,
    }
    table = [[meet[(min(i, j), max(i, j))] for j in range(4)] for i in range(4)]
    return validate(table, unit=0, names=names)


def _build_cyclic(m: int) -> FiniteInvSgp:
    if m < 1:
        raise UnsupportedSize("cyclic order must be >= 1")
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, m)]
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return validate(table, unit=0, names=names)


def _build_symmetric(m: int) -> FiniteInvSgp:
    if m > 3:
        raise UnsupportedSize("symmetric group builder supports n <= 3")
    perms = sorted(permutations(range(m)))
    idx = {p: i for i, p in enumerate(perms)}
    names = ["".join(str(x + 1) for x in p) for p in perms]
    names[idx[tuple(range(m))]] = "1"
    table = [
        [idx[tuple(p[q[k]] for k in range(m))] for q in perms] for p in perms
    ]
    return validate(table, unit=idx[tuple(range(m))], names=names)


def _partial_bijections(m: int):
    """All partial injective maps on {0..m-1} as tuples with -1 = undefined."""
    out = []
    points = list(range(m))

    def rec(i, used, cur):
        if i == m:
            out.append(tuple(cur))
            return
        rec(i + 1, used, cur + [-1])
        for v in points:
            if v not in used:
                rec(i + 1, used | {v}, cur + [v])

    rec(0, set(), [])
    return sorted(out)


def _build_symmetric_inverse(m: int) -> FiniteInvSgp:
    if m > 3:
        raise UnsupportedSize("symmetric inverse monoid builder supports n <= 3")
    maps = _partial_bijections(m)
    idx = {f: i for i, f in enumerate(maps)}

    def compose(f, g):  # (f o g)(x) = f(g(x))
        return tuple(-1 if g[x] == -1 else f[g[x]] for x in range(m))

    def label(f):
        if all(f[x] == x for x in range(m)):
            return "1"
        pairs = [f"{x + 1}>{f[x] + 1}" for x in range(m) if f[x] != -1]
        return "[" + ",".join(pairs) + "]" if pairs else "0"

    table = [[idx[compose(f, g)] for g in maps] for f in maps]
    names = [label(f) for f in maps]
    unit = idx[tuple(range(m))]
    # the empty map is absorbing but deliberately left undeclared: the
    # trivial coefficient line must remain a valid action on these monoids
    return validate(table, unit=unit, names=names)


def _build_brandt_unital(m: int) -> FiniteInvSgp:
    if m < 2 or m > 4:
        raise UnsupportedSize("brandt builder supports 2 <= n <= 4")
    names = ["1"] + [f"({i + 1},{j + 1})" for i in range(m) for j in range(m)] + ["0"]
    unit, zero = 0, m * m + 1

    def pid(i, j):
        return 1 + i * m + j

    n = m * m + 2
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        table[unit][a] = a
        table[a][unit] = a
        table[zero][a] = zero
        table[a][zero] = zero
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    table[pid(i, j)][pid(k, l)] = pid(i, l) if j == k else zero
    return validate(table, unit=unit, zero=zero, names=names)


def _build_product(sa: FiniteInvSgp, sb: FiniteInvSgp) -> FiniteInvSgp:
    """The direct product of two validated semigroups, built without
    ``validate``: associativity, unique inverses, the unit, the zero and
    commuting idempotents all hold pairwise, so the star, unit and zero are
    the pairs of the factors'. Pair (a, b) has index a * |sb| + b."""
    m = sb.n
    table = [[sa.table[a][c] * m + sb.table[b][d] for c in sa.elements() for d in sb.elements()]
             for a in sa.elements() for b in sb.elements()]
    star = [sa.star[a] * m + sb.star[b] for a in sa.elements() for b in sb.elements()]
    names = [f"{sa.names[a]}|{sb.names[b]}" for a in sa.elements() for b in sb.elements()]
    if len(set(names)) != len(names):
        raise MalformedInput("element names are not distinct")
    zero = None
    if sa.zero is not None and sb.zero is not None:
        zero = sa.zero * m + sb.zero
    return FiniteInvSgp(table, star, sa.unit * m + sb.unit, zero, names)


def _build_adjoin_zero(s: FiniteInvSgp) -> FiniteInvSgp:
    if s.zero is not None:
        raise MalformedInput("semigroup already declares a zero")
    n = s.n
    table = [[s.table[i][j] for j in range(n)] + [n] for i in range(n)]
    table.append([n] * (n + 1))
    names = list(s.names) + ["0"]
    return validate(table, unit=s.unit, zero=n, names=names)


def build(kind: str, *params) -> FiniteInvSgp:
    """Construct a named built-in family member; see parse_builder for specs."""
    if kind == "chain":
        return _build_chain(int(params[0]))
    if kind == "diamond":
        return _build_diamond()
    if kind == "cyclic":
        return _build_cyclic(int(params[0]))
    if kind == "symmetric":
        return _build_symmetric(int(params[0]))
    if kind == "symmetric_inverse":
        return _build_symmetric_inverse(int(params[0]))
    if kind == "brandt_unital":
        return _build_brandt_unital(int(params[0]))
    if kind == "product":
        return _build_product(params[0], params[1])
    if kind == "adjoin_zero":
        return _build_adjoin_zero(params[0])
    raise MalformedInput(f"unknown builder kind {kind!r}")


def parse_builder(spec: str) -> FiniteInvSgp:
    """Builder mini-language: 'chain:3', 'cyclic:2', 'product:chain:2*cyclic:2',
    'adjoin_zero:chain:2', 'diamond', 'symmetric_inverse:2', 'brandt_unital:2'."""
    spec = spec.strip()
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        if "*" not in body:
            raise MalformedInput("product spec needs two '*'-separated builders")
        left, right = body.split("*", 1)
        return build("product", parse_builder(left), parse_builder(right))
    if spec.startswith("adjoin_zero:"):
        return build("adjoin_zero", parse_builder(spec[len("adjoin_zero:"):]))
    if ":" in spec:
        kind, arg = spec.split(":", 1)
        return build(kind, arg)
    return build(spec)


# ---------------------------------------------------------------------------
# subset specs and JSON

SUBSET_SPECS = ("all", "unit", "idempotents")


def parse_subset(s: FiniteInvSgp, spec: str) -> int:
    """Subset mini-language: 'all', 'unit', 'idempotents', 'generate:a,b', 'a,b,c'."""
    spec = spec.strip()
    if spec == "all":
        return mask_of(s.elements())
    if spec == "unit":
        return bit(s.unit)
    if spec == "idempotents":
        return idempotents(s)
    if spec.startswith("generate:"):
        gens = mask_of(s.index(nm) for nm in spec[len("generate:"):].split(",") if nm)
        return generate(s, gens)
    return mask_of(s.index(nm) for nm in spec.split(",") if nm)


def to_json_dict(s: FiniteInvSgp) -> dict:
    return {
        "elements": list(s.names),
        "table": [list(row) for row in s.table],
        "unit": s.names[s.unit],
        "zero": None if s.zero is None else s.names[s.zero],
    }


def from_json_dict(data: dict) -> FiniteInvSgp:
    try:
        names = list(data["elements"])
        table = [list(row) for row in data["table"]]
        unit = names.index(data["unit"])
        zero = None if data.get("zero") is None else names.index(data["zero"])
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedInput(f"bad semigroup JSON: {exc}") from exc
    return validate(table, unit=unit, zero=zero, names=names)
