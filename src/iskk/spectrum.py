"""Characters of the idempotent semilattice, projections, and the extended semigroup.

For a finite semilattice every multiplicative {0,1}-character is the indicator
of a principal filter, so characters are indexed by their generating
idempotent. When a zero is declared, the character fixing it is excluded
(equivalently the zero's indicator function vanishes identically).

Elements of the extended semigroup are stored as germs (g, chars): a partial
bijection of the character space given by the action of g restricted to a set
of characters below g*g. Two germs are equal iff they have the same domain
and g, h agree on every generating idempotent in it; a canonical
representative takes the least such g.

The germ calculus is read from tables on the semigroup's own ``Spectrum``,
each filled on first use: ``act_mask`` per (g, mask), ``extended`` per
(g, chars) as given, ``tilde_mul`` per pair of germs and ``tilde_star`` per
germ, the germ keys being their (g, chars) ints. ``germ_range`` is an
``act_mask`` read. A semigroup builds its ``Spectrum`` on first use, so
every semigroup, and every ``parse_builder`` result, starts with empty
tables; nothing is cached at module level.
"""

from dataclasses import dataclass

from .errors import NotIdempotent, NotZeroOneValued
from .linalg import frac
from .semigroup import FiniteInvSgp, iter_mask, leq, mask_of, nonzero_idempotents


@dataclass(frozen=True)
class ExtendedElement:
    """Canonical germ g restricted to a character-set projection below g*g."""

    g: int
    chars: int

    def is_zero(self) -> bool:
        return self.chars == 0


class Spectrum:
    """The finite character space of the idempotent semilattice of S."""

    def __init__(self, s: FiniteInvSgp):
        self.sgp = s
        self.gens = tuple(sorted(iter_mask(nonzero_idempotents(s))))
        self.pos = {e: i for i, e in enumerate(self.gens)}
        self.size = len(self.gens)
        self.full = (1 << self.size) - 1
        self._proj = {}
        self._char_map = {}
        self._act = {}  # (g, mask) -> image mask
        self._germ = {}  # (g, chars as given) -> canonical germ
        self._mul = {}  # (a.g, a.chars, b.g, b.chars) -> canonical product
        self._star = {}  # (a.g, a.chars) -> canonical inverse

    def char_value(self, char_pos: int, e: int) -> int:
        """chi(e) for the character generated by gens[char_pos]."""
        f = self.gens[char_pos]
        return 1 if self.sgp.table[f][e] == f else 0

    def proj(self, e: int) -> int:
        """Bitmask of characters with chi(e) = 1."""
        if e in self._proj:
            return self._proj[e]
        s = self.sgp
        if not s.is_idempotent(e):
            raise NotIdempotent(f"{s.names[e]} is not idempotent", witness=e)
        m = 0
        for i, f in enumerate(self.gens):
            if s.table[f][e] == f:
                m |= 1 << i
        self._proj[e] = m
        return m

    def char_map(self, g: int) -> dict:
        """Partial injection on character positions: chi_f -> chi_{gfg*} for f <= g*g."""
        if g in self._char_map:
            return self._char_map[g]
        s = self.sgp
        dom = self.proj(s.source(g))
        out = {}
        for i in iter_mask(dom):
            f = self.gens[i]
            image = s.mul_many((g, f, s.star[g]))
            out[i] = self.pos[image]
        self._char_map[g] = out
        return out

    def act_mask(self, g: int, mask: int) -> int:
        """Image of a character mask under the partial character map of g."""
        key = (g, mask)
        out = self._act.get(key)
        if out is None:
            cm = self.char_map(g)
            out = 0
            for i in iter_mask(mask):
                j = cm.get(i)
                if j is not None:
                    out |= 1 << j
            self._act[key] = out
        return out


def spectrum(s: FiniteInvSgp) -> Spectrum:
    if s._spectrum is None:
        s._spectrum = Spectrum(s)
    return s._spectrum


def characters(s: FiniteInvSgp) -> list:
    """All characters, each as the sorted list of idempotents it maps to 1."""
    sp = spectrum(s)
    out = []
    for i in range(sp.size):
        out.append(sorted(e for e in iter_mask(s._idem_mask) if sp.char_value(i, e)))
    return out


def proj(s: FiniteInvSgp, e: int) -> int:
    return spectrum(s).proj(e)


def act_proj(s: FiniteInvSgp, g: int, mask: int) -> int:
    return spectrum(s).act_mask(g, mask)


# ---------------------------------------------------------------------------
# extended semigroup germs


def extended(s: FiniteInvSgp, g: int, chars: int | None = None) -> ExtendedElement:
    """Canonical extended element g cut down to chars (default: all of proj(g*g))."""
    sp = spectrum(s)
    canon = sp._germ.get((g, chars))
    if canon is None:
        dom = sp.proj(s.source(g))
        canon = sp._germ[g, chars] = _canonical(sp, g, dom if chars is None else chars & dom)
    return canon


def _canonical(sp: Spectrum, g: int, chars: int) -> ExtendedElement:
    """The germ of g on chars, a mask inside proj(g*g), with the least
    element that agrees with g on every generating idempotent in chars."""
    s = sp.sgp
    if chars == 0:
        return ExtendedElement(s.unit, 0)
    gens = [sp.gens[i] for i in iter_mask(chars)]
    values = [s.table[g][f] for f in gens]
    for h in range(g):
        if chars & ~sp.proj(s.source(h)):
            continue
        row = s.table[h]
        if [row[f] for f in gens] == values:
            return ExtendedElement(h, chars)
    return ExtendedElement(g, chars)


def tilde_unit(s: FiniteInvSgp, chars: int) -> ExtendedElement:
    return extended(s, s.unit, chars)


def tilde_mul(s: FiniteInvSgp, a: ExtendedElement, b: ExtendedElement) -> ExtendedElement:
    """(g,P)(h,Q) = (gh, h*-image of P intersected with Q, inside proj((gh)*(gh)))."""
    sp = spectrum(s)
    key = (a.g, a.chars, b.g, b.chars)
    out = sp._mul.get(key)
    if out is None:
        gh = s.table[a.g][b.g]
        chars = sp.act_mask(s.star[b.g], a.chars) & b.chars & sp.proj(s.source(gh))
        out = sp._mul[key] = extended(s, gh, chars)
    return out


def tilde_star(s: FiniteInvSgp, a: ExtendedElement) -> ExtendedElement:
    sp = spectrum(s)
    key = (a.g, a.chars)
    out = sp._star.get(key)
    if out is None:
        out = sp._star[key] = extended(s, s.star[a.g], sp.act_mask(a.g, a.chars))
    return out


def germ_source(a: ExtendedElement) -> int:
    return a.chars


def germ_range(s: FiniteInvSgp, a: ExtendedElement) -> int:
    return spectrum(s).act_mask(a.g, a.chars)


def germ_is_unit(s: FiniteInvSgp, a: ExtendedElement) -> bool:
    sp = spectrum(s)
    return not a.is_zero() and all(
        s.table[a.g][sp.gens[i]] == sp.gens[i] for i in iter_mask(a.chars)
    )


def germ_key(a: ExtendedElement) -> tuple:
    """Deterministic sort key: least (g index, projection bitmask)."""
    return (a.g, a.chars)


# ---------------------------------------------------------------------------
# Alg*(E) elements: rational functions on the character space


def alg_star_from_mask(s: FiniteInvSgp, mask: int) -> tuple:
    sp = spectrum(s)
    return tuple(1 if mask >> i & 1 else 0 for i in range(sp.size))


def alg_star_mask(func) -> int:
    """Support mask of a {0,1}-valued function; raises if values are not 0/1."""
    m = 0
    for i, v in enumerate(func):
        if v == 1:
            m |= 1 << i
        elif v != 0:
            raise NotZeroOneValued(f"function is not 0/1-valued at position {i}: {v}",
                                   witness={"position": i, "value": str(v)})
    return m


def alg_star_to_json(s: FiniteInvSgp, func) -> dict:
    sp = spectrum(s)
    return {s.names[sp.gens[i]]: f"{x.numerator}/{x.denominator}"
            for i, x in enumerate(map(frac, func))}


# ---------------------------------------------------------------------------
# E-continuity


def e_cont_sup(s: FiniteInvSgp, g: int) -> tuple:
    """Pointwise sup of {1_e : e idempotent, e <= g} plus a minimal witness.

    Returns (func, witness_mask). The witness is the set of maximal
    idempotents below g (the declared zero contributes nothing and is
    omitted), and its join equals the sup exactly.
    """
    sp = spectrum(s)
    below = [e for e in iter_mask(nonzero_idempotents(s)) if leq(s, e, g)]
    mask = 0
    for e in below:
        mask |= sp.proj(e)
    witness = mask_of(
        e
        for e in below
        if not any(f != e and leq(s, e, f) for f in below)
    )
    return alg_star_from_mask(s, mask), witness
