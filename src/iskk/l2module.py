"""The compatible square-summable module over the character algebra.

Basis vectors phi_g(t) = [t <= g] for semigroup elements g (the declared zero
is excluded: its basis vector is null under the character convention). Inner
products are 0/1-valued functions on the character space, assembled into a
Gram matrix certified positive semidefinite character-by-character with exact
pivoted LDL^T, and the stacked system is checked for full column rank.
"""

from dataclasses import dataclass

from .linalg import psd_certificate, rank
from .semigroup import FiniteInvSgp, iter_mask, nonzero_idempotents
from .spectrum import alg_star_from_mask, alg_star_to_json, spectrum


def phi_mask(s: FiniteInvSgp, g: int, h: int) -> int:
    """Support of <phi_g, phi_h> as a character mask: the join of
    {1_e : eg = eh, e <= gg* hh*}, read over the nonzero idempotents below
    gg* hh* (the elements below an idempotent are idempotents)."""
    sp = spectrum(s)
    bound = s.table[s.range_of(g)][s.range_of(h)]
    mask = 0
    for e in iter_mask(s.down_set(bound) & nonzero_idempotents(s)):
        if s.table[e][g] == s.table[e][h]:
            mask |= sp.proj(e)
    return mask


def phi_inner(s: FiniteInvSgp, g: int, h: int) -> tuple:
    """<phi_g, phi_h>: the join of {1_e : eg = eh, e <= gg* hh*}."""
    return alg_star_from_mask(s, phi_mask(s, g, h))


def l2_basis(s: FiniteInvSgp) -> list:
    """Basis element indices; the declared zero is dropped (null vector)."""
    return [g for g in s.elements() if g != s.zero]


@dataclass
class GramMatrix:
    sgp: FiniteInvSgp
    basis: list
    entries: list  # entries[i][j] is a function on the character space

    def at_char(self, pos: int) -> list:
        return [[row[j][pos] for j in range(len(self.basis))] for row in self.entries]

    def to_json(self) -> dict:
        s = self.sgp
        return {
            "basis": [s.names[g] for g in self.basis],
            "entries": [
                [alg_star_to_json(s, cell) for cell in row] for row in self.entries
            ],
        }


def gram(s: FiniteInvSgp) -> GramMatrix:
    basis = l2_basis(s)
    entries = [[phi_inner(s, g, h) for h in basis] for g in basis]
    return GramMatrix(s, basis, entries)


def l2_act(s: FiniteInvSgp, g: int, v: dict) -> dict:
    """Translate a formal combination sum(c_h phi_h) to sum(c_h phi_{gh})."""
    out = {}
    for h, c in v.items():
        gh = s.table[g][h]
        if gh == s.zero or not c:
            continue
        out[gh] = out.get(gh, 0) + c
        if out[gh] == 0:
            del out[gh]
    return out


def check_psd(gm: GramMatrix) -> dict:
    """Exact LDL^T positive-semidefiniteness at every character."""
    sp = spectrum(gm.sgp)
    failures = []
    for pos in range(sp.size):
        ok, witness = psd_certificate(gm.at_char(pos))
        if not ok:
            failures.append(
                {"character": gm.sgp.names[sp.gens[pos]], "pivot": witness}
            )
    return {
        "check": "gram_psd",
        "characters": sp.size,
        "pass": not failures,
        "failures": failures,
    }


def check_independence(s: FiniteInvSgp) -> dict:
    """Full column rank of the Gram matrices stacked over all characters.
    Gram entries are 0/1, so the row of g at the character in position pos
    is ``{j: 1}`` over the j with bit pos of ``phi_mask(s, g, basis[j])``."""
    basis = l2_basis(s)
    masks = [[phi_mask(s, g, h) for h in basis] for g in basis]
    stacked = [{j: 1 for j, m in enumerate(row) if m >> pos & 1}
               for pos in range(spectrum(s).size) for row in masks]
    n = len(basis)
    r = rank(stacked, n)
    return {
        "check": "phi_independence",
        "basis_size": n,
        "rank": r,
        "pass": r == n,
    }


def check_module_axioms(s: FiniteInvSgp) -> dict:
    """Symmetry, E-semilinearity and full equivariance of the inner product.

    Inner products are 0/1-valued, so each is compared as its character
    mask; the n**2 masks and each (element, distinct mask) action are computed once.
    """
    sp = spectrum(s)
    basis = l2_basis(s)
    names = s.names
    # row[g].get(x, 0) is the mask of <phi_g, phi_x>, and 0 at the declared
    # zero, whose vector is null; each inner loop reads one row
    row = {g: {h: phi_mask(s, g, h) for h in basis} for g in basis}
    checks = []

    sym_witness = None
    for g in basis:
        rg = row[g]
        bad = [h for h in basis if rg[h] != row[h][g]]
        if bad:
            sym_witness = (names[g], names[bad[0]])
            break
    checks.append({"name": "symmetry", "pass": sym_witness is None, "witness": sym_witness})

    # <phi_g, phi_h . f> = <phi_g, phi_h> . f  with phi . f := f(phi) = phi_{fh}
    semi_witness = None
    idem = [(f, s.table[f], sp.proj(f)) for f in iter_mask(nonzero_idempotents(s))]
    for g in basis:
        rg = row[g]
        for h in basis:
            m = rg[h]
            bad = [f for f, tf, pf in idem if rg.get(tf[h], 0) != m & pf]
            if bad:
                semi_witness = (names[g], names[h], names[bad[0]])
                break
        if semi_witness:
            break
    checks.append(
        {"name": "module_semilinearity", "pass": semi_witness is None, "witness": semi_witness}
    )

    eq_witness = None
    distinct = {m for rg in row.values() for m in rg.values()}
    for j in s.elements():
        acted = {m: sp.act_mask(j, m) for m in distinct}
        tj = s.table[j]
        for g in basis:
            rg, rjg = row[g], row.get(tj[g], {})
            bad = [h for h in basis if acted[rg[h]] != rjg.get(tj[h], 0)]
            if bad:
                eq_witness = (names[j], names[g], names[bad[0]])
                break
        if eq_witness:
            break
    checks.append({"name": "equivariance", "pass": eq_witness is None, "witness": eq_witness})

    return {
        "check": "module_axioms",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
