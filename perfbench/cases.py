"""The benchmark's workloads: one case per lemma verification, with its verdict.

Every case builds its semigroup afresh from a builder spec, so the
per-semigroup germ cache starts cold, as it does for one command-line call.
A case returns a record of plain JSON values taken from the report: pass
flag, ranks, block dims and algebra dims. Reports themselves hold live
algebra objects and are never serialised whole. ``witness_poly`` is left
out on purpose: it depends on arbitrary weights today.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from iskk import crossed, galgebra, induction, ktheory, l2module, linalg, semigroup, spectrum  # noqa: E402

MODULES = {
    "semigroup": semigroup,
    "spectrum": spectrum,
    "linalg": linalg,
    "galgebra": galgebra,
    "induction": induction,
    "crossed": crossed,
    "ktheory": ktheory,
    "l2module": l2module,
}

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Case:
    """One lemma verification on one instance."""

    id: str
    run: Callable         # spec strings -> record
    args: tuple           # the generated inputs: builder spec, subset spec
    invariants: Callable  # record -> list of violated invariants

    def __call__(self):
        return self.run(*self.args)


# ---------------------------------------------------------------------------
# ks-blocks: K0 of the semigroup algebra kS


def ks_blocks(spec):
    s = semigroup.parse_builder(spec)
    x = crossed.crossed(galgebra.trivial_algebra(s), kind="universal")
    k = ktheory.k0(x)
    return {"dim": x.dim, "rank": k.rank, "block_dims": list(k.block_dims)}


def ks_invariants(r):
    bad = []
    # kS is semisimple, so the squared block dims add up to the whole algebra
    # exactly when the radical is 0 and the blocks fill the quotient.
    if sum(b * b for b in r["block_dims"]) != r["dim"]:
        bad.append("sum of squared block dims != algebra dim")
    if r["rank"] != len(r["block_dims"]):
        bad.append("rank != number of blocks")
    return bad


# ---------------------------------------------------------------------------
# tight-imprimitivity: rank K0 of the tight product of an induced algebra


def tight_imprimitivity(spec, subset):
    s = semigroup.parse_builder(spec)
    rep = ktheory.verify_imprimitivity(s, semigroup.parse_subset(s, subset), galgebra.c0x_algebra(s))
    d = rep["dims"]
    return {"pass": rep["pass"], "lhs_rank": d["lhs_rank"], "rhs_rank": d["rhs_rank"],
            "lhs_blocks": list(d["lhs_blocks"]), "rhs_blocks": list(d["rhs_blocks"]),
            "ind_dim": d["ind_dim"]}


def tight_invariants(r):
    bad = report_invariants(r)
    if r["lhs_rank"] != r["rhs_rank"]:
        bad.append("lhs_rank != rhs_rank")
    if r["lhs_rank"] != len(r["lhs_blocks"]) or r["rhs_rank"] != len(r["rhs_blocks"]):
        bad.append("rank != number of blocks")
    return bad


# ---------------------------------------------------------------------------
# induction-lemmas: L3 and L6 over many small and mid-size algebras


def _idempotents(s):
    return semigroup.parse_subset(s, "idempotents")


def report_record(rep):
    return {"pass": rep["pass"], "dims": dict(rep["dims"])}


def theta_res_ind(spec):
    s = semigroup.parse_builder(spec)
    h = induction.assoc_groupoid(s, _idempotents(s))
    return report_record(induction.theta_res_ind(s, h, galgebra.c0x_algebra(s)))


def res_ind_split(spec, lset):
    s = semigroup.parse_builder(spec)
    j_reps, _, _, rep = induction.res_ind_split(
        s, _idempotents(s), semigroup.parse_subset(s, lset), galgebra.c0x_algebra(s))
    return {**report_record(rep), "classes": len(j_reps)}


def ci0_enumerate(spec):
    s = semigroup.parse_builder(spec)
    e = _idempotents(s)
    pairs, rep = induction.ci0_enumerate(s, [e, e])
    return {**report_record(rep), "pair_dims": [d.dim for _, d in pairs]}


def green_julg(spec):
    s = semigroup.parse_builder(spec)
    return report_record(ktheory.verify_green_julg_diagram(s, _idempotents(s), [galgebra.c0x_algebra(s)]))


def remark_counterexamples(spec):
    s = semigroup.parse_builder(spec)
    return {"pass": ktheory.verify_remark_counterexamples(s)["pass"]}


def validate_c0x(spec):
    s = semigroup.parse_builder(spec)
    a = galgebra.c0x_algebra(s)
    return {"pass": galgebra.validate_g_algebra(a)["pass"], "dim": a.dim}


def gram_psd(spec):
    s = semigroup.parse_builder(spec)
    rep = l2module.check_psd(l2module.gram(s))
    return {"pass": rep["pass"], "characters": rep["characters"]}


def phi_independence(spec):
    s = semigroup.parse_builder(spec)
    rep = l2module.check_independence(s)
    return {"pass": rep["pass"], "basis_size": rep["basis_size"], "rank": rep["rank"]}


def module_axioms(spec):
    s = semigroup.parse_builder(spec)
    return {"pass": l2module.check_module_axioms(s)["pass"]}


def report_invariants(r):
    return [] if r["pass"] is True else ["report does not pass"]


def induction_invariants(r):
    bad = report_invariants(r)
    dims = r.get("dims", {})
    if "res_ind_res" in dims:
        if sum(dims["summands"]) != dims["res_ind_res"]:
            bad.append("summand dims do not add up to the split algebra")
        if r["classes"] != dims["classes"]:
            bad.append("class count differs from the number of representatives")
    if "part_ranks" in dims and sum(dims["part_ranks"]) != dims["sum_rank"]:
        bad.append("K0 rank not additive over coefficient sums")
    if "basis_size" in r and r["rank"] != r["basis_size"]:
        bad.append("phi vectors are dependent")
    return bad


# ---------------------------------------------------------------------------
# the workloads


KS_SPECS = [
    "chain:4",
    "diamond",
    "cyclic:3",  # center does not split over Q: the numeric-oracle path
    "symmetric:3",
    "symmetric_inverse:2",
    "symmetric_inverse:3",
    "product:symmetric_inverse:2*chain:2",
    "product:symmetric_inverse:2*symmetric_inverse:2",
]

TIGHT_PAIRS = [
    ("symmetric_inverse:2", "all"),
    ("symmetric:3", "idempotents"),
    ("brandt_unital:3", "idempotents"),
    ("product:symmetric_inverse:2*chain:2", "idempotents"),
    ("symmetric_inverse:3", "all"),
]

INDUCTION_SPECS = [
    "brandt_unital:3",
    "product:symmetric_inverse:2*chain:2",
    "symmetric_inverse:3",
    "product:symmetric_inverse:2*symmetric_inverse:2",
]

INDUCTION_LEMMAS = [
    ("theta_res_ind", theta_res_ind, ()),
    ("res_ind_split[L=1]", res_ind_split, ("unit",)),
    ("res_ind_split[L=S]", res_ind_split, ("all",)),
    ("ci0_enumerate", ci0_enumerate, ()),
    ("green_julg", green_julg, ()),
    ("remark_counterexamples", remark_counterexamples, ()),
    ("validate_g_algebra[c0x]", validate_c0x, ()),
    ("check_psd", gram_psd, ()),
    ("check_independence", phi_independence, ()),
    ("check_module_axioms", module_axioms, ()),
]

WORKLOADS = {
    "ks-blocks": [Case(f"k0_kS@{spec}", ks_blocks, (spec,), ks_invariants) for spec in KS_SPECS],
    "tight-imprimitivity": [
        Case(f"imprimitivity@{spec}/{sub}", tight_imprimitivity, (spec, sub), tight_invariants)
        for spec, sub in TIGHT_PAIRS
    ],
    "induction-lemmas": [
        Case(f"{lemma}@{spec}", fn, (spec, *extra), induction_invariants)
        for spec in INDUCTION_SPECS
        for lemma, fn, extra in INDUCTION_LEMMAS
    ],
}


def run_case(case):
    """The case's record; a raised error becomes the record {"error": name}.

    Expected errors (such as HypothesesNotMet) are listed as such in the
    expected results, so any other exception is a mismatch.
    """
    try:
        return case()
    except Exception as exc:  # the verdict is compared, not propagated
        return {"error": type(exc).__name__}


def json_round_trip(record):
    """The record after json.dumps/json.loads, or None if it is not JSON data."""
    try:
        return json.loads(json.dumps(record))
    except (TypeError, ValueError):
        return None


def verdict(case, record, expected):
    """The list of reasons the record is wrong; empty when it is correct."""
    bad = []
    if json_round_trip(record) != record:
        bad.append("record does not survive a JSON round trip")
    if record != expected.get(case.id):
        bad.append(f"expected {expected.get(case.id)!r}, got {record!r}")
    if "error" not in record:
        bad.extend(case.invariants(record))
    return bad
