"""Self-tests of the benchmark, on the cases of its smaller instances.

The two largest instances (I3 and I2xI2) are left out to keep these fast;
every benchmark run applies the same verdict gate to all cases.
"""

import inspect
import json
import random

import pytest

import cases
import run
from tracing import Tracer

BENCHMARK = json.loads((cases.ROOT / "BENCHMARK.json").read_text())
LARGE = {"symmetric_inverse:3", "product:symmetric_inverse:2*symmetric_inverse:2"}


def small(workload):
    return [c for c in cases.WORKLOADS[workload] if c.args[0] not in LARGE]


def snapshot():
    """Every function reachable as a module or class attribute of a traced layer."""
    out = {}
    for mod in cases.MODULES.values():
        for key, val in vars(mod).items():
            if inspect.isfunction(val):
                out[(mod.__name__, key)] = val
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for meth, fn in vars(val).items():
                    if inspect.isfunction(fn):
                        out[(val.__qualname__, meth)] = fn
    return out


@pytest.fixture(scope="module")
def expected():
    with open(cases.EXPECTED_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_records_survive_json_and_match_expected(workload, expected):
    for case in small(workload):
        rec = cases.run_case(case)
        assert json.loads(json.dumps(rec)) == rec, case.id
        assert cases.verdict(case, rec, expected[workload]) == [], case.id


def test_expected_covers_every_case(expected):
    for workload, base in cases.WORKLOADS.items():
        assert sorted(c.id for c in base) == sorted(expected[workload])


def test_seed_changes_order_not_results(expected):
    base = small("induction-lemmas")
    results = []
    for seed in (1, 2):
        order = list(base)
        random.Random(seed).shuffle(order)
        results.append({c.id: cases.run_case(c) for c in order})
    assert results[0] == results[1]
    for case in base:
        assert cases.verdict(case, results[0][case.id], expected["induction-lemmas"]) == []


def test_verdict_counts_mismatches_and_broken_invariants(expected):
    case = cases.WORKLOADS["ks-blocks"][0]
    good = dict(expected["ks-blocks"][case.id])
    assert cases.verdict(case, good, expected["ks-blocks"]) == []
    wrong = {**good, "block_dims": [2] + good["block_dims"][1:]}
    assert len(cases.verdict(case, wrong, expected["ks-blocks"])) == 2  # mismatch + sum of squares
    assert cases.verdict(case, {"error": "HypothesesNotMet"}, expected["ks-blocks"])
    assert cases.verdict(case, {**good, "dim": (4,)}, expected["ks-blocks"])


def spans_by_name(workload, expected):
    with Tracer(cases.MODULES) as tracer:
        _, failures = run.run_pass(small(workload), expected[workload], tracer)
    assert failures == []
    return {name: n for name, (n, _) in tracer.self_times().items() if n}, tracer


# The layers each workload is meant to exercise (README.md, "Per-layer metrics").
INTENDED = {
    "ks-blocks": ["crossed.semisimple", "crossed.oracle", "crossed.universal", "linalg.rref",
                  "linalg.nullspace", "linalg.span_add", "galgebra.mul_vec", "ktheory.k0",
                  "semigroup.parse_builder"],
    "tight-imprimitivity": ["crossed.sieben", "crossed.universal", "crossed.groupoid",
                            "crossed.semisimple", "linalg.span_add", "induction.build_induced",
                            "galgebra.restrict"],
    "induction-lemmas": ["galgebra.validate_g_algebra", "galgebra.mul_vec", "induction.res_ind_split",
                         "spectrum.tilde_mul", "l2module.phi_inner", "ktheory.k0_map",
                         "crossed.groupoid", "semigroup.generate", "linalg.mat_inv"],
}


@pytest.mark.parametrize("workload", sorted(INTENDED))
def test_trace_covers_intended_layers_and_restores_originals(workload, expected):
    before = snapshot()
    counts, tracer = spans_by_name(workload, expected)
    assert snapshot() == before
    for name in INTENDED[workload]:
        assert counts.get(name, 0) > 0, name
    layers = {name.split(".")[0] for name in counts}
    assert layers >= {"semigroup", "crossed", "ktheory", "linalg", "galgebra"}
    if workload == "ks-blocks":
        assert "crossed.sieben" not in counts
    metrics = tracer.metrics()
    assert set(metrics) | {"trace.overhead_ratio"} == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(value >= 0 for value, _ in metrics.values())
