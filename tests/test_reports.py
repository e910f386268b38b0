import json

import pytest

from iskk import galgebra as ga
from iskk import induction as ind
from iskk import ktheory as kt
from iskk import l2module as l2
from iskk import semigroup as sg
from iskk import spectrum as sp


def _reports(spec):
    s = sg.parse_builder(spec)
    idem = sg.parse_subset(s, "idempotents")
    c0x = ga.c0x_algebra(s)
    return {
        "theta_res_ind": ind.theta_res_ind(s, ind.assoc_groupoid(s, idem), c0x),
        "res_ind_split": ind.res_ind_split(s, idem, sg.parse_subset(s, "all"), c0x)[3],
        "verify_imprimitivity": kt.verify_imprimitivity(s, idem, c0x),
        "verify_green_julg_diagram": kt.verify_green_julg_diagram(s, idem, [c0x]),
        "verify_remark_counterexamples": kt.verify_remark_counterexamples(s),
        "validate_g_algebra": ga.validate_g_algebra(c0x),
        "check_psd": l2.check_psd(l2.gram(s)),
        "check_independence": l2.check_independence(s),
        "check_module_axioms": l2.check_module_axioms(s),
        **{f"ci0_enumerate[{n}]": ind.ci0_enumerate(s, [idem] * n)[1] for n in (1, 2, 3)},
        **{f"technical_split[{lset}]": ind.technical_split(
            s, idem, sg.parse_subset(s, lset), _class_rep(s, idem), c0x)[3]
           for lset in ("unit", "all")},
    }


def _class_rep(s, hprime):
    """The last orbit representative of the germ space over hprime's groupoid."""
    return ind.compute_GH(s, ind.assoc_groupoid(s, hprime)).reps[-1]


@pytest.mark.parametrize("spec", ["chain:2", "chain:3", "symmetric_inverse:2",
                                  "product:symmetric_inverse:2*chain:2"])
def test_reports_are_json(spec):
    for name, rep in _reports(spec).items():
        assert rep["pass"], name
        assert json.loads(json.dumps(rep))["pass"], name  # no live objects inside


def test_empty_class_report_is_json():
    # a class that L cannot reach: the report says so and holds no live object
    s = sg.parse_builder("brandt_unital:2")
    h = ind.assoc_groupoid(s, sg.idempotents(s))
    e22 = sp.proj(s, s.index("(2,2)"))
    g22 = next(x for x in ind.compute_GH(s, h).points
               if sp.germ_range(s, x) == e22 and sp.germ_source(x) == e22)
    m, lp, theta, rep = ind.technical_split(s, sg.idempotents(s), sg.bit(s.index("(1,1)")), g22,
                                            ga.c0x_algebra(s))
    assert rep["empty"] is True and theta is None
    assert json.loads(json.dumps(rep)) == rep


def test_failing_h_algebra_report_is_json():
    # a germ acting by [[1, 1], [1, 1]] fails two checks; the witnesses name
    # the germ as (element name, character mask), not as a live object
    s = sg.parse_builder("chain:2")
    d = ga.restrict(ga.c0x_algebra(s), ind.assoc_groupoid(s, sg.parse_subset(s, "all")))
    germ = next(iter(d.action))
    d.action[germ] = [[(0, 1), (1, 1)], [(0, 1), (1, 1)]]  # every entry 1
    rep = ga.validate_h_algebra(d)
    key = (s.names[germ.g], germ.chars)
    witnesses = {c["name"]: c["witness"] for c in rep["checks"]}
    assert witnesses["c0_units_structure"] == f"unit {key} is not its coordinate projection"
    assert witnesses["arrow_actions"] == (key, 0, "image outside range fiber")
    assert json.loads(json.dumps(rep))["pass"] is False
