import json

import pytest

from iskk import galgebra as ga
from iskk import induction as ind
from iskk import ktheory as kt
from iskk import l2module as l2
from iskk import semigroup as sg


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
    }


@pytest.mark.parametrize("spec", ["chain:3", "symmetric_inverse:2",
                                  "product:symmetric_inverse:2*chain:2"])
def test_reports_are_json(spec):
    for name, rep in _reports(spec).items():
        assert rep["pass"], name
        assert json.loads(json.dumps(rep))["pass"], name  # no live objects inside
