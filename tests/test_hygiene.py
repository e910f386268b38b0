"""Source hygiene, by AST scans of the package's modules.

- No module imports a name it never uses. Neither pyflakes nor ruff ships
  with the toolchain, so this scan stands in for their unused-import rule.
- Batch elimination has one engine: ``sdm_irref`` is used only inside
  ``linalg._irref``. Values are converted to ``QQ``, with ``QQ(...)`` or
  through ``QQ.dtype``, only inside ``linalg._qq``, which both the
  elimination and the center's polynomials (``crossed._minimal_polynomial``)
  read.
- One number type: a value is an int where it is integral and a Fraction
  only where a reduction divides. No module calls ``Fraction(...)`` or
  divides with ``/`` or ``/=``, which makes a float of two ints, outside
  ``linalg.frac``, the one canonical divider, and the labelled float oracle
  ``crossed.numeric_block_oracle``.
- Vectors have one format, ``{col: value}`` dicts: ``linalg`` makes no
  ``isinstance`` test, so no entry point keeps a dense-or-sparse branch.
- The sparse paths stay sparse: none of these functions calls the dense
  vector helpers ``mat_vec``, ``mul_vec``, ``basis_vec`` or
  ``left_mult_matrix``, or the dense Gram readers ``gram`` and ``at_char``:
  - the crossed-product builders ``_universal``, kS in the groupoid basis
    ``_steinberg``, the S-basis ``_s_basis``, ``_groupoid`` and their
    shared ``_convolution``;
  - the algebra checks ``galgebra.associativity_failures``,
    ``star_failures``, ``central_multiplier_failures`` and
    ``multiplicative_failures``, which read both sides through the sparse
    kernels ``_product`` and ``_apply``;
  - the semisimple step ``crossed.semisimple_quotient`` and its center
    algebra ``_center_algebra``, ``ktheory.k0_map``, which reads the central
    idempotents as dicts, and ``l2module.check_independence``, which builds
    its stacked rows from the character masks;
  - the change of basis ``galgebra.transport``, ``transport_matrix``,
    ``corner`` and ``_fiber_rebase``;
  - the induction module's corners and coordinate reads,
    ``c0_orbits_algebra``, ``theta_res_ind`` and ``_rebase_hom``;
  - the maps between algebras and the embeddings, which are kept as sparse
    columns and ``{col: value}`` dicts: ``galgebra.verify_star_hom``,
    ``_bijective`` and ``subalgebra_on_projection``, the induction module's
    ``induce_hom``, ``_verify_iso``, ``theta_res_ind_tensor``,
    ``_split_class`` and ``res_ind_split``, and ``ktheory._quotient_map``.
- Every star is kept as its sparse columns: no module indexes a star as a
  dense matrix, ``star[r][c]``, or assigns a ``zero_matrix`` to a name
  ``star`` or ``adjoint``.
- Every action map is kept as its sparse columns too: no module indexes an
  action as a dense matrix, ``action[g][r][c]``; none hands an
  ``action[...]`` or a ``mask_matrix``, ``germ_matrix`` or
  ``char_matrices`` result to a dense reader (``nonzero_rows``,
  ``nonzero_columns``, ``mat_mul``, ``mat_vec``); and the dense-action
  cache ``_SplitActions``/``action_rows`` is gone.
- Every *-homomorphism is kept as its sparse columns: ``StarHomomorphism``
  has a ``cols`` field and no dense ``matrix``, and the dense map helpers
  ``zero_matrix`` and ``nonzero_columns`` are gone.
- The dense second paths are gone and stay gone: the dense product
  ``StarAlgebra.mul_pairs``, the dense combination ``galgebra._combine``,
  and ``linalg._shape`` and ``linalg._dense``, which told and made the
  dense format.
- No cache outlives the object it belongs to: no module uses
  ``functools.cache`` or ``functools.lru_cache``, and no module binds a dict
  or set at module level that is empty or that the module fills. Derived
  data lives on its semigroup or algebra, so every ``parse_builder`` result
  starts cold, as each benchmark case does.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iskk"


def unused_imports(source: str) -> list:
    """Names bound by an import statement that nothing else in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "from fractions import Fraction\nimport math\nfrom os import path as p\nprint(math.pi)\n"
    assert unused_imports(src) == [(1, "Fraction"), (3, "p")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def elimination_sites(source: str) -> list:
    """(top-level function or class, line, name) for each use of ``sdm_irref``,
    each ``QQ(...)`` call and each read of ``QQ.dtype``; "" stands for module
    level."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "QQ":
                    out.append((owner, node.lineno, "QQ("))
            elif getattr(node, "id", None) == "sdm_irref" or getattr(node, "attr", None) == "sdm_irref":
                out.append((owner, node.lineno, "sdm_irref"))
            elif (isinstance(node, ast.Attribute) and node.attr == "dtype"
                  and ast.unparse(node.value).split(".")[-1] == "QQ"):
                out.append((owner, node.lineno, "QQ.dtype"))
    return sorted(out, key=lambda site: site[1])


def test_scan_finds_elimination_sites():
    src = ("from sympy.polys.matrices import sdm\nx = QQ(1, 2)\n"
           "def f(rows):\n    return sdm.sdm_irref({0: {0: domains.QQ(3)}}), QQ.one\n"
           "class C:\n    new = getattr(QQ.dtype, '_new', domains.QQ.dtype)\n"
           "y = QQ.dtype._new(1, 2), ZZ.dtype(3)\n")
    assert elimination_sites(src) == [("", 2, "QQ("), ("f", 4, "sdm_irref"), ("f", 4, "QQ("),
                                      ("C", 6, "QQ.dtype"), ("C", 6, "QQ.dtype"), ("", 7, "QQ.dtype")]


HOMES = {("linalg.py", "_irref", "sdm_irref"), ("linalg.py", "_qq", "QQ.dtype")}


def readers(source: str, name: str) -> set:
    """The top-level functions of a module that read ``name``."""
    return {top.name for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)
            and any(_name(node) == name for node in ast.walk(top))}


def test_sparse_rref_is_called_from_one_function():
    sites = {path.name: elimination_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    stray = [(name, *site) for name, found in sites.items() for site in found
             if (name, site[0], site[2]) not in HOMES]
    assert stray == []
    assert {("linalg.py", site[0], site[2]) for site in sites["linalg.py"]} == HOMES
    # the one QQ conversion serves the elimination and the polynomial path
    assert "_irref" in readers((SRC / "linalg.py").read_text(), "_qq")
    assert readers((SRC / "crossed.py").read_text(), "_qq") == {"_minimal_polynomial"}


DENSE_HELPERS = {"mat_vec", "mul_vec", "basis_vec", "left_mult_matrix", "gram", "at_char"}
SPARSE_PATHS = {
    "crossed.py": {"_universal", "_steinberg", "_s_basis", "_groupoid", "_convolution", "_center_algebra",
                   "semisimple_quotient"},
    "galgebra.py": {"transport", "transport_matrix", "corner", "_fiber_rebase", "verify_star_hom",
                    "_bijective", "subalgebra_on_projection", "associativity_failures", "star_failures",
                    "central_multiplier_failures", "multiplicative_failures"},
    "induction.py": {"c0_orbits_algebra", "theta_res_ind", "_rebase_hom", "induce_hom", "_verify_iso",
                     "theta_res_ind_tensor", "_split_class", "res_ind_split"},
    "ktheory.py": {"_quotient_map", "k0_map"},
    "l2module.py": {"check_independence"},
}


def dense_calls(source: str, functions) -> dict:
    """For each top-level function in ``functions`` found in the module,
    (line, name) of each call of a ``DENSE_HELPERS`` name inside it, nested
    functions and lambdas included."""
    out = {}
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in functions:
            calls = []
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in DENSE_HELPERS:
                        calls.append((node.lineno, name))
            out[top.name] = sorted(calls)
    return out


def test_scan_finds_dense_calls():
    src = ("def _groupoid(d):\n    def inner(k):\n        return d.alg.basis_vec(k)\n"
           "    return mat_vec(d.action[0], inner(0))\n"
           "def other(d):\n    return d.alg.mul_vec(d, d)\n"
           "def _universal(a):\n    return (lambda v: a.alg.mul_vec(v, v))(a)\n")
    assert dense_calls(src, {"_groupoid", "_universal", "_convolution"}) == {
        "_groupoid": [(3, "basis_vec"), (4, "mat_vec")], "_universal": [(8, "mul_vec")]}


@pytest.mark.parametrize("module", sorted(SPARSE_PATHS))
def test_sparse_paths_make_no_dense_calls(module):
    found = dense_calls((SRC / module).read_text(), SPARSE_PATHS[module])
    assert found == {name: [] for name in SPARSE_PATHS[module]}


def isinstance_sites(source: str) -> list:
    """(line, code) for each ``isinstance(...)`` call."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _name(node.func) == "isinstance")


def test_scan_finds_isinstance_calls():
    src = ("def rref(rows, ncols):\n    if rows and isinstance(rows[0], dict):\n        return rows\n"
           "    items = v.items() if builtins.isinstance(v, dict) else enumerate(v)\n")
    assert isinstance_sites(src) == [(2, "isinstance(rows[0], dict)"),
                                     (4, "builtins.isinstance(v, dict)")]


def test_linalg_has_one_vector_format():
    assert isinstance_sites((SRC / "linalg.py").read_text()) == []


def dense_star_sites(source: str) -> list:
    """(line, code) for each double index ``star[r][c]`` of a name or an
    attribute called ``star``, and for each ``zero_matrix(...)`` assigned to
    a name ``star`` or ``adjoint``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
            base = node.value.value
            if getattr(base, "id", None) == "star" or getattr(base, "attr", None) == "star":
                out.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "zero_matrix" and any(getattr(t, "id", None) in {"star", "adjoint"}
                                             for t in node.targets):
                out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_scan_finds_dense_stars():
    src = ("def f(alg, s, n):\n    star = zero_matrix(n)\n    star[0][1] = alg.star[1][0]\n"
           "    adjoint = ga.zero_matrix(n, n)\n    cols = [alg.star[j] for j in range(n)]\n"
           "    other = zero_matrix(n)\n    return s.star[s.star[0]], star[0], other[0][0]\n")
    assert dense_star_sites(src) == [(2, "star = zero_matrix(n)"), (3, "alg.star[1][0]"),
                                     (3, "star[0][1]"), (4, "adjoint = ga.zero_matrix(n, n)")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_stars_are_kept_as_sparse_columns(path):
    assert dense_star_sites(path.read_text()) == []


DENSE_READERS = {"nonzero_rows", "nonzero_columns", "mat_mul", "mat_vec"}
DERIVED_MAPS = {"mask_matrix", "germ_matrix", "char_matrices"}
DROPPED = {"_SplitActions", "action_rows", "zero_matrix", "nonzero_columns", "mul_pairs", "_combine",
           "_shape", "_dense"}


def _name(node):
    """The name a Name or an Attribute ends in, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def dense_action_sites(source: str) -> list:
    """(line, code) for each triple index ``action[g][r][c]`` of a name or an
    attribute called ``action``, each ``DENSE_READERS`` call with an
    ``action[...]`` argument or a ``DERIVED_MAPS`` call as an argument, and
    each use or definition of a ``DROPPED`` name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Subscript)
                and _name(node.value.value.value) == "action"):
            out.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and _name(node.func) in DENSE_READERS:
            for arg in node.args:
                if ((isinstance(arg, ast.Subscript) and _name(arg.value) == "action")
                        or (isinstance(arg, ast.Call) and _name(arg.func) in DERIVED_MAPS)):
                    out.append((node.lineno, ast.unparse(node)))
                    break
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in DROPPED:
            out.append((node.lineno, _name(node)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in DROPPED:
            out.append((node.lineno, node.name))
    return sorted(out)


def test_scan_finds_dense_actions():
    src = ("class G(_SplitActions):\n    def action_rows(self, g):\n        return self._rows\n"
           "def f(a, e, q, m):\n    x = a.action[e][q][q] + action[e][0][1]\n"
           "    y = nonzero_columns(a.action[e], 2), linalg.mat_mul(m, a.germ_matrix(q))\n"
           "    z = mat_vec(a.mask_matrix(q), m), nonzero_rows(a.char_matrices()), a.action_rows(e)\n"
           "    return a.action[e][q], mat_mul(m, m), _apply(a.action[e], {}), nonzero_pairs(a.action[e][0])\n")
    assert dense_action_sites(src) == [
        (1, "_SplitActions"), (2, "action_rows"), (5, "a.action[e][q][q]"), (5, "action[e][0][1]"),
        (6, "linalg.mat_mul(m, a.germ_matrix(q))"), (6, "nonzero_columns"),
        (6, "nonzero_columns(a.action[e], 2)"),
        (7, "action_rows"), (7, "mat_vec(a.mask_matrix(q), m)"), (7, "nonzero_rows(a.char_matrices())")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_actions_are_kept_as_sparse_columns(path):
    assert dense_action_sites(path.read_text()) == []


def class_fields(source: str, name: str) -> list:
    """The annotated fields of the top-level class ``name``, in order."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name == name:
            return [node.target.id for node in top.body if isinstance(node, ast.AnnAssign)]
    raise LookupError(name)


def test_scan_finds_class_fields():
    src = "@dataclass\nclass Hom:\n    source: object\n    matrix: list  # dense\n    label = ''\n"
    assert class_fields(src, "Hom") == ["source", "matrix"]


def test_homomorphisms_are_kept_as_sparse_columns():
    fields = class_fields((SRC / "galgebra.py").read_text(), "StarHomomorphism")
    assert "cols" in fields and "matrix" not in fields


CACHE_DECORATORS = {"cache", "lru_cache"}
CONTAINERS = {"dict", "set", "defaultdict", "OrderedDict", "Counter",
              "WeakKeyDictionary", "WeakValueDictionary"}
MUTATORS = {"add", "update", "setdefault", "__setitem__", "discard", "pop", "popitem",
            "clear", "remove"}


def _container(node):
    """"empty" or "filled" for a dict or set display, comprehension or
    constructor call, else None."""
    if isinstance(node, (ast.Dict, ast.Set)):
        return "filled" if (node.keys if isinstance(node, ast.Dict) else node.elts) else "empty"
    if isinstance(node, (ast.DictComp, ast.SetComp)):
        return "filled"
    if isinstance(node, ast.Call) and _name(node.func) in CONTAINERS:
        return "filled" if node.args or node.keywords else "empty"
    return None


def cache_sites(source: str) -> list:
    """(line, name) for each ``cache``/``lru_cache`` taken from functools (an
    import of it, or an attribute of the functools module or an alias of
    it), and for each module-level name bound to a dict or set that is empty
    or that the module mutates (a subscript store or delete, or a mutating
    method call)."""
    tree = ast.parse(source)
    functools_names = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            functools_names |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, a.name) for a in node.names if a.name in CACHE_DECORATORS]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
                and getattr(node.value, "id", None) in functools_names):
            out.append((node.lineno, node.attr))
    module_containers = {}
    for top in tree.body:
        targets = top.targets if isinstance(top, ast.Assign) else (
            [top.target] if isinstance(top, ast.AnnAssign) and top.value else [])
        kind = _container(top.value) if targets else None
        for target in targets:
            if kind and isinstance(target, ast.Name):
                module_containers[target.id] = (top.lineno, kind)
    mutated = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            mutated.add(getattr(node.value, "id", None))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            mutated.add(getattr(node.func.value, "id", None))
    out += [(line, name) for name, (line, kind) in module_containers.items()
            if kind == "empty" or name in mutated]
    return sorted(out)


def test_scan_finds_module_caches():
    src = ("import functools\nimport functools as ft\nfrom functools import lru_cache, reduce\n"
           "_TABLE = {}\n_SEEN: set = set()\nKNOWN = {'a': 1}\nNAMES = {'a': 1}\n"
           "ORDER = dict(a=1)\n"
           "@functools.cache\ndef f(x):\n    cache = {}\n    cache[x] = x\n    return cache\n"
           "@ft.lru_cache(maxsize=None)\ndef g(x):\n    KNOWN[x] = x\n    ORDER.update(b=2)\n"
           "    return reduce(max, NAMES.values(), x), x.cache, lru_cache\n")
    assert cache_sites(src) == [(3, "lru_cache"), (4, "_TABLE"), (5, "_SEEN"), (6, "KNOWN"),
                                (8, "ORDER"), (9, "cache"), (14, "lru_cache")]


def test_scan_finds_a_cache_planted_in_a_module():
    source = (SRC / "spectrum.py").read_text()
    planted = source + "\n_GERMS = {}\n\n@functools.lru_cache\ndef germ(g):\n    return g\n"
    found = cache_sites("import functools\n" + planted)
    assert [name for _, name in found] == ["_GERMS", "lru_cache"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cache_outlives_its_object(path):
    assert cache_sites(path.read_text()) == []


DIVIDERS = {("linalg.py", "frac"), ("crossed.py", "numeric_block_oracle")}


def division_sites(source: str) -> list:
    """(top-level function or class, line, code) for each ``Fraction(...)``
    call, under any module prefix, and each true division, ``a / b`` or
    ``a /= b``; "" stands for module level."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if ((isinstance(node, ast.Call) and _name(node.func) == "Fraction")
                    or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))):
                out.append((owner, node.lineno, ast.unparse(node)))
    return sorted(out, key=lambda site: site[1])


def test_scan_finds_fractions_and_true_divisions():
    src = ("from fractions import Fraction\nimport fractions\nHALF = Fraction(1, 2)\n"
           "def f(x, y):\n    z = x // y + x % y\n    return fractions.Fraction(x), x / y\n"
           "class C:\n    def g(self, v):\n        v /= 2\n        v //= 2\n"
           "        return [a / 2 for a in v]\n")
    assert division_sites(src) == [("", 3, "Fraction(1, 2)"), ("f", 6, "fractions.Fraction(x)"),
                                   ("f", 6, "x / y"), ("C", 9, "v /= 2"), ("C", 11, "a / 2")]


def test_scan_finds_a_division_planted_in_a_module():
    source = (SRC / "linalg.py").read_text()
    planted = source + "\n\ndef _scale(v, x):\n    return {k: y / x for k, y in v.items()}\n"
    found = [site for site in division_sites(planted) if ("linalg.py", site[0]) not in DIVIDERS]
    assert [(owner, code) for owner, _, code in found] == [("_scale", "y / x")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_canonical_helper_divides(path):
    found = [site for site in division_sites(path.read_text()) if (path.name, site[0]) not in DIVIDERS]
    assert found == []


def test_the_dividers_exist():
    # each allowed owner is a real function that still divides or builds a Fraction
    for module, owner in DIVIDERS:
        assert owner in {site[0] for site in division_sites((SRC / module).read_text())}, owner
