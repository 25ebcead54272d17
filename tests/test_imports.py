"""Import hygiene and the public surface of the package, checked with the
standard library alone: every name a module imports is used in it
(``__init__`` re-exports names and is exempt), ``__init__`` exports exactly
the ruled list below (its eager imports and the keys of its lazy
``_EXPORTS`` map), and every module-level function or class under ``src/``
is called from ``src/`` or ``bench/``, is on that list or is one of the
package's module hooks.  Last, each exported name of the imported package
is the object its defining module binds."""

import ast
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "starsplit")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")

# Each exported name is reached by the CLI or a report, is one of the
# paper's constructions, or is a ``Form`` entry point to a table route.
PUBLIC = {
    # errors
    "AlgebraError", "DimensionMismatchError", "ExpressionError", "InputError",
    "StarsplitError", "UnboundParameterError",
    # forms and the pointwise operators of a metric
    "Form", "HermitianMetric", "divide_by_power", "form_norm", "hodge_star",
    "inner_product", "lefschetz_L", "lefschetz_decompose", "lefschetz_lambda",
    "omega_power",
    # models and pullbacks
    "InvariantComplexManifold", "PullbackMap", "pullback", "pullback_metric",
    "structure_compatibility", "total_volume",
    # the star-split invariants, pairs, triples and the links of f
    "MetricReport", "PairReport", "TripleReport", "classify", "conformal_f",
    "f_scalar", "gauduchon_adjoint_on_constant", "pair_analysis", "rescale_f",
    "rho", "star_rho", "triple_analysis",
    # the operator layer and the identity suites
    "IdentityReport", "OperatorTable", "P", "Q", "R", "S", "T",
    "verify_commutation_suite", "verify_operator_identities",
    # the metric search
    "MetricFamily", "SearchResult", "diagonal_family", "hermitian_family",
    "pss_defect", "scan", "search_pss",
    "catalog",
}

# PEP 562 module hooks of ``__init__``: called by the import system
PACKAGE_HOOKS = {"__getattr__", "__dir__"}


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def lazy_exports(source: str):
    """The literal ``_EXPORTS`` map (name -> defining module) of ``source``."""
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"])


def exported_names(source: str):
    """Names ``source`` binds by ``from ... import`` plus its lazy exports."""
    eager = {alias.asname or alias.name for node in ast.parse(source).body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return eager | set(lazy_exports(source))


def uncalled_definitions(sources):
    """(module, name) of each module-level function or class of the
    ``module -> source`` mapping that no top-level statement but its own
    definition refers to, as a name or an attribute."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            if own is not None:
                defined.append((module, own))
            referenced |= {node.id if isinstance(node, ast.Name) else node.attr
                           for node in ast.walk(stmt)
                           if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    return sorted(d for d in defined if d[1] not in referenced)


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Union\nx: List[int]\n") == [
        (1, "os"), (2, "Union")]


def test_checker_finds_an_uncalled_definition():
    sources = {"a": "def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n",
               "b": "import a\n\ndef g():\n    return a.C()\n"}
    assert uncalled_definitions(sources) == [("a", "f"), ("b", "g")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports(read(os.path.join(PACKAGE, module))) == []


def test_checker_reads_eager_and_lazy_exports():
    source = "from .errors import A, B as C\n_EXPORTS = {'f': 'm', 'm': 'm'}\n"
    assert exported_names(source) == {"A", "C", "f", "m"}


def test_init_exports_the_ruled_list():
    assert exported_names(read(os.path.join(PACKAGE, "__init__.py"))) == PUBLIC


def test_every_definition_is_called_or_public():
    sources = {}
    for folder in (PACKAGE, os.path.join(ROOT, "bench")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                sources[os.path.relpath(os.path.join(folder, name), ROOT)] = read(
                    os.path.join(folder, name))
    assert [(module, name) for module, name in uncalled_definitions(sources)
            if module.startswith("src") and name not in PUBLIC | PACKAGE_HOOKS] == []


def _defining_module(name: str) -> str:
    """The one module under ``src/starsplit`` whose top level defines
    ``name`` (``catalog`` defines itself)."""
    if name + ".py" in MODULES:
        return name
    owners = [module[:-3] for module in MODULES
              for stmt in ast.parse(read(os.path.join(PACKAGE, module))).body
              if getattr(stmt, "name", None) == name
              or name in [getattr(t, "id", None) for t in getattr(stmt, "targets", ())]]
    assert len(owners) == 1, (name, owners)
    return owners[0]


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_export_is_its_defining_module_object(name):
    import starsplit
    assert name in dir(starsplit)
    module = importlib.import_module("starsplit." + _defining_module(name))
    expected = module if module.__name__.endswith("." + name) else getattr(module, name)
    assert getattr(starsplit, name) is expected
    assert vars(starsplit)[name] is expected


def test_unexported_names_are_attribute_errors():
    import starsplit
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        starsplit.nothing
    from starsplit import jsonio      # a submodule off the list still imports
    assert jsonio.__name__ == "starsplit.jsonio"
