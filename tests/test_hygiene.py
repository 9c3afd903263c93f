"""Import and export hygiene of the package, checked on its syntax trees.

Every ``citefit.__all__`` name resolves and is listed once, no module
under ``src/citefit`` imports a name it never uses (``__init__`` uses a
name by exporting it), and every module-level function, class or
assignment is referenced somewhere in the package or exported. Only
``sample`` and ``bootstrap`` call ``np.unique``, so samples are read one
way, and only ``seeding`` builds a ``SeedSequence``, ``PCG64`` or
``Generator`` or assigns a bit generator's ``state``. Only
``gof`` names the simulated-sample draws and only ``bootstrap`` the
resampler and the replicate task ``_statistic_reps``, so every other module
builds a draw through its checked constructor and hands it to ``run_reps``
with a statistic, and nothing reads back what a draw was built from. Only
the study driver and the mixture study call ``run_reps``, and the studies
never call ``fit`` or ``ks_p_value``: they fit in batches with ``fit_many``. Every
``CitefitError`` subclass is raised somewhere in the package, and the base
class itself nowhere. Only ``bootstrap`` and ``gof``, the draw builders,
call ``CitationSample.from_distinct``, which checks nothing (every other
sample is built from checked counts), only ``io`` calls ``open`` or
``os.path.splitext`` (it reads count files and labels their samples), and
the families are listed once, in ``distributions.MODELS``: no CLI
``choices`` list names one, and no module but ``distributions``,
``subjects`` and ``__init__`` names ``HookedPowerLaw``.
Every family has two parameters, the two coordinates of the simplex search,
and the study tables' family cells list the families of ``MODELS`` in order.
Only ``__init__`` writes ``os.environ`` (its one-thread BLAS default): no
other module assigns or deletes an item of it, calls its ``setdefault``,
``update``, ``pop``, ``popitem`` or ``clear``, or calls ``os.putenv`` or
``os.unsetenv``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import citefit
from citefit import exceptions, studies
from citefit.distributions import MODELS

MODULES = sorted(Path(citefit.__file__).parent.glob("*.py"))


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(citefit.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in citefit.__all__ if not hasattr(citefit, name)] == []


def _imported(tree) -> dict[str, int]:
    """Name bound by each import (``import a.b`` binds ``a``) -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _exported(tree) -> set[str]:
    """The names a module lists in ``__all__``."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def _used(tree) -> set[str]:
    # names listed in __all__ count as used
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert unused == []


def _defined(tree) -> dict[str, int]:
    """Name bound by each module-level def, class or assignment -> its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((name.id, node.lineno) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name))
    return bound


def _referenced(tree) -> set[str]:
    """Names a module reads, imports from another module, reads as an
    attribute or exports."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    read.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names)
    return read | _exported(tree)


def test_every_module_level_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    orphans = sorted(f"{module}: {name} (line {line})" for module, tree in trees.items()
                     for name, line in _defined(tree).items()
                     if name not in referenced and not name.startswith("__"))
    assert orphans == []


def _call_nodes(tree, name: str) -> list[ast.Call]:
    """Each call of a function read as ``name`` or as attribute ``name``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) and node.func.attr == name
                 or isinstance(node.func, ast.Name) and node.func.id == name)]


def _calls(tree, name: str) -> list[int]:
    """Line of each call of a function read as ``name`` or as attribute ``name``."""
    return [node.lineno for node in _call_nodes(tree, name)]


# Only a sample's own counts and the bootstrap resampler sort raw counts,
# only the draw builders build a sample unchecked, from its distinct counts,
# and every stream comes from seeding.
@pytest.mark.parametrize("attr,owners", [
    ("unique", {"sample.py", "bootstrap.py"}),
    ("from_distinct", {"bootstrap.py", "gof.py"}),
    ("SeedSequence", {"seeding.py"}),
    ("PCG64", {"seeding.py"}),
    ("Generator", {"seeding.py"}),
])
def test_one_draw_path(attr, owners):
    callers = sorted(f"{path.name}:{line}" for path in MODULES if path.name not in owners
                     for line in _calls(ast.parse(path.read_text(encoding="utf-8")), attr))
    assert callers == []


# Only seeding sets a bit generator's state: a stream is positioned where
# it is derived.
def test_only_seeding_assigns_a_state():
    setters = sorted({path.name for path in MODULES
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                      for target in (node.targets if isinstance(node, ast.Assign)
                                     else [node.target])
                      for part in ast.walk(target)
                      if isinstance(part, ast.Attribute) and part.attr == "state"})
    assert setters == ["seeding.py"]


# Every study table fits its samples in batches, one fit_many call per family,
# and neither fits one sample itself nor through ks_p_value.
def test_studies_never_call_fit():
    tree = ast.parse((Path(citefit.__file__).parent / "studies.py").read_text(encoding="utf-8"))
    for name in ("fit", "ks_p_value"):
        assert (name, _calls(tree, name), name in _imported(tree)) == (name, [], False)


# Count text is read, and a sample named from its path, only in io.
@pytest.mark.parametrize("name", ["open", "splitext"])
def test_only_io_reads_count_files(name):
    callers = sorted(f"{path.name}:{line}" for path in MODULES if path.name != "io.py"
                     for line in _calls(ast.parse(path.read_text(encoding="utf-8")), name))
    assert callers == []


# A study builds its draws with resample_draw or simulation_draw, which
# check their inputs before any replicate runs.
@pytest.mark.parametrize("name,owner", [
    ("_simulated_samples", "gof.py"),
    ("_simulated_counts", "gof.py"),
    ("_distinct_resamples", "bootstrap.py"),
    ("_statistic_reps", "bootstrap.py"),
])
def test_private_draws_are_named_only_by_their_module(name, owner):
    users = sorted(path.name for path in MODULES
                   if name in _referenced(ast.parse(path.read_text(encoding="utf-8"))))
    assert users == [owner]


# A study labels its rows from what it built its draws from, and never reads
# a draw's partial back (.args, .func, .keywords); a caught exception's
# .args is no draw.
def test_no_draw_is_read_back():
    reads = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        caught = {node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and node.name}
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("args", "func", "keywords")
                  and not (isinstance(node.value, ast.Name) and node.value.id in caught)]
    assert reads == []


def test_one_replicate_driver():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES]
    callers = sorted(f"{module}.{node.name}" for module, tree in trees for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     for _ in _calls(node, "run_reps"))
    calls = [call for _, tree in trees for call in _call_nodes(tree, "run_reps")]
    assert (callers, len(calls)) == (
        ["studies._summaries", "studies.mixture_impurity_study"], 2)


def _raised(tree) -> set[str]:
    """Names a module raises, as ``raise E`` or ``raise E(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


# __all__ counts as a use in the orphan check, so an exported error class
# that nothing raises would pass it; the base class is only caught, so every
# failure carries its own type
def test_every_citefit_error_is_raised():
    raised = set().union(*(_raised(ast.parse(path.read_text(encoding="utf-8")))
                           for path in MODULES))
    errors = {name for name, value in vars(exceptions).items()
              if isinstance(value, type) and issubclass(value, exceptions.CitefitError)}
    assert sorted(errors - raised) == ["CitefitError"]


# the CLI offers the families of MODELS, not a list of its own
def test_no_family_choices_are_spelled_out():
    cli = ast.parse((Path(citefit.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    spelled = [node.lineno for node in ast.walk(cli)
               if isinstance(node, ast.keyword) and node.arg == "choices"
               and isinstance(node.value, (ast.List, ast.Tuple, ast.Set))
               and any(isinstance(elt, ast.Constant) and elt.value in MODELS
                       for elt in node.value.elts)]
    assert spelled == []


# the fitter and the CLI reach a family's class through MODELS
def test_family_classes_are_named_only_where_declared():
    users = sorted(path.name for path in MODULES
                   if "HookedPowerLaw" in _referenced(ast.parse(path.read_text(encoding="utf-8"))))
    assert users == ["__init__.py", "distributions.py", "subjects.py"]


# the simplex search takes exactly two coordinates
def test_every_family_has_two_parameters_and_a_table_cell():
    assert [len(cls.PARAMS) for cls in MODELS.values()] == [2] * len(MODELS)
    assert [family for family, _, _ in studies._FAMILY_CELLS] == list(MODELS)


def _environ_writes(tree) -> list[int]:
    """Line of each write to ``os.environ`` (or ``environ``), and of each
    ``putenv`` or ``unsetenv`` call."""
    def is_environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                or isinstance(node, ast.Name) and node.id == "environ")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
             and is_environ(node.value)]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and (node.func.attr in ("setdefault", "update", "pop", "popitem", "clear")
                   and is_environ(node.func.value)
                   or node.func.attr in ("putenv", "unsetenv"))]
    return sorted(lines)


# the process environment is set once, where citefit is first imported
def test_only_init_writes_the_environment():
    probe = ast.parse("os.environ['A'] = '1'\ndel environ['A']\nos.environ.update(A='1')\n"
                      "os.putenv('A', '1')\nos.environ.get('A')\n")
    assert _environ_writes(probe) == [1, 2, 3, 4]
    writes = {path.name: _environ_writes(ast.parse(path.read_text(encoding="utf-8")))
              for path in MODULES}
    assert {name: lines for name, lines in writes.items() if lines}.keys() == {"__init__.py"}
