"""Source hygiene: no unused imports, and a package surface the README matches.

No linter ships with the project, so an AST scan of src/, tests/ and
perfbench/ stands in for the unused-import check. A name counts as used when
it appears as an identifier anywhere in the module or is listed in the
module's __all__ (a re-export).
The README's Python blocks are checked against irsprecode.__all__, its
"Library" example is run and its JSON config loads. Every SolverConfig
field is read by some package code outside the class, so no setting is dead,
and the README's solver-key table lists exactly those fields. A solver takes
the numbers it reads: only ao (the loop that reads every setting), harness
and __init__ name SolverConfig, and no public solver of onebit, phase or
baselines has a default for mu or delta. The package
needs numpy only: no module imports scipy, and importing the harness leaves
it and the process pool module unloaded. No module reads the process
environment, so solver behaviour is set by arguments alone. Mirror
descent's safe step and APG's Lipschitz bound come from onebit._sigma_max_sq,
an eigenvalue of the smaller Gram matrix; no package module takes a spectral
norm by SVD. No public function of the solver modules takes a switch (a
parameter with a bool default), so each call runs one path. Cold starts have
one home: within the package only onebit.cold_starts calls model_starts, only
onebit.frame_slots calls cold_starts, and only cold_starts and
onebit.solve_relaxed call mirror_descent; the per-slot solvers take their
start, with no default for it or any other parameter. The solvers' matrix rule has one home too: no package module but
checks.py names asfortranarray or COEFF_RANGE.
Inputs are converted at the door: no package def passes one of its own
parameters to np.asarray, np.atleast_2d or np.array, but the few that
CONVERSION_DOORS excuses, each with its reason (an entry type, a README
function, or a def that keeps its own copy).
The package holds what a run reaches: under sys.setprofile, the runs the
package exists for (the benchmark's workloads, every scheme and both
commands of the command line) enter every def in src/irsprecode but the few
that UNREACHED excuses, each with its reason (README surface, a helper of
it, or a name perfbench imports). Test-only helpers live in tests/. The same
holds for fields: the same runs plus one traced benchmark pass read every
field of every package dataclass but the few that UNREAD excuses, each with
its reason (the README names it, or a file under perfbench/ reads it).
"""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import irsprecode
from irsprecode import cli
from irsprecode.baselines import SCHEMES
from irsprecode.harness import ExperimentConfig, SolverConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import bench  # noqa: E402
from test_bench import SMALL  # noqa: E402
from tracing import Tracer  # noqa: E402

SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
PACKAGE_DIR = Path(irsprecode.__file__).resolve().parent
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)
README_JSON = re.findall(r"```json\n(.*?)```", README, flags=re.S)


def unused_imports(source: str) -> list:
    """(line, name) of each imported binding that the module never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_only_unused_names():
    src = ("import json\nimport numpy as np\nimport os.path\n"
           "from a import b, c as d\nfrom e import f\n__all__ = ['f']\n"
           "np.zeros(d)\nos.path.join()\n")
    assert unused_imports(src) == [(1, "json"), (4, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


INPUT_RULES = {"check_real", "check_count", "is_real", "check_matrix", "field_values"}


def input_rules_from_elsewhere(source: str) -> list:
    """Line of each import of an input rule of checks.py (INPUT_RULES) from
    another module, and of each read of one as an attribute of a name other
    than checks."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] != "checks"
                and INPUT_RULES & {alias.name for alias in node.names}):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in INPUT_RULES
              and not (isinstance(node.value, ast.Name) and node.value.id == "checks")):
            lines.append(node.lineno)
    return sorted(lines)


def test_input_rule_scan_flags_only_other_homes():
    src = ("from .checks import check_real\nfrom irsprecode.checks import is_real\n"
           "from .onebit import SolverConfig, check_real\n"
           "from irsprecode.harness import check_count\nfrom . import checks\n"
           "checks.is_real(1)\nonebit.check_real('a', 1, True)\n")
    assert input_rules_from_elsewhere(src) == [3, 4, 7]


def test_every_module_takes_the_input_rules_from_checks():
    offenders = {str(p.relative_to(ROOT)): lines for p in SOURCES
                 if (lines := input_rules_from_elsewhere(p.read_text()))}
    assert offenders == {}


MATRIX_RULE_NAMES = {"asfortranarray", "COEFF_RANGE"}


def matrix_rule_uses(source: str) -> list:
    """Line of each use of a name that belongs to checks.check_matrix's
    matrix rule (asfortranarray, COEFF_RANGE): as a bare name, as an
    attribute of anything, or imported."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id in MATRIX_RULE_NAMES)
                or (isinstance(node, ast.Attribute) and node.attr in MATRIX_RULE_NAMES)
                or (isinstance(node, ast.ImportFrom)
                    and MATRIX_RULE_NAMES & {alias.name for alias in node.names})):
            lines.append(node.lineno)
    return sorted(lines)


def test_matrix_rule_scan_flags_every_use():
    src = ("import numpy as np\nfrom numpy import asfortranarray\n"
           "from .checks import COEFF_RANGE\nx = np.asfortranarray(a)\n"
           "y = checks.COEFF_RANGE\nz = COEFF_RANGE\n"
           "w = np.ascontiguousarray(a)\n# asfortranarray, COEFF_RANGE\n")
    assert matrix_rule_uses(src) == [2, 3, 4, 5, 6]


def test_the_solver_matrix_rule_has_one_home():
    # the layout, shape and magnitude rule of CoefficientMatrix's c and
    # PhaseCoefficients' eta is stated once, in checks.check_matrix
    offenders = {p.name: lines for p in sorted(PACKAGE_DIR.rglob("*.py"))
                 if p.name != "checks.py" and (lines := matrix_rule_uses(p.read_text()))}
    assert offenders == {}
    assert matrix_rule_uses((PACKAGE_DIR / "checks.py").read_text())


CONVERTERS = {"asarray", "atleast_2d", "array"}


def parameter_conversions(source: str) -> list:
    """(qualified def name, line) of each call of np.asarray, np.atleast_2d or
    np.array, as an attribute of anything or a bare name, whose first
    argument is a bare parameter of an enclosing def ("K.m", "f.inner")."""
    found = []

    def visit(node, prefix, params):
        for child in ast.iter_child_nodes(node):
            inner, names = prefix, params
            if isinstance(child, ast.ClassDef):
                inner = f"{prefix}{child.name}."
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                inner = f"{prefix}{child.name}."
                names = params | {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            elif (isinstance(child, ast.Call) and child.args
                  and getattr(child.func, "attr", getattr(child.func, "id", None)) in CONVERTERS
                  and isinstance(child.args[0], ast.Name) and child.args[0].id in params):
                found.append((prefix.rstrip("."), child.lineno))
            visit(child, inner, names)

    visit(ast.parse(source), "", frozenset())
    return sorted(found)


def test_conversion_scan_flags_parameters_only():
    src = ("import numpy as np\n"
           "def f(a, *, b):\n    a = np.asarray(a)\n    c = np.array(b, dtype=float)\n"
           "    return np.asarray(c), np.array([a]), np.asarray(a.x)\n"
           "class K:\n    def m(self, x):\n        def inner():\n"
           "            return np.atleast_2d(np.asarray(x, dtype=complex))\n"
           "        return np.atleast_2d(self.x), inner\n"
           "def g(v):\n    return v\nw = np.asarray(g)\n")
    assert parameter_conversions(src) == [("K.m.inner", 9), ("f", 3), ("f", 4)]


# the package defs that may convert a parameter, each with why: data enters
# the program there (an entry type, or a function of the README's surface),
# or the def keeps its own copy of what it is given
CONVERSION_DOORS = {
    "ao.receive_points": "README: the transmit array a caller passes to frame_margins or "
                         "simulate_transmission",
    "channel.PhaseShifts.__init__": "entry type",
    "channel.PhaseShifts.from_theta_bar": "entry type",
    "channel.pairs_to_complex": "README",
    "channel.sample_channels": "README",
    "constellation._check_indices": "entry type: SymbolFrame's indices",
    "constellation.q_function": "README",
    "constellation.sep_upper_bound": "README",
    "onebit.mirror_descent": "its own copy of its start, which the loop updates",
    "onebit.onebit_frame": "the slot rows it stacks into the frame's own read-only copy",
}


def test_kernels_take_the_arrays_the_package_builds():
    # a kernel whose package callers all pass the right ndarray converts
    # nothing: conversion happens where data enters the program
    flagged = [(f"{p.stem}.{name}", line) for p in sorted(PACKAGE_DIR.glob("*.py"))
               for name, line in parameter_conversions(p.read_text())]
    assert [(name, line) for name, line in flagged if name not in CONVERSION_DOORS] == []
    # and each excused def still converts one
    assert sorted(set(CONVERSION_DOORS) - {name for name, _ in flagged}) == []


def test_exported_names_resolve():
    assert len(set(irsprecode.__all__)) == len(irsprecode.__all__)
    for name in irsprecode.__all__:
        assert getattr(irsprecode, name, None) is not None, name


def test_readme_imports_only_exported_names():
    imported = [alias.name for block in README_BLOCKS for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "irsprecode"
                for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(irsprecode.__all__)) == []


def test_readme_library_example_runs(capsys):
    section = README.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # the printed worst margin is the returned design's, i.e. the best round's
    assert float(capsys.readouterr().out) == irsprecode.best_round(namespace["trace"]).worst_margin
    assert namespace["frame"].shape == (50, 32)


def test_readme_config_loads():
    assert len(README_JSON) == 1
    cfg = ExperimentConfig.from_dict(json.loads(README_JSON[0]))
    assert cfg.solver == SolverConfig()  # the example restates defaults


def attributes_read(source: str, skip_class: str) -> set:
    """Names read as attributes (x.name) anywhere in a module outside the
    body of the class named skip_class."""
    found = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == skip_class:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_solver_setting_is_read():
    assert attributes_read("class C:\n    def f(self):\n        return self.a\n"
                           "def g(o):\n    o.c = o.b\n", "C") == {"b"}
    read = set().union(*(attributes_read(p.read_text(), "SolverConfig")
                         for p in sorted(PACKAGE_DIR.rglob("*.py"))))
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["mu", "delta", "n_starts"]
    assert sorted(set(fields) - read) == []


def test_readme_solver_table_lists_the_solver_fields():
    # one row per SolverConfig field, in field order, with its default: a
    # row left behind by a deleted setting fails here
    table = README.split("The `solver` object takes these keys", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", table, flags=re.M)
    assert [(name, ast.literal_eval(default)) for name, default in rows] == [
        (f.name, f.default) for f in dataclasses.fields(SolverConfig)]


def imported_packages(source: str) -> set:
    """Top-level package of every absolute import in a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_does_not_import_scipy():
    assert imported_packages("import scipy.linalg as la\nfrom numpy import pi\n"
                             "from . import x\n") == {"scipy", "numpy"}
    assert "scipy" in imported_packages("def f():\n    from scipy.special import erfc\n")
    offenders = [p.name for p in sorted(PACKAGE_DIR.rglob("*.py"))
                 if "scipy" in imported_packages(p.read_text())]
    assert offenders == []


def loaded_by_harness_import(package: str) -> str:
    """The modules of package, printed as a sorted list, that a fresh
    interpreter holds after importing the harness, so that no other test's
    imports count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, irsprecode.harness; print(sorted(m for m in sys.modules "
         f"if m == {package!r} or m.startswith({package + '.'!r})))"],
        capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_harness_import_leaves_scipy_unloaded():
    assert loaded_by_harness_import("scipy") == "[]"


def test_harness_import_leaves_the_process_pool_unloaded():
    # a single-process run never starts a pool; run_experiment imports it
    # only for threads > 1
    assert loaded_by_harness_import("concurrent.futures.process") == "[]"


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def reads_environment(source: str) -> bool:
    """Whether a module reads os.environ or os.getenv, as an attribute of os
    (under any alias) or imported from it."""
    tree = ast.parse(source)
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id in os_names):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in ENV_READERS for alias in node.names)):
            return True
    return False


def test_package_does_not_read_the_environment():
    assert reads_environment("import os\nx = os.environ.get('A')\n")
    assert reads_environment("import os as o\nx = o.getenv('A')\n")
    assert reads_environment("def f():\n    from os import environ\n")
    assert not reads_environment("import os\nos.path.join('a')\nenviron = {}\n")
    offenders = [p.name for p in sorted(PACKAGE_DIR.rglob("*.py"))
                 if reads_environment(p.read_text())]
    assert offenders == []


def spectral_norm_calls(source: str) -> list:
    """Lines of norm(a, 2) / norm(a, ord=2) calls, the SVD-based matrix 2-norm."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        order = [kw.value for kw in node.keywords if kw.arg == "ord"] + node.args[1:2]
        if name == "norm" and any(isinstance(o, ast.Constant) and o.value == 2
                                  for o in order):
            lines.append(node.lineno)
    return lines


def test_no_svd_spectral_norm_in_the_package():
    assert spectral_norm_calls("import numpy as np\nx = np.linalg.norm(a, 2)\n"
                               "y = la.norm(a, ord=2)\n") == [2, 3]
    assert spectral_norm_calls("from numpy.linalg import norm\ndef f(a):\n"
                               "    return norm(a, 2)\n") == [3]
    assert spectral_norm_calls("np.linalg.norm(a)\nnp.linalg.norm(a, axis=1)\n"
                               "np.linalg.norm(a, 1)\nnp.linalg.norm(a, ord='fro')\n") == []
    offenders = [p.name for p in sorted(PACKAGE_DIR.rglob("*.py"))
                 if spectral_norm_calls(p.read_text())]
    assert offenders == []


def bool_defaults(module) -> list:
    """"function(parameter)" for each parameter with a bool default of a
    public function, or public method of a public class, defined in module."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        funcs = [(name, obj)] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            funcs = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                     if inspect.isfunction(f) and not attr.startswith("_")]
        found.extend(f"{label}({p.name})" for label, func in funcs
                     for p in inspect.signature(func).parameters.values()
                     if isinstance(p.default, bool))
    return found


def test_solver_functions_take_no_switch():
    probe = types.ModuleType("probe")
    exec("import numpy as np\n"
         "def f(a, b=1, *, c=False): pass\n"
         "def _g(d=True): pass\n"
         "class K:\n"
         "    def m(self, e=True, f=None): pass\n"
         "    def _n(self, g=False): pass\n", probe.__dict__)
    assert bool_defaults(probe) == ["f(c)", "K.m(e)"]
    offenders = [f"{name}.{found}" for name in ("onebit", "phase", "ao", "baselines")
                 for found in bool_defaults(importlib.import_module(f"irsprecode.{name}"))]
    assert offenders == []


def calls_of(source: str, name: str) -> list:
    """The enclosing function of each call of name, as a bare name or an
    attribute: "f", "K.m" or "f.inner", and "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == name:
                    found.append(where)
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


PER_SLOT_SOLVERS = ("mirror_descent", "solve_relaxed", "solve_symbol")


def test_cold_starts_have_one_home():
    assert calls_of("x = start(a)\ndef f(c):\n    return onebit.start([c], 1)\n"
                    "class K:\n    def m(self):\n        def inner():\n"
                    "            start(1)\n        return inner\n"
                    "def g():\n    return starts(1), start\n", "start") == ["", "f", "K.m.inner"]
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE_DIR.rglob("*.py"))}
    homes = {"model_starts": {"onebit.cold_starts"}, "cold_starts": {"onebit.frame_slots"},
             "mirror_descent": {"onebit.cold_starts", "onebit.solve_relaxed"}}
    for name, want in homes.items():
        callers = {f"{stem}.{where}" for stem, source in sources.items()
                   for where in calls_of(source, name)}
        assert callers == want, name


def public_functions(module) -> list:
    """(name, function) of each public function defined in module."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def test_per_slot_solvers_take_their_start():
    onebit = importlib.import_module("irsprecode.onebit")
    defaults = [f"{name}({p.name})" for name in PER_SLOT_SOLVERS
                for p in inspect.signature(getattr(onebit, name)).parameters.values()
                if p.default is not inspect.Parameter.empty]
    assert defaults == []
    # nor does any public solver default the setting it reads
    takers = {f"{fn_name}({p.name})": p.default for name in ("onebit", "phase", "baselines")
              for fn_name, fn in public_functions(importlib.import_module(f"irsprecode.{name}"))
              for p in inspect.signature(fn).parameters.values() if p.name in ("mu", "delta")}
    assert {"frame_slots(mu)", "relaxed_slp(mu)", "apg_optimize(delta)"} <= set(takers)
    assert [key for key, default in takers.items() if default is not inspect.Parameter.empty] == []


def test_only_the_loop_that_reads_the_settings_names_solver_config():
    # ao's alternating_optimize reads mu, delta and n_starts; harness holds
    # the settings in ExperimentConfig and __init__ exports them. Every other
    # module takes the numbers themselves
    offenders = sorted(p.name for p in PACKAGE_DIR.rglob("*.py")
                       if p.name not in ("ao.py", "harness.py", "__init__.py")
                       and re.search(r"\bSolverConfig\b", p.read_text()))
    assert offenders == []
    assert re.search(r"\bclass SolverConfig\b", (PACKAGE_DIR / "ao.py").read_text())


def package_defs(module) -> dict:
    """{qualified name: code object} of each def of an imported module:
    its functions, the methods, property accessors and cached properties of
    its classes (under functools.cache and other wrappers too), and the defs
    nested in any of these ("K.m", "f.inner"). Lambdas, comprehensions and
    dunder methods are left out. The code objects come from the module as it
    was imported, so an edit to its file afterwards changes nothing."""
    found = {}

    def add(name, code):
        if not (code.co_name.startswith("__") and code.co_name.endswith("__")):
            found[name] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                add(f"{name}.{const.co_name}", const)

    def functions(obj) -> list:
        if isinstance(obj, property):
            return [obj.fget, obj.fset, obj.fdel]
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        elif isinstance(obj, functools.cached_property):
            obj = obj.func
        return [inspect.unwrap(obj)]

    for obj in vars(module).values():
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            for fn in functions(member):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and fn.__name__ != "<lambda>"):
                    add(fn.__qualname__, fn.__code__)
    return found


def entered_code(run) -> set:
    """The code object of each Python function entered while run() runs, as
    sys.setprofile sees its calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def unreached_defs(module, entered: set) -> list:
    """Qualified name of each def of an imported module (package_defs) whose
    code object was not entered."""
    return sorted(name for name, code in package_defs(module).items() if code not in entered)


def test_scan_flags_only_unreached_defs(tmp_path):
    path = tmp_path / "probe_module.py"
    path.write_text("import functools\n"
                    "def used():\n    return helper()\n"
                    "def helper():\n    return [x for x in (1,)]\n"
                    "def unused():\n    pass\n"
                    "square = lambda v: v * v\n"
                    "class K:\n"
                    "    def __repr__(self):\n        return 'K'\n"
                    "    @property\n    def size(self):\n        return 1\n"
                    "    @functools.cache\n    def cached(self):\n        return 2\n"
                    "    def method(self):\n        def inner():\n            pass\n"
                    "        return inner\n")
    spec = importlib.util.spec_from_file_location("probe_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entered = entered_code(lambda: (module.used(), module.K().size, module.K().method()))
    want = ["K.cached", "K.method.inner", "unused"]
    assert unreached_defs(module, entered) == want
    # an edit to the file after import, which moves every def, changes nothing
    path.write_text("# edited\n" * 3 + path.read_text())
    assert unreached_defs(module, entered) == want


def package_traffic(tmp: Path) -> None:
    """The runs the package exists for: the benchmark's desk, bercurve and
    paper workloads at one channel each, every scheme at 16-PSK, and both
    commands of the command line."""
    # a cached function that an earlier test filled would not be entered
    for name, module in list(sys.modules.items()):
        if name.startswith("irsprecode."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    desk = dict(m=32, n=16, k=4, t=50, seed=314, n_channels=1,
                noise_grid_db=(22.0, 26.0, 30.0, 34.0, 38.0, 42.0),
                schemes=("onebit-md", "relaxed", "relaxed-quant", "zf-quant", "onebit-md-noirs"))
    bercurve = dict(desk, seed=2718, n_noise=400,
                    noise_grid_db=tuple(float(v) for v in range(20, 51, 2)),
                    schemes=("zf-quant", "zf-quant-noirs", "relaxed-quant-noirs", "relaxed-noirs"))
    for fields in (desk, bercurve,
                   dict(n_channels=1),  # the defaults are the paper's geometry and schemes
                   # fresh phases for the baselines, and 300 draws x 4 users x
                   # 10 slots = 12,000 receive points a block: the crossing table
                   dict(m=8, n=4, k=4, t=10, order=16, n_noise=300, n_channels=1,
                        schemes=tuple(SCHEMES), theta_policy="random")):
        # through JSON, as perfbench/bench.py hands a workload to its run;
        # to_dict writes the settings as a "solver" object
        text = json.dumps(ExperimentConfig(**fields).to_dict())
        irsprecode.run_experiment(ExperimentConfig.from_dict(json.loads(text)))
    config = tmp / "run.json"
    config.write_text(json.dumps({"m": 4, "n": 2, "k": 1, "t": 2, "n_channels": 1}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp / "run.csv"),
                     "--schemes", "onebit-md,relaxed"]) == 0
    assert cli.main(["fixtures", "dump", "--out", str(tmp / "ch.json"),
                     "--m", "2", "--n", "2", "--k", "1"]) == 0


# the package defs that package_traffic does not enter, each with why it
# stays: the README documents it as library surface, perfbench imports it,
# or it is a helper of the README def named
UNREACHED = {
    "channel.ChannelSet.from_dict": "README",
    "channel.pairs_to_complex": "channel.ChannelSet.from_dict",
    "constellation.q_function": "README",
    "constellation.sep_upper_bound": "README",
    "onebit.worst_objective": "perfbench",
}


def test_every_package_function_is_reached(tmp_path):
    entered = entered_code(lambda: package_traffic(tmp_path))
    unreached = {f"{p.stem}.{name}" for p in sorted(PACKAGE_DIR.glob("*.py"))
                 for name in unreached_defs(importlib.import_module(f"irsprecode.{p.stem}"),
                                            entered)}
    assert sorted(unreached - set(UNREACHED)) == []
    # and each excused def is still defined and still unreached
    assert sorted(set(UNREACHED) - unreached) == []


def perfbench_imports() -> set:
    """"module.name" of each name a file under perfbench/ imports from a
    module of the package."""
    found = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("irsprecode."):
                found.update(f"{node.module.split('.', 1)[1]}.{alias.name}" for alias in node.names)
    return found


def test_each_unreached_def_has_its_reason():
    imported = perfbench_imports()
    for name, reason in UNREACHED.items():
        module, qualname = name.split(".", 1)
        if reason == "README":
            assert all(re.search(rf"\b{part}\b", README) for part in qualname.split(".")), name
        elif reason == "perfbench":
            assert name in imported, name
        else:  # a helper of the README def named
            assert UNREACHED[reason] == "README", name
            source = (PACKAGE_DIR / f"{module}.py").read_text()
            assert reason.split(".", 1)[1] in calls_of(source, qualname.split(".")[-1]), name


def package_dataclasses() -> dict:
    """{"module.Class": (class, its field names)} of each dataclass that a
    module of the package defines."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"irsprecode.{path.stem}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found[f"{path.stem}.{obj.__qualname__}"] = (
                    obj, frozenset(f.name for f in dataclasses.fields(obj)))
    return found


def fields_read(classes: dict, run) -> set:
    """"module.Class.field" of each field of classes (as package_dataclasses
    gives them) that any code reads while run() runs, the class's own methods
    included: each class's __getattribute__ is patched to record the read."""
    read = set()

    def recorder(label, names):
        def getattribute(self, name):
            if name in names:
                read.add(f"{label}.{name}")
            return object.__getattribute__(self, name)
        return getattribute

    with pytest.MonkeyPatch.context() as mp:
        for label, (cls, names) in classes.items():
            mp.setattr(cls, "__getattribute__", recorder(label, names))
        run()
    return read


def test_field_scan_records_every_read(tmp_path):
    path = tmp_path / "probe_fields.py"
    path.write_text("from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\n"
                    "class K:\n    a: int\n    b: int\n    c: int = 0\n"
                    "    def __post_init__(self):\n        assert self.a >= 0\n"
                    "    @property\n    def total(self):\n        return self.b + 1\n")
    spec = importlib.util.spec_from_file_location("probe_fields", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    classes = {"probe.K": (module.K, frozenset(("a", "b", "c")))}
    assert fields_read(classes, lambda: module.K(1, 2).total) == {"probe.K.a", "probe.K.b"}
    assert fields_read(classes, lambda: module.K(1, 2, 3).c) == {"probe.K.a", "probe.K.c"}
    # and the patch is gone afterwards
    assert "__getattribute__" not in vars(module.K)


def traced_small_pass() -> None:
    """One traced pass of the benchmark's SMALL config (every scheme), run
    as perfbench/run.py traces a workload: its counters read the MD and APG
    results that no package code reads."""
    with Tracer():
        bench.timed_call(SMALL)


# the package dataclass fields that no run reads, each with why it stays:
# the README documents it, or a file under perfbench/ reads it
UNREAD = {}


def test_every_result_field_is_read(tmp_path):
    classes = package_dataclasses()
    read = fields_read(classes, lambda: (package_traffic(tmp_path), traced_small_pass()))
    fields = {f"{label}.{name}" for label, (_, names) in classes.items() for name in names}
    assert sorted(fields - read - set(UNREAD)) == []
    # and each excused field is still defined and still unread
    assert sorted(set(UNREAD) - (fields - read)) == []


def unexcused(entries: dict) -> list:
    """Each "module.Class.field" of an UNREAD-style map whose reason does not
    hold: "README" needs the README to name the class and, in backticks, the
    field; "perfbench" needs a file under perfbench/ to read the field as an
    attribute."""
    perfbench_reads = set().union(*(attributes_read(p.read_text(), "")
                                    for p in sorted((ROOT / "perfbench").rglob("*.py"))))
    bad = []
    for name, reason in entries.items():
        cls_name, field_name = name.split(".")[-2:]
        held = {"README": re.search(rf"\b{cls_name}\b", README)
                and f"`{field_name}`" in README,
                "perfbench": field_name in perfbench_reads}.get(reason)
        if not held:
            bad.append(name)
    return bad


def test_each_unread_field_has_its_reason():
    probe = {"onebit.MdResult.n_iter": "perfbench", "onebit.MdResult.lam": "perfbench",
             "harness.ExperimentConfig.n_noise": "README", "onebit.MdResult.no_field": "README",
             "onebit.Nowhere.n_noise": "README", "onebit.MdResult.y": "tests"}
    assert unexcused(probe) == ["onebit.MdResult.lam", "onebit.MdResult.no_field",
                                "onebit.Nowhere.n_noise", "onebit.MdResult.y"]
    assert unexcused(UNREAD) == []
