"""Package surface: which names are public, each listed once in the ``__all__`` of the module that defines
it, which signatures take a tolerance, which parameters have a default, which functions enter the search
driver, which functions are generators, no unused imports, no module-level definition without a caller, no scipy,
nothing newer than the NumPy floor, and LAPACK QR only in ``euler_decompose``."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import cvchan
from cvchan import majorization as mj

#: The only public parameters named tol, atol or rtol.  Each is set by a
#: caller: ``verify --tol`` sets the campaigns' atol and the checks' tol,
#: and every campaign passes its per-sample slack to ``TrialReport.fold``.
TOLERANCE_PARAMETERS = {
    "TrialReport.fold": {"tol"},
    "theorem1_trial": {"atol"},
    "lemma1_trial": {"atol"},
    "lemma1_campaign": {"atol"},
    "schur_campaign": {"atol"},
    "multiplicativity_check": {"tol"},
    "additivity_check": {"tol"},
}

#: Every parameter with a default in src/cvchan, as ``function.parameter``.
#: A default is a knob that a caller may leave unset, so a new one must
#: show up here.
DEFAULTED_PARAMETERS = {
    "_prefix_gaps.descending",
    "additivity_check.search_budget", "additivity_check.seed", "additivity_check.tol",
    "gaussian_holevo_capacity.search_budget", "gaussian_holevo_capacity.seed",
    "lemma1_campaign.atol", "lemma1_campaign.instances", "lemma1_campaign.max_modes",
    "lemma1_campaign.samples", "lemma1_campaign.seed",
    "lemma1_trial.atol", "lemma1_trial.samples", "lemma1_trial.seed",
    "log_fp_concavity_check.bound", "log_fp_concavity_check.points", "log_fp_concavity_check.ps",
    "main.argv",
    "max_output_entropy_under_energy.search_budget", "max_output_entropy_under_energy.seed",
    "min_output_entropy.budget", "min_output_entropy.seed",
    "multiplicativity_check.search_budget", "multiplicativity_check.seed", "multiplicativity_check.tol",
    "numeric_inf_fp.budget", "numeric_inf_fp.seed",
    "random_covariance.nu_range", "random_covariance.seed",
    "random_majorization_pair.seed", "random_majorization_pair.transforms",
    "random_spd.seed", "random_symplectic.seed", "random_symplectic.squeeze_range", "random_unitary.seed",
    "sample_symplectics.log_squeeze",
    "schur_campaign.atol", "schur_campaign.max_dim", "schur_campaign.seed", "schur_campaign.trials",
    "theorem1_trial.atol", "theorem1_trial.nu_range", "theorem1_trial.seed",
    "theorem1_trial.trials",
    "thermal.omega", "vacuum.omega",
}

#: The package surface, in order.  A name leaves it only with an argued
#: entry in CHANGES.md, so a removal must show up here.
PUBLIC_NAMES = [
    "__version__", "TOL_SYM", "TOL_DECOMP", "SymplecticCheck", "WilliamsonDecomposition",
    "EulerDecomposition", "symplectic_form", "is_symplectic", "symplectic_eigenvalues",
    "williamson", "euler_decompose", "unitary_to_orthosymplectic", "orthosymplectic_to_unitary",
    "symplectic_from_factors", "symplectic_inverse", "random_unitary", "random_symplectic",
    "random_covariance", "random_spd", "rng_stream", "truncate_rows", "TOL_PHYS", "GaussianState",
    "ModeEnergy", "vacuum", "thermal", "coherent", "is_physical", "is_pure", "mean_energy", "f_p",
    "g_p", "trace_p", "schatten_norm", "renyi_entropy", "von_neumann_entropy", "GaussianChannel", "make_channel",
    "classical_noise", "thermal_noise", "lossy", "tensor", "apply", "noise_spectrum",
    "EnergyBudget", "OptimizationReport", "CapacityReport", "min_output_fp_closed",
    "max_output_p_norm", "min_output_entropy", "numeric_inf_fp", "max_output_entropy_under_energy",
    "gaussian_holevo_capacity", "multiplicativity_check", "additivity_check",
    "log_fp_concavity_check", "TrialReport", "majorize", "weak_submajorize", "weak_supermajorize",
    "t_transform", "random_majorization_pair", "schur_diag_check", "theorem1_trial", "lemma1_trial",
    "lemma1_campaign", "schur_campaign",
]


def test_public_names_are_pinned():
    assert cvchan.__all__ == PUBLIC_NAMES


SOURCE = pathlib.Path(cvchan.__file__).parent


def _public_callables():
    """Every exported function, every method of an exported class, and
    ``schur_diag_check``, by qualified name."""
    found = {"schur_diag_check": mj.schur_diag_check}
    for name in cvchan.__all__:
        obj = getattr(cvchan, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    found[f"{name}.{attr}"] = member
        elif callable(obj):
            found[name] = obj
    return found


def test_only_the_kept_checks_take_a_tolerance():
    taken = {}
    for name, function in _public_callables().items():
        tolerances = {p for p in inspect.signature(function).parameters if p in ("tol", "atol", "rtol")}
        if tolerances:
            taken[name] = tolerances
    assert taken == TOLERANCE_PARAMETERS


def _defaulted_parameters(paths) -> set[str]:
    """``function.parameter`` for every parameter with a default, positional
    or keyword-only, of every function and lambda in the given modules."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                found |= {f"{getattr(node, 'name', '<lambda>')}.{arg.arg}" for arg in named}
    return found


def test_defaulted_parameters_are_pinned():
    assert _defaulted_parameters(sorted(SOURCE.glob("*.py"))) == DEFAULTED_PARAMETERS


def test_defaulted_parameter_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(a, b=1, /, c=2, *d, e, g=3, **h):\n"
        "    return lambda x, y=0: x\n\n"
        "class C:\n"
        "    def m(self, k, z=None):\n"
        "        pass\n"
    )
    assert _defaulted_parameters([module]) == {"f.b", "f.c", "f.g", "<lambda>.y", "m.z"}


#: Every function in src/cvchan that compares a ``.kind``: the record writer
#: and the per-leaf closed-form rule.  A kind branch anywhere else is a
#: second copy of the rule, so a new one must show up here.
KIND_BRANCHES = {"channel_to_record", "_leaf_optimum"}


def _owners(paths, hit) -> set[str]:
    """The innermost function (``<module>`` outside any) around every node
    for which ``hit`` is true, in the given modules.  Annotations are not
    visited: they name types and run nothing."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        annotations = {id(getattr(node, name, None)) for name in ("annotation", "returns")}
        for child in ast.iter_child_nodes(node):
            if id(child) in annotations:
                continue
            if hit(child):
                found.add(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def _kind_branches(paths) -> set[str]:
    """The functions around every comparison or ``match`` that reads a
    ``.kind`` attribute, in the given modules."""

    def hit(node: ast.AST) -> bool:
        tested = [node] if isinstance(node, ast.Compare) else [node.subject] if isinstance(node, ast.Match) else []
        return any(isinstance(sub, ast.Attribute) and sub.attr == "kind" for test in tested for sub in ast.walk(test))

    return _owners(paths, hit)


def test_kind_branches_are_pinned():
    assert _kind_branches(sorted(SOURCE.glob("*.py"))) == KIND_BRANCHES


def test_kind_branch_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(c):\n    return c.kind == 'a'\n\n"
        "def g(c):\n    def inner(d):\n        return 'b' in (d.kind,)\n    return inner\n\n"
        "def h(c, kind):\n    print(c.kind)\n    return kind == 'a' or c.kind\n\n"
        "def m(c):\n    match c.kind:\n        case 'a':\n            pass\n\n"
        "X = [c for c in () if c.kind != 'z']\n"
    )
    assert _kind_branches([module]) == {"f", "inner", "m", "<module>"}


#: Every function in src/cvchan that reads ``NOISE_EPS``: ``_noise_spectrum``,
#: which picks the route of ``noise_spectrum`` by it, and ``witness``, the
#: classical leaf's witness inside ``_leaf_optimum``, which regularizes a
#: singular Y with it.  A new reader must show up here.
NOISE_EPS_READERS = {"_noise_spectrum", "witness"}


def _noise_eps_readers(paths) -> set[str]:
    """The functions around every read of the name ``NOISE_EPS``, bare or as
    an attribute, in the given modules."""

    def hit(node: ast.AST) -> bool:
        bare = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        return (getattr(node, "id", None) if bare else getattr(node, "attr", None)) == "NOISE_EPS"

    return _owners(paths, hit)


def test_noise_eps_readers_are_pinned():
    assert _noise_eps_readers(sorted(SOURCE.glob("*.py"))) == NOISE_EPS_READERS


def test_noise_eps_reader_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "NOISE_EPS = 1e-10\n\n"
        "def f(y):\n    return y >= NOISE_EPS\n\n"
        "def g(leaf):\n    def inner():\n        return leaf.y + ch.NOISE_EPS\n    return inner\n\n"
        "def h(y):\n    return lambda: y * NOISE_EPS\n\n"
        "def unrelated(NOISE_EPS_2):\n    NOISE_EPS = 2.0\n    return NOISE_EPS_2\n\n"
        "FLOOR = 2 * NOISE_EPS\n"
    )
    assert _noise_eps_readers([module]) == {"f", "inner", "h", "<module>"}


#: Every function in src/cvchan whose tolerance guard raises when a bare comparison such as
#: ``x > tol`` or ``x < -tol`` holds.  NaN fails every comparison, so it passes such a guard; each
#: of these (``__post_init__`` is ``GaussianState``'s) refuses non-finite input before it.  A
#: guard written ``not x <= tol`` refuses NaN, so a new bare guard must show up here.
BARE_TOLERANCE_GUARDS = {
    "__post_init__", "_check_symmetric", "_checked_pair", "euler_decompose", "make_channel", "schur_diag_check",
    "williamson",
}


def _bare_tolerance_guards(paths) -> set[str]:
    """The functions around every ``if`` whose test is a comparison that reads a
    tolerance (a name holding ``tol``, in any case), alone or as an operand of
    ``and``/``or``, and whose body raises, in the given modules."""

    def reads_tolerance(node: ast.AST) -> bool:
        return any("tol" in getattr(sub, "id", getattr(sub, "attr", "")).lower() for sub in ast.walk(node))

    def hit(node: ast.AST) -> bool:
        if not isinstance(node, ast.If):
            return False
        if not any(isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt)):
            return False
        tests = node.test.values if isinstance(node.test, ast.BoolOp) else [node.test]
        return any(isinstance(test, ast.Compare) and reads_tolerance(test) for test in tests)

    return _owners(paths, hit)


def test_bare_tolerance_guards_are_pinned():
    assert _bare_tolerance_guards(sorted(SOURCE.glob("*.py"))) == BARE_TOLERANCE_GUARDS


def test_bare_tolerance_guard_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "TOL_A = 1e-10\n\n"
        "def f(res):\n    if res > TOL_A:\n        raise ValueError(res)\n\n"
        "def g(w):\n    def inner():\n"
        "        if w < -sp.TOL_B * 2.0:\n            raise ValueError(w)\n    return inner\n\n"
        "def h(a, b, tol):\n    for x in (a, b):\n"
        "        if x.ok and tol <= x.res:\n            raise ArithmeticError(x)\n\n"
        "def kept(res, tol):\n    if not res <= tol:\n        raise ValueError(res)\n\n"
        "def quiet(res, tol):\n    if res > tol:\n        return False\n    return True\n\n"
        "def untold(n):\n    if n < 1:\n        raise ValueError(n)\n\n"
        "if TOL_A > 1.0:\n    raise ImportError(TOL_A)\n"
    )
    assert _bare_tolerance_guards([module]) == {"f", "inner", "h", "<module>"}


#: Per search driver, every function in src/cvchan that reads it: one BFGS
#: lockstep runs the pure-input searches and the energy-constrained sup
#: search, and ``_searches`` is its one entry.  Another reader is a second
#: entry to the search driver, or a one-search adapter around it, so a new
#: one must show up here.
DRIVER_CALLERS = {"_lockstep_bfgs": {"_searches"}}


def _driver_callers(paths, driver: str = "_lockstep_bfgs") -> set[str]:
    """The functions around every read of the name ``driver``, bare or as an
    attribute, in the given modules."""
    return _owners(paths, lambda node: getattr(node, "id", getattr(node, "attr", None)) == driver)


def test_driver_callers_are_pinned():
    assert {driver: _driver_callers(sorted(SOURCE.glob("*.py")), driver) for driver in DRIVER_CALLERS} == DRIVER_CALLERS


def test_driver_caller_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def _lockstep_bfgs(groups):\n    return []\n\n"
        "def f(values_of):\n    return _lockstep_bfgs([(values_of, (), [])], 10)[0]\n\n"
        "def g(groups):\n    def inner():\n        return fn._lockstep_bfgs(groups)\n    return inner\n\n"
        "def h(groups):\n    return lambda: _lockstep_bfgs(groups)\n\n"
        "def unrelated(_lockstep_bfgs_count):\n    return _lockstep_bfgs_count\n\n"
        "DRIVER = _lockstep_bfgs\n"
    )
    assert _driver_callers([module]) == {"f", "inner", "h", "<module>"}


#: Every generator function in src/cvchan: ``_chart_run``, one search run that
#: yields its rows to the lockstep and is sent their scores.  A generator is a
#: layer of the search driver that a round resumes once per row, so a new one
#: must show up here.
GENERATORS = {"_chart_run"}


def _generators(paths) -> set[str]:
    """The functions around every ``yield`` and ``yield from`` in the given modules."""
    return _owners(paths, lambda node: isinstance(node, (ast.Yield, ast.YieldFrom)))


def test_generators_are_pinned():
    assert _generators(sorted(SOURCE.glob("*.py"))) == GENERATORS


def test_generator_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def run(t0):\n    value = yield t0\n    return value\n\n"
        "def outer(t0):\n    def step():\n        yield from run(t0)\n    return step\n\n"
        "def rows(n):\n    return list(i for i in range(n))\n"
    )
    assert _generators([module]) == {"run", "step"}


#: Every function in src/cvchan that calls ``rng_stream``, each keying its
#: streams by ``(seed, lane)``.  A new caller is a new family of streams, so
#: it must show up here.
LANE_OWNERS = {
    "random_unitary", "random_symplectic", "random_spd", "_chart_starts",
    "random_majorization_pair", "theorem1_trial", "_lemma1_fold", "lemma1_campaign", "schur_campaign",
}


def _is_rng_stream_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "rng_stream"


def _lane_owners(paths) -> set[str]:
    """The functions around every call of ``rng_stream``, bare or as an
    attribute, in the given modules."""
    return _owners(paths, _is_rng_stream_call)


def _seed_arithmetic(paths) -> list[str]:
    """Every ``rng_stream`` call whose first argument is not the bare name
    ``seed``: a stream is named by its lane, never by arithmetic on the seed."""
    found = []
    for path in paths:
        calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if _is_rng_stream_call(node)]
        found += [f"{path.name}:{call.lineno} {ast.unparse(call)}" for call in sorted(calls, key=lambda c: c.lineno)
                  if not (call.args and getattr(call.args[0], "id", None) == "seed")]
    return found


def _random_module_readers(paths) -> set[str]:
    """The functions around every read of ``numpy.random`` (as ``np.random``
    or ``numpy.random``) and every import of it, in the given modules."""

    def hit(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and ast.unparse(node.value) in ("np", "numpy")
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.random") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.random") or module == "numpy" and any(
                alias.name == "random" for alias in node.names)
        return False

    return _owners(paths, hit)


def test_lane_owners_are_pinned():
    assert _lane_owners(sorted(SOURCE.glob("*.py"))) == LANE_OWNERS


def test_no_seed_arithmetic():
    assert _seed_arithmetic(sorted(SOURCE.glob("*.py"))) == []


def test_numpy_random_only_in_rng_stream():
    assert _random_module_readers(sorted(SOURCE.glob("*.py"))) == {"rng_stream"}


def test_unkeyed_randomness_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy.random import default_rng\n\n"
        "def rng_stream(seed, *lane):\n    return np.random.Generator(np.random.Philox(seed))\n\n"
        "def f(seed: int, rng: np.random.Generator) -> np.random.Generator:\n    return rng_stream(seed, 1)\n\n"
        "def g(seed):\n    def inner(run):\n        return sp.rng_stream(seed + run)\n    return inner\n\n"
        "def h(seed):\n    return lambda: rng_stream(2 * seed, 0), numpy.random.rand()\n\n"
        "def unrelated(rng_stream_seed: np.random.Generator):\n    return rng_stream_seed\n\n"
        "RNG = rng_stream(seed=3)\n"
    )
    assert _lane_owners([module]) == {"f", "inner", "h", "<module>"}
    assert _seed_arithmetic([module]) == [
        "module.py:12 sp.rng_stream(seed + run)", "module.py:16 rng_stream(2 * seed, 0)",
        "module.py:21 rng_stream(seed=3)",
    ]
    assert _random_module_readers([module]) == {"<module>", "rng_stream", "h"}


def _exported(tree: ast.Module) -> list[str]:
    """The names a module lists in a top-level ``__all__ = [...]``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def _sibling_exports(path: pathlib.Path, module: str | None) -> list[str]:
    """What ``module``, a sibling ``.py`` file of ``path``, lists in ``__all__``; empty without one."""
    sibling = path.parent / f"{module}.py"
    if not module or "." in module or not sibling.is_file():
        return []
    return _exported(ast.parse(sibling.read_text(encoding="utf-8")))


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
                elif not (path.name == "__init__.py" and node.level == 1 and _sibling_exports(path, node.module)):
                    # the one star a package may hold: ``from .<module> import *`` of a module's ``__all__``
                    imported[f"from {'.' * node.level}{node.module or ''} import *"] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))  # a package re-exports what it lists in __all__
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_unused_import_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom typing import NamedTuple, Sequence\n\nx: Sequence[int] = []\n")
    assert _unused_imports(module) == ["module.py:2 NamedTuple", "module.py:1 os"]


def test_star_import_is_accepted_only_as_a_republished_list(tmp_path):
    (tmp_path / "listed.py").write_text("__all__ = ['f']\n\ndef f():\n    pass\n")
    (tmp_path / "unlisted.py").write_text("def g():\n    pass\n")
    (tmp_path / "__init__.py").write_text(
        "from . import listed\nfrom .listed import *\nfrom .unlisted import *\nfrom os import *\n"
        "from .missing import *\n\n__all__ = []\n__all__ += listed.__all__\n"
    )
    (tmp_path / "module.py").write_text("from .listed import *\n")
    assert _unused_imports(tmp_path / "__init__.py") == [
        "__init__.py:5 from .missing import *", "__init__.py:3 from .unlisted import *",
        "__init__.py:4 from os import *",
    ]
    assert _unused_imports(tmp_path / "module.py") == ["module.py:1 from .listed import *"]


def _declaration_faults(paths) -> list[str]:
    """Every name a module lists in its literal ``__all__`` but does not define at
    its top level (an import is not a definition), every name that two modules
    list, and every ``__all__ +=`` of anything but a sibling module's ``__all__``:
    a public name is listed once, beside its definition, and a package
    ``__init__`` republishes the lists of its modules."""
    faults, owner = [], {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
            elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "__all__":
                value = node.value
                if not (isinstance(value, ast.Attribute) and value.attr == "__all__"
                        and isinstance(value.value, ast.Name)
                        and _sibling_exports(path, value.value.id)):
                    faults.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        for name in _exported(tree):
            if name not in defined:
                faults.append(f"{path.name}: {name} is not defined there")
            if name in owner:
                faults.append(f"{name} is listed in {owner[name]} and {path.name}")
            owner.setdefault(name, path.name)
    return faults


def test_each_public_name_is_listed_once_beside_its_definition():
    assert _declaration_faults(sorted(SOURCE.glob("*.py"))) == []


def test_package_republishes_each_module_object():
    modules = [cvchan.symplectic, cvchan.states, cvchan.channels, cvchan.functionals, cvchan.majorization]
    assert ["__version__"] + [name for module in modules for name in module.__all__] == cvchan.__all__
    for module in modules:
        assert all(getattr(cvchan, name) is getattr(module, name) for name in module.__all__), module.__name__


def test_declaration_fault_is_detected(tmp_path):
    (tmp_path / "a.py").write_text(
        "from os import path\n\n__all__ = ['f', 'G', 'path', 'missing']\n\n"
        "def f():\n    pass\n\nG: int = 1\n"
    )
    (tmp_path / "b.py").write_text("__all__ = ['f', 'h']\n\ndef f():\n    pass\n\nh, k = 1, 2\n")
    (tmp_path / "__init__.py").write_text(
        "__version__ = '1'\n\nfrom .a import *\n\n"
        "__all__ = ['__version__', 'h']\n__all__ += a.__all__\n__all__ += ['extra']\n__all__ += os.__all__\n"
    )
    assert _declaration_faults([tmp_path / name for name in ("a.py", "b.py", "__init__.py")]) == [
        "a.py: path is not defined there", "a.py: missing is not defined there", "f is listed in a.py and b.py",
        "__init__.py:7 __all__ += ['extra']", "__init__.py:8 __all__ += os.__all__",
        "__init__.py: h is not defined there", "h is listed in b.py and __init__.py",
    ]


def _uncalled_definitions(paths) -> list[str]:
    """Module-level functions and classes that no other top-level statement
    of the given modules names, and that ``__all__`` does not export."""
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_exported(tree))
        for statement in tree.body:
            names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, statement.name))
                names.discard(statement.name)  # a definition does not call itself into use
            used |= names
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_every_definition_has_a_caller():
    assert _uncalled_definitions(sorted(SOURCE.glob("*.py"))) == []


def test_uncalled_definition_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "__all__ = ['api']\n\n"
        "def api():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def _orphan():\n    return _orphan()\n\n"
        "class Unused:\n    pass\n"
    )
    assert _uncalled_definitions([module]) == ["module.py:_orphan", "module.py:Unused"]


def _scipy_uses(path: pathlib.Path) -> list[str]:
    """Imports of scipy in any form (``import``, ``from ... import``, ``__import__``
    and ``import_module`` of a scipy name) and ``optimize.minimize`` attribute
    reads: cvchan runs on numpy alone, with its own BFGS (``_chart_run``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("__import__", "import_module"):
            names = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        elif isinstance(node, ast.Attribute) and node.attr == "minimize" and ast.unparse(node.value).endswith("optimize"):
            names = ["scipy"]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


# The two test names predate the rule, which once held ``minimize`` alone.
@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_no_scipy_minimize(path):
    assert _scipy_uses(path) == []


def test_scipy_minimize_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import scipy.optimize\n"
        "from scipy import optimize\n"
        "from scipy.optimize import brentq, minimize as nm\n\n"
        "brentq(abs, -1.0, 1.0)\n"
        "optimize.minimize(abs, 0.0)\n"
        "scipy.optimize.minimize(abs, 0.0)\n"
    )
    assert _scipy_uses(module) == ["module.py:1", "module.py:2", "module.py:3", "module.py:6", "module.py:7"]


def test_dynamic_scipy_import_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import importlib\n"
        "import numpy as np, scipy as sp\n"
        "linalg = importlib.import_module('scipy.linalg')\n"
        "special = __import__('scipy.special')\n"
        "fft = importlib.import_module('numpy.fft')\n"
    )
    assert _scipy_uses(module) == ["module.py:2", "module.py:3", "module.py:4"]


def test_cli_import_loads_no_scipy():
    code = "import sys, cvchan.cli; print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout == "[]\n"


#: Names that NumPy 2 added, so they break the ``numpy>=1.24`` floor that
#: pyproject.toml declares; ``bool`` and ``pow`` count only as ``np.`` reads.
NUMPY_2_ONLY = {"mT", "mH", "vecdot", "matrix_transpose", "concat", "permute_dims", "isdtype", "cumulative_sum",
                "unique_values", "unique_counts", "unique_inverse", "unique_all"}
NUMPY_2_ONLY_TOP = {"bool", "pow"}


def _numpy_2_only_uses(path: pathlib.Path) -> list[str]:
    """Attribute reads and imports from numpy of the names NumPy 2 added."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and (
            node.attr in NUMPY_2_ONLY or node.attr in NUMPY_2_ONLY_TOP and ast.unparse(node.value) in ("np", "numpy")
        ):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name in NUMPY_2_ONLY | NUMPY_2_ONLY_TOP]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_nothing_newer_than_the_numpy_floor(path):
    assert _numpy_2_only_uses(path) == []


def test_numpy_2_only_name_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\n"
        "import numpy as np\n"
        "from numpy.linalg import vecdot, norm\n\n"
        "a = np.eye(2).mT @ np.concat([np.eye(2)]).mH\n"
        "b = np.linalg.matrix_transpose(a), np.unique_counts(a), np.bool(1), np.bool_(1)\n"
        "c = math.pow(2.0, 3.0), np.power(2.0, 3.0), np.pow(2.0, 3.0), np.concatenate([a])\n"
    )
    assert _numpy_2_only_uses(module) == [
        "module.py:3 vecdot", "module.py:5 concat", "module.py:5 mH", "module.py:5 mT",
        "module.py:6 bool", "module.py:6 matrix_transpose", "module.py:6 unique_counts", "module.py:7 pow",
    ]


def _lapack_qr_uses(path: pathlib.Path) -> list[str]:
    """Reads of ``linalg.qr`` and imports of ``qr`` from numpy, each with the
    innermost function that holds it (``<module>`` outside any)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "qr" and ast.unparse(child.value).endswith("linalg"):
                found.append(f"{path.name}:{child.lineno} {owner}")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy":
                found.extend(f"{path.name}:{child.lineno} {owner}" for alias in child.names if alias.name == "qr")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_lapack_qr_only_in_euler_decompose():
    # One QR of one matrix is cheaper than a Python Gram-Schmidt; a batched
    # sampler orthonormalizes by Gram-Schmidt, as ``_haar_unitary`` does.
    uses = [use for path in sorted(SOURCE.glob("*.py")) for use in _lapack_qr_uses(path)]
    assert [use.split(" ")[1] for use in uses] == ["euler_decompose"], uses
    assert uses[0].startswith("symplectic.py:")


def test_lapack_qr_outside_euler_decompose_is_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy.linalg import norm, qr as lapack_qr\n\n"
        "def euler_decompose(s):\n    return np.linalg.qr(s)\n\n"
        "def _haar_unitary(z):\n    q, r = numpy.linalg.qr(z)\n    return q\n\n"
        "def sampler(z):\n    return lapack_qr(z), norm(z), np.qr(z), z.qr\n\n"
        "Q = np.linalg.qr\n"
    )
    assert _lapack_qr_uses(module) == [
        "module.py:2 <module>", "module.py:5 euler_decompose", "module.py:8 _haar_unitary", "module.py:14 <module>",
    ]
