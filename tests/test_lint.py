"""Static checks on the package source, with the standard library's ``ast``:
every module-level import is used by its module, every private module-level
function or constant is used by some module, one function forks, one
function packs and runs a recurrence, one function chains the feature front
end, ``train`` takes a logarithm only in ``bce_loss``, ``net`` and
``train`` take a norm only in ``net.cosine_rows``, only ``net`` calls
``id()``, no module imports ``multiprocessing`` when it is imported, no
module draws from NumPy's global random state, and no module imports SciPy,
which ``pyproject.toml`` lists only as a test dependency."""

import ast
import re
from pathlib import Path

import pytest

import phonosim

MODULES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(Path(phonosim.__file__).parent.glob("*.py"))
}


def _loaded_names(tree) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _references(tree) -> set[str]:
    """Every name a module reads: bare names, attributes, and the names it
    imports from another module."""
    names = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree) -> list[str]:
    """The names that the module's top-level imports bind."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_definitions(tree) -> list[str]:
    """Module-level functions, classes and constants named ``_x``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _callers(node, where, name):
    """The qualified name of the function (or class or module) around each
    call of ``name``, bare or as an attribute (``os.fork()`` or
    ``fork()``), under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _callers(child, f"{where}.{child.name}", name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if name in (getattr(func, "attr", None), getattr(func, "id", None)):
                yield where
        yield from _callers(child, where, name)


def _package_callers(name) -> set[str]:
    return {
        caller
        for module, tree in MODULES.items()
        for caller in _callers(tree, module.removesuffix(".py"), name)
    }


def _imported_modules(nodes) -> list[str]:
    """Every module that an ``import`` statement among ``nodes`` names."""
    modules = []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    return modules


def _run_at_import(node):
    """Every node under ``node`` that runs when its module is imported: all
    but function bodies."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_at_import(child)


def test_source_modules_found():
    assert {"cli.py", "dsp.py", "train.py"} <= set(MODULES)


@pytest.mark.parametrize("module", list(MODULES))
def test_no_unused_import(module):
    tree = MODULES[module]
    loaded = _loaded_names(tree)
    assert [name for name in _imported(tree) if name not in loaded] == []


@pytest.mark.parametrize("module", list(MODULES))
def test_no_unreferenced_private_definition(module):
    referenced = set().union(*map(_references, MODULES.values()))
    unused = [n for n in _private_definitions(MODULES[module]) if n not in referenced]
    assert unused == []


def test_one_function_forks():
    """Every child process the package starts comes from one function, so
    they share one lifecycle: one CPU gate, one error path, one reaping."""
    callers = _package_callers("fork")
    assert len(callers) == 1, sorted(callers)


@pytest.mark.parametrize("kernel", ["_pack", "_run_direction"])
def test_one_function_packs_and_runs(kernel):
    """Every batch, training or inference, in process or in the backward
    worker, packs and runs each direction through ``net._direction``, so
    the kernel has one batch path."""
    assert _package_callers(kernel) == {"net._direction"}


def test_three_functions_hand_the_kernel_a_batch():
    """A batch's row order is set in ``net._embed_forward``; the backward
    worker packs its rows in the order it is sent them, and
    ``rnn_forward``'s batch has one row.  A new caller of ``_direction``
    must set its batch's row order too, so it is reviewed here."""
    assert _package_callers("_direction") == {
        "net._embed_forward", "net.BackwardWorker._serve", "net.rnn_forward"
    }


def test_two_functions_run_bptt():
    """BPTT, with its cut of rows whose gradient has decayed, has one path:
    ``net._embed_backward`` runs it in process and the backward worker
    runs the same function, so the two stay bit-identical."""
    assert _package_callers("_direction_backward") == {
        "net._embed_backward", "net.BackwardWorker._serve"
    }


@pytest.mark.parametrize("step", ["compute_mfcc", "append_deltas", "cmvn"])
def test_one_function_chains_the_front_end(step):
    """Features are made in one place, ``dsp.extract_features``, so every
    stage and test gets the same front end."""
    assert _package_callers(step) == {"dsp.extract_features"}


def test_cross_entropy_is_written_once():
    """The pair loss takes its per-pair cross-entropy from ``bce_loss``, the
    one place in ``train`` that takes a logarithm."""
    assert {c for c in _package_callers("log") if c.startswith("train.")} == {"train.bce_loss"}


def test_cosine_is_written_once():
    """The pair loss, inference scoring and ``cosine_similarity`` take their
    cosine from ``net.cosine_rows``, the one place in ``net`` and ``train``
    that takes a norm."""
    norms = {c for c in _package_callers("norm") if c.startswith(("net.", "train."))}
    assert norms == {"net.cosine_rows"}
    assert _package_callers("cosine_rows") == {
        "net.cosine_similarity", "train.pair_forward_backward", "train.score_similarities"
    }


def test_only_the_kernel_calls_id():
    """Which matrices are one utterance is decided by key; object identity
    is the kernel's own business (its per-batch dedup and the backward
    worker's map), so no other module calls ``id()``."""
    assert sorted(c for c in _package_callers("id") if not c.startswith("net.")) == []


@pytest.mark.parametrize("module", list(MODULES))
def test_no_multiprocessing_import_at_import_time(module):
    """``multiprocessing`` is slow to import, so ``import phonosim`` and the
    CLI load it only in the function that needs it."""
    modules = _imported_modules(_run_at_import(MODULES[module]))
    assert [m for m in modules if m.split(".")[0] == "multiprocessing"] == []


SEEDED_RANDOM = {"default_rng", "SeedSequence", "Generator"}


def _global_random_calls(tree) -> list[str]:
    """Each ``np.random.<name>(...)`` or ``numpy.random.<name>(...)`` call,
    and each ``from numpy.random import <name>``, whose ``name`` is not one
    of ``SEEDED_RANDOM``."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            calls += [
                (node.lineno, f"from numpy.random import {alias.name}")
                for alias in node.names
                if alias.name not in SEEDED_RANDOM
            ]
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner = node.func.value
        if (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in ("np", "numpy")
            and node.func.attr not in SEEDED_RANDOM
        ):
            calls.append((node.lineno, f"{owner.value.id}.random.{node.func.attr}"))
    return [f"line {line}: {call}" for line, call in sorted(calls)]


@pytest.mark.parametrize("module", list(MODULES))
def test_no_global_random_state(module):
    """Every draw comes from a generator seeded for its purpose, so output
    depends on the seed alone, not on what else ran in the process."""
    assert _global_random_calls(MODULES[module]) == []


def test_global_random_calls_found():
    source = (
        "np.random.seed(1)\n"
        "x = numpy.random.normal(size=3)\n"
        "from numpy.random import default_rng, rand\n"
        "rng = np.random.default_rng(np.random.SeedSequence([2, 3]))\n"
    )
    assert _global_random_calls(ast.parse(source)) == [
        "line 1: np.random.seed",
        "line 2: numpy.random.normal",
        "line 3: from numpy.random import rand",
    ]


@pytest.mark.parametrize("module", list(MODULES))
def test_no_scipy_import(module):
    """The package runs on NumPy alone: SciPy is the tests' oracle, not a
    runtime dependency, so no module imports it, even inside a function."""
    modules = _imported_modules(ast.walk(MODULES[module]))
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_runtime_dependencies_are_numpy_only():
    """``[project].dependencies`` names NumPy alone; SciPy is in the test
    extra, as the oracle of the cross-checks."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
