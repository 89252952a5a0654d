"""Layering lint: the import graph must stay acyclic by layer.

The architecture (docs/architecture.md) stacks ``repro.blas`` under
``repro.core`` under the plan/serve layers, with ``repro.api`` (the
network front-end) on top.  Lower layers must not import upper ones at
module scope:

- ``repro.blas`` imports neither ``repro.core``, ``repro.plan``,
  ``repro.serve`` nor ``repro.api``;
- ``repro.core`` never imports ``repro.plan``, ``repro.serve`` or
  ``repro.api``;
- ``repro.plan`` never imports ``repro.serve`` or ``repro.api``;
- ``repro.serve`` and ``repro.fuzz`` never import ``repro.api``;
- ``repro.tune`` sits *above* serve (it may import serve, core and
  machines) but below the network front-end: it never imports
  ``repro.api``, and nothing in blas/core/plan/serve imports it — the
  service sees tuned profiles only through a duck-typed ``profiles``
  object, so the compute stack stays tuner-free.

The compute stack is also **network-free**: only ``repro.api`` may
touch socket/asyncio machinery — a kernel library that opens sockets
at import time is a supply-chain bug, so the lint bans the network
modules below the api layer.

The serving tier is **scipy-free**: a process that imports
``repro.api`` and its worker loads no scipy, tuner or cost-model
ladder.  scipy serves only the offline calibration solvers, and every
api process (front end, each worker, each respawn) would otherwise pay
for it at start-up.  That is a property of the loaded module set, not
of module-level import statements, so it is checked in a fresh
interpreter.

Function-level (lazy) imports are allowed — the drivers in
``repro.core`` resolve a plan cache lazily when the caller passes one —
so the walk inspects *module-level* import statements only: top-level
``import``/``from`` nodes, including those nested in module-level
``if``/``try`` blocks, but nothing inside a function or class body.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: lower layer -> prefixes it must never import at module scope
#: (repro.blas.level3_fast deliberately builds SYRK/TRMM on top of the
#: core driver, so repro.core is not forbidden to blas — only the
#: plan/serve layers are above both.)
FORBIDDEN = {
    "repro.blas": ("repro.plan", "repro.serve", "repro.api",
                   "repro.tune"),
    "repro.core": ("repro.plan", "repro.serve", "repro.api",
                   "repro.tune"),
    "repro.plan": ("repro.serve", "repro.api", "repro.tune"),
    "repro.serve": ("repro.api", "repro.tune"),
    "repro.fuzz": ("repro.api", "repro.tune"),
    "repro.tune": ("repro.api",),
}

#: stdlib network machinery only the api layer may touch at module scope
NETWORK_MODULES = ("socket", "asyncio", "ssl", "http", "urllib",
                   "socketserver", "selectors")

#: layers that must stay network-free (everything below repro.api)
NETWORK_FREE_LAYERS = ("repro.blas", "repro.core", "repro.plan",
                       "repro.serve", "repro.fuzz", "repro.tune")


#: modules only offline runs need: calibration, tuning, load generation
#: and fuzzing
OFFLINE_ONLY = ("repro.tune.apply", "repro.tune.feed", "repro.tune.measure",
                "repro.tune.search", "repro.machines.calibrate",
                "repro.models", "repro.serve.loadgen", "repro.fuzz",
                "repro.api.wirefuzz")


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_level_imports(tree: ast.Module):
    """Imported module names reachable without entering any function or
    class body (module-level if/try blocks still count)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                yield node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            continue
        elif hasattr(node, "body"):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, []):
                    stack.append(child)


def _violations(layer: str, forbidden) -> list:
    out = []
    pkg_dir = SRC.parent / Path(*layer.split("."))
    for path in sorted(pkg_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _module_level_imports(tree):
            if any(name == f or name.startswith(f + ".")
                   for f in forbidden):
                out.append((_module_name(path), name))
    return out


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports(layer):
    bad = _violations(layer, FORBIDDEN[layer])
    assert not bad, (
        f"{layer} must not import upper layers at module scope: {bad}"
    )


def test_lazy_plan_imports_exist_below_function_scope():
    """Sanity check on the lint itself: the serial/parallel drivers DO
    import repro.plan lazily inside functions — the module-scope walk
    must not flag them, and a full-tree walk must find them (proving
    the lint is looking at the right granularity, not at nothing)."""
    flagged = _violations("repro.core", ("repro.plan",))
    assert flagged == []

    deep = set()
    for name in ("dgefmm", "parallel"):
        path = SRC / "core" / f"{name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                deep.add(node.module)
    assert any(m.startswith("repro.plan") for m in deep)


@pytest.mark.parametrize("layer", NETWORK_FREE_LAYERS)
def test_compute_stack_is_network_free(layer):
    bad = _violations(layer, NETWORK_MODULES)
    assert not bad, (
        f"{layer} must not touch network modules at module scope "
        f"(only repro.api speaks the network): {bad}"
    )


def test_api_may_import_serving_stack():
    """The positive direction: repro.api legitimately builds on the
    serve/core layers — a regression that inverts the check (or an
    over-broad FORBIDDEN entry) would make this fail."""
    deep = set()
    for path in sorted((SRC / "api").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        deep.update(_module_level_imports(tree))
    assert any(m.startswith("repro.serve") for m in deep)
    assert any(m.startswith("repro.core") for m in deep)


def test_tune_may_import_serving_stack():
    """The positive direction for the tune layer: it legitimately builds
    on serve (hot-swap verification drives GemmService) and on the
    machines calibration timers — while the serve side touches profiles
    only through duck typing (asserted by FORBIDDEN above)."""
    deep = set()
    for path in sorted((SRC / "tune").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        deep.update(_module_level_imports(tree))
    assert any(m.startswith("repro.serve") for m in deep)
    assert any(m.startswith("repro.core") for m in deep)


def test_serving_tier_imports_no_scipy():
    probe = (
        "import json, sys\n"
        "import repro.api, repro.api.worker\n"
        "loaded = sorted(sys.modules)\n"
        "from repro.tune import tune_class, ProfileStore\n"
        "assert callable(tune_class) and callable(ProfileStore)\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in loaded if m.startswith("scipy")] == []
    offline = [m for m in loaded
               if any(m == o or m.startswith(o + ".") for o in OFFLINE_ONLY)]
    assert offline == [], f"the serving tier loads offline modules: {offline}"


def test_every_layer_directory_exists():
    for layer in ("blas", "core", "plan", "serve", "api", "tune"):
        assert (SRC / layer).is_dir(), f"src/repro/{layer} missing"
