"""The end-to-end benchmark's tracer still finds every site it patches.

``benchmarks/e2e/trace.py`` swaps timing wrappers in by attribute name:
``dgemm`` and the peeling fix-ups at their import sites, the plan
executor, cache and compiler entry points, ``GemmService.submit`` and
every block-kernel table.  A refactor that moves or renames one of them
breaks the benchmark, so the tracer is installed here against the
package, and uninstalled again, on every tier-1 run.
"""

import importlib
import sys

from benchmarks.e2e.trace import Tracer

#: the modules the tracer imports and patches
MODULES = ("blas.addsub", "core.dgefmm", "core.parallel", "plan.cache",
           "plan.compiler", "plan.executor", "plan.fuse", "serve.service")


def _namespaces():
    """Every namespace the tracer may patch: its modules, the classes it
    wraps methods on, and the block-kernel table registry."""
    mods = {m: importlib.import_module(f"repro.{m}") for m in MODULES}
    spaces = [vars(mod) for mod in mods.values()]
    spaces += [vars(mods["plan.cache"].PlanCache),
               vars(mods["serve.service"].GemmService),
               mods["blas.addsub"].KERNEL_TABLES]
    client = sys.modules.get("repro.api.client")
    if client is not None:
        spaces.append(vars(client.GemmClient))
    return spaces


def _changed(spaces, before):
    return sum(ns.get(key) is not value
               for ns, snap in zip(spaces, before)
               for key, value in snap.items())


def test_tracer_patches_and_restores_every_site():
    spaces = _namespaces()
    before = [dict(ns) for ns in spaces]
    tracer = Tracer()
    try:
        tracer.install()            # a missing site raises AttributeError
        assert tracer.active
        # one swapped entry per patched site, nothing else touched
        assert _changed(spaces, before) == len(tracer._saved) > 0
    finally:
        tracer.uninstall()
    assert not tracer.active
    for ns, snap in zip(spaces, before):
        assert set(ns) == set(snap)
        for key, value in snap.items():
            assert ns[key] is value, key
