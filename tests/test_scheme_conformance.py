"""Scheme-conformance harness: every registry entry, one set of laws.

Every test here is parametrized over the scheme registry
(:data:`repro.core.schemes.SCHEME_NAMES` / ``REGISTRY``) and derives its
expectations from the registry tables alone — partition shape from
``LEVEL_DIVISORS``, product count from ``LEVELS``, executed addition
profile from ``LEVEL_PROFILE``, workspace bound from
``bound_elements``.  Registering a new ⟨m̄,k̄,n̄;R⟩ scheme makes it
subject to all of these checks with zero new test code:

1. the coefficient matrices satisfy the bilinear identity exactly;
2. numeric results, serial and parallel, match numpy over a
   hypothesis-driven shape/scalar space (peeling, rectangles, both
   beta classes);
3. a depth-``d`` recursion issues exactly ``R^d`` base kernels — in the
   closed-form profile, in a live instrumented run, in the compiled
   plan's event trace, and in a ``pdgefmm`` run at any worker budget,
   all agreeing with each other, with the parallel level's U/V/W
   additions on top of its products' walk;
4. the op-count model (:func:`repro.core.opcount.scheme_ops`) equals
   the compiled plan's multiply+add tallies and the live context's
   charged flops *exactly* on divisor-exact dimensions;
5. a live run's workspace peak stays within the registry's
   ``workspace_bound_bytes`` envelope;
6. scheme identity is part of the plan signature: mutating only the
   scheme misses the plan cache;
7. the batched GEMM service admits and correctly executes requests for
   every scheme.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import DepthCutoff, SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.opcount import scheme_ops
from repro.core.parallel import pdgefmm
from repro.core.pool import workspace_bound_bytes
from repro.core.recursion import recursion_profile
from repro.core.schemes import (
    LEVEL_DIVISORS,
    LEVEL_PROFILE,
    LEVEL_SCHEME,
    LEVELS,
    REGISTRY,
    SCHEME_DISPATCH,
    SCHEME_NAMES,
    get_scheme,
)
from repro.core.uvw import _is_block, nonzero_rows
from repro.core.workspace import Workspace
from repro.plan import PlanCache, compile_plan
from repro.plan.compiler import signature_for

# --------------------------------------------------------------------- #
# registry-derived helpers (no per-scheme knowledge)
# --------------------------------------------------------------------- #


def _levels_of(scheme: str):
    """The scheme's (beta0, general) dispatch level names."""
    (lvl_b0, _), (lvl_g, _) = SCHEME_DISPATCH[scheme]
    return lvl_b0, lvl_g


def _divisors_of(scheme: str):
    """The partition shape both scalar classes recurse with."""
    lvl_b0, lvl_g = _levels_of(scheme)
    assert LEVEL_DIVISORS[lvl_b0] == LEVEL_DIVISORS[lvl_g], scheme
    return LEVEL_DIVISORS[lvl_b0]


def _square_exact(scheme: str) -> int:
    """A square order that recurses divisor-exactly under SimpleCutoff(8)."""
    dm, _, _ = _divisors_of(scheme)
    return dm * dm * (8 if dm == 2 else 3)


def _rect_exact(scheme: str, depth: int):
    """Rectangular dims divisible through ``depth`` recursion levels."""
    dm, dk, dn = _divisors_of(scheme)
    return dm**depth * 5, dk**depth * 3, dn**depth * 4


def _plan_sig(m, k, n, beta_zero, scheme, cutoff):
    cfg = GemmConfig(scheme=scheme, cutoff=cutoff)
    return signature_for(
        m, k, n, False, False, False, beta_zero, "float64", cfg
    )


def _operands(m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c0 = np.asfortranarray(rng.standard_normal((m, n)))
    return a, b, c0


# --------------------------------------------------------------------- #
# 1. the registry entries are valid bilinear algorithms
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_entry_is_exact_bilinear_algorithm(name):
    """U/V/W shapes follow ⟨m̄,k̄,n̄;R⟩ and reproduce A@B exactly."""
    s = get_scheme(name)
    u = np.asarray(s.u, dtype=float)
    v = np.asarray(s.v, dtype=float)
    w = np.asarray(s.w, dtype=float)
    assert u.shape == (s.r, s.mbar * s.kbar)
    assert v.shape == (s.r, s.kbar * s.nbar)
    assert w.shape == (s.mbar * s.nbar, s.r)
    # integer blocks -> the identity must hold without any roundoff
    rng = np.random.default_rng(12345)
    for _ in range(4):
        a = rng.integers(-3, 4, size=(s.mbar, s.kbar)).astype(float)
        b = rng.integers(-3, 4, size=(s.kbar, s.nbar)).astype(float)
        p = (u @ a.reshape(-1)) * (v @ b.reshape(-1))
        c = (w @ p).reshape(s.mbar, s.nbar)
        assert np.array_equal(c, a @ b), name


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_dispatch_tables_are_consistent(scheme):
    """Dispatch levels, product counts, and profiles agree per scheme."""
    for lvl in _levels_of(scheme):
        prof = LEVEL_PROFILE[lvl]
        assert len(prof.child_classes) == LEVELS[lvl], (scheme, lvl)
        assert lvl in LEVEL_DIVISORS, (scheme, lvl)
    _divisors_of(scheme)  # both classes partition identically


# --------------------------------------------------------------------- #
# 2. numeric correctness versus numpy (hypothesis shape/scalar space)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 24),
    k=st.integers(1, 24),
    n=st.integers(1, 24),
    alpha=st.sampled_from([1.0, -1.5, 0.5]),
    beta=st.sampled_from([0.0, 1.0, 0.5]),
    tau=st.sampled_from([4, 8]),
    seed=st.integers(0, 2**16),
)
def test_numeric_matches_numpy(scheme, m, k, n, alpha, beta, tau, seed):
    a, b, c0 = _operands(m, k, n, seed)
    expect = alpha * (a @ b) + beta * c0
    scale = max(1.0, float(np.max(np.abs(expect))))
    for drive in (dgefmm, pdgefmm):
        c = c0.copy(order="F")
        drive(a, b, c, alpha, beta, cutoff=SimpleCutoff(tau), scheme=scheme)
        assert np.allclose(c, expect, atol=1e-9 * scale), drive.__name__


# --------------------------------------------------------------------- #
# 3. exactly R^d base kernels at depth d — profile, live, and plan agree
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("depth", [1, 2])
def test_base_kernel_count_is_r_to_the_d(scheme, depth):
    dm, dk, dn = _divisors_of(scheme)
    lvl_b0, _ = _levels_of(scheme)
    r = LEVELS[lvl_b0]
    m, k, n = dm**depth * 4, dk**depth * 4, dn**depth * 4
    crit = DepthCutoff(depth)

    prof = recursion_profile(m, k, n, crit, scheme)
    assert prof["base"] == r**depth
    assert prof["peel"] == 0

    a, b, c0 = _operands(m, k, n)
    c = c0.copy(order="F")
    ctx = ExecutionContext()
    dgefmm(a, b, c, 1.0, 0.0, cutoff=crit, scheme=scheme, ctx=ctx)
    assert ctx.kernel_calls["dgemm"] == r**depth

    tc = compile_plan(_plan_sig(m, k, n, True, scheme, crit)).counts
    assert tc["base"] == r**depth
    assert tc["kernel_calls"]["dgemm"] == r**depth
    assert tc["mul_flops"] == prof["mul_flops"]

    # pdgefmm runs one live parallel level for every scheme: its
    # fan-out and combine issue one AXPBY per nonzero of U/V (blocks
    # taken as-is excepted) and of W, on top of its R products, which
    # walk the child scheme's recursion one level down; the worker
    # budget never changes what runs
    sch = get_scheme(LEVEL_SCHEME[lvl_b0])
    level_axpbys = sum(
        len(row) for row in nonzero_rows(sch.u) + nonzero_rows(sch.v)
        if not _is_block(row)
    ) + sum(len(row) for row in nonzero_rows(sch.w))
    product = ExecutionContext()
    dgefmm(a[:m // dm, :k // dk], b[:k // dk, :n // dn],
           np.zeros((m // dm, n // dn), order="F"),
           cutoff=DepthCutoff(depth - 1),
           scheme=SCHEME_DISPATCH[scheme][0][1], ctx=product)
    counters = set()
    for workers in (1, 7):
        ctx = ExecutionContext()
        pdgefmm(a, b, c0.copy(order="F"), 1.0, 0.0, cutoff=crit,
                scheme=scheme, ctx=ctx, workers=workers)
        assert ctx.kernel_calls["dgemm"] == r**depth
        assert ctx.kernel_calls["axpby"] == (
            level_axpbys + r * product.kernel_calls["axpby"])
        counters.add(tuple(sorted(ctx.kernel_calls.items())))
    assert len(counters) == 1


# --------------------------------------------------------------------- #
# 4. the op-count model equals plan tallies and live charges exactly
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("beta_zero", [True, False])
def test_scheme_ops_equals_plan_and_live_flops(scheme, beta_zero):
    shapes = [
        (_square_exact(scheme),) * 3,
        _rect_exact(scheme, 2),
    ]
    for m, k, n in shapes:
        for crit in (SimpleCutoff(8), DepthCutoff(2)):
            model = scheme_ops(m, k, n, scheme, crit, beta_zero=beta_zero)

            tc = compile_plan(
                _plan_sig(m, k, n, beta_zero, scheme, crit)
            ).counts
            assert model == tc["mul_flops_total"] + tc["add_flops_total"], (
                scheme, m, k, n, repr(crit),
            )

            a, b, c0 = _operands(m, k, n)
            c = c0.copy(order="F")
            ctx = ExecutionContext()
            beta = 0.0 if beta_zero else 0.5
            dgefmm(a, b, c, 1.0, beta, cutoff=crit, scheme=scheme, ctx=ctx)
            assert model == ctx.flops, (scheme, m, k, n, repr(crit))


# --------------------------------------------------------------------- #
# 5. live workspace peak stays within the registry bound
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("beta_zero", [True, False])
def test_workspace_peak_within_registry_bound(scheme, beta_zero):
    m = _square_exact(scheme)
    # "strassen1" names the beta = 0 two-temporary schedule; its general
    # scalar class executes the four-temporary variant, whose envelope
    # is registered under "strassen1_general"
    bound_name = (
        "strassen1_general"
        if scheme == "strassen1" and not beta_zero
        else scheme
    )
    bound = workspace_bound_bytes(m, m, m, bound_name)

    a, b, c0 = _operands(m, m, m)
    c = c0.copy(order="F")
    ws = Workspace()
    beta = 0.0 if beta_zero else 0.5
    dgefmm(a, b, c, 1.0, beta, cutoff=SimpleCutoff(8), scheme=scheme,
           workspace=ws)
    assert 0 < ws.peak_bytes <= bound, (scheme, ws.peak_bytes, bound)


# --------------------------------------------------------------------- #
# 6. scheme identity is part of the plan signature
# --------------------------------------------------------------------- #


def test_signatures_distinct_across_schemes():
    crit = SimpleCutoff(8)
    sigs = {_plan_sig(32, 32, 32, True, s, crit) for s in SCHEME_NAMES}
    assert len(sigs) == len(SCHEME_NAMES)


def test_scheme_mutation_misses_plan_cache():
    cache = PlanCache()
    crit = SimpleCutoff(8)
    a, b, c0 = _operands(24, 24, 24)
    for idx, scheme in enumerate(SCHEME_NAMES):
        c = c0.copy(order="F")
        dgefmm(a, b, c, cutoff=crit, scheme=scheme, plan_cache=cache,
               backend="vendor")
        stats = cache.stats()
        assert stats["misses"] == idx + 1, scheme
        assert stats["hits"] == 0
    # replays with an unchanged config are pure hits
    for idx, scheme in enumerate(SCHEME_NAMES):
        c = c0.copy(order="F")
        dgefmm(a, b, c, cutoff=crit, scheme=scheme, plan_cache=cache,
               backend="vendor")
        stats = cache.stats()
        assert stats["misses"] == len(SCHEME_NAMES)
        assert stats["hits"] == idx + 1, scheme


# --------------------------------------------------------------------- #
# 7. the GEMM service admits every registry scheme
# --------------------------------------------------------------------- #


def test_serve_admits_and_executes_every_scheme():
    from repro.serve.service import GemmService

    a, b, _ = _operands(12, 12, 12)
    with GemmService(workers=1) as svc:
        for scheme in SCHEME_NAMES:
            got = svc.call(a, b, cutoff=SimpleCutoff(4), scheme=scheme)
            assert np.allclose(got, a @ b, atol=1e-9), scheme
