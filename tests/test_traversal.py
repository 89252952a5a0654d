"""The traversal core: unit behaviour + decision-trace equivalence.

The tentpole property: every walker of the DGEFMM recursion — the eager
driver, the plan compiler, and the closed-form analytics — consumes one
decision kernel (:func:`repro.core.traversal.decide`), so their
decision traces must agree *node for node* over random shapes, cutoffs,
schemes, and peeling sides.  The property test draws from that space
with hypothesis (derandomized: fixed seeds, reproducible in CI) and
cross-checks three independent representations:

- the live driver's ``RecursionEvent`` stream (``trace=True``);
- the compiled plan's embedded EVENT ops;
- ``recursion_profile``'s closed-form node counts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import (
    AlwaysRecurse,
    DepthCutoff,
    HybridCutoff,
    NeverRecurse,
    SimpleCutoff,
    TheoreticalCutoff,
)
from repro.core.dgefmm import dgefmm
from repro.core.recursion import recursion_profile
from repro.core.schemes import SCHEME_NAMES
from repro.core.traversal import (
    LEVELS,
    Base,
    Peel,
    Recurse,
    decide,
    peel_split,
    pick_level,
)
from repro.plan.compiler import compile_plan, signature_for
from repro.plan.ops import OP_EVENT


class TestPeelSplit:
    def test_even_unchanged(self):
        assert peel_split(4, 6, 8) == (4, 6, 8)

    def test_odd_stripped(self):
        assert peel_split(5, 7, 9) == (4, 6, 8)
        assert peel_split(1, 1, 1) == (0, 0, 0)

    def test_mod3_divisors(self):
        """Non-2x2 partition shapes peel to the next lower multiple."""
        assert peel_split(9, 6, 12, (3, 3, 3)) == (9, 6, 12)
        assert peel_split(10, 7, 11, (3, 3, 3)) == (9, 6, 9)
        assert peel_split(2, 2, 2, (3, 3, 3)) == (0, 0, 0)

    def test_mixed_divisors(self):
        assert peel_split(10, 9, 8, (2, 3, 2)) == (10, 9, 8)
        assert peel_split(11, 10, 9, (2, 3, 2)) == (10, 9, 8)


class TestPickLevel:
    @pytest.mark.parametrize("scheme,beta_zero,expect", [
        ("auto", True, ("s1b0", "auto")),
        ("auto", False, ("s2", "auto")),
        ("strassen2", True, ("s2", "strassen2")),
        ("strassen2", False, ("s2", "strassen2")),
        ("strassen1", True, ("s1b0", "strassen1")),
        ("strassen1", False, ("s1g", "strassen1_general")),
        ("strassen1_general", True, ("s1g", "strassen1_general")),
        ("strassen1_general", False, ("s1g", "strassen1_general")),
        ("textbook", True, ("tb", "textbook")),
        ("textbook", False, ("tb", "textbook")),
        ("bdpz", True, ("bdpz", "bdpz")),
        ("bdpz", False, ("bdpz", "bdpz")),
        ("laderman", True, ("l23", "laderman")),
        ("laderman", False, ("l23", "laderman")),
    ])
    def test_dispatch_table(self, scheme, beta_zero, expect):
        assert pick_level(scheme, beta_zero) == expect

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            pick_level("winograd", True)

    def test_level_child_counts(self):
        """Product counts per level: the 2x2 schedules spawn 7 children,
        the ⟨3,3,3;23⟩ Laderman level 23."""
        assert LEVELS == {"s1b0": 7, "s1g": 7, "s2": 7, "tb": 7,
                          "bdpz": 7, "l23": 23}


class TestDecide:
    def test_stop_returns_base(self):
        node = decide(8, 8, 8, 0, "auto", True, NeverRecurse())
        assert isinstance(node, Base)
        assert (node.m, node.k, node.n, node.depth) == (8, 8, 8, 0)

    def test_tiny_dims_stop_even_when_criterion_recurses(self):
        assert isinstance(
            decide(1, 64, 64, 0, "auto", True, AlwaysRecurse()), Base
        )

    def test_even_recurse_node(self):
        node = decide(8, 12, 16, 2, "auto", True, AlwaysRecurse())
        assert isinstance(node, Recurse) and not isinstance(node, Peel)
        assert not node.peeled
        assert node.level == "s1b0" and node.child_scheme == "auto"
        assert node.children == 7
        assert node.child_dims == (4, 6, 8)

    def test_odd_dims_peel_node(self):
        node = decide(9, 12, 17, 0, "strassen2", False, AlwaysRecurse())
        assert isinstance(node, Peel) and node.peeled
        assert (node.mp, node.kp, node.np_) == (8, 12, 16)
        assert node.child_dims == (4, 6, 8)

    def test_textbook_has_seven_children(self):
        node = decide(8, 8, 8, 0, "textbook", True, AlwaysRecurse())
        assert node.level == "tb" and node.children == 7

    def test_laderman_partitions_by_three(self):
        node = decide(27, 27, 27, 0, "laderman", True, AlwaysRecurse())
        assert isinstance(node, Recurse) and not node.peeled
        assert node.level == "l23" and node.children == 23
        assert node.divisors == (3, 3, 3)
        assert node.child_dims == (9, 9, 9)

    def test_laderman_peels_to_multiple_of_three(self):
        node = decide(28, 29, 31, 0, "laderman", False, AlwaysRecurse())
        assert isinstance(node, Peel) and node.peeled
        assert (node.mp, node.kp, node.np_) == (27, 27, 30)
        assert node.child_dims == (9, 9, 10)

    def test_bdpz_is_a_seven_product_2x2_level(self):
        node = decide(8, 8, 8, 0, "bdpz", False, AlwaysRecurse())
        assert node.level == "bdpz" and node.children == 7
        assert node.divisors == (2, 2, 2)

    def test_depth_reaches_criterion(self):
        crit = DepthCutoff(2)
        assert isinstance(decide(64, 64, 64, 2, "auto", True, crit), Base)
        assert isinstance(
            decide(64, 64, 64, 1, "auto", True, crit), Recurse
        )

    def test_nodes_frozen_and_hashable(self):
        a = decide(8, 8, 8, 0, "auto", True, AlwaysRecurse())
        b = decide(8, 8, 8, 0, "auto", True, AlwaysRecurse())
        assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------- #
_CUTOFFS = (
    SimpleCutoff(4),
    SimpleCutoff(8),
    SimpleCutoff(16),
    HybridCutoff(tau=8, tau_m=6, tau_k=6, tau_n=6),
    TheoreticalCutoff(),
    DepthCutoff(1),
    DepthCutoff(2),
    DepthCutoff(3),
    AlwaysRecurse(),
    NeverRecurse(),
)
_SCHEMES = SCHEME_NAMES  # the full registry, non-2x2 families included


def _event_tuples(events):
    return [(e.action, e.m, e.k, e.n, e.depth, e.scheme) for e in events]


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    n=st.integers(1, 40),
    ci=st.integers(0, len(_CUTOFFS) - 1),
    si=st.integers(0, len(_SCHEMES) - 1),
    peel=st.sampled_from(["tail", "head"]),
    beta=st.sampled_from([0.0, 1.5]),
)
@example(m=33, k=17, n=29, ci=1, si=0, peel="tail", beta=0.0)
@example(m=32, k=32, n=32, ci=6, si=3, peel="tail", beta=1.5)
@example(m=25, k=25, n=25, ci=0, si=4, peel="head", beta=0.0)
@example(m=40, k=3, n=40, ci=2, si=1, peel="tail", beta=1.5)
@example(m=1, k=40, n=40, ci=8, si=0, peel="tail", beta=0.0)
@example(m=27, k=27, n=27, ci=1, si=6, peel="tail", beta=0.0)
@example(m=28, k=30, n=31, ci=0, si=6, peel="head", beta=1.5)
@example(m=32, k=32, n=32, ci=6, si=5, peel="tail", beta=1.5)
def test_decision_trace_equivalence(m, k, n, ci, si, peel, beta):
    """Eager events == compiled-plan events; both match the closed-form
    profile's node counts — for every shape/cutoff/scheme/peel/beta."""
    crit = _CUTOFFS[ci]
    scheme = _SCHEMES[si]
    cfg = GemmConfig(scheme=scheme, peel=peel, cutoff=crit)

    rng = np.random.default_rng(m * 1663 + k * 97 + n)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c = np.asfortranarray(rng.standard_normal((m, n)))
    ctx = ExecutionContext(trace=True)
    dgefmm(a, b, c, 1.0, beta, cutoff=crit, scheme=scheme, peel=peel,
           ctx=ctx)
    live = _event_tuples(ctx.events)

    sig = signature_for(m, k, n, False, False, False,
                        beta == 0.0, "float64", cfg)
    plan = compile_plan(sig)
    compiled = _event_tuples(
        op[1] for op in plan.ops if op[0] == OP_EVENT
    )
    assert compiled == live

    prof = recursion_profile(m, k, n, crit, scheme=scheme)
    by_action = {"base": 0, "recurse": 0, "peel": 0}
    for action, *_rest in live:
        by_action[action] += 1
    assert prof["base"] == by_action["base"]
    assert prof["recurse"] == by_action["recurse"]
    assert prof["peel"] == by_action["peel"]
    assert prof["max_depth"] == max(
        (t[4] for t in live), default=0
    )
    assert prof["mul_flops"] == sum(
        float(t[1]) * t[2] * t[3] for t in live if t[0] == "base"
    )
    assert prof["base_shapes"] == {
        shape: cnt
        for shape, cnt in plan.counts["base_shapes"].items()
    }
