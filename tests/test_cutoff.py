"""Cutoff criteria: paper equations (7), (10)-(15)."""

import pytest

from repro.core.cutoff import (
    AlwaysRecurse,
    DepthCutoff,
    HighamCutoff,
    HybridCutoff,
    NeverRecurse,
    PlaneCutoff,
    SimpleCutoff,
    SquareCutoff,
    TheoreticalCutoff,
)


class TestTheoretical:
    def test_square_cutoff_is_12(self):
        """eq. (7) square solution: stop iff m <= 12 (paper Section 2)."""
        c = TheoreticalCutoff()
        assert c.stop(12, 12, 12)
        assert not c.stop(13, 13, 13)

    def test_paper_rectangular_example(self):
        """(6, 14, 86): recursion beneficial although 6 < 12 (Section 2)."""
        assert not TheoreticalCutoff().stop(6, 14, 86)

    def test_thin_problem_stops(self):
        assert TheoreticalCutoff().stop(2, 1000, 1000)


class TestSquareAndSimple:
    def test_square(self):
        c = SquareCutoff(199)
        assert c.stop(199, 199, 199)
        assert not c.stop(200, 200, 200)

    def test_simple_any_dim(self):
        c = SimpleCutoff(100)
        assert c.stop(100, 500, 500)
        assert c.stop(500, 100, 500)
        assert c.stop(500, 500, 100)
        assert not c.stop(101, 101, 101)

    def test_simple_blocks_beneficial_thin_case(self):
        """The paper's (160, 1957, 957) RS/6000 example: criterion (11)
        refuses recursion that the hybrid criterion allows."""
        simple = SimpleCutoff(199)
        hybrid = HybridCutoff(199, 75, 125, 95)
        dims = (160, 1957, 957)
        assert simple.stop(*dims)
        assert not hybrid.stop(*dims)


class TestHigham:
    def test_reduces_to_square_condition(self):
        c = HighamCutoff(129)
        assert c.stop(129, 129, 129)
        assert not c.stop(130, 130, 130)

    def test_symmetric_in_dims(self):
        c = HighamCutoff(129)
        assert c.stop(50, 400, 600) == c.stop(600, 50, 400) == c.stop(
            400, 600, 50)


class TestPlane:
    def test_equivalent_forms(self):
        """(13) <=> (14): mkn <= tm*nk+tk*mn+tn*mk <=> 1 <= tm/m+tk/k+tn/n."""
        c = PlaneCutoff(75, 125, 95)
        for dims in [(80, 700, 300), (300, 80, 700), (76, 126, 96),
                     (1000, 1000, 1000), (75, 2000, 2000)]:
            m, k, n = dims
            lhs14 = 75 / m + 125 / k + 95 / n
            assert c.stop(m, k, n) == (1 <= lhs14 or abs(lhs14 - 1) < 1e-12)

    def test_asymmetry(self):
        c = PlaneCutoff(75, 125, 95)
        assert c.stop(120, 2000, 2000) is False  # m above tau_m: recurse
        assert c.stop(120, 120, 2000) is True    # k below tau_k dominates


class TestHybrid:
    c = HybridCutoff(tau=199, tau_m=75, tau_k=125, tau_n=95)

    def test_all_above_tau_recurses(self):
        assert not self.c.stop(200, 200, 200)

    def test_all_at_most_tau_stops(self):
        assert self.c.stop(199, 199, 199)
        assert self.c.stop(150, 199, 10)

    def test_mixed_region_uses_plane(self):
        # m = 100 < tau but plane says recurse with k, n large
        assert not self.c.stop(100, 2000, 2000)
        # m = 60 < tau_m: plane says stop
        assert self.c.stop(60, 2000, 2000)

    def test_embedded_plane(self):
        assert self.c.plane() == PlaneCutoff(75, 125, 95)


class TestTrivial:
    def test_always(self):
        assert not AlwaysRecurse().stop(2, 2, 2)
        assert AlwaysRecurse().recurse(2, 2, 2)

    def test_never(self):
        assert NeverRecurse().stop(10**6, 10**6, 10**6)


class TestDepth:
    def test_depth_argument_decides(self):
        c = DepthCutoff(2)
        assert not c.stop(0, 0, 0, depth=0)
        assert not c.stop(0, 0, 0, depth=1)
        assert c.stop(0, 0, 0, depth=2)
        assert c.stop(0, 0, 0, depth=3)

    def test_depth_defaults_to_zero(self):
        assert not DepthCutoff(1).stop(64, 64, 64)
        assert DepthCutoff(0).stop(64, 64, 64)

    def test_frozen_and_hashable(self):
        c = DepthCutoff(2)
        assert c == DepthCutoff(2)
        assert hash(c) == hash(DepthCutoff(2))
        with pytest.raises(Exception):
            c.depth = 3  # frozen dataclass

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            DepthCutoff(-1)

    def test_zero_depth_stops_immediately(self):
        assert DepthCutoff(0).stop(4096, 4096, 4096)
