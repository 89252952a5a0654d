"""The differential fuzzing subsystem (``repro.fuzz``).

Covers the case space (drawing distribution, JSON replay round-trip),
the oracle (hypothesis-driven conformance over the knob space), and the
campaign runner (deterministic drawing, failure serialization, replay,
CLI exit codes).  The seeded 1000-case acceptance campaign lives in the
slow lane.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.fuzz import (
    FuzzCase,
    case_from_dict,
    case_to_dict,
    draw_case,
    run_case,
    run_fuzz,
)
from repro.fuzz.cases import DTYPES, LAYOUTS, SCHEMES, materialize
from repro.fuzz.oracle import reference_result
from repro.fuzz.runner import load_replay, save_failures


class TestCases:
    def test_roundtrip_json(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            case = draw_case(rng)
            wire = json.loads(json.dumps(case_to_dict(case)))
            assert case_from_dict(wire) == case

    def test_draw_hits_edges(self):
        """The edge-heavy distribution must actually produce the edge
        classes it advertises within a modest budget."""
        rng = np.random.default_rng(0)
        cases = [draw_case(rng) for _ in range(400)]
        assert any(0 in (c.m, c.k, c.n) for c in cases)
        assert any(c.alias == "a" for c in cases)
        assert any(c.alias == "b" for c in cases)
        assert any(c.nan_c for c in cases)
        assert any(c.scalars()[0] == 0 for c in cases)
        assert any(c.scalars()[1] == 0 for c in cases)
        assert {c.dtype for c in cases} == set(DTYPES)
        assert {c.scheme for c in cases} == set(SCHEMES)
        layouts = {c.layout_a for c in cases} | {c.layout_b for c in cases}
        assert layouts == set(LAYOUTS)

    def test_materialize_deterministic(self):
        rng = np.random.default_rng(3)
        case = draw_case(rng)
        a1, b1, c1, _ = materialize(case)
        a2, b2, c2, _ = materialize(case)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(c1, c2, err_msg="c")

    def test_materialize_aliases(self):
        rng = np.random.default_rng(0)
        while True:
            case = draw_case(rng)
            if case.alias == "a":
                break
        a, b, c, c0 = materialize(case)
        assert c is a
        assert c0 is not c
        np.testing.assert_array_equal(c0, c)

    def test_nan_poisoned_c(self):
        rng = np.random.default_rng(0)
        while True:
            case = draw_case(rng)
            if case.nan_c and case.m and case.n:
                break
        _, _, c, _ = materialize(case)
        assert np.isnan(c).all()

    def test_reference_never_nan_when_beta_zero(self):
        rng = np.random.default_rng(1)
        seen = 0
        while seen < 5:
            case = draw_case(rng)
            if not (case.nan_c and case.m and case.n):
                continue
            seen += 1
            a, b, _, c0 = materialize(case)
            assert np.isfinite(reference_result(case, a, b, c0)).all()


class TestOracle:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_drawn_cases_conform(self, data):
        """Hypothesis drives the *same* drawing distribution through the
        oracle, so failures shrink to a minimal divergent seed."""
        seed = data.draw(st.integers(0, 2**31 - 1))
        case = draw_case(np.random.default_rng(seed), max_dim=20)
        assert run_case(case) == []

    def test_known_edge_cases_conform(self):
        """Hand-picked worst-case knob combinations."""
        edge = dict(transa=False, transb=False, alpha=1.0, beta=0.0,
                    dtype="float64", layout_a="F", layout_b="F",
                    layout_c="F", scheme="auto", peel="tail", tau=4,
                    workers=4, depth=2, alias="none", nan_c=False,
                    pool=True, seed=11)
        for mod in (
            {"m": 0, "k": 5, "n": 5},
            {"m": 5, "k": 0, "n": 5, "beta": 0.5},
            {"m": 9, "k": 9, "n": 9, "nan_c": True},
            {"m": 9, "k": 9, "n": 9, "alias": "a"},
            {"m": 13, "k": 13, "n": 13, "alpha": 0.0, "beta": -1.0},
            {"m": 17, "k": 11, "n": 19, "transa": True, "transb": True,
             "beta": 2.0, "layout_a": "revrows", "layout_b": "revcols",
             "layout_c": "strided"},
            {"m": 12, "k": 12, "n": 12, "dtype": "complex128",
             "alpha": 1 - 0.5j, "beta": 0.25j},
        ):
            case = FuzzCase(**{**edge, "m": 8, "k": 8, "n": 8, **mod})
            assert run_case(case) == [], mod

    def test_oracle_detects_divergence(self, monkeypatch):
        """A deliberately broken kernel must be caught, proving the
        oracle has teeth."""
        import repro.blas.level3 as level3

        real = level3._standard_product

        def broken(opa, opb, nb):
            prod = real(opa, opb, nb)
            if prod.size:
                prod[0, 0] += 1.0
            return prod
        monkeypatch.setattr(level3, "_standard_product", broken)
        case = FuzzCase(
            m=16, k=16, n=16, transa=False, transb=False,
            alpha=1.0, beta=0.0, dtype="float64", layout_a="F",
            layout_b="F", layout_c="F", scheme="auto", peel="tail",
            tau=4, workers=1, depth=1, alias="none", nan_c=False,
            pool=False, seed=5,
        )
        failures = run_case(case)
        assert failures
        assert any(f["kind"] == "reference-mismatch" for f in failures)

    @staticmethod
    def _nudge_matmul(monkeypatch, module):
        """Nudge one output element of every ``np.matmul`` ``module``
        makes; returns the vendor-leaf case the mutant tests run."""

        class Nudged:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out):
                np.matmul(a, b, out=out)
                out[0, 0] += 1.0
                return out

        monkeypatch.setattr(module, "np", Nudged())
        return FuzzCase(
            m=16, k=16, n=16, transa=False, transb=False,
            alpha=1.0, beta=0.0, dtype="float64", layout_a="F",
            layout_b="F", layout_c="F", scheme="auto", peel="tail",
            tau=4, workers=1, depth=1, alias="none", nan_c=False,
            pool=False, seed=5,
        )

    def test_oracle_catches_a_vendor_leaf_mutant(self, monkeypatch):
        """One nudged output element in the vendor leaf is caught: off
        the reference on the vendor walk, whose leaves are the vendor
        kernel, and off the walk's bits on the fused replay paired with
        it."""
        import repro.blas.level3 as level3

        failures = run_case(self._nudge_matmul(monkeypatch, level3))
        assert {(f["path"], f["kind"]) for f in failures} == {
            ("vendor", "reference-mismatch"),
            ("fused-replay", "bit-divergence"),
        }

    def test_oracle_catches_a_fused_leaf_mutant(self, monkeypatch):
        """The same nudge in fused replay's leaf is caught on every path
        that replays a fused program, and against the vendor walk."""
        import repro.plan.fuse as fuse

        failures = run_case(self._nudge_matmul(monkeypatch, fuse))
        assert {(f["path"], f["kind"]) for f in failures} == {
            ("fused-replay", "reference-mismatch"),
            ("parallel-fused", "reference-mismatch"),
            ("fused-replay", "bit-divergence"),
        }


class TestRunner:
    def test_smoke_campaign(self):
        report = run_fuzz(cases=40, seed=123)
        assert report.ok and report.cases == 40
        assert report.coverage  # coverage accounting populated

    def test_deterministic_in_seed(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        assert [draw_case(rng1) for _ in range(50)] == \
               [draw_case(rng2) for _ in range(50)]

    def test_failures_file_and_replay(self, tmp_path, monkeypatch):
        """Divergent cases land in the replay file and re-run from it."""
        import repro.fuzz.runner as runner_mod

        bad = {"detail": "synthetic", "kind": "exception", "path": "serial"}
        monkeypatch.setattr(runner_mod, "run_case",
                            lambda case, **kw: [bad])
        path = tmp_path / "failures.jsonl"
        report = run_fuzz(cases=3, seed=0, failures_path=str(path))
        assert report.divergent == 3 and not report.ok
        cases = load_replay(str(path))
        assert len(cases) == 3
        replay_report = run_fuzz(replay=cases)
        assert replay_report.cases == 3 and replay_report.divergent == 3

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        drawn = [draw_case(rng) for _ in range(5)]
        path = tmp_path / "cases.jsonl"
        save_failures(str(path), [
            {"case": case_to_dict(c), "failures": []} for c in drawn
        ])
        assert load_replay(str(path)) == drawn


class TestCLI:
    def test_fuzz_command(self, capsys):
        assert main(["fuzz", "--cases", "25", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "25 cases" in out and "fuzz: ok" in out

    def test_fuzz_json(self, capsys):
        assert main(["fuzz", "--cases", "10", "--seed", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "fuzz"
        assert doc["rows"][0]["ok"] is True

    def test_fuzz_replay_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        path = tmp_path / "replay.jsonl"
        save_failures(str(path), [
            {"case": case_to_dict(draw_case(rng, max_dim=12))}
            for _ in range(4)
        ])
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "4 cases" in capsys.readouterr().out


@pytest.mark.slow
class TestDeepFuzz:
    def test_thousand_case_campaign(self):
        """The acceptance campaign: 1000 seeded cases, zero divergences."""
        report = run_fuzz(cases=1000, seed=0)
        assert report.ok, report.failures[:3]
        assert report.coverage.get("zero-dim", 0) > 50
        assert report.coverage.get("alias:a", 0) > 10
        assert report.coverage.get("nan-c", 0) > 20
