"""Precision as a first-class dimension: dtype x accuracy conformance.

The precision contract (docs/api.md, "Precision and accuracy SLOs"):
every driver accepts any canonical dtype, the ``accuracy`` knob selects
a rounding discipline (``fast`` / ``compensated`` / ``exact``) without
changing the executed schedule, and the knob travels intact from a
served request down to the BLAS kernels.  This file pins each layer of
that contract:

- scheme x dtype x accuracy conformance against a wide reference;
- kernel-count invariance: accuracy changes rounding, never the
  schedule (same recursion, same kernel tallies);
- the compensated discipline actually rescues float32 cancellation
  (the regression that motivated it);
- the exact discipline is exact — int64 and object (Fraction) results
  equal the mathematical product, with no float intermediates;
- illegal (dtype, accuracy) combinations fail at construction;
- a served ``accuracy="compensated"`` request is bit-identical to a
  direct compensated dgefmm call (the admission-resolution guarantee);
- the wire protocol carries the SLO and rejects what it cannot serve;
- tuned profiles round-trip the accuracy knob (and legacy documents
  without one decode to ``fast``);
- an AST lint: no dtype-less array allocations anywhere in the compute
  stack (a bare ``np.zeros(shape)`` silently pins float64 and breaks
  the dtype thread).
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.blas.dtypes import (
    ACCURACIES,
    DTYPES,
    default_accuracy,
    is_exact_dtype,
    unit_roundoff,
    wide_dtype,
)
from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import NeverRecurse, SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import pdgefmm
from repro.core.stability import measure_error, normwise_bound
from repro.errors import ArgumentError
from repro.plan import compile_plan, signature_for

CUT = SimpleCutoff(8)

#: every legal (dtype, accuracy) pair for the conformance matrix
LEGAL_PAIRS = [
    (dt, acc)
    for dt in DTYPES if dt != "object"
    for acc in ACCURACIES
    if (acc == "exact") == is_exact_dtype(dt)
]


def _operands(rng, dtype, m, k, n):
    """F-ordered (a, b, c) of ``dtype`` with edge-heavy values."""
    if is_exact_dtype(dtype):
        a = rng.integers(-4, 5, (m, k)).astype(dtype)
        b = rng.integers(-4, 5, (k, n)).astype(dtype)
        c = rng.integers(-4, 5, (m, n)).astype(dtype)
    else:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.standard_normal((m, k))
            b = b + 1j * rng.standard_normal((k, n))
            c = c + 1j * rng.standard_normal((m, n))
        a, b, c = a.astype(dtype), b.astype(dtype), c.astype(dtype)
    return (np.asfortranarray(a), np.asfortranarray(b),
            np.asfortranarray(c))


def _tolerance(dtype):
    """Divergence budget vs the wide reference (0 = exact equality)."""
    if is_exact_dtype(dtype):
        return 0.0
    return 50 * 40 * unit_roundoff(dtype)  # ~ d * k * u headroom


class TestConformanceMatrix:
    """dgefmm and pdgefmm agree with a wide reference on every legal
    (scheme, dtype, accuracy) combination."""

    @pytest.mark.parametrize("dtype,accuracy", LEGAL_PAIRS)
    @pytest.mark.parametrize("scheme", ["auto", "strassen2", "bdpz"])
    def test_serial_matches_reference(self, rng, dtype, accuracy, scheme):
        m, k, n = 27, 21, 25
        a, b, c = _operands(rng, dtype, m, k, n)
        alpha, beta = (2, 1) if is_exact_dtype(dtype) else (1.5, 0.5)
        wide = wide_dtype(dtype) or dtype
        ref = (alpha * (a.astype(wide) @ b.astype(wide))
               + beta * c.astype(wide))
        got = c.copy(order="F")
        dgefmm(a, b, got, alpha, beta, cutoff=CUT, scheme=scheme,
               accuracy=accuracy)
        assert got.dtype == np.dtype(dtype)
        err = np.max(np.abs(got.astype(wide) - ref)) if got.size else 0.0
        scale = max(1.0, float(np.max(np.abs(ref)))) if ref.size else 1.0
        assert err <= _tolerance(dtype) * scale, (dtype, accuracy, scheme)

    @pytest.mark.parametrize("dtype,accuracy", LEGAL_PAIRS)
    def test_parallel_matches_serial(self, rng, dtype, accuracy):
        """Exact dtypes: bit-equal (integer adds are associative).
        Inexact: within the dtype tolerance — the parallel driver's
        stage combine accumulates in a different order."""
        m = 33
        a, b, c = _operands(rng, dtype, m, m, m)
        c_ser = c.copy(order="F")
        c_par = c.copy(order="F")
        alpha, beta = (1, 1) if is_exact_dtype(dtype) else (1.0, 1.0)
        dgefmm(a, b, c_ser, alpha, beta, cutoff=CUT, accuracy=accuracy)
        pdgefmm(a, b, c_par, alpha, beta, cutoff=CUT, workers=3,
                accuracy=accuracy)
        if is_exact_dtype(dtype):
            assert np.array_equal(c_ser, c_par), (dtype, accuracy)
        else:
            wide = wide_dtype(dtype) or dtype
            err = np.max(np.abs(c_par.astype(wide) - c_ser.astype(wide)))
            scale = max(1.0, float(np.max(np.abs(c_ser))))
            assert err <= _tolerance(dtype) * scale, (dtype, accuracy)


class TestKernelCountInvariance:
    """Accuracy (and dtype) select *kernels*, never the schedule: the
    per-kernel call tallies are identical across the whole matrix."""

    def test_same_counts_across_precisions(self, rng):
        m = 40
        counts = {}
        for dtype, accuracy in LEGAL_PAIRS:
            a, b, c = _operands(rng, dtype, m, m, m)
            ctx = ExecutionContext()
            dgefmm(a, b, c, 1, 1, cutoff=CUT, ctx=ctx, accuracy=accuracy)
            counts[(dtype, accuracy)] = dict(ctx.kernel_calls)
        baseline = counts[("float64", "fast")]
        assert baseline["dgemm"] > 1  # the grid actually recursed
        for key, tally in counts.items():
            assert tally == baseline, key


class TestCompensatedCancellation:
    """The regression that motivated the compensated discipline: a
    cancellation-heavy float32 product whose fast-path error is orders
    of magnitude above the compensated one."""

    def test_float32_cancellation_rescued(self):
        rng = np.random.default_rng(7)
        m, h = 48, 64
        x = rng.standard_normal((m, h)) * 1e4
        y = rng.standard_normal((h, m)) * 1e4
        s = rng.standard_normal((h, m))
        # A = [X | X], B = [[Y], [-Y + S]]  =>  A @ B == X @ S (tiny)
        a = np.asfortranarray(np.hstack([x, x]).astype(np.float32))
        b = np.asfortranarray(np.vstack([y, -y + s]).astype(np.float32))
        ref = a.astype(np.float64) @ b.astype(np.float64)
        den = float(np.max(np.abs(ref)))
        errs = {}
        for accuracy in ("fast", "compensated"):
            c = np.zeros((m, m), dtype=np.float32, order="F")
            dgefmm(a, b, c, cutoff=NeverRecurse(), accuracy=accuracy)
            errs[accuracy] = float(
                np.max(np.abs(c.astype(np.float64) - ref)) / den
            )
        assert errs["fast"] > 1e-4          # the fast path really loses
        assert errs["compensated"] < 1e-6   # wide accumulation recovers
        assert errs["compensated"] * 100 < errs["fast"]

    def test_compensated_never_worse_under_recursion(self):
        rng = np.random.default_rng(0)
        m = 64
        scale = 10.0 ** rng.uniform(0.0, 3.0, (m, m))
        a = np.asfortranarray(
            (rng.standard_normal((m, m)) * scale).astype(np.float32))
        b = np.asfortranarray(
            (rng.standard_normal((m, m)) * scale.T).astype(np.float32))
        ref = a.astype(np.float64) @ b.astype(np.float64)
        errs = {}
        for accuracy in ("fast", "compensated"):
            c = np.zeros((m, m), dtype=np.float32, order="F")
            dgefmm(a, b, c, cutoff=SimpleCutoff(8), accuracy=accuracy)
            errs[accuracy] = float(np.max(np.abs(c.astype(np.float64) - ref)))
        assert errs["compensated"] <= errs["fast"]


class TestExactDiscipline:
    def test_int64_exact_equality(self, rng):
        m, k, n = 23, 31, 19
        a, b, c = _operands(rng, "int64", m, k, n)
        want = 3 * (a @ b) + 2 * c
        got = c.copy(order="F")
        dgefmm(a, b, got, 3, 2, cutoff=CUT, accuracy="exact")
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_int64_defaults_to_exact(self, rng):
        a, b, c = _operands(rng, "int64", 17, 17, 17)
        want = a @ b
        got = np.zeros_like(c)
        dgefmm(a, b, got, 1, 0, cutoff=CUT)  # no accuracy: dtype default
        assert np.array_equal(got, want)

    def test_object_fractions_exact(self):
        rng = np.random.default_rng(3)
        n = 12
        a = np.empty((n, n), dtype=object, order="F")
        b = np.empty((n, n), dtype=object, order="F")
        for i in range(n):
            for j in range(n):
                a[i, j] = Fraction(int(rng.integers(-9, 10)),
                                   int(rng.integers(1, 7)))
                b[i, j] = Fraction(int(rng.integers(-9, 10)),
                                   int(rng.integers(1, 7)))
        c = np.empty((n, n), dtype=object, order="F")
        c[...] = Fraction(0)
        dgefmm(a, b, c, Fraction(2), Fraction(0), cutoff=SimpleCutoff(4),
               accuracy="exact")
        ref = np.asarray(a) @ np.asarray(b) * Fraction(2)
        assert (c == ref).all()
        assert all(isinstance(v, Fraction) for v in c.flat)

    @pytest.mark.parametrize("peel", ["tail", "head"])
    def test_object_peeling_fixups_exact_past_2_53(self, peel):
        """Every odd level of a 9x9 problem peels, and each DGEMV fix-up
        zeroes its strip of C under beta = 0: with Python ints in
        [2^61, 2^62) a float zero there would round the strip."""
        rng = np.random.default_rng(11)
        a, b = (rng.integers(2**61, 2**62, (9, 9)).astype(object)
                for _ in range(2))
        want = a.dot(b)
        runs = {
            "dgefmm": lambda c: dgefmm(a, b, c, cutoff=SimpleCutoff(2),
                                       peel=peel),
            "pdgefmm": lambda c: pdgefmm(a, b, c, workers=2,
                                         cutoff=SimpleCutoff(2), peel=peel),
        }
        for name, run in runs.items():
            c = np.zeros((9, 9), dtype=object)
            run(c)
            assert not any(isinstance(v, float) for v in c.flat), name
            assert (c == want).all(), name
        # no plan compiles for object operands: plans are fused vendor
        # programs over typed views
        cfg = GemmConfig(cutoff=SimpleCutoff(2), peel=peel,
                         dtype="object", accuracy="exact")
        with pytest.raises(ArgumentError, match="fusable"):
            compile_plan(signature_for(9, 9, 9, False, False, False, True,
                                       "object", cfg))

    def test_exact_rejects_fractional_scalars(self, rng):
        a, b, c = _operands(rng, "int64", 8, 8, 8)
        with pytest.raises(ArgumentError):
            dgefmm(a, b, c, 1.5, 0, cutoff=CUT, accuracy="exact")

    def test_illegal_combinations_fail_at_construction(self):
        with pytest.raises(ArgumentError):
            GemmConfig(dtype="float64", accuracy="exact")
        with pytest.raises(ArgumentError):
            GemmConfig(dtype="int64", accuracy="fast")
        with pytest.raises(ArgumentError):
            GemmConfig(dtype="int64", accuracy="compensated")
        with pytest.raises(ArgumentError):
            GemmConfig(dtype="float16")
        with pytest.raises(ArgumentError):
            GemmConfig(accuracy="sloppy")
        # nb is a tile edge: an integer (not a bool) of at least 1
        for nb in (2.5, "8", True, 0, np.float64(8.0)):
            with pytest.raises(ArgumentError):
                GemmConfig(nb=nb)
        assert GemmConfig(nb=np.int64(8)).nb == 8

    def test_default_accuracy_follows_dtype(self):
        assert default_accuracy("int64") == "exact"
        assert default_accuracy("object") == "exact"
        for dt in ("float64", "float32", "complex128", "complex64"):
            assert default_accuracy(dt) == "fast"


class TestStabilityAcrossDtypes:
    """The Section 4 instruments generalize past float64."""

    @pytest.mark.parametrize(
        "dtype", ["float64", "float32", "complex128", "complex64"])
    def test_measured_error_within_bound(self, dtype):
        m, tau = 64, 16

        def multiply(a, b, c):
            dgefmm(a, b, c, cutoff=SimpleCutoff(tau))

        err, denom = measure_error(multiply, m, dtype=dtype)
        a = np.ones((m, m))
        bound = normwise_bound(a, a, m // tau, tau, dtype=dtype)
        # the bound is in units of u*||A||*||B||; scale by the measured
        # operand norms (uniform(-1,1) operands: max|.| <= 1)
        assert err <= bound * denom

    def test_bound_scales_with_unit_roundoff(self):
        a = np.ones((64, 64))
        b64 = normwise_bound(a, a, 4, 16, dtype="float64")
        b32 = normwise_bound(a, a, 4, 16, dtype="float32")
        ratio = unit_roundoff("float32") / unit_roundoff("float64")
        assert b32 == pytest.approx(b64 * ratio)


class TestServedAccuracy:
    """Admission resolves the SLO; plan replay honours it bit-for-bit."""

    def _direct(self, a, b, accuracy):
        out = np.zeros((a.shape[0], b.shape[1]),
                       dtype=np.result_type(a, b), order="F")
        dgefmm(a, b, out, 1.0, 0.0, accuracy=accuracy)
        return out

    def test_compensated_request_bit_identical(self, rng):
        from repro.serve.service import GemmService

        a = np.asfortranarray(
            rng.standard_normal((40, 33)).astype(np.float32))
        b = np.asfortranarray(
            rng.standard_normal((33, 37)).astype(np.float32))
        want = self._direct(a, b, "compensated")
        assert not np.array_equal(want, self._direct(a, b, "fast"))
        svc = GemmService(workers=2)
        try:
            got = svc.submit(a, b, accuracy="compensated").result(
                timeout=30.0)
        finally:
            svc.close()
        assert got.dtype == np.float32
        assert np.array_equal(got, want)

    def test_defaulted_fuse_drops_for_compensated(self, rng):
        """A vendor service, whose fast requests replay fused plans,
        still honours a non-fast SLO: a compensated request walks the
        vendor kernel, bit-identical to the direct compensated call,
        and leaves no plan behind."""
        from repro.serve.service import GemmService

        a = np.asfortranarray(
            rng.standard_normal((36, 36)).astype(np.float32))
        b = np.asfortranarray(
            rng.standard_normal((36, 36)).astype(np.float32))
        want = np.zeros((36, 36), dtype=np.float32, order="F")
        dgefmm(a, b, want, cutoff=CUT, backend="vendor",
               accuracy="compensated")
        svc = GemmService(workers=1, cutoff=CUT, backend="vendor")
        try:
            got = svc.submit(a, b, accuracy="compensated").result(
                timeout=30.0)
            assert svc.plan_cache.stats()["plans"] == 0
            svc.submit(a, b).result(timeout=30.0)
            assert svc.plan_cache.stats()["plans"] == 1  # fast: fused
        finally:
            svc.close()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("vendor", [False, True])
    @pytest.mark.parametrize("dtype", ["int64", "object"])
    def test_int64_served_exact(self, rng, dtype, vendor):
        """Exact dtypes are served under their default accuracy,
        ``"exact"``, on either leaf kernel: they walk (object operands
        cannot be planned, and only fast vendor calls replay fused)."""
        from repro.serve.service import GemmService

        a, b, _ = _operands(rng, dtype, 20, 20, 20)
        svc = GemmService(workers=1,
                          backend="vendor" if vendor else "substrate")
        try:
            got = svc.submit(a, b).result(timeout=30.0)
        finally:
            svc.close()
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, a @ b)

    @pytest.mark.parametrize("peel", ["tail", "head"])
    def test_int64_bdpz_served_with_float_scalars(self, rng, peel):
        """Regression: the service replays plans with the submitted
        scalars (floats by default); a BDPZ level's -alpha then reached
        a peeling fix-up as -1.0 and failed on the int64 buffer.  Exact
        plan replay takes the scalars as ints."""
        from repro.serve.service import GemmService

        a, b, c = _operands(rng, "int64", 37, 35, 33)
        svc = GemmService(workers=1)
        try:
            got = svc.submit(a, b, c, 1.0, 2.0, scheme="bdpz", peel=peel,
                             cutoff=CUT).result(timeout=30.0)
        finally:
            svc.close()
        assert np.array_equal(got, a @ b + 2 * c)


class TestWireAccuracy:
    def test_header_roundtrip(self):
        from repro.api.protocol import gemm_request_header, validate_gemm

        a = np.zeros((4, 3), dtype=np.float32)
        b = np.zeros((3, 5), dtype=np.float32)
        hdr = gemm_request_header(1, 4, 3, 5, dtype="float32",
                                  accuracy="compensated")
        g = validate_gemm(hdr, [a.tobytes(), b.tobytes()])
        assert g["accuracy"] == "compensated"

    def test_absent_key_means_no_override(self):
        from repro.api.protocol import gemm_request_header, validate_gemm

        a = np.zeros((4, 3), dtype=np.float64)
        b = np.zeros((3, 5), dtype=np.float64)
        hdr = gemm_request_header(1, 4, 3, 5)
        assert "accuracy" not in hdr
        g = validate_gemm(hdr, [a.tobytes(), b.tobytes()])
        assert g["accuracy"] is None

    def test_exact_not_wireable(self):
        from repro.api.protocol import (
            ProtocolError,
            gemm_request_header,
            validate_gemm,
        )

        hdr = gemm_request_header(1, 4, 3, 5, accuracy="exact")
        with pytest.raises(ProtocolError):
            validate_gemm(hdr, [b"", b""])


class TestTunedProfileAccuracy:
    def test_roundtrip_and_legacy_decode(self):
        from repro.tune.profile import TunedProfile

        prof = TunedProfile(key="sq32:float32:b0", accuracy="compensated")
        doc = prof.to_json()
        assert doc["accuracy"] == "compensated"
        back = TunedProfile.from_json(doc)
        assert back.accuracy == "compensated"
        assert back.to_config().accuracy == "compensated"
        legacy = {k: v for k, v in doc.items() if k != "accuracy"}
        assert TunedProfile.from_json(legacy).accuracy == "fast"

    def test_profile_rejects_exact(self):
        from repro.tune.profile import TunedProfile

        with pytest.raises(ArgumentError):
            TunedProfile(key="sq32:int64:b0", accuracy="exact")


# ---------------------------------------------------------------------- #
# lint: no dtype-less allocations in the compute stack
# ---------------------------------------------------------------------- #
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: packages where every array allocation must name its dtype — a bare
#: ``np.zeros(shape)`` silently pins float64 and severs the dtype thread
COMPUTE_PACKAGES = ("blas", "core", "plan", "serve", "api", "fuzz",
                    "tune")

#: numpy constructors whose dtype defaults to float64
_ALLOCATORS = {"zeros": 2, "empty": 2, "ones": 2, "full": 3}


def _dtypeless_allocations(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy", "_np")):
            continue
        min_args = _ALLOCATORS.get(node.func.attr)
        if min_args is None:
            continue
        has_dtype = (len(node.args) >= min_args
                     or any(kw.arg == "dtype" for kw in node.keywords))
        if not has_dtype:
            bad.append(f"{path.relative_to(SRC.parent.parent)}:"
                       f"{node.lineno}")
    return bad


class TestDtypeLint:
    @pytest.mark.parametrize("package", COMPUTE_PACKAGES)
    def test_no_dtypeless_allocations(self, package):
        offenders = []
        for path in sorted((SRC / package).rglob("*.py")):
            offenders.extend(_dtypeless_allocations(path))
        assert not offenders, (
            "dtype-less numpy allocations in the compute stack "
            "(pass an explicit dtype): " + ", ".join(offenders)
        )
