"""Calibration: fit machine-model parameters to the paper's cutoffs.

Section 3.4 determines cutoff parameters *empirically*: find the square
order tau where one level of Strassen beats DGEMM (eq. 10 / Table 2), and
the three long-thin crossovers tau_m, tau_k, tau_n with the other two
dimensions held large (eq. 13 / Table 3).  We invert that procedure: given
the paper's published crossovers as *targets*, solve for the machine-model
parameters (a_m, a_k, a_n, h) that make the same experiments, run against
the model, land on those targets.

The one-level Strassen cost used here mirrors exactly what the DGEFMM
code charges on even inputs with beta = 0 (the experimental setting of
Section 4.2): seven half-size DGEMMs plus the STRASSEN1 beta = 0
schedule's 18 block additions (4 A-shaped, 4 B-shaped, 10 C-shaped).
Tests verify that dry-running the *actual* DGEFMM recursion against the
fitted models reproduces the paper's crossovers.

``scipy.optimize`` is imported inside the two solvers (``_crossover``,
``fit_overheads``), so only a run that solves for crossover parameters
loads scipy; importing this module does not.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import ArgumentError
from repro.machines.model import MachineModel

__all__ = [
    "one_level_time",
    "model_square_crossover",
    "model_rect_crossover",
    "fit_overheads",
    "anchor_rate",
    "measured_square_crossover",
    "measured_rect_crossover",
    "host_timers",
    "calibrate_host",
    "machine_to_json",
    "machine_from_json",
    "MACHINE_SCHEMA",
]

#: on-disk schema version of a serialized MachineModel
MACHINE_SCHEMA = 1


def machine_to_json(mach: MachineModel) -> Dict[str, Any]:
    """Serialize a fitted model as a plain-JSON document.

    Structural over ``fields(MachineModel)`` — a new model parameter
    joins the document automatically, the same guarantee PlanSignature
    gives the plan cache.  Round-trips bit-exactly via
    :func:`machine_from_json` (floats pass through ``json`` unscathed).
    """
    doc: Dict[str, Any] = {"schema": MACHINE_SCHEMA}
    for f in fields(MachineModel):
        doc[f.name] = getattr(mach, f.name)
    return doc


def machine_from_json(doc: Dict[str, Any]) -> MachineModel:
    """Rebuild a :class:`MachineModel` from :func:`machine_to_json`."""
    schema = doc.get("schema")
    if schema != MACHINE_SCHEMA:
        raise ArgumentError(
            "machine_from_json", "schema",
            f"expected {MACHINE_SCHEMA}, got {schema!r}",
        )
    kwargs = {}
    for f in fields(MachineModel):
        if f.name in doc:
            kwargs[f.name] = doc[f.name]
    return MachineModel(**kwargs)


def one_level_time(mach: MachineModel, m: float, k: float, n: float) -> float:
    """Model seconds for one Strassen level + standard base multiplies.

    Continuous in (m, k, n) so root-finding is smooth; matches the charges
    of ``dgefmm(..., cutoff=DepthCutoff(1))`` on even inputs exactly.
    """
    hm, hk, hn = m / 2.0, k / 2.0, n / 2.0
    t = 7.0 * mach.t_gemm(hm, hk, hn)  # type: ignore[arg-type]
    t += 4.0 * mach.t_add(hm, hk)      # type: ignore[arg-type]
    t += 4.0 * mach.t_add(hk, hn)      # type: ignore[arg-type]
    t += 10.0 * mach.t_add(hm, hn)     # type: ignore[arg-type]
    return t


def _crossover(mach: MachineModel, dims) -> float:
    """Continuous root of t_gemm - one_level_time along a 1-D family.

    ``dims(x)`` maps the search variable to (m, k, n).  Returns the x
    where the two strategies tie; above it, recursion wins.
    """
    from scipy.optimize import brentq

    def f(x: float) -> float:
        m, k, n = dims(x)
        return mach.t_gemm(m, k, n) - one_level_time(mach, m, k, n)

    lo, hi = 4.0, 8192.0
    if f(lo) > 0:
        return lo  # recursion already wins at the smallest size
    if f(hi) < 0:
        return np.inf  # DGEMM always wins in range (degenerate params)
    return float(brentq(f, lo, hi, xtol=1e-6))


def model_square_crossover(mach: MachineModel) -> float:
    """Continuous square crossover tau of the model (eq. 10 experiment)."""
    return _crossover(mach, lambda x: (x, x, x))


def model_rect_crossover(
    mach: MachineModel, which: str, fixed: float
) -> float:
    """Continuous long-thin crossover (Table 3 experiment).

    ``which`` in {"m", "k", "n"} is the varying dimension; the other two
    are held at ``fixed`` (2000 on the RS/6000 and C90, 1500 on the T3D).
    """
    maps = {
        "m": lambda x: (x, fixed, fixed),
        "k": lambda x: (fixed, x, fixed),
        "n": lambda x: (fixed, fixed, x),
    }
    return _crossover(mach, maps[which])


def fit_overheads(
    name: str,
    tau: float,
    tau_m: float,
    tau_k: float,
    tau_n: float,
    *,
    fixed: float = 2000.0,
    g: float = 5.0,
    g2: float = 2.0,
    rate: float = 1e8,
) -> MachineModel:
    """Solve (a_m, a_k, a_n, h) so the four model crossovers hit targets.

    Four equations (square tau + three long-thin crossovers) in four
    unknowns, solved with a damped Newton (scipy fsolve).  Raises if the
    solver fails to reproduce the targets to 0.5 units.
    """
    from scipy.optimize import fsolve

    targets = np.array([tau, tau_m, tau_k, tau_n], dtype=float)

    def residual(p: np.ndarray) -> np.ndarray:
        mach = MachineModel(
            name=name, rate=rate,
            a_m=p[0], a_k=p[1], a_n=p[2], h=p[3], g=g, g2=g2,
        )
        got = np.array(
            [
                model_square_crossover(mach),
                model_rect_crossover(mach, "m", fixed),
                model_rect_crossover(mach, "k", fixed),
                model_rect_crossover(mach, "n", fixed),
            ]
        )
        return got - targets

    # Closed-form seed from the asymptotic analysis (see DESIGN.md):
    # tau ~ 3(a_m+a_k+a_n) + 18 g + 3 h;  tau_m ~ 3 a_m + 4 g + 3 h; ...
    h0 = (tau_m + tau_k + tau_n - tau) / 6.0
    p0 = np.array(
        [
            max((tau_m - 4 * g - 3 * h0) / 3.0, 0.1),
            max((tau_k - 7 * g - 3 * h0) / 3.0, 0.1),
            max((tau_n - 4 * g - 3 * h0) / 3.0, 0.1),
            h0,
        ]
    )
    sol, info, ier, msg = fsolve(residual, p0, full_output=True)
    res = residual(sol)
    if ier != 1 or np.max(np.abs(res)) > 0.5:
        raise RuntimeError(
            f"calibration for {name} failed: residual {res}, {msg}"
        )
    return MachineModel(
        name=name, rate=rate,
        a_m=float(sol[0]), a_k=float(sol[1]), a_n=float(sol[2]),
        h=float(sol[3]), g=g, g2=g2,
    )


def anchor_rate(
    mach: MachineModel, m: int, seconds: float
) -> MachineModel:
    """Rescale ``rate`` so a square DGEMM of order m takes ``seconds``.

    Used to anchor each machine against Table 5's measured DGEMM times
    (the crossovers are rate-invariant, so this does not disturb the
    fit).
    """
    t = mach.t_gemm(m, m, m)
    return replace(mach, rate=mach.rate * t / seconds)


# --------------------------------------------------------------------- #
# The Section 3.4 measurement procedure itself (used by the Table 2/3
# experiments and by users calibrating real hosts): find crossovers by
# running the actual code.
# --------------------------------------------------------------------- #

def measured_square_crossover(
    time_dgemm, time_one_level, lo: int, hi: int, step: int = 1
) -> Tuple[int, int, int]:
    """Empirical square-cutoff search (the paper's Figure 2 procedure).

    ``time_dgemm(m)`` and ``time_one_level(m)`` are timing callables.
    Returns ``(first, always, recommended)``: the first order where one
    Strassen level wins, the order from which it always wins within the
    scan range, and a recommended tau between them (the paper scanned
    120..260 on the RS/6000, found wins from 176, always-wins from 214,
    and chose tau = 199).
    """
    wins = []
    orders = list(range(lo, hi + 1, step))
    for m in orders:
        wins.append(time_dgemm(m) > time_one_level(m))
    if not any(wins):
        raise ValueError("no crossover in scan range")
    first = orders[wins.index(True)]
    always = orders[-1]
    for m, w in zip(reversed(orders), reversed(wins)):
        if not w:
            break
        always = m
    recommended = (first + always) // 2
    return first, always, recommended


def measured_rect_crossover(
    time_dgemm, time_one_level, lo: int, hi: int
) -> int:
    """Empirical long-thin crossover by bisection on even sizes.

    ``time_*`` take the single varying dimension.  Returns the smallest
    even size at which one Strassen level wins.
    """
    lo += lo % 2
    hi += hi % 2

    def wins(x: int) -> bool:
        return time_dgemm(x) > time_one_level(x)

    if wins(lo):
        return lo
    if not wins(hi):
        raise ValueError("no crossover in range")
    while hi - lo > 2:
        mid = (lo + hi) // 2
        mid += mid % 2
        if mid == hi:
            mid -= 2
        if wins(mid):
            hi = mid
        else:
            lo = mid
    return hi


def host_timers(repeats: int = 3, backend: str = "substrate"):
    """Wall-clock ``(time_gemm, time_one_level)`` for *this* host.

    Both callables take ``(m, k, n)``, generate deterministic operands,
    and return the median of ``repeats`` timed runs of the real kernels:
    the standard-algorithm DGEMM and one level of the actual DGEFMM
    recursion (``DepthCutoff(1)``), both on the leaf kernel ``backend``
    (:data:`repro.blas.level3.BACKENDS`), so the scan answers where one
    level beats the DGEMM it calls.  These are the paper's Section 3.4
    probes; :func:`calibrate_host` scans them for crossovers and the
    tune subsystem (:mod:`repro.tune.measure`) reuses them so the
    autotuner measures with the same instruments as offline
    calibration.
    """
    import numpy as _np

    from repro.blas.level3 import dgemm as _dgemm
    from repro.core.cutoff import DepthCutoff as _DepthCutoff
    from repro.core.dgefmm import dgefmm as _dgefmm
    from repro.utils.timing import time_call as _time_call

    def _mats(m, k, n):
        rng = _np.random.default_rng(m * 1000003 + k * 1009 + n)
        return (
            _np.asfortranarray(rng.standard_normal((m, k))),
            _np.asfortranarray(rng.standard_normal((k, n))),
            _np.zeros((m, n), order="F"),
        )

    def time_gemm(m, k, n):
        a, b, c = _mats(m, k, n)
        med, _ = _time_call(lambda: _dgemm(a, b, c, backend=backend),
                            repeats=repeats)
        return med

    def time_one_level(m, k, n):
        a, b, c = _mats(m, k, n)
        med, _ = _time_call(
            lambda: _dgefmm(a, b, c, cutoff=_DepthCutoff(1),
                            backend=backend),
            repeats=repeats,
        )
        return med

    return time_gemm, time_one_level


def calibrate_host(
    *,
    scan_lo: int = 32,
    scan_hi: int = 512,
    fixed: int = 768,
    g: float = 5.0,
    g2: float = 1.0,
    name: str = "host",
    time_gemm=None,
    time_one_level=None,
) -> MachineModel:
    """Build a MachineModel for *this* host by the Section 3.4 procedure.

    Measures the square crossover (scan) and the three long-thin
    crossovers (bisection, other dims held at ``fixed``), fits the
    overhead parameters to them, and anchors the rate at the smallest
    always-winning square order.

    ``time_gemm(m, k, n)`` / ``time_one_level(m, k, n)`` default to the
    :func:`host_timers` wall-clock probes (median of 3); injectable for
    testing and for calibrating against recorded measurements.

    Wall-clock calibration takes a minute or two at the default bounds;
    it is an explicit user action (see examples/cutoff_tuning.py), never
    run implicitly.
    """
    if time_gemm is None or time_one_level is None:
        time_gemm, time_one_level = host_timers()

    step = max(2, (scan_hi - scan_lo) // 64)
    step += step % 2  # even steps avoid peel noise in the scan
    first, always, tau = measured_square_crossover(
        lambda m: time_gemm(m, m, m),
        lambda m: time_one_level(m, m, m),
        scan_lo, scan_hi, step,
    )
    tau_m = measured_rect_crossover(
        lambda x: time_gemm(x, fixed, fixed),
        lambda x: time_one_level(x, fixed, fixed),
        4, scan_hi,
    )
    tau_k = measured_rect_crossover(
        lambda x: time_gemm(fixed, x, fixed),
        lambda x: time_one_level(fixed, x, fixed),
        4, scan_hi,
    )
    tau_n = measured_rect_crossover(
        lambda x: time_gemm(fixed, fixed, x),
        lambda x: time_one_level(fixed, fixed, x),
        4, scan_hi,
    )
    mach = fit_overheads(
        name, tau, tau_m, tau_k, tau_n, fixed=float(fixed), g=g,
    )
    mach = replace(mach, g2=g2)
    anchor = always + (always % 2)
    return anchor_rate(mach, anchor, time_gemm(anchor, anchor, anchor))
