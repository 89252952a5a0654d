"""Compare two sets of end-to-end runs: a parent commit and a change.

Usage::

    python -m benchmarks.e2e.compare PARENT CHANGE

Each side is a directory of result files written by ``run.py --out`` or
a ``.jsonl`` bundle of them (``cat DIR/*.json > set.jsonl``).  Runs are
paired by workload and seed; traced runs only feed the per-layer table.

For every end-to-end metric of ``BENCHMARK.json`` on every workload the
verdict follows the benchmark's rule for a change:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ by more than the
  parent's own spread (the distance between its quartiles);
- ``REGRESSION``: the change's median is worse than the parent's by
  more than the metric's bound, and the parent's spread is within it;
- ``unresolved``: the parent's spread is wider than the bound, unless
  every change run reads better than every parent run;
- ``same`` otherwise.

A workload whose share of failed operations rose is a ``REGRESSION``
too.  The exit status is 1 when any row regressed, and 2 when the two
sides ran for different ``--seconds`` or one used ``--quick``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(path: str) -> List[dict]:
    """Result documents from a directory of ``*.json`` or a ``.jsonl``."""
    p = Path(path)
    if p.is_dir():
        return [json.loads(f.read_text()) for f in sorted(p.glob("*.json"))]
    return [json.loads(line) for line in p.read_text().splitlines()
            if line.strip()]


def _spread(xs: List[float]) -> Tuple[float, float]:
    """(median, interquartile distance) of a sample."""
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, q3 - q1


def verdict(parent: List[float], change: List[float],
            pairs: List[Tuple[float, float]], better: str,
            bound: float) -> Tuple[str, float, int]:
    """(verdict, relative worsening of the change, wins) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_iqr = _spread(parent)
    c_med, _ = _spread(change)
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(c_med - p_med) > p_iqr):
        return "gain", worse, wins
    spread = p_iqr / abs(p_med) if p_med else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", worse, wins
    if worse > bound:
        return "REGRESSION", worse, wins
    return "same", worse, wins


def _failed_share(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent: List[dict], change: List[dict], spec: dict) -> int:
    """Print the verdict table; return the number of regressed rows."""
    def by_workload(runs, traced):
        out: Dict[str, Dict[int, dict]] = defaultdict(dict)
        for r in runs:
            if bool(r["trace"]) == traced:
                out[r["workload"]][r["seed"]] = r
        return out

    regressions = 0
    par, chg = by_workload(parent, False), by_workload(change, False)
    print(f"{'workload':<14} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'worse':>7} {'bound':>6} {'wins':>7}  verdict")
    for wl in sorted(set(par) & set(chg)):
        seeds = sorted(set(par[wl]) & set(chg[wl]))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in par[wl].values()]
            cv = [r["metrics"][name]["value"] for r in chg[wl].values()]
            pairs = [(par[wl][s]["metrics"][name]["value"],
                      chg[wl][s]["metrics"][name]["value"]) for s in seeds]
            v, worse, wins = verdict(pv, cv, pairs, m["better"], m["bound"])
            regressions += v == "REGRESSION"
            print(f"{wl:<14} {name:<16} {statistics.median(pv):>12.5g} "
                  f"{statistics.median(cv):>12.5g} {worse:>+7.1%} "
                  f"{m['bound']:>6.0%} {wins:>3}/{len(pairs):<3}  {v}")
        pf = _failed_share(list(par[wl].values()))
        cf = _failed_share(list(chg[wl].values()))
        v = "REGRESSION" if cf > pf else "same"
        regressions += v == "REGRESSION"
        print(f"{wl:<14} {'failed_share':<16} {pf:>12.5g} {cf:>12.5g} "
              f"{'':>7} {'':>6} {'':>7}  {v}")

    par_t, chg_t = by_workload(parent, True), by_workload(change, True)
    for wl in sorted(set(par_t) & set(chg_t)):
        print(f"\nper-layer medians, {wl} (traced runs, no bound)")
        for m in spec["per_layer"]:
            pv = [r["metrics"][m["name"]]["value"]
                  for r in par_t[wl].values()]
            cv = [r["metrics"][m["name"]]["value"]
                  for r in chg_t[wl].values()]
            print(f"  {m['name']:<34} {statistics.median(pv):>12.5g} "
                  f"{statistics.median(cv):>12.5g} {m['unit']}")
    return regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_results(argv[0]), load_results(argv[1])
    settings = [{(r["seconds"], r["quick"]) for r in side}
                for side in (parent, change)]
    if settings[0] != settings[1]:
        print(f"runs differ in (seconds, quick): parent {settings[0]}, "
              f"change {settings[1]}", file=sys.stderr)
        return 2
    return 1 if compare(parent, change, spec) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
