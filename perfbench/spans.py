"""In-memory span recorder for the traced benchmark run, and the per-layer
metrics derived from its spans.

Spans are taken at module boundaries by replacing, for the duration of one
traced operation, the name a *calling* module binds: ``modpoly`` binds its
own ``absolute_igusa`` and ``richelot`` binds another, so each is wrapped
where it is looked up.  The library itself is never edited; every replaced
name is restored when ``Tracer.patched`` exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans; -1 for an operation's root
    op: int
    prec: Optional[int]
    ok: bool           # False when the call raised or returned None


def boundaries():
    """(owner, attribute, span name) for every wrapped call site."""
    from g2modpoly import cli, g2curve, modpoly, richelot
    from g2modpoly.exactnum import ComplexPoly

    return [
        (cli, "dispatch", "cli.dispatch"),
        (g2curve, "load_curve", "g2curve.load_curve"),
        (g2curve, "validate_curve", "g2curve.validate_curve"),
        (modpoly, "evaluated_P2", "modpoly.evaluated_P2"),
        (modpoly, "all_isogenous_invariants", "richelot.all_isogenous_invariants"),
        (modpoly, "absolute_igusa", "g2curve.absolute_igusa"),
        (modpoly, "rational_reconstruct", "exactnum.rational_reconstruct"),
        (richelot, "enumerate_factorizations", "richelot.enumerate_factorizations"),
        (richelot, "complex_roots", "richelot.complex_roots"),
        (richelot, "richelot_image", "richelot.richelot_image"),
        (richelot, "absolute_igusa", "g2curve.absolute_igusa"),
        (ComplexPoly, "from_roots", "exactnum.from_roots"),
        (ComplexPoly, "deflate", "exactnum.deflate"),
    ]


class Tracer:
    """Collects spans of traced operations; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._wrapped = [(owner, attr, owner.__dict__[attr], self._wrap(name, owner.__dict__[attr]))
                         for owner, attr, name in boundaries()]

    def _wrap(self, name: str, raw):
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        params = list(inspect.signature(func).parameters.values())
        idx = next((i for i, p in enumerate(params) if p.name == "prec"), None)
        default = None
        if idx is not None and params[idx].default is not inspect.Parameter.empty:
            default = params[idx].default
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            prec = None
            if idx is not None:
                prec = kwargs.get("prec", args[idx] if len(args) > idx else default)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op, prec, False)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
                span.ok = result is not None
                return result
            finally:
                span.end = clock()
                stack.pop()

        return classmethod(wrapper) if isinstance(raw, classmethod) else wrapper

    @contextmanager
    def patched(self, op: int):
        """Record spans of operation ``op`` while the body runs."""
        self.op = op
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, raw, _ in self._wrapped:
                setattr(owner, attr, raw)
            self._stack.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

REBUILD_AFTER = 16   # accepted reconstructions (one per P2 coefficient) before the 2q rebuild

#: per_layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "cli.dispatch_s": "s",
    "cli.self_s": "s",
    "g2curve.validate_curve_s": "s",
    "modpoly.evaluated_P2_s": "s",
    "modpoly.self_s": "s",
    "modpoly.rungs_per_curve": "count",
    "modpoly.rung_bits_per_curve": "bits",
    "modpoly.certify_s": "s",
    "modpoly.certify_pass_ratio": "ratio",
    "richelot.all_isogenous_invariants_s": "s",
    "richelot.complex_roots_s": "s",
    "richelot.enumerate_factorizations_self_s": "s",
    "richelot.richelot_image_s": "s",
    "richelot.richelot_image_calls": "count",
    "g2curve.absolute_igusa_s": "s",
    "g2curve.absolute_igusa_calls": "count",
    "exactnum.rational_reconstruct_s": "s",
    "exactnum.rational_reconstruct_calls": "count",
    "exactnum.rational_reconstruct_accept_ratio": "ratio",
    "exactnum.from_roots_s": "s",
    "exactnum.deflate_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_coverage_frac": "ratio",
}

# metric -> (span name, "total" | "self" | "calls")
_SPAN_SUMS = {
    "cli.dispatch_s": ("cli.dispatch", "total"),
    "cli.self_s": ("cli.dispatch", "self"),
    "g2curve.validate_curve_s": ("g2curve.validate_curve", "total"),
    "modpoly.evaluated_P2_s": ("modpoly.evaluated_P2", "total"),
    "modpoly.self_s": ("modpoly.evaluated_P2", "self"),
    "richelot.all_isogenous_invariants_s": ("richelot.all_isogenous_invariants", "total"),
    "richelot.complex_roots_s": ("richelot.complex_roots", "total"),
    "richelot.enumerate_factorizations_self_s": ("richelot.enumerate_factorizations", "self"),
    "richelot.richelot_image_s": ("richelot.richelot_image", "total"),
    "richelot.richelot_image_calls": ("richelot.richelot_image", "calls"),
    "g2curve.absolute_igusa_s": ("g2curve.absolute_igusa", "total"),
    "g2curve.absolute_igusa_calls": ("g2curve.absolute_igusa", "calls"),
    "exactnum.rational_reconstruct_s": ("exactnum.rational_reconstruct", "total"),
    "exactnum.rational_reconstruct_calls": ("exactnum.rational_reconstruct", "calls"),
    "exactnum.from_roots_s": ("exactnum.from_roots", "total"),
    "exactnum.deflate_s": ("exactnum.deflate", "total"),
}


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def ladder(spans: Sequence[Span], solved: bool):
    """Rungs, rung bits, certification seconds and (attempts, passes) of one op.

    Every build runs ``all_isogenous_invariants`` once.  A build that
    follows 16 accepted reconstructions is the certification rebuild at
    twice the rung precision; it lasts until the next build or the end of
    the operation, so its seconds include the comparison ``_certify`` makes.
    A certification passed if it is the op's last build and the op solved.
    """
    root_end = max(s.end for s in spans)
    builds = [s for s in spans if s.name == "richelot.all_isogenous_invariants"]
    recon = [s for s in spans if s.name == "exactnum.rational_reconstruct"]
    rungs = bits = attempts = passes = 0
    certify_s = 0.0
    certifying = False
    for k, b in enumerate(builds):
        nxt = builds[k + 1].start if k + 1 < len(builds) else root_end
        if certifying:
            attempts += 1
            certify_s += nxt - b.start
            passes += int(solved and k + 1 == len(builds))
            certifying = False
            continue
        rungs += 1
        bits += b.prec or 0
        tried = [r for r in recon if b.end <= r.start <= nxt]
        certifying = len(tried) == REBUILD_AFTER and all(r.ok for r in tried)
    return rungs, bits, certify_s, attempts, passes


def layer_metrics(tracer: Tracer, traced: Sequence[float], untraced: Sequence[float],
                  solved: Sequence[bool]) -> Dict[str, float]:
    """Per-op medians and run-wide ratios from the spans of ``tracer``.

    ``traced[i]``/``untraced[i]`` are the wall seconds of op ``i`` with and
    without spans (same curve), ``solved[i]`` whether the traced op returned
    certified rationals.
    """
    by_op: Dict[int, List[Span]] = {}
    own = self_times(tracer.spans)
    own_by_op: Dict[int, List[float]] = {}
    for s, t in zip(tracer.spans, own):
        by_op.setdefault(s.op, []).append(s)
        own_by_op.setdefault(s.op, []).append(t)
    per_op: Dict[str, List[float]] = {m: [] for m in LAYER_UNITS}
    tot = {"cert_attempts": 0, "cert_passes": 0, "recon_calls": 0, "recon_ok": 0, "self": 0.0}
    for op in range(len(traced)):
        spans = by_op.get(op, [])
        selfs = own_by_op.get(op, [])
        for metric, (name, kind) in _SPAN_SUMS.items():
            picked = [(s, t) for s, t in zip(spans, selfs) if s.name == name]
            if kind == "calls":
                per_op[metric].append(len(picked))
            elif kind == "self":
                per_op[metric].append(sum(t for _, t in picked))
            else:
                per_op[metric].append(sum(s.end - s.start for s, _ in picked))
        rungs, bits, cert_s, attempts, passes = ladder(spans, solved[op]) if spans else (0, 0, 0.0, 0, 0)
        per_op["modpoly.rungs_per_curve"].append(rungs)
        per_op["modpoly.rung_bits_per_curve"].append(bits)
        per_op["modpoly.certify_s"].append(cert_s)
        tot["cert_attempts"] += attempts
        tot["cert_passes"] += passes
        recon = [s for s in spans if s.name == "exactnum.rational_reconstruct"]
        tot["recon_calls"] += len(recon)
        tot["recon_ok"] += sum(s.ok for s in recon)
        tot["self"] += sum(selfs)
    out = {m: float(statistics.median(v)) for m, v in per_op.items() if v}
    out["modpoly.certify_pass_ratio"] = (
        tot["cert_passes"] / tot["cert_attempts"] if tot["cert_attempts"] else 0.0)
    out["exactnum.rational_reconstruct_accept_ratio"] = (
        tot["recon_ok"] / tot["recon_calls"] if tot["recon_calls"] else 0.0)
    out["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    out["trace.self_coverage_frac"] = tot["self"] / sum(traced)
    return {m: out[m] for m in LAYER_UNITS}


def self_time_table(spans: Sequence[Span]) -> List[tuple]:
    """(span name, calls, self seconds, share of all op time), largest first."""
    own = self_times(spans)
    total = sum(own)
    rows: Dict[str, List[float]] = {}
    for s, t in zip(spans, own):
        row = rows.setdefault(s.name, [0, 0.0])
        row[0] += 1
        row[1] += t
    return sorted(((n, c, t, t / total) for n, (c, t) in rows.items()),
                  key=lambda r: -r[2])


if __name__ == "__main__":
    import sys

    # python3 perfbench/spans.py .perfbench-out/spans-<workload>-seed<n>-trace1.jsonl
    with open(sys.argv[1]) as fh:
        recorded = [Span(**json.loads(line)) for line in fh]
    print(f"{'span':40} {'calls':>7} {'self s':>9} {'share':>7}")
    for name, calls, secs, share in self_time_table(recorded):
        print(f"{name:40} {calls:7d} {secs:9.3f} {share:7.1%}")
