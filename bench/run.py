"""icmod benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload decide_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
workload (see ``workloads.py``) is generated from ``--seed``; the run times
one item after another until ``--seconds`` of item time have passed and at
least ``MIN_ITEMS`` items are done, checks every output outside the timed
region, and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Its times are scaled to a reference machine speed (see "machine speed"
below), because the shared machine it runs on changes speed by a quarter
within seconds; the wall-clock figures go to stderr beside them.
``--trace 1`` runs the same items twice, untraced and then with the span
tracer of ``spans.py`` installed, reports the per-layer metrics, the tracing
overhead and the machine speed, checks that both passes give the same output
digest, and times cold CLI launches and the two ROADMAP micro-baselines.
Spans go to ``bench/out/``.
Progress, the digests and the sample counts go to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import timeit
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ITEMS = 200  # so that at least ten latency samples lie beyond p95
GAPS = 10  # untimed breaks in the item loop for repeated, timed set-ups
CLI_LAUNCHES = 11
CASE_I = "(x^7,x^5*y,x^3*y^2,x^2*y^3,x*y^5,y^9)"


def log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- machine speed
#
# The end-to-end times are scaled to a reference speed of the machine.  A
# fixed calibration unit, which does not touch icmod, is timed between items
# (every CALIBRATE_EVERY_S of item time); each item's wall time is multiplied
# by REF_UNIT_S over the median of the readings taken around it.  A change to
# icmod moves the items and not the unit, so the scaled figures move by the
# same ratio as the wall times would on a machine of steady speed.

REF_UNIT_S = 1.0e-3  # the calibration unit's time on the reference machine
CALIBRATE_EVERY_S = 0.02
NEAR_READINGS = 3  # readings on each side of an item that set its scale
_UNIT_MATRIX = [[Fraction(1, i + j + 1) + i * j for j in range(7)] for i in range(7)]


def calibration_unit() -> tuple:
    """Fixed pure-Python work of the kinds the workloads do: exact Gaussian
    elimination over Fraction, and sorting and merging integer tuples."""
    rows = [list(row) for row in _UNIT_MATRIX]
    for c in range(len(rows)):
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    pts = sorted({(a + c, b + d) for a in range(16) for b in range(0, 40, 3) for c, d in ((1, 5), (4, 1))})
    return rows[-1][-1], len(pts)


def read_unit() -> float:
    """Wall seconds of one calibration unit, with the collector held off so
    the program's heap does not enter the reading."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_unit()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def settled_unit(n: int) -> float:
    """The median of `n` readings taken one after another."""
    return statistics.median(read_unit() for _ in range(n))


# ---------------------------------------------------------------- set-up


def _ours(name: str) -> bool:
    return name in ("icmod", "workloads") or name.startswith("icmod.")


def set_up(workload: str, seed: int, tiny: bool, keep: bool = True):
    """Import icmod afresh and generate the inputs; return (seconds, module, items).

    With keep=False the modules imported before are put back afterwards, so
    a repeated, timed set-up leaves the code in use untouched.
    """
    saved = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    for name in saved:
        del sys.modules[name]
    start = time.perf_counter()
    module = importlib.import_module("workloads")
    items = module.WORKLOADS[workload].generate(seed, tiny)
    seconds = time.perf_counter() - start
    if not keep:
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)
    return seconds, module, items


# ---------------------------------------------------------------- the item loop


class Pass:
    """One closed-loop pass over the item stream: per-item time and output hash."""

    def __init__(self):
        self.times_s: list[float] = []
        self.hashes: list[bytes | None] = []  # None: the item raised or failed its check
        self.busy_s = 0.0
        self.head = hashlib.sha256()  # the outputs of the first MIN_ITEMS items, concatenated
        self.full = hashlib.sha256()
        self.marks: list[int] = []  # items done when each calibration reading was taken
        self.units_s: list[float] = []  # the readings
        self.since_reading_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times_s)

    def calibrate(self, force: bool = False) -> None:
        """Take a calibration reading once CALIBRATE_EVERY_S of item time has
        passed since the last one, or now if `force`."""
        if force or self.since_reading_s >= CALIBRATE_EVERY_S:
            self.marks.append(self.attempted)
            self.units_s.append(read_unit())
            self.since_reading_s = 0.0

    def scaled_times(self) -> list[float]:
        """Each item's time at the reference speed: its wall time times
        REF_UNIT_S over the median of the NEAR_READINGS readings taken before
        it and the NEAR_READINGS taken after it."""
        out = []
        for index, elapsed in enumerate(self.times_s):
            after = bisect.bisect_right(self.marks, index)  # first reading after the item
            near = self.units_s[max(0, after - NEAR_READINGS) : after + NEAR_READINGS]
            out.append(elapsed * REF_UNIT_S / statistics.median(near))
        return out


def run_item(wl, items, res: Pass, check: bool, tracer=None) -> None:
    """Time the next item of the stream into `res`; check its output untimed."""
    index = res.attempted
    item = items[index % len(items)]
    if tracer is not None:
        tracer.item = index
        tracer.active = True
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception:  # noqa: BLE001 - a failed item is counted, the run goes on
        out = None
        log(f"item {index} raised:\n{traceback.format_exc()}")
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    res.busy_s += elapsed
    res.since_reading_s += elapsed
    res.times_s.append(elapsed)
    data = None
    if out is not None:
        try:
            if not check or wl.check(item, out):
                data = wl.digest(out)
        except Exception:  # noqa: BLE001
            log(f"check of item {index} raised:\n{traceback.format_exc()}")
    if data is None:
        log(f"item {index} failed: {item!r:.200}")
        data = b"FAILED\n"
        res.hashes.append(None)
    else:
        res.hashes.append(hashlib.sha256(data).digest())
    res.full.update(data)
    if index < MIN_ITEMS:
        res.head.update(data)


def run_pass(wl, items, seconds: float, min_items: int, gap, gaps: int) -> Pass:
    """Closed loop until `seconds` of item time and `min_items` items are
    reached, ending on a whole round of the stream; every output is checked.
    `gap()` runs untimed after each of `gaps` equal shares of `seconds`."""
    res = Pass()
    res.calibrate(force=True)
    done = 0
    while res.busy_s < seconds or res.attempted < min_items or res.attempted % wl.round_size:
        run_item(wl, items, res, check=True)
        res.calibrate()
        while done < gaps and res.busy_s >= seconds * (done + 1) / (gaps + 1):
            gap()
            done += 1
    res.calibrate(force=True)
    while done < gaps:
        gap()
        done += 1
    return res


def cli_launches(wl, items, launches: int, times: list[float]) -> bool:
    """Cold `python -m icmod.cli ...` launches; append each wall time to `times`
    and return whether every launch printed exactly the expected document."""
    argv, expected = wl.cli_probe(items)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ok = True
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "icmod.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != expected:
            ok = False
            log(f"cli launch {argv[0]} gave exit {proc.returncode}: {proc.stderr.strip()[:300]}")
    return ok


# ---------------------------------------------------------------- micro-baselines


def micro_baselines(module) -> tuple[dict[str, tuple[float, str]], bool]:
    """The two ROADMAP micro-baselines: choose_k on the Case I staircase, and
    decide + verify + JSON over the decidable ideals of (6,8)."""
    from icmod import engine, expr, oracle

    ideal = expr.parse_ideal(CASE_I)
    cert = engine.choose_k(ideal)
    ok = cert.verdict is engine.Verdict.INDECOMPOSABLE and cert.k == 3
    timer = timeit.Timer(lambda: engine.choose_k(ideal))
    number, _ = timer.autorange()
    per_call = statistics.median(t / number for t in timer.repeat(5, number))

    sweep = module.DecideSweep()
    exprs = [expr.format_ideal(i) for i in oracle.enumerate_complete(6, 8) if module.decidable(i)]
    start = time.perf_counter()
    outs = [sweep.run(e) for e in exprs]
    sweep_s = time.perf_counter() - start
    ok = ok and len(exprs) == 327 and all(sweep.check(e, o) for e, o in zip(exprs, outs))
    return {
        "baseline.choose_k_case1_ms": (per_call * 1e3, "ms"),
        "baseline.decide_verify_68_s": (sweep_s, "s"),
    }, ok


# ---------------------------------------------------------------- modes


def end_to_end(args, wl_name: str) -> tuple[dict, int, int, bool]:
    setups: list[tuple[float, float]] = []  # (wall s, s at the reference speed)

    def timed_set_up(keep: bool):
        before = settled_unit(NEAR_READINGS)
        seconds, module, items = set_up(wl_name, args.seed, args.tiny, keep)
        unit = statistics.median([before, settled_unit(NEAR_READINGS)])
        setups.append((seconds, seconds * REF_UNIT_S / unit))
        return module, items

    module, items = timed_set_up(keep=True)
    wl = module.WORKLOADS[wl_name]

    def gap() -> None:
        """One more timed set-up; the repeats are spread over the run."""
        timed_set_up(keep=False)

    res = run_pass(wl, items, args.seconds, 20 if args.tiny else MIN_ITEMS, gap, 2 if args.tiny else GAPS)
    failed = res.hashes.count(None)
    ok = [h is not None for h in res.hashes]
    wall = sorted(t for t, good in zip(res.times_s, ok) if good)
    lat = sorted(t for t, good in zip(res.scaled_times(), ok) if good)
    log(f"{res.attempted} items, {len(lat)} latency samples, {res.busy_s:.3f} s of item time")
    log(f"output digest (first {min(res.attempted, MIN_ITEMS)} items): {res.head.hexdigest()}")
    log(f"set-ups s (wall, scaled): {sorted((round(w, 4), round(s, 4)) for w, s in setups)}")
    if len(lat) < 2:
        raise SystemExit("bench: fewer than two items completed; no latency percentiles")
    units = sorted(res.units_s)
    log(
        f"{len(units)} calibration readings, ms: min {units[0] * 1e3:.4f}, "
        f"median {statistics.median(units) * 1e3:.4f}, max {units[-1] * 1e3:.4f} "
        f"(reference {REF_UNIT_S * 1e3:g})"
    )
    log(
        f"wall clock: items_per_s {len(wall) / sum(wall):.6g}, "
        f"latency_p50_ms {statistics.median(wall) * 1e3:.6g}, "
        f"latency_p95_ms {statistics.quantiles(wall, n=20)[18] * 1e3:.6g}, "
        f"setup_s {statistics.median(w for w, _ in setups):.6g}"
    )
    metrics = {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p95_ms": (statistics.quantiles(lat, n=20)[18] * 1e3, "ms"),
        "success_ratio": ((res.attempted - failed) / res.attempted, "ratio"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, res.attempted, failed, failed == 0


def traced(args, wl_name: str) -> tuple[dict, int, int, bool]:
    import spans

    _, module, items = set_up(wl_name, args.seed, args.tiny)
    wl = module.WORKLOADS[wl_name]
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True  # item -1: one traced generation of the inputs
    same_inputs = wl.generate(args.seed, args.tiny) == items
    tracer.active = False
    tracer.uninstall()

    # each item runs untraced and then traced, so both passes see the same
    # items in the same warm state
    min_items = 20 if args.tiny else MIN_ITEMS
    plain, traced_pass = Pass(), Pass()
    plain.calibrate(force=True)
    while (
        plain.busy_s < args.seconds / 2
        or plain.attempted < min_items
        or plain.attempted % wl.round_size
    ):
        run_item(wl, items, plain, check=True)
        plain.calibrate()
        tracer.install()
        try:
            run_item(wl, items, traced_pass, check=False, tracer=tracer)
        finally:
            tracer.uninstall()
    # a traced item fails when its output differs from the checked untraced run
    failed = plain.hashes.count(None) + sum(
        h != ref for h, ref in zip(traced_pass.hashes, plain.hashes)
    )
    log(f"{plain.attempted} items, untraced then traced; output digests:")
    log(f"  untraced {plain.full.hexdigest()}")
    log(f"  traced   {traced_pass.full.hexdigest()}")
    cli_s: list[float] = []
    cli_ok = cli_launches(wl, items, 3 if args.tiny else CLI_LAUNCHES, cli_s)
    log(f"cli launches ms: {sorted(round(t * 1e3, 1) for t in cli_s)}")
    micro, micro_ok = micro_baselines(module)

    BENCH.joinpath("out").mkdir(exist_ok=True)
    trace_file = BENCH / "out" / f"trace-{wl_name}-seed{args.seed}.tsv"
    tracer.write(trace_file)
    log(f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")

    metrics = tracer.metrics(traced_pass.attempted)
    metrics["tracing_overhead"] = (traced_pass.busy_s / plain.busy_s, "ratio")
    # the machine's speed during the run, against REF_UNIT_S of the end-to-end scaling
    metrics["machine.calib_unit_ms"] = (statistics.median(plain.units_s) * 1e3, "ms")
    # a per-layer figure: on this shared machine the median cold start moves
    # by more than a tenth between runs, too much for an end-to-end bound
    metrics["cli.cold_start_ms"] = (statistics.median(cli_s) * 1e3, "ms")
    metrics.update(micro)
    ok = same_inputs and cli_ok and micro_ok and failed == 0
    return metrics, plain.attempted + traced_pass.attempted, failed, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("decide_sweep", "ideal_algebra", "poly_colength")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale: tiny inputs, few repeats")
    args = parser.parse_args(argv)

    if not (SRC / "icmod" / "__init__.py").is_file():
        raise SystemExit(f"bench: no icmod sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    log(
        f"workload {args.workload}, seed {args.seed}, python {sys.version.split()[0]}, "
        f"nproc {len(os.sched_getaffinity(0))}, trace {args.trace}"
    )
    mode = traced if args.trace else end_to_end
    metrics, attempted, failed, correct = mode(args, args.workload)
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
