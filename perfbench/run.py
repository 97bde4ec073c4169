"""hermlift benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up generates every round's inputs from
(seed, round index) and warms the module caches; the timed window then runs
each round's operations once, timing every operation.  With ``--trace 1``
a second window on fresh rounds runs with the layer wrappers installed and
the per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is one JSON object; a results file with the
environment goes to ``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

from calibration import REF_S, calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(ROOT, ".perfbench")
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail
CAL_EVERY_S = 0.1  # operation time between calibration loops
CAL_NEIGHBOURS = 10  # calibrations whose median scales one latency


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="sizes the number of timed rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it."""
    xs = sorted(latencies)
    i = max(0, len(xs) - TAIL_SAMPLES - 1)
    return xs[i], 100.0 * (i + 1) / len(xs)


def run_window(rounds, tracer=None) -> dict:
    """Run every operation of every round once; only ``op.run`` is timed.

    A calibration loop runs between operations, outside the timing, after
    every CAL_EVERY_S of operation time.  Each latency is also given scaled
    by REF_S over the median of the CAL_NEIGHBOURS calibrations nearest to
    it, which follows the machine's speed and smooths the loop's jitter.
    """
    from workloads import canon

    lat, interval, labels, cals, units, ops, failures = [], [], [], [calibrate()], 0, 0, []
    since = 0.0
    digest = hashlib.sha256()
    while rounds:
        for op in rounds.pop(0):  # drop each round's inputs once it has run
            if tracer is not None:
                tracer.op, tracer.enabled = ops, True
            t0 = time.perf_counter()
            try:
                ok, out = op.run()
                kind = None if ok else "check"
            except Exception:  # an operation that raises is a failed operation
                out, kind = traceback.format_exc(), "raised"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            lat.append(dt)
            interval.append(len(cals) - 1)
            labels.append(op.label)
            units += op.units
            ops += 1
            since += dt
            if since >= CAL_EVERY_S:
                cals.append(calibrate())
                since = 0.0
            if kind is None and op.verify is not None:
                kind = op.verify(out)
            if kind is not None:
                failures.append((op.label, kind, out if kind == "raised" else ""))
            text = canon(op.canonical(out) if op.canonical and kind != "raised" else out)
            digest.update(f"{op.label}\n{text}\n".encode())
    cals.append(calibrate())
    half = CAL_NEIGHBOURS // 2
    factor = [
        REF_S / statistics.median(cals[max(0, j + 1 - half) : j + 1 + half]) for j in range(len(cals) - 1)
    ]
    return {
        "lat": lat,
        "scaled": [dt * factor[j] for dt, j in zip(lat, interval)],
        "labels": labels,
        "speed": REF_S / statistics.median(cals),
        "units": units,
        "ops": ops,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "hermlift"), BENCH_DIR):
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".nf")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_digest(key: str, digest: str) -> str | None:
    """Record the digest of this code and seed; report a differing earlier one."""
    path = os.path.join(STATE_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    earlier = known.setdefault(key, digest)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None if earlier == digest else earlier


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    if not os.path.isdir(os.path.join(ROOT, "src", "hermlift")):
        print(f"error: no hermlift sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # this process and its CLI children share one CPU, the one calibration measures
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not supported here: the work may move between CPUs
    rounds = wl.rounds_for(args.seconds)
    workdir = os.path.join(STATE_DIR, "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, wl, rounds, workdir, import_s, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, rounds, workdir, import_s, env) -> int:
    import workloads

    cals = [calibrate()]
    t0 = time.perf_counter()
    ctx = wl.prepare(workdir, args.seed)
    prepare_s = time.perf_counter() - t0
    windows = 2 if args.trace else 1
    pool, gen_s = [], []
    for r in range(rounds * windows):
        cals.append(calibrate())
        t0 = time.perf_counter()
        pool.append(wl.make_round(ctx, args.seed, r))
        gen_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warm_up(ctx, args.seed)
    warm_s = time.perf_counter() - t0
    cals.append(calibrate())
    # each round's input generation is one repeated set-up step
    setup_raw = import_s + prepare_s + warm_s + rounds * statistics.median(gen_s)
    setup_s = setup_raw * REF_S / statistics.median(cals)

    traced_pool = pool[rounds:]
    del pool[rounds:]
    # keep the collector from rescanning the pre-generated inputs, which a
    # user running one round at a time would not hold
    gc.collect()
    gc.freeze()
    untraced = run_window(pool)
    peak_kb = wl.peak_rss_kb(ctx)
    windows_run = [untraced]
    traced = None
    if args.trace:
        import layers
        import tracer

        tr = tracer.Tracer()
        layers.install(tr, extra_namespaces=[workloads])
        wl.attach_tracer(ctx, tr)
        try:
            traced = run_window(traced_pool, tr)
        finally:
            tr.restore()
            wl.attach_tracer(ctx, None)
        windows_run.append(traced)

    key = f"{wl.name} seed={args.seed} rounds={rounds} code={code_hash()}"
    problems = []
    earlier = check_digest(key, untraced["digest"])
    if earlier is not None:
        problems.append(f"digest {untraced['digest']} differs from {earlier} of an earlier run of this code and seed")
    if traced is not None:
        earlier = check_digest(key + " traced-window", traced["digest"])
        if earlier is not None:
            problems.append("traced-window digest differs from an earlier run of this code and seed")
    attempted = sum(w["ops"] for w in windows_run)
    failures = [f for w in windows_run for f in w["failures"]]
    unexpected = [f for f in failures if f[1] not in workloads.KNOWN_FAILURES]
    for label, kind, detail in unexpected:
        problems.append(f"operation {label!r} failed ({kind}) {detail}".rstrip())
    correct = not problems

    lat, raw = untraced["scaled"], untraced["lat"]
    tail_ms, tail_pct = tail(lat)
    e2e = {
        "verified_per_s": (untraced["units"] / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_ms * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw_e2e = {
        "verified_per_s": untraced["units"] / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_tail_ms": tail(raw)[0] * 1e3,
        "setup_s": setup_raw,
    }
    fail_share = len(untraced["failures"]) / untraced["ops"]
    kinds = {}
    for _, kind, _ in untraced["failures"]:
        kinds[kind] = kinds.get(kind, 0) + 1

    lines = [
        f"workload {wl.name}: seed {args.seed}, {rounds} rounds, {untraced['ops']} operations, "
        f"{untraced['units']} {wl.unit}; machine speed {untraced['speed']:.3f} of reference",
        f"verified_per_s {e2e['verified_per_s'][0]:.6g} 1/s ({wl.unit} per second of operation time; "
        f"raw {raw_e2e['verified_per_s']:.6g})",
        f"op_p50_ms {e2e['op_p50_ms'][0]:.6g} ms (n={len(lat)}; raw {raw_e2e['op_p50_ms']:.6g})",
        f"op_tail_ms {e2e['op_tail_ms'][0]:.6g} ms (p{tail_pct:.1f}, n={len(lat)}; raw {raw_e2e['op_tail_ms']:.6g})",
        f"setup_s {setup_s:.6g} s (raw {setup_raw:.6g}: import {import_s:.3g}, prepare {prepare_s:.3g}, "
        f"warm-up {warm_s:.3g}, {rounds} x median round generation {statistics.median(gen_s):.3g})",
        f"peak_rss_mb {e2e['peak_rss_mb'][0]:.6g} MB",
        f"fail_share {fail_share:.6g} ({len(untraced['failures'])}/{untraced['ops']}; kinds {kinds or 'none'})",
        f"digest sha256 {untraced['digest']}",
    ]
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "environment": env,
        "unit": wl.unit,
        "operation": wl.operation,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_raw": raw_e2e,
        "machine_speed": untraced["speed"],
        "op_tail_percentile": tail_pct,
        "samples": len(lat),
        "fail_share": fail_share,
        "failure_kinds": kinds,
        "failures": [{"op": label, "kind": kind} for label, kind, _ in failures],
        "digest": untraced["digest"],
        "problems": problems,
        "latencies_s": list(zip(untraced["labels"], raw, lat)),
    }
    metrics = e2e
    if traced is not None:
        overhead = e2e["verified_per_s"][0] / (traced["units"] / sum(traced["scaled"]))
        metrics = layers.metrics(tr, sum(traced["lat"]), overhead, traced["speed"])
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["traced_digest"] = traced["digest"]
        trace_path = os.path.join(STATE_DIR, "traces", f"{wl.name}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        tr.dump(trace_path)
        lines.append(f"trace: {len(tr.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
        lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    res_path = os.path.join(STATE_DIR, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(res_path, "w") as fh:
        json.dump(result, fh, indent=1)
    lines.append(f"results written to {os.path.relpath(res_path, ROOT)}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
