"""Self-tests of the benchmark: layer bypasses, wrapper hygiene, the CLI oracle.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import layers
import run
import tracer
import workloads

ROOT = os.path.dirname(run.BENCH_DIR)


def traced_round(name, tmp_path, seed=5):
    wl = workloads.WORKLOADS[name]
    ctx = wl.prepare(str(tmp_path), seed)
    tr = tracer.Tracer()
    layers.install(tr, extra_namespaces=[workloads])
    patches = tr.patched()
    try:
        # names bound with ``from ... import`` are wrapped too
        from hermlift import cli, congr, maass

        for fn in (maass.antisymmetrize, cli.build_lift, cli.check_maass, congr.val_at):
            assert hasattr(fn, "__wrapped__")
        window = run.run_window([wl.make_round(ctx, seed, 0)], tr)
    finally:
        tr.restore()
    assert len(patches) > 100
    assert all(vars(owner)[attr] is original for owner, attr, original in patches)
    plain = run.run_window([wl.make_round(ctx, seed, 0)])
    assert window["digest"] == plain["digest"], "tracing changed an output"
    assert window["failures"] == []
    return layers.metrics(tr, sum(window["lat"]), 1.0)


@pytest.mark.parametrize("name", ["inert-maass", "lift-descent", "euler-congruence"])
def test_predicted_bypasses_are_exact(name, tmp_path):
    m = {k: v for k, (v, _) in traced_round(name, tmp_path).items()}
    assert {k for k in m if k.startswith("cli.") and m[k] != 0} == set()
    if name == "inert-maass":
        assert m["elliptic.extend_coeffs.calls"] == 0
        assert m["hecke.inert.points"] > 0 and m["maass.check_maass.points"] > 0
    elif name == "euler-congruence":
        assert m["hecke.inert.points"] == 0 and m["elliptic.extend_coeffs.calls"] == 0
        assert m["ring.val_at.calls"] > 0 and m["lfun.verify_product134.calls"] > 0
    else:
        assert m["elliptic.extend_coeffs.calls"] > 0 and m["hecke.split.coeffs"] > 0
    assert m["ring.elem_ops"] > 0


def test_restore_returns_every_original():
    from hermlift import hecke, ring

    tr = tracer.Tracer()
    before = (hecke.act_inert_T0, vars(ring.HeckeElem)["__radd__"], vars(hecke.DescendedOp)["apply_to_qexp"])
    layers.install(tr)
    assert hecke.act_inert_T0 is not before[0]
    tr.restore()
    after = (hecke.act_inert_T0, vars(ring.HeckeElem)["__radd__"], vars(hecke.DescendedOp)["apply_to_qexp"])
    assert all(a is b for a, b in zip(after, before))


def pipeline(tmp_path, **kwargs):
    runner = workloads.CliRunner(ROOT)
    return workloads.Pipeline(runner, str(tmp_path / "round"), seed=3, r=1, **kwargs)


def test_cli_checker_counts_one_altered_coefficient(tmp_path):
    p = pipeline(tmp_path, bound_det=200)
    lift = p.ops()[0]

    def altered():
        ok, out = lift.run()
        lines = open(p.path("lift.tbl")).read().splitlines()
        i = max(j for j, line in enumerate(lines) if line.startswith("point"))
        parts = lines[i].split()
        parts[5] = str(int(parts[5]) + 1)
        lines[i] = " ".join(parts)
        with open(p.path("lift.tbl"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return ok, out

    assert run.run_window([[lift]])["failures"] == []
    failures = run.run_window([[replace(lift, run=altered)]])["failures"]
    assert [kind for _, kind, _ in failures] == ["mismatch"]


def test_split_only_pipeline_counts_no_failure(tmp_path):
    # at diag 4 every determinant up to 204 is reached by a primitive point,
    # so a table with bound_det 200 determines what T1@2 needs
    p = pipeline(tmp_path, bound_det=200, hecke_ops=("T1@2",))
    window = run.run_window([p.ops()])
    assert window["ops"] == 7 and window["failures"] == []


def test_benchmark_pipeline_shows_only_the_range_defect(tmp_path):
    p = pipeline(tmp_path)
    failures = run.run_window([p.ops()])["failures"]
    assert [(label, kind) for label, kind, _ in failures] == [
        ("hecke", "range-defect"),
        ("descend", "range-defect"),
    ]


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (89.0, 90.0)
    assert run.tail(xs[:5]) == (0.0, 20.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "verified_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb",
    }
    with open(os.path.join(run.BENCH_DIR, "workloads.json")) as fh:
        described = json.load(fh)
    assert list(described) == list(workloads.WORKLOADS)
    names = {m for m, _ in layers.PER_LAYER}
    for name, info in described.items():
        assert info["unit"] == workloads.WORKLOADS[name].unit
        for metric in list(info["stresses"]) + info["bypasses"]:
            assert metric in names, metric


def test_same_seed_gives_the_same_digest():
    # the second run also compares its digest with the one the first recorded
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", "euler-congruence",
           "--seed", "77", "--seconds", "1"]
    digests = []
    for _ in range(2):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert json.loads(lines[-1])["correct"] is True
        digests += [line.split()[-1] for line in lines if line.startswith("digest sha256 ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_without_the_library(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inert-maass", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
