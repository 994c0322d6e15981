"""Quick tests of the benchmark itself: tiny end-to-end runs, and checkers
that must reject a wrong verdict or value.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- tiny end-to-end runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_untraced_round_passes_its_checks(name):
    runner, items = run.set_up(name, 0)
    tally, op_seconds, throughputs, peak_rss_mb = run.run_untraced(runner, items[:3], 0)
    runner.final_checks()
    assert (tally.attempted, tally.failed, tally.check_failures) == (3, 0, 0)
    assert len(op_seconds) == 3 and len(throughputs) == 1 and throughputs[0] > 0 and peak_rss_mb > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_round_reports_every_per_layer_metric(name):
    runner, items = run.set_up(name, 0)
    tally, metrics = run.run_traced(runner, items[:2], 0)
    assert (tally.attempted, tally.failed, tally.check_failures) == (4, 0, 0)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert (run.OUT_DIR / f"trace-{name}-seed0.json").exists()


def test_tracer_restores_the_program_and_counts_term_products():
    from transurf.poly import Poly2
    import transurf.cli

    original_mul, original_main = Poly2.__mul__, transurf.cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert Poly2.__mul__ is not original_mul and transurf.cli.main is not original_main
        tracer.begin_op(1)
        Poly2({(1, 0): 1, (0, 0): 2}) * Poly2({(0, 1): 3, (0, 0): 1, (0, 2): 1})
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert Poly2.__mul__ is original_mul and transurf.cli.main is original_main
    assert tracer.calls["poly.mul"] == 1 and tracer.counts["poly.term_products"] == 6
    assert tracer.spans[0][3] == "poly.mul" and tracer.spans[0][2] == 1


def test_command_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify_corpus", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.CLASSIFY_SCHEDULE)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program_sources():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cross_check", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0 and out.stdout == ""


def test_same_seed_same_inputs():
    for name in run.WORKLOAD_NAMES:
        make = workloads.WORKLOADS[name].make_round
        a, b = make(7, 2), make(7, 2)
        if name == "numeric_grid":  # items hold closures, so compare what the program sees
            a, b = ([(i.f, i.g, i.rect) for i in r] for r in (a, b))
        assert a == b


# -- checkers reject wrong outputs --------------------------------------------------------


def _classify_case(position: int):
    item = workloads.classify_round(0, 0)[position]
    return item, workloads.classify_op(item)


def test_classify_check_rejects_a_flipped_kind():
    item, out = _classify_case(workloads.CLASSIFY_SCHEDULE.index((2, 3, False)))
    checks.check_classify(item, out)
    out.stdout = out.stdout.replace("classification: not_weingarten", "classification: cylinder_or_plane")
    with pytest.raises(checks.CheckError):
        checks.check_classify(item, out)


def test_classify_check_rejects_wrong_paraboloid_values():
    item, out = _classify_case(len(workloads.CLASSIFY_SCHEDULE) - 1)
    checks.check_classify(item, out)
    kind, (a, u0, v0) = checks.expected_classification(item)
    wrong_a = dataclasses.replace(out, stdout=out.stdout.replace(f"a = {a},", f"a = {a + 1},"))
    with pytest.raises(checks.CheckError):
        checks.check_classify(item, wrong_a)
    residual = dataclasses.replace(out, stdout=out.stdout.replace("(1, 1): 0 (exact)", "(1, 1): 1/729 (exact)"))
    with pytest.raises(checks.CheckError):
        checks.check_classify(item, residual)


def test_classify_check_rejects_a_wrong_second_curvature_verdict():
    item, out = _classify_case(workloads.CLASSIFY_SCHEDULE.index((0, 2, False)))
    flipped = dataclasses.replace(out, kii=dataclasses.replace(out.kii, vanishes=False))
    with pytest.raises(checks.CheckError):
        checks.check_classify(item, flipped)


def _cross_case(position: int):
    item = workloads.cross_round(0, 0)[position]
    return item, workloads.cross_op(item)


def test_cross_checks_reject_a_perturbed_value_or_route():
    item, out = _cross_case(2)
    assert checks.route_relation(item, out) == (Fraction(1, 2), 1)
    checks.check_cross_values(item, out)
    checks.check_sympy_sample(item, out, 0)

    bad_h = dataclasses.replace(out.numeric[0], H=out.numeric[0].H * (1 + 1e-8))
    with pytest.raises(checks.CheckError):
        checks.check_cross_values(item, dataclasses.replace(out, numeric=[bad_h] + out.numeric[1:]))
    with pytest.raises(checks.CheckError):
        checks.check_sympy_sample(item, dataclasses.replace(out, numeric=[bad_h] + out.numeric[1:]), 0)

    from transurf.poly import Poly2

    terms = dict(out.n_odd.terms)
    key = next(iter(terms))
    terms[key] += 1
    with pytest.raises(checks.CheckError):
        checks.route_relation(item, dataclasses.replace(out, n_odd=Poly2(terms)))
    with pytest.raises(checks.CheckError):
        checks.check_sympy_sample(item, dataclasses.replace(out, n_odd=Poly2(terms)), 0)


def test_cross_check_rejects_a_nonzero_condition_on_the_paraboloid():
    item, out = _cross_case(1)
    assert checks.route_relation(item, out) is None
    _, generic = _cross_case(2)
    with pytest.raises(checks.CheckError):
        checks.route_relation(item, dataclasses.replace(out, direct=generic.direct))


def _numeric_case(family: str):
    items = workloads.numeric_round(0, 0)
    item = next(i for i in items if i.family == family)
    path = str(run.OUT_DIR / "mesh-test.obj")
    run.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.numeric_op(item, path)
    with open(path) as fh:
        return item, out, fh.read()


def _check_numeric(item, out, text):
    checks.check_numeric(item, out, text, workloads.WEINGARTEN_N, workloads.SAMPLE_N, workloads.MESH_N)


@pytest.mark.parametrize("family", ["composition", "cmc"])
def test_numeric_check_rejects_a_perturbed_curvature(family):
    item, out, text = _numeric_case(family)
    _check_numeric(item, out, text)
    samples = list(out.samples)
    samples[40] = dataclasses.replace(samples[40], H=samples[40].H * (1 + 1e-4))
    with pytest.raises(checks.CheckError):
        _check_numeric(item, dataclasses.replace(out, samples=samples), text)
    samples = list(out.samples)
    samples[40] = dataclasses.replace(samples[40], K=samples[40].K * (1 + 1e-4) + 1e-5)
    with pytest.raises(checks.CheckError):
        _check_numeric(item, dataclasses.replace(out, samples=samples), text)


def test_numeric_check_rejects_a_dropped_face_or_a_moved_vertex():
    item, out, text = _numeric_case("paraboloid")
    _check_numeric(item, out, text)
    lines = text.splitlines()
    first_face = next(k for k, line in enumerate(lines) if line.startswith("f "))
    with pytest.raises(checks.CheckError):
        checks.check_mesh(item, "\n".join(lines[:first_face] + lines[first_face + 1:]), workloads.MESH_N)
    x, y, z = lines[10].split()[1:]
    moved = lines[:10] + [f"v {x} {y} {float(z) + 1e-6!r}"] + lines[11:]
    with pytest.raises(checks.CheckError):
        checks.check_mesh(item, "\n".join(moved), workloads.MESH_N)


def test_numeric_check_rejects_a_nonzero_second_curvature_on_blair():
    item, out, text = _numeric_case("blair")
    _check_numeric(item, out, text)
    with pytest.raises(checks.CheckError):
        _check_numeric(item, dataclasses.replace(out, oracle=[1e-3] + out.oracle[1:]), text)


def test_numeric_check_rejects_a_failed_weingarten_test_on_scherk():
    item, out, text = _numeric_case("scherk")
    _check_numeric(item, out, text)
    failed = dataclasses.replace(out.weingarten, passed=False)
    with pytest.raises(checks.CheckError):
        _check_numeric(item, dataclasses.replace(out, weingarten=failed), text)
