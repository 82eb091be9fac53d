"""Tests of the benchmark itself: its independent counters, its names and
its tracer.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import re
import shutil
import subprocess
import sys
from math import comb

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def test_partition_counts_match_known_values():
    p = run.partition_counts(64)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[40] == 37338
    assert p[38] == 26015
    assert p[44] == 75175
    assert p[64] == 1741630


def test_group_counts_match_known_values():
    g = run.group_counts(10**5)
    assert g[:17] == [0, 1, 1, 1, 2, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 5]
    assert sum(g) == 226610
    assert sum(g[: 20000 + 1]) == 44766
    assert sum(g[: 50000 + 1]) == 112787
    assert sum(g[: 256 + 1]) == 516
    assert sum(comb(x, 2) for x in g[: 256 + 1]) == 911
    assert sum(comb(x, 2) for x in g[: 384 + 1]) == 1357


def test_theorem_c_check_accepts_truth_and_rejects_a_swap():
    rows = [
        {"partition": [1, 1, 1], "exponent": "7"},
        {"partition": [2, 1], "exponent": "11"},
        {"partition": [3], "exponent": "17"},
    ]
    doc = {"p": "2", "n": "3", "rows": rows, "violations": []}
    assert run.check_theorem_c(doc, 2, 3) == []
    rows[1], rows[2] = rows[2], rows[1]
    assert run.check_theorem_c(doc, 2, 3)


def test_names_follow_the_contract():
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _child(mode, *argv):
    got = subprocess.run(
        [sys.executable, run.CHILD, mode, *argv], capture_output=True, text=True, timeout=120
    )
    assert got.returncode == 0, got.stderr
    return got.stdout, json.loads(got.stderr.splitlines()[-1])


def test_trace_wraps_callers_bindings():
    # verify calls psi_all and symmetric calls order_spectrum through names
    # they imported; wrapping only the definitions would count zero calls
    out, report = _child("trace", "verify", "conjecture-f", "--max-order", "8", "--json")
    assert json.loads(out)["pairs_checked"] == str(sum(comb(g, 2) for g in run.group_counts(8)))
    spans = report["spans"]
    groups = sum(run.group_counts(8))
    assert spans["symmetric.psi_all"]["calls"] == groups
    assert spans["groups.order_spectrum"]["calls"] == groups
    assert spans["groups.enumerate_abelian_groups"]["calls"] == 8
    assert spans["verify.check"]["calls"] == 8
    assert spans["cli.main"]["self_s"] >= 0


def test_trace_reads_the_real_caches():
    _, report = _child("trace", "verify", "theorem-c", "--prime", "2", "--n", "6", "--json")
    assert report["spans"]["psi.psi_prime_exponent"]["calls"] == 11
    assert report["caches"]["psi.psi_prime_exponent"] == [0, 11]
    assert report["spans"]["partitions.partitions_of"]["items"] == 11


def test_setup_probe_times_the_reference_kernel():
    _, report = _child("setup")
    assert report["ref_s"] > 0
    assert "wall_s" not in report


def test_end_to_end_scales_each_round_by_its_reference_time():
    probe = run.Invocation("setup", None, round=0, setup_s=0.2, ref_s=2 * run.REFERENCE_S)
    sweep = run.Invocation(
        "plain", "theorem-c-deep", round=0, setup_s=0.1,
        report={"wall_s": 3.0, "cpu_s": 2.0, "peak_rss_mb": 50.0},
    )
    unpaired = run.Invocation(
        "plain", "theorem-c-deep", round=1, setup_s=0.1,
        report={"wall_s": 9.0, "cpu_s": 9.0, "peak_rss_mb": 9.0},
    )
    samples = run.end_to_end([probe, sweep, unpaired], "theorem-c-deep")
    assert samples["setup_s"] == [0.1, 0.05]
    assert samples["wall_s"] == [1.5]
    assert samples["cpu_s"] == [1.0]
    assert samples["units_per_s"] == [run.partition_counts(run.THEOREM_C_N)[run.THEOREM_C_N] / 1.5]
    assert samples["peak_rss_mb"] == [50.0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-c-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_schedule_runs_the_workload_and_the_fanout_pair_when_traced(name):
    plain = {w for kind, w in run.schedule(name, True) if kind == "plain"}
    assert plain == {name, *run.FANOUT_PAIR}
    assert ("trace", name) in run.schedule(name, True)
    assert ("plain", name) in run.schedule(name, False)
