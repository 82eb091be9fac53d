"""Smoke tests for the scripts in ``scripts/``: each runs in a subprocess
against the package under ``src``, so a name the scripts import cannot
leave the package without a test failing.  The benchmark's child script,
which looks package names up by string, gets the same guard and one
small run in each of its timed modes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_run_verification_small_bounds_all_pass():
    result = run_script(
        "run_verification.py", "--max-n", "6", "--injectivity-order", "500",
        "--collision-order", "60", "--conjecture-order", "24", "--brute-order", "60",
    )
    assert result.returncode == 0, result.stderr
    verdicts = [line for line in result.stdout.splitlines() if line.startswith("[")]
    # four primes, then injectivity, collisions, brute oracle, conjecture F
    assert len(verdicts) == 8
    assert all(line.startswith("[PASS] ") for line in verdicts)
    assert "FAIL" not in result.stdout


def test_collision_census_finds_the_order_36_48_pair():
    result = run_script("collision_census.py", "60")
    assert result.returncode == 0, result.stderr
    assert "colliding pairs: 1\n" in result.stdout
    assert "smallest pair: Z4xZ3^2 / Z2^4xZ3" in result.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_verification.py", ["--max-n", "0"]),
        ("run_verification.py", ["--injectivity-order", "0"]),
        ("run_verification.py", ["--collision-order", "0"]),
        ("run_verification.py", ["--conjecture-order", "0"]),
        ("run_verification.py", ["--brute-order", "0"]),
        ("run_verification.py", ["--jobs", "0"]),
        ("collision_census.py", ["0"]),
    ],
    ids=["max-n", "injectivity-order", "collision-order", "conjecture-order",
         "brute-order", "jobs", "census-max-order"],
)
def test_scripts_refuse_a_bound_below_one(script, args):
    # a bound of 0 would print PASS having checked nothing, or end in a
    # DomainError traceback, so argparse refuses it before any work
    result = run_script(script, *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ")
    assert "must be >= 1, got 0" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "script, args, cap",
    [
        ("run_verification.py", ["--max-n"], 64),
        ("run_verification.py", ["--injectivity-order"], 10**14),
        ("run_verification.py", ["--collision-order"], 10**6),
        ("run_verification.py", ["--conjecture-order"], 4096),
        ("run_verification.py", ["--brute-order"], 10**5),
        ("collision_census.py", [], 10**6),
    ],
    ids=["max-n", "injectivity-order", "collision-order", "conjecture-order",
         "brute-order", "census-max-order"],
)
def test_scripts_refuse_a_bound_past_its_cap(script, args, cap):
    # the sweep would refuse it with a SizeLimitError traceback, after
    # every section before it ran, so argparse refuses it before any work
    result = run_script(script, *args, str(cap + 1))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ")
    assert f"must be <= {cap}, got {cap + 1}" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("value, reason", [("4", "4 is not a prime"), ("1", "1 is not a prime")])
def test_run_verification_refuses_a_non_prime(value, reason):
    # check_theorem_c would end in a DomainError traceback on it
    result = run_script("run_verification.py", "--primes", "2", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ")
    assert f"argument --primes: {reason}" in result.stderr
    assert "Traceback" not in result.stderr


def test_benchmark_child_names_resolve():
    # perfbench/child.py resolves its spans and caches by name in every
    # run; loading it runs no benchmark and changes no file
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for _, module, attr, _ in child.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, attr in child.CACHES:
        assert callable(getattr(importlib.import_module(module), attr).cache_info), (module, attr)


@pytest.mark.parametrize("mode", ["plain", "trace"])
def test_benchmark_child_runs_a_small_census(mode):
    # one real run through the child's spans and cache counters, such as
    # psi_prime_exponent.cache_info, which reads its kernel's cache
    path = ROOT / "perfbench" / "child.py"
    result = subprocess.run(
        [sys.executable, str(path), mode, "verify", "collisions", "--max-order", "20", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stderr.splitlines()[-1])
    assert report["code"] == 0
    if mode == "trace":
        _, misses = report["caches"]["psi.psi_prime_exponent"]
        assert misses > 0
