"""Self-tests of the benchmark at tiny sizes:  python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import expected  # noqa: E402
from workloads import WORKLOADS, make_inputs, write_inputs  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "dna-dense": dict(text_len=2_000, patterns=((8, 4), (64, 3), (512, 2))),
    "wide-alphabet": dict(text_len=3_000, patterns=((8, 3), (64, 3), (512, 2))),
    "fasta-records": dict(records=6, record_len=(40, 120), patterns=((16, 3), (32, 3))),
    "sigma16-long": dict(text_len=3_000, patterns=((8, 3), (64, 3), (256, 2))),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], name=f"tiny-{name}", **TINY[name])


@pytest.fixture(autouse=True)
def scratch_work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def prime_expected(workload, seed: int, corrupt: bool = False) -> None:
    """Write the expected results the way perfbench/expected.py would."""
    result = expected.derive(workload, make_inputs(workload, seed))
    if corrupt:
        result["patterns"][0] = "0" * 64
        result["tsv_sha256"] = "0" * 64
    path = run.WORK / "expected" / f"{workload.name}-{seed}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(result))


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(name, trace):
    workload = tiny(name)
    prime_expected(workload, 5)
    result = run.run(workload, 5, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_expected_digest_counts_as_failure(name):
    workload = tiny(name)
    prime_expected(workload, 6, corrupt=True)
    result = run.run(workload, 6, seconds=0.01, trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_files(name, tmp_path):
    from mdmatch import read_fasta
    workload = tiny(name)
    first = write_inputs(make_inputs(workload, 3), tmp_path / "a")
    second = write_inputs(make_inputs(workload, 3), tmp_path / "b")
    other = write_inputs(make_inputs(workload, 4), tmp_path / "c")
    for a, b in zip([first[0], *first[1]], [second[0], *second[1]]):
        assert a.read_bytes() == b.read_bytes()
    assert first[0].read_bytes() != other[0].read_bytes()
    pattern_lines = b"".join(p.read_bytes() for p in first[1]).decode("ascii").split()
    assert sorted(pattern_lines) == sorted(make_inputs(workload, 3).patterns)
    inputs = make_inputs(workload, 3)
    with open(first[0], "rb") as fh:
        assert [(r.id, r.data) for r in read_fasta(fh)] == list(inputs.records)


def test_patterns_follow_the_workload_mix():
    workload = WORKLOADS["dna-dense"]
    inputs = make_inputs(workload, 1)
    lengths = sorted(len(p) for p in inputs.patterns)
    assert lengths == sorted(m for m, count in workload.patterns for _ in range(count))
    text = inputs.records[0][1]
    assert all(p in text for p in inputs.patterns)


def test_expected_command_writes_the_cache_format(tmp_path):
    out = tmp_path / "e.json"
    subprocess.run([sys.executable, str(run.HERE / "expected.py"), "--workload",
                    "dna-dense", "--seed", "2", "--out", str(out)], check=True, timeout=120)
    result = json.loads(out.read_text())
    assert result["inputs_sha256"] == make_inputs(WORKLOADS["dna-dense"], 2).digest()
    assert len(result["patterns"]) == len(make_inputs(WORKLOADS["dna-dense"], 2).patterns)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "dna-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_workloads_are_defined():
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
