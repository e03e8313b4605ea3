"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import synth  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(shared=2, stream_normal=3, stream_long=1, score_utts=2, train_utts=4,
                       dev_utts=2, epochs=2, setup_repeats=2)


def benchmark_names(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_generator_is_deterministic_per_seed():
    vocab = synth.default_vocab()
    a = synth.corpus(5, 0, "u", 3, 1, vocab) + synth.shared_subset(5, 2, vocab)
    b = synth.corpus(5, 0, "u", 3, 1, vocab) + synth.shared_subset(5, 2, vocab)
    c = synth.corpus(6, 0, "u", 3, 1, vocab)
    assert [(u.wav, u.alignment) for u in a] == [(u.wav, u.alignment) for u in b]
    assert [u.wav for u in a[:4]] != [u.wav for u in c]


def test_generator_keeps_reported_durations_in_range():
    vocab = synth.default_vocab()
    for utt in synth.corpus(3, 0, "u", 6, 2, vocab):
        for unit in utt.alignment.syllables:
            lo, hi = synth.DEFAULT_DUR_RANGES[unit.tone]
            assert lo - 1e-9 <= unit.dur_s <= hi + 1e-9
        assert utt.alignment.syllables[-1].end_s < utt.duration_s


def test_tail_is_highest_percentile_with_ten_beyond():
    times = list(range(1, 41))
    assert workloads.tail(times) == (30, 75.0)
    assert workloads.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_checks_and_prints_only_listed_metrics(tmp_path, name, trace):
    bench = workloads.CLASSES[name](7, 0.2, trace, str(tmp_path), TINY)
    out = bench.run()
    assert out.attempted >= 1 and out.failed == 0, out.notes
    section = "per_layer" if trace else "end_to_end"
    assert set(out.metrics) == benchmark_names(section)
    if name != "stream" and trace:
        assert out.metrics["audio_dsp.calls"][0] == 0


def test_command_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == benchmark_names("end_to_end")


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
