"""Arena kill-and-resume determinism, end to end through the CLI.

The acceptance bar mirrors the stress runner's
(``test_runner_kill_resume.py``): SIGKILL an arena sweep at an
arbitrary trial boundary, ``localmark arena resume`` it, and get a
``records.json`` — the canonical wall-clock-stripped artifact — byte
for byte identical to an uninterrupted run of the same manifest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

#: A sweep wide enough (32 trials, adaptive attacks included) that the
#: SIGKILL window spans many genuine trial boundaries.
SWEEP = [
    "--designs", "Linear GE Cntrlr", "--k", "8",
    "--attacks", "reorder,rename,edge_rewire,adaptive_cut",
    "--strengths", "0.5,1.0", "--fault-rates", "0", "--trials", "4",
    "--seed", "3", "--author", "Arena Lab", "--jobs", "2",
]


def arena_args(run_dir):
    return ["arena", "run", "--run-dir", str(run_dir), *SWEEP]


def test_sigkill_then_resume_reproduces_uninterrupted_records(tmp_path):
    # Reference: an uninterrupted run.
    reference_dir = tmp_path / "reference"
    assert main(arena_args(reference_dir)) == 0

    # Victim: the same sweep as a subprocess, SIGKILLed once its
    # journal shows progress (an arbitrary trial boundary).
    victim_dir = tmp_path / "victim"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *arena_args(victim_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # Own process group, so the kill reaches its pool workers too.
        start_new_session=True,
    )
    journal = victim_dir / "journal.jsonl"
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before we could kill it: still valid
            if journal.exists() and journal.read_bytes().count(b"\n") >= 2:
                os.killpg(process.pid, signal.SIGKILL)
                break
            time.sleep(0.01)
        else:
            pytest.fail("victim arena sweep never made journal progress")
    finally:
        # Reap whatever of the group is left (workers outlive a parent
        # that finished or was killed alone).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=60)

    # Resume from the run directory alone (the manifest is the
    # checkpoint; no sweep flags needed).
    assert main(["arena", "resume", str(victim_dir)]) == 0
    assert (victim_dir / "records.json").read_bytes() == (
        reference_dir / "records.json"
    ).read_bytes()
    assert (victim_dir / "table.txt").read_bytes() == (
        reference_dir / "table.txt"
    ).read_bytes()

    # Resuming a complete run is idempotent: nothing recomputes, the
    # artifact does not change.
    before = (victim_dir / "records.json").read_bytes()
    assert main(["arena", "resume", str(victim_dir)]) == 0
    assert (victim_dir / "records.json").read_bytes() == before

    # Every planned trial is accounted for exactly once.
    records = json.loads(
        (victim_dir / "records.json").read_text(encoding="utf-8")
    )
    assert [r["index"] for r in records] == list(range(32))
    assert all(r["outcome"] == "completed" for r in records)
    manifest = json.loads(
        (victim_dir / "manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["status"] == "complete"
