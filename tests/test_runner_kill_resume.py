"""Kill-and-resume determinism, end to end through the CLI.

The acceptance bar for the crash-safe runner: SIGKILL a stress campaign
at an arbitrary trial boundary, resume it, and get a final table
byte-identical to an uninterrupted run with the same seed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cdfg.designs import fourth_order_parallel_iir
from repro.cdfg.io import save
from repro.cli import main

#: Compound faults + jitter keep each trial expensive enough that the
#: campaign spans a few hundred milliseconds — a wide window for the
#: SIGKILL to land at a genuine mid-run trial boundary.
SWEEP = [
    "--rates", "0,0.05,0.1,0.2", "--trials", "10", "--seed", "3",
    "--faults", "delete_edges,drop_nodes", "--jitter",
]


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("kill_resume")
    design = str(tmp_path / "design.json")
    marked = str(tmp_path / "marked.json")
    record = str(tmp_path / "wm.json")
    schedule = str(tmp_path / "sched.json")
    save(fourth_order_parallel_iir(), design)
    assert main([
        "embed", "--design", design, "--author", "Alice Inc.",
        "--out", marked, "--record", record, "--k", "3", "--tau", "4",
    ]) == 0
    assert main(["schedule", "--design", marked, "--out", schedule]) == 0
    return marked, record, schedule


def stress_args(marked, record, schedule, run_dir):
    return [
        "stress", "--design", marked, "--record", record,
        "--schedule", schedule, "--run-dir", str(run_dir), *SWEEP,
    ]


def test_sigkill_then_resume_reproduces_uninterrupted_table(
    cli_artifacts, tmp_path
):
    marked, record, schedule = cli_artifacts

    # Reference: an uninterrupted crash-safe run.
    reference_dir = tmp_path / "reference"
    assert main(stress_args(marked, record, schedule, reference_dir)) == 0

    # Victim: the same campaign as a subprocess, SIGKILLed once its
    # journal shows progress (an arbitrary trial boundary).
    victim_dir = tmp_path / "victim"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli",
         *stress_args(marked, record, schedule, victim_dir)],
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
            pytest.fail("victim campaign never made journal progress")
    finally:
        # Reap whatever of the group is left (workers outlive a parent
        # that finished or was killed alone).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=60)

    # Resume from the run directory alone (no sweep flags needed) and
    # compare the checkpointed tables byte for byte.
    assert main(["stress", "--resume", str(victim_dir)]) == 0
    assert (victim_dir / "table.txt").read_bytes() == (
        reference_dir / "table.txt"
    ).read_bytes()


def test_run_dir_table_matches_plain_in_process_sweep(
    cli_artifacts, tmp_path, capsys
):
    marked, record, schedule = cli_artifacts
    plain = [
        "stress", "--design", marked, "--record", record,
        "--schedule", schedule, "--rates", "0,0.1", "--trials", "2",
    ]
    assert main(plain) == 0
    plain_out = capsys.readouterr().out
    assert main(plain + ["--run-dir", str(tmp_path / "run")]) == 0
    runner_out = capsys.readouterr().out
    # Identical table; the runner adds only the accounting line.
    assert plain_out.strip() in runner_out
    assert "accounting:" in runner_out
