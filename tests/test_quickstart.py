"""The README quick start and its failure paths, each command a fresh ``python -m sleddyn.cli``.

README.md holds the only copy of the quick start: each ``cat > FILE <<'EOF'`` body of its "Quick
start" section is written to the test directory, then each ``sleddyn`` line of its "Simulate, fit,
evaluate" block runs. Its icehouse block does not run, because README writes no glide or point
file. The seeded, one-CPU, holdout and ``--f-z`` runs are this test's own, on README's files.

A command run on one CPU (pinned, as under ``taskset -c 0``) forks nothing, and must write the
bytes of its forked twin. Each failing command must exit in its class with one stderr line that
starts with the fault, print nothing, leave the directory as it was (no output or staging
directory, an existing ``--out-dir`` unchanged) and fail the same way, byte for byte, on one CPU.
An expected message that README quotes word for word is taken from README.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import README, readme_message

import sleddyn

ENV = {**os.environ, "PYTHONPATH": str(Path(sleddyn.__file__).parents[1])}
QUICK_START = README.split("\n## Quick start", 1)[1].split("\n## ", 1)[0]
#: the body of each here-document in the quick start, by the file it writes
INPUTS = dict(re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", QUICK_START, re.M | re.S))


def readme_commands() -> list[str]:
    """The command lines of the quick start's "Simulate, fit, evaluate" block, without ``sleddyn``."""
    block = QUICK_START.split("Simulate, fit, evaluate:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines and all(line.startswith("sleddyn ") for line in lines), lines
    return [line.removeprefix("sleddyn ") for line in lines]


PARAMS = "--front-params fits/lateral_front.kv --rear-params fits/lateral_rear.kv"
THREE_RUNS = "run1/telemetry.csv seed_a/telemetry.csv run_hold/telemetry.csv"

# (one CPU, command line), run after README's commands, on its files and outputs
SUCCESS = [
    # at 200 Hz both exported tables are formatted on two processes, or in-process on one CPU
    (False, "--config config.ini --seed 7 --out-dir seed_a simulate seeded.json"),
    (False, "--config config.ini --seed 7 --out-dir seed_b simulate seeded.json"),
    (True, "--config config.ini --seed 7 --out-dir seed_c simulate seeded.json"),
    (False, "--out-dir loads friction-table --lateral-params fits/lateral_front.kv --f-z 2000.25 2000.75"),
    # two runs are prepared on two processes; on one CPU the fit also keeps OpenBLAS's own thread count
    (False, "--config config.ini --out-dir fits2 fit run1/telemetry.csv seed_a/telemetry.csv"),
    (True, "--config config.ini --out-dir fits3 fit run1/telemetry.csv seed_a/telemetry.csv"),
    # the HOLD run is held out and validated against; the two runners are fitted on two processes
    (False, "--config config.ini --out-dir run_hold simulate holdout.json"),
    (False, f"--config config.ini --out-dir fits4 fit --holdout HOLD {THREE_RUNS}"),
    (True, f"--config config.ini --out-dir fits5 fit --holdout HOLD {THREE_RUNS}"),
]

MISSING = readme_message("missing/telemetry.csv")
SHORT = {"track": {"s": [0, 0.01], "kappa": [0.07, 0.07], "inv_r_y": [0, 0], "n": [1, 1]}, "initial": {"v0": 25.0},
         "controls": {"t": [0, 1], "delta": [0, 0], "gamma": [0, 0]}, "sim": {"dt": 0.002, "t_max": 1.0}}
GLIDE = b"# m = 100\n# p_air = 94700\n# temperature = 275.15\n# cx_ax = 0\n# direction = up\n" \
        b"t,v\n0,2\ninf,1.9\n0.2,1.8\n"

# (id, exit code, command line, files it reads besides the quick start's, start of its stderr)
FAILURES = [
    ("alpha-max-nan", 1, "--out-dir nan_table friction-table --lateral-params fits/lateral_front.kv "
     "--alpha-max-deg nan", {}, "error: --alpha-max-deg must be positive and finite, got nan\n"),
    ("eval-into-existing-report", 2,
     f"--config config.ini --out-dir report eval run1/telemetry.csv missing/telemetry.csv {PARAMS}", {}, MISSING),
    # the first bad file in input order, though the files after it are prepared on another process
    ("eval-first-file-missing", 2,
     f"--config config.ini --out-dir report3 eval missing/telemetry.csv {THREE_RUNS} {PARAMS}", {}, MISSING),
    ("bob-not-utf8", 2, "--config bad.ini --out-dir bad simulate scenario.json",
     {"bad.kv": b"m = 390\xff\n", "bad.ini": b"[paths]\nbob_params = bad.kv\n"}, "data error: bad.kv: not UTF-8"),
    ("argv-not-number", 1, "--out-dir x friction-table --alpha-max-deg abc", {},
     "error: sleddyn friction-table: argument --alpha-max-deg: invalid float value: 'abc'\n"),
    ("config-misspelled-key", 1, "--config typo.ini --out-dir typo simulate scenario.json",
     {"typo.ini": b"[paths]\nbob_params = bob.kv\n[processing]\ncutof_hz = 5\n"},
     "error: typo.ini: [processing] cutof_hz is not supported\n"),
    # a 1 cm track ends after one step, which leaves one telemetry sample
    ("scenario-one-sample", 1, "--config config.ini --out-dir short simulate short.json",
     {"short.json": json.dumps(SHORT).encode()}, "error: short.json: the run stopped by track_end at t = 0 s"),
    # a real process would show numpy's warnings here as more lines
    ("glide-non-finite", 2, "--out-dir glide icehouse glide.csv", {"glide.csv": GLIDE},
     "data error: glide.csv: non-finite value at line 8\n"),
]


def sleddyn_cli(cwd: Path, argv: str, one_cpu: bool = False) -> subprocess.CompletedProcess:
    """Run ``argv`` as a fresh ``sleddyn`` process in ``cwd``; with ``one_cpu``, pinned to one CPU."""
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    return subprocess.run([sys.executable, "-m", "sleddyn.cli", *argv.split()], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=300, preexec_fn=pin)


def tree(root: Path) -> dict:
    """Every path below ``root``, relative to it, with its bytes (None for a directory)."""
    return {path.relative_to(root): path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory) -> Path:
    """A directory with the quick start's inputs and the outputs of README's and every ``SUCCESS`` command."""
    root = tmp_path_factory.mktemp("quickstart")
    scenario = json.loads(INPUTS["scenario.json"])
    inputs = {**INPUTS, "seeded.json": json.dumps({**scenario, "meta": {**scenario["meta"], "rate_hz": 200.0}}),
              "holdout.json": json.dumps({**scenario, "meta": {**scenario["meta"], "track": "HOLD"}})}
    for name, text in inputs.items():
        (root / name).write_text(text)
    for one_cpu, argv in [(False, argv) for argv in readme_commands()] + SUCCESS:
        proc = sleddyn_cli(root, argv, one_cpu)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    assert not list(root.rglob(".sleddyn-*"))
    return root


PAIRS = {"seed": ("seed_a", "seed_b"), "seed-one-cpu": ("seed_a", "seed_c"),
         "fit-one-cpu": ("fits2", "fits3"), "holdout-fit-one-cpu": ("fits4", "fits5")}


@pytest.mark.parametrize("a, b", PAIRS.values(), ids=PAIRS)
def test_same_bytes(quickstart, a, b):
    assert tree(quickstart / a) == tree(quickstart / b)


def test_outputs_of_each_kind(quickstart):
    assert (quickstart / "fits4" / "validation_rmse.json").is_file()
    curves = (quickstart / "loads" / "lateral_curves.csv").read_text()
    assert "f_y_at_2000.25N," in curves and "f_y_at_2000.75N," in curves


@pytest.mark.parametrize("code, argv, files, message", [case[1:] for case in FAILURES],
                         ids=[case[0] for case in FAILURES])
def test_failing_command_changes_nothing(quickstart, code, argv, files, message):
    for name, content in files.items():
        (quickstart / name).write_bytes(content)
    before = tree(quickstart)
    forked = sleddyn_cli(quickstart, argv)
    assert (forked.returncode, forked.stdout, forked.stderr.count("\n")) == (code, "", 1), forked.stderr
    assert forked.stderr.startswith(message)
    one_cpu = sleddyn_cli(quickstart, argv, one_cpu=True)
    assert (one_cpu.returncode, one_cpu.stdout, one_cpu.stderr) == (code, "", forked.stderr)
    assert tree(quickstart) == before
