"""Run, hash, compare: the one check of the pinned output digests.

`digests.json` is the registry of every pinned output.  Each key is a
command line of `flagample` (its arguments after `python -m flagample`),
and each entry holds:

- `sha256`: the SHA-256 of the command's standard output;
- `recorded`: the commit whose code printed those bytes when they were
  pinned;
- `runs`: per group, the variants that must print the same bytes.  A
  variant's words are appended to the key, except single-dash words
  such as `-O`, which go to the Python interpreter; the empty variant
  is the key as it stands;
- `note` (optional): why the entry is expected to move.

The group `tier1` is run in process by `tests/test_golden.py`; every
other group is named by a step of the CI workflow, which runs

    python tests/golden/check.py GROUP [GROUP ...]

from the repository root.  Each run is a child process whose stdout is
hashed in 64 KiB chunks as it arrives.  The checker prints each run's
wall time, the peak RSS of the largest process in its tree (the CLI or
one of its workers) and its digest, and exits nonzero naming every run
that printed other bytes or exited nonzero.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

REGISTRY = Path(__file__).with_name("digests.json")
SRC = Path(__file__).resolve().parents[2] / "src"
CHUNK = 1 << 16


class Run(NamedTuple):
    """One command line whose stdout must hash to `sha256`."""

    name: str  # the command line, as messages print it
    python: tuple[str, ...]  # interpreter options
    argv: tuple[str, ...]  # CLI arguments
    sha256: str


def load(path: Path = REGISTRY) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def runs(registry: dict, group: str) -> list[Run]:
    """The runs of `group`: every entry's first variant, then every
    second one, and so on, in registry order."""
    found = []
    for key, entry in registry.items():
        for i, variant in enumerate(entry["runs"].get(group, ())):
            words = variant.split()
            python = tuple(w for w in words if w[0] == "-" and w[:2] != "--")
            argv = (*key.split(), *(w for w in words if w not in python))
            name = " ".join(("python", *python, *argv) if python else argv)
            found.append((i, Run(name, python, argv, entry["sha256"])))
    return [run for _, run in sorted(found, key=lambda pair: pair[0])]


def run_subprocess(run: Run, sink) -> tuple[int, float]:
    """Run the CLI in a child process, feeding its stdout to `sink` in
    chunks; returns the exit code and the peak RSS in MB of the largest
    process in its tree, which `os.wait4` reports for one child."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, *run.python, "-m", "flagample", *run.argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    for chunk in iter(lambda: proc.stdout.read(CHUNK), b""):
        sink(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def run_in_process(run: Run, sink) -> tuple[int, None]:
    """Run the CLI through `flagample.cli.main` in this process; there
    is no separate peak RSS to report."""
    if run.python:
        raise ValueError(f"{run.name}: interpreter options need a child process")
    from flagample.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(run.argv))
    sink(out.getvalue().encode())
    return code, None


def check(runs: list[Run], execute=run_subprocess, out=None) -> str | None:
    """Run each command, hash its stdout and compare the digest with
    the pinned one, printing to `out` (stdout by default).  None when
    every run exits 0 with its pinned bytes, otherwise a message naming
    every run that did not."""
    failed = []
    for run in runs:
        sha = hashlib.sha256()
        t0 = time.perf_counter()
        code, peak_mb = execute(run, sha.update)
        took = time.perf_counter() - t0
        rss = "" if peak_mb is None else f", peak RSS {peak_mb:.0f} MB"
        print(f"{run.name}: {took:.1f} s{rss}", file=out)
        print(sha.hexdigest(), file=out, flush=True)
        if code:
            failed.append(f"{run.name} (exit {code})")
        elif sha.hexdigest() != run.sha256:
            failed.append(run.name)
    return f"not byte-identical: {'; '.join(failed)}" if failed else None


def main(groups: list[str]) -> str | None:
    registry = load()
    selected = [runs(registry, group) for group in groups]
    if not groups or not all(selected):
        known = sorted({group for entry in registry.values() for group in entry["runs"]})
        return f"usage: check.py GROUP [GROUP ...], GROUP one of {', '.join(known)}"
    return check([run for found in selected for run in found])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
