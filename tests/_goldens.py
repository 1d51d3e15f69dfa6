"""The CLI goldens of data/goldens.manifest, and the runner that both test paths share.

`tests/test_cli.py` runs every manifest line in-process through `poplaw.cli.main`.
`python3 tests/_goldens.py` runs every line through the `poplaw` script on PATH,
prints a unified diff for each golden that differs, and exits 1 if any does
(or with a traceback naming the command, if a run fails).
"""

import difflib
import gzip
import json
import shlex
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"


def entries():
    """(golden, stages) per manifest line; a stage is a poplaw argv, or [".FIELD"]."""
    for line in (DATA / "goldens.manifest").read_text().splitlines():
        if line and not line.startswith("#"):
            golden, command = line.split(": ", 1)
            yield golden, [shlex.split(stage) for stage in command.split(" | ")]


def expected(golden):
    data = (DATA / golden).read_bytes()
    return (gzip.decompress(data) if golden.endswith(".gz") else data).decode()


def output(stages, poplaw):
    """The last stage's stdout, where `poplaw(argv, stdin)` runs one command (stdin None: none)."""
    text = None
    for stage in stages:
        if stage[0].startswith("."):
            text = json.dumps(json.loads(text)[stage[0][1:]])
        else:
            text = poplaw(stage, text)
    return text


def _installed(argv, stdin):
    stdin = None if stdin is None else stdin.encode()
    run = subprocess.run(["poplaw", *argv], input=stdin, stdout=subprocess.PIPE, cwd=DATA, check=True)
    return run.stdout.decode()


def main():
    runs = list(entries())
    failed = 0
    for golden, stages in runs:
        want, got = expected(golden), output(stages, _installed)
        if got != want:
            failed += 1
            lines = want.splitlines(True), got.splitlines(True)
            sys.stdout.writelines(difflib.unified_diff(*lines, golden, "poplaw stdout"))
    print(f"{failed} of {len(runs)} golden runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
