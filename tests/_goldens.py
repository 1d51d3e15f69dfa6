"""The CLI goldens and refusals of data/goldens.manifest, and the runner that both test paths share.

`tests/test_cli.py` runs every manifest line in-process through `poplaw.cli.main`.
`python3 tests/_goldens.py` runs every line through the `poplaw` script on PATH,
prints a unified diff for each golden that differs and a line for each refusal
that breaks its rule, and exits 1 if any does (or with a traceback naming the
command, if a golden run fails). A refusal there that runs past `TIMEOUT`
seconds breaks its rule.
"""

import difflib
import gzip
import json
import shlex
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
TIMEOUT = 10
REFUSAL = "exit "


def _lines():
    """(key, command) per manifest line."""
    for line in (DATA / "goldens.manifest").read_text().splitlines():
        if line and not line.startswith("#"):
            yield line.split(": ", 1)


def entries():
    """(golden, stages) per golden line; a stage is a poplaw argv, or [".FIELD"]."""
    for golden, command in _lines():
        if not golden.startswith(REFUSAL):
            yield golden, [shlex.split(stage) for stage in command.split(" | ")]


def refusals():
    """(exit code, argv) per refusal line, `exit CODE: ARGV`."""
    for key, command in _lines():
        if key.startswith(REFUSAL):
            yield int(key[len(REFUSAL) :]), shlex.split(command)


def refusal_fault(want, code, out, err):
    """How a refused run breaks its rule (exit `want`, empty stdout, one stderr line), or None."""
    if code != want:
        return f"exit {code}, not {want}"
    if out:
        return "output on stdout"
    if err.count("\n") != 1 or not err.endswith("\n"):
        return f"stderr is not one line: {err!r}"
    return None


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


def _installed_refusal(want, argv):
    try:
        run = subprocess.run(["poplaw", *argv], capture_output=True, cwd=DATA, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"still running after {TIMEOUT} s"
    return refusal_fault(want, run.returncode, run.stdout.decode(), run.stderr.decode())


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
    refused = list(refusals())
    broken = 0
    for want, argv in refused:
        fault = _installed_refusal(want, argv)
        if fault:
            broken += 1
            print(f"poplaw {shlex.join(argv)}: {fault}")
    print(f"{broken} of {len(refused)} refusals break their rule")
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main())
