"""Mutants of data/mutants.manifest, each of which the tests it names must kill.

`python3 tests/_mutants.py` copies `src`, `tests` and
`pyproject.toml` to a temporary directory. It first runs every named test once
on the unchanged copy, and they must pass. Then, one mutant at a time, it
replaces the mutant's exact string in its file, which must occur exactly
once, runs each named test in its own pytest process, one after another, and
restores the file. Every named test must fail (pytest exit code 1); a test
that passes lets the mutant survive, and any other exit code, or a run past
`TIMEOUT` seconds, is an error. It prints one line per mutant and exits 1 if
any mutant does not apply, survives or errs. It uses the standard library only and starts no process pool.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "mutants.manifest"
TIMEOUT = 600
KEYS = {"mutant", "file", "find", "replace", "kill"}


def mutants():
    """One dict per manifest block, its keys those of `KEYS`; "kill" holds a list."""
    blocks, block = [], None
    for number, line in enumerate(MANIFEST.read_text().splitlines(), 1):
        if line.startswith("#"):
            continue
        if not line.strip():
            block = None
            continue
        key, sep, value = line.partition(": ")
        if not sep or key not in KEYS:
            raise SystemExit(f"{MANIFEST.name}:{number}: not `KEY: VALUE`, KEY in {sorted(KEYS)}")
        if block is None:
            block = {"kill": []}
            blocks.append(block)
        if key == "kill":
            block["kill"].append(value)
        elif key in block:
            raise SystemExit(f"{MANIFEST.name}:{number}: a second `{key}` in one mutant")
        else:
            block[key] = value
    for block in blocks:
        if set(block) != KEYS or not block["kill"]:
            raise SystemExit(f"mutant {block.get('mutant')!r} needs every one of {sorted(KEYS)}")
    return blocks


def pytest(workdir, node_ids):
    """The exit code of one pytest process on the copy, or None past `TIMEOUT`."""
    # no example database carries a failure from one mutant to the next
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *node_ids]
    try:
        run = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def verdict(workdir, mutant):
    """'killed', or why the mutant counts against the run."""
    path = workdir / "src" / "poplaw" / mutant["file"]
    original = path.read_text()
    count = original.count(mutant["find"])
    if count != 1:
        return f"does not apply: its string occurs {count} times in {mutant['file']}"
    path.write_text(original.replace(mutant["find"], mutant["replace"]))
    try:
        for node in mutant["kill"]:
            code = pytest(workdir, [node])
            if code == 0:
                return f"survives {node}"
            if code != 1:
                return f"error in {node}: " + ("timeout" if code is None else f"pytest exit {code}")
    finally:
        path.write_text(original)
    return "killed"


def main():
    chosen = mutants()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        nodes = sorted({node for mutant in chosen for node in mutant["kill"]})
        code = pytest(workdir, nodes)
        if code != 0:
            print(f"the named tests do not pass unmutated (pytest exit {code})")
            return 1
        failed = 0
        for mutant in chosen:
            result = verdict(workdir, mutant)
            failed += result != "killed"
            print(f"{mutant['mutant']}: {result}", flush=True)
    print(f"{failed} of {len(chosen)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
