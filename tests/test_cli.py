import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest

import _goldens
from poplaw import jsonio
from poplaw.cli import main

DATA = _goldens.DATA
GOLDENS = list(_goldens.entries())
# each id is its manifest line, golden and command, so adding a line renames no other test
GOLDEN_IDS = [f"{golden}: {' | '.join(map(shlex.join, stages))}" for golden, stages in GOLDENS]
REFUSALS = list(_goldens.refusals())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("golden, stages", GOLDENS, ids=GOLDEN_IDS)
def test_golden(capsys, monkeypatch, golden, stages):
    monkeypatch.chdir(DATA)

    def poplaw(argv, stdin):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        return out

    assert _goldens.output(stages, poplaw) == _goldens.expected(golden)


@pytest.mark.parametrize(
    "want, argv", REFUSALS, ids=[f"exit {want}: {shlex.join(argv)}" for want, argv in REFUSALS]
)
def test_refusal(capsys, monkeypatch, want, argv):
    """Refused within `_goldens.TIMEOUT` seconds, as through the installed script."""
    monkeypatch.chdir(DATA)

    def too_slow(signum, frame):
        pytest.fail(f"still running after {_goldens.TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(_goldens.TIMEOUT)
    try:
        result = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _goldens.refusal_fault(want, *result) is None


def test_every_golden_is_in_the_manifest():
    on_disk = {p.name for p in DATA.iterdir() if p.name.endswith((".txt", ".txt.gz"))}
    assert {golden for golden, _ in GOLDENS} == on_disk


def test_three_agent_problem_holds_the_oracle_golden_law():
    # so expand_three_agent.txt still expands a scheme for the law that the oracle golden pins
    example = json.loads((DATA / "three_agent_example.json").read_text())
    law = json.loads((DATA / "oracle_three_agent.txt").read_text())
    problem = json.loads((DATA / "three_agent_problem.json").read_text())
    assert problem == {"mu": example["mu"], "law": law}


def test_feasible_uniform9(capsys):
    code, out, _ = run(capsys, "feasible", str(DATA / "uniform9.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["prior_consistent"] is True
    assert "decomposition" in payload


def test_feasible_uniform8(capsys):
    code, out, _ = run(capsys, "feasible", str(DATA / "uniform8.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["certificate"]["kind"] == "quantile_violation"
    assert payload["certificate"]["quantile_mean"] == "5/18"


def test_synthesize_emits_scheme(capsys):
    code, out, _ = run(capsys, "synthesize", str(DATA / "uniform9.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    scheme = jsonio.scheme_from_json(payload["scheme"])
    assert scheme.n == 9


def test_oracle_on_example_structure(capsys):
    code, out, _ = run(capsys, "oracle", str(DATA / "three_agent_example.json"))
    assert code == 0
    law = jsonio.law_from_json(json.loads(out))
    assert law.n == 3
    assert len(law.atoms) == 4


def test_simulate_determinism(capsys):
    args = (
        "simulate",
        str(DATA / "uniform9.json"),
        "--samples",
        "2000",
        "--seed",
        "31",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, *args, "--shards", "4")
    assert code3 == 0
    assert out3 == out1


def test_polarize_json(capsys):
    code, out, _ = run(capsys, "polarize", "--n", "4", "--mu", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/16"
    assert payload["lower_bound"] == payload["upper_bound"] == "1/16"


def test_polarize_csv(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "polarize", "--n", "3", "--mu", "1/2", "--csv", str(target), "--n-max", "4"
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "n,lower,upper,achieved"
    assert len(lines) == 5
    assert lines[4].startswith("4,1/16,1/16")


def test_product_check(capsys):
    code, out, _ = run(
        capsys, "product-check", "--n", "4", "--mu", "1/2", "--a", "0.3", "--b", "0.7"
    )
    assert code == 0
    assert json.loads(out)["feasible"] is False
    code, out, _ = run(
        capsys, "product-check", "--n", "4", "--mu", "1/2", "--a", "0.35", "--b", "0.65"
    )
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize("args, message", [
    (("--a=-1/2", "--b=7/10"), "need 0 <= a < mu < b <= 1, got a=-1/2, mu=1/2, b=7/10"),
    (("--a=3/10", "--b=3/2"), "need 0 <= a < mu < b <= 1, got a=3/10, mu=1/2, b=3/2"),
    (("--q", '[{"value":"1/2","weight":1}]', "--a", "0.1", "--b", "0.9"),
     "provide either --q or both --a and --b"),
], ids=["a-below-zero", "b-above-one", "q-with-a-and-b"])
def test_product_check_refusal_states_the_rule_it_enforces(capsys, args, message):
    code, out, err = run(capsys, "product-check", "--n", "4", "--mu", "1/2", *args)
    assert (code, out, err) == (2, "", f"poplaw: invalid input: {message}\n")


def test_threshold_curve_csv(capsys):
    code, out, _ = run(capsys, "product-threshold-curve", "--n-max", "11", "--csv", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,threshold"
    assert lines[1] == "2,1/4"
    assert lines[3] == "4,5/16"
    assert lines[-1] == "11,193/512"


def test_threshold_curve_rows_cost_one_step_each(capsys):
    # rebuilding C(2m, m) for every row took about 7.9 s (2 shared cores, Python 3.11)
    start = time.perf_counter()
    code, out, err = run(capsys, "product-threshold-curve", "--n-max", "8000", "--decimal", "3")
    assert time.perf_counter() - start < 4
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "8000,0.496"


def test_threshold_curve_svg(capsys, tmp_path):
    target = tmp_path / "curve.svg"
    code, _, _ = run(
        capsys,
        "product-threshold-curve",
        "--n-max",
        "6",
        "--csv",
        str(tmp_path / "curve.csv"),
        "--svg",
        str(target),
    )
    assert code == 0
    root = ET.fromstring(target.read_text())
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 5


def test_persuade_value(capsys):
    code, out, _ = run(
        capsys, "persuade", "--n", "2", "--mu", "3/10", "--tau", "1/2", "--u", "[0,1,1]"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "9/10"
    assert payload["adoption_law"] == [
        {"value": 0, "weight": "1/7"},
        {"value": "1/2", "weight": "6/7"},
    ]


def test_persuade_presets_and_csv(capsys, tmp_path):
    target = tmp_path / "cav.csv"
    code, out, _ = run(
        capsys,
        "persuade",
        "--n",
        "4",
        "--mu",
        "0.3",
        "--tau",
        "0.5",
        "--u",
        "linear",
        "--csv",
        str(target),
    )
    assert code == 0
    assert json.loads(out)["value"] == "3/5"
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "grid,u,cav"
    assert len(lines) == 6
    code, out, _ = run(
        capsys,
        "persuade", "--n", "2", "--mu", "3/10", "--tau", "1/2", "--u", "threshold:1/2",
    )
    assert json.loads(out)["value"] == "9/10"


def test_decimal_rendering(capsys):
    code, out, _ = run(
        capsys,
        "persuade", "--n", "2", "--mu", "3/10", "--tau", "1/2", "--u", "[0,1,1]",
        "--decimal", "4",
    )
    assert code == 0
    assert json.loads(out)["value"] == "0.9000"


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "feasible", str(bad))
    assert code == 2
    assert "invalid input" in err


def test_invalid_law_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad_law.json"
    bad.write_text(
        json.dumps(
            {
                "mu": ["1/2", "1/2"],
                "law": {
                    "n": 2,
                    "atoms": [
                        {
                            "empirical": {
                                "n": 2,
                                "counts": [{"belief": ["1/2", "1/2"], "count": 2}],
                            },
                            "weight": "1/2",
                        }
                    ],
                },
            }
        )
    )
    code, _, err = run(capsys, "feasible", str(bad))
    assert code == 2
    assert "invalid input" in err


def test_resource_bound_exits_one(capsys, monkeypatch, tmp_path):
    # synthesize itself does not expand; expanding through `expand` trips the bound
    code, out, _ = run(capsys, "synthesize", str(DATA / "uniform9.json"))
    assert code == 0
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(json.loads(out)["scheme"]))
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "2")
    code, _, err = run(capsys, "expand", str(scheme_path))
    assert code == 1
    assert "resource limit" in err


def _one_atom_scheme(n):
    """Both states deal belief 1/4 (on state 1) to n - 1 agents and 3/4 to one."""
    counts = [{"belief": ["3/4", "1/4"], "count": n - 1}, {"belief": ["1/4", "3/4"], "count": 1}]
    law = {"n": n, "atoms": [{"empirical": {"n": n, "counts": counts}, "weight": 1}]}
    return {"n": n, "mu": ["1/2", "1/2"], "state_laws": [{"state": s, "law": law} for s in (0, 1)]}


# 2,000 profiles of 1,000 labels each (deeper than the recursion limit), and
# 4e12 profiles of 2e6 labels each
@pytest.mark.parametrize("n", [1000, 2 * 10**6], ids=["deep", "huge"])
def test_expansion_past_the_label_bound_exits_one(capsys, tmp_path, n):
    start = time.perf_counter()
    code, out, err = _run_payload(capsys, tmp_path, "expand", _one_atom_scheme(n))
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err == (
        "poplaw: resource limit: expansion needs more than 1000000 profile labels; "
        "raise the bound or simulate\n"
    )


def test_oversized_json_integer_exits_two(capsys, tmp_path):
    bad = tmp_path / "huge.json"
    bad.write_text('{"mu": ["1/2", "1/2"], "law": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, "feasible", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("poplaw: invalid input:") and err.count("\n") == 1


# deeper than the JSON decoder's recursion limit on every supported Python:
# 3.13 decodes 5,000 nested arrays
DEEP = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize(
    "text, args",
    [
        (DEEP, ["feasible", "{path}"]),
        ('{"mu": ["1/2", "1/2"], "law": ' + DEEP + "}", ["feasible", "{path}"]),
        (DEEP, ["feasible", "-"]),
        (None, ["product-check", "--n", "2", "--mu", "1/2", "--q", DEEP]),
        (None, ["persuade", "--n", "2", "--mu", "1/2", "--tau", "1/2", "--u", DEEP]),
    ],
    ids=["file", "file-law", "stdin", "product-check-q", "persuade-u"],
)
def test_deeply_nested_json_exits_two(capsys, monkeypatch, tmp_path, text, args):
    path = tmp_path / "deep.json"
    if text is not None:
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *(a.format(path=path) for a in args))
    assert code == 2
    assert out == ""
    assert err == "poplaw: invalid input: malformed JSON: nested too deeply\n"


def test_oversized_grid_search_exits_one(capsys):
    args = ("polarize", "--n", "6", "--mu", "1/2", "--search-denominator", "10")
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith("poplaw: resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("denominator", ["0", "-1"])
def test_nonpositive_search_denominator_exits_two(capsys, denominator):
    args = ("polarize", "--n", "2", "--mu", "1/2", f"--search-denominator={denominator}")
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == f"poplaw: invalid input: grid denominator {denominator} is not an integer >= 1\n"


@pytest.mark.parametrize(
    "args",
    [
        ("product-check", "--n", "3", "--mu", "1/2", "--a", "1/" + "7" * 2201, "--b", "2/3"),
        ("polarize", "--n", "2", "--mu", "1/2", "--decimal", "5000"),
        ("polarize", "--n", "2", "--mu", "1/2", "--decimal", "4300"),
        ("product-threshold-curve", "--n-max", "15000"),
    ],
    ids=["long-denominator", "decimal-5000", "decimal-4300", "threshold-curve"],
)
def test_output_past_the_digit_limit_exits_one(capsys, args):
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err.startswith("poplaw: resource limit:") and err.count("\n") == 1


def test_threshold_curve_at_the_row_bound_is_refused_at_once(capsys):
    # the last row's length comes from its closed-form denominator, not from C(10**6, 5 * 10**5)
    start = time.perf_counter()
    code, out, err = run(capsys, "product-threshold-curve", "--n-max", "1000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "poplaw: resource limit: a number in the output has more than 4300 digits\n"


@pytest.mark.parametrize("mu", ["1e-5000", "1E+5000", "0.5e5_000"])
def test_long_decimal_exponent_exits_two(capsys, mu):
    code, out, err = run(capsys, "polarize", "--n", "2", "--mu", mu)
    assert code == 2
    assert out == ""
    assert err == "poplaw: invalid input: decimal exponent beyond +/-4300\n"


def test_long_json_exponent_exits_two(capsys, tmp_path):
    bad = tmp_path / "exponent.json"
    bad.write_text('{"mu": [1e-5000, 1], "law": {"n": 1, "atoms": []}}')
    code, out, err = run(capsys, "feasible", str(bad))
    assert code == 2
    assert out == ""
    assert err == "poplaw: invalid input: decimal exponent beyond +/-4300\n"


def test_internal_error_exits_three(capsys, monkeypatch):
    from poplaw import InternalError, cli

    def broken(*args, **kwargs):
        raise InternalError("self-check failed")

    monkeypatch.setattr(cli, "check_feasible", broken)
    code, out, err = run(capsys, "feasible", str(DATA / "uniform9.json"))
    assert code == 3
    assert out == ""
    assert err == "poplaw: internal error: self-check failed\n"


@pytest.mark.parametrize(
    "args",
    [("synthesize",), ("simulate", "--samples", "10", "--seed", "1")],
    ids=["synthesize", "simulate"],
)
def test_refused_own_decomposition_exits_three(capsys, monkeypatch, args):
    # synthesize refusing the decomposition check_feasible just returned is a library fault
    from poplaw import SpreadDecomposition, feasibility

    decompose = feasibility.mps_decompose

    def swapped(law, base):
        # two components of weight 1/2 each, so reversing them swaps their laws
        return SpreadDecomposition(decompose(law, base).components[::-1])

    monkeypatch.setattr(feasibility, "mps_decompose", swapped)
    code, out, err = run(capsys, args[0], str(DATA / "uniform9.json"), *args[1:])
    assert (code, out) == (3, "")
    assert err == "poplaw: internal error: decomposition does not verify against the law's base\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
def test_seed_outside_64_bits_exits_two(capsys, seed):
    args = ("simulate", str(DATA / "uniform9.json"), "--samples", "200", "--seed", seed)
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == f"poplaw: invalid input: seed {seed} is not an integer in [0, {2**64})\n"


@pytest.mark.parametrize("u", ["linear", "threshold:1/2"])
def test_persuade_with_no_agents_exits_two(capsys, u):
    code, out, err = run(capsys, "persuade", "--n", "0", "--mu", "1/4", "--tau", "1/2", "--u", u)
    assert code == 2
    assert out == ""
    assert err == "poplaw: invalid input: agent count 0 is not an integer >= 1\n"


@pytest.mark.parametrize("args, message", [
    (("simulate", "uniform8.json", "--samples", "10", "--seed", "1"),
     "cannot simulate an infeasible law"),
    (("persuade", "--n", "2", "--mu", "1/4", "--tau", "1/2", "--u", '{"a": 1}'),
     "--u must be 'linear', 'threshold:CUT' or a JSON array"),
    (("persuade", "--n", "2", "--mu", "1/4", "--tau", "1/2", "--u", "[0, 1]"),
     "--u needs n + 1 = 3 grid values, got 2"),
], ids=["simulate-infeasible", "persuade-u-object", "persuade-u-short"])
def test_refused_command_input_exits_two(capsys, monkeypatch, args, message):
    monkeypatch.chdir(DATA)
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (2, "", f"poplaw: invalid input: {message}\n")


@pytest.mark.parametrize("u", ["[0, 1e400]", "[-1e308, 1e308]"], ids=["value", "range"])
def test_chart_beyond_float_range_exits_one(capsys, tmp_path, u):
    chart = tmp_path / "x.svg"
    args = ("--n", "1", "--mu", "1/4", "--tau", "1/2", "--u", u, "--svg", str(chart))
    code, out, err = run(capsys, "persuade", *args)
    message = "cannot draw the chart: its values span beyond float range"
    assert (code, out, err) == (1, "", f"poplaw: resource limit: {message}\n")
    assert not chart.exists()


@pytest.mark.parametrize("args, message", [
    (("--csv", "{rows}", "--n-max=0"), "--n-max 0 is not an integer >= 1"),
    (("--csv", "{rows}", "--n-max=-1"), "--n-max -1 is not an integer >= 1"),
    (("--n-max", "5"), "--n-max needs --csv"),
], ids=["zero", "negative", "without-csv"])
def test_refused_polarize_n_max_exits_two(capsys, tmp_path, args, message):
    rows = tmp_path / "rows.csv"
    args = (a.format(rows=rows) for a in args)
    code, out, err = run(capsys, "polarize", "--n", "3", "--mu", "1/2", *args)
    assert (code, out, err) == (2, "", f"poplaw: invalid input: {message}\n")
    assert not rows.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("polarize", "--n", "2", "--mu", "1/2", "--csv", "{missing}/x.csv"),
        ("product-threshold-curve", "--n-max", "3", "--svg", "{missing}/x.svg"),
        ("product-threshold-curve", "--n-max", "3", "--csv", "-", "--svg", "{missing}/x.svg"),
        ("persuade", "--n", "2", "--mu", "1/4", "--tau", "1/2", "--u", "linear", "--csv", "{dir}"),
        ("persuade", "--n", "1", "--mu", "1/3", "--tau", "1/2", "--u", "[0, 1]",
         "--svg", "{missing}/x.svg"),
    ],
    ids=["polarize-csv", "threshold-svg", "threshold-stdout-csv-svg", "persuade-csv-directory",
         "persuade-svg"],
)
def test_unwritable_output_exits_two(capsys, tmp_path, args):
    args = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in args]
    code, out, err = run(capsys, *args)
    assert code == 2
    # every output is rendered, and every file written, before stdout gets any of it
    assert out == ""
    assert err.startswith(f"poplaw: invalid input: cannot write {args[-1]}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("feasible", "uniform8.json"), ("product-threshold-curve", "--n-max", "3", "--svg", "-"),
], ids=["feasible", "threshold-svg"])
def test_stdout_whose_reader_is_gone_exits_two(args):
    read, write = os.pipe()
    os.close(read)  # before the child starts, so its first write fails
    env = {**os.environ, "PYTHONPATH": str(DATA.parents[1] / "src")}
    with open(write, "wb") as stdout:
        child = subprocess.run([sys.executable, "-m", "poplaw", *args], stdout=stdout,
                               stderr=subprocess.PIPE, cwd=DATA, env=env)
    err = child.stderr.decode()
    assert (child.returncode, err.count("\n"), "Traceback" in err) == (2, 1, False)
    assert err.startswith("poplaw: invalid input: cannot write -: ")


_HALF = ["1/2", "1/2"]


def _law(*atoms):
    return {"n": 1, "atoms": list(atoms)}


def _atom(*counts, weight=1):
    return {"empirical": {"n": 1, "counts": list(counts)}, "weight": weight}


def _count(belief=_HALF, count=1):
    return {"belief": belief, "count": count}


def _problem(law):
    return "feasible", {"mu": _HALF, "law": law}


def _scheme(*laws):
    state_laws = [{"state": s, "law": law} for s, law in enumerate(laws)]
    return "expand", {"n": 1, "mu": _HALF, "state_laws": state_laws}


# the one-line refusals of malformed laws and schemes, each the first fault in document order
REFUSED_DOCUMENTS = {
    "atoms-not-array": (
        _problem({"n": 1, "atoms": 3}),
        "population law: field 'atoms' must be an array",
    ),
    "counts-not-array": (
        _problem(_law({"empirical": {"n": 1, "counts": {}}, "weight": 1})),
        "empirical distribution: field 'counts' must be an array",
    ),
    "atom-not-object": (_problem(_law(3)), "law atom: missing field 'empirical'"),
    "missing-weight": (
        _problem(_law({"empirical": {"n": 1, "counts": [_count()]}})),
        "law atom: missing field 'weight'",
    ),
    "missing-empirical": (_problem(_law({"weight": 1})), "law atom: missing field 'empirical'"),
    "missing-count": (
        _problem(_law(_atom({"belief": _HALF}))),
        "count entry: missing field 'count'",
    ),
    "belief-true": (_problem(_law(_atom(_count([True, 0])))), "not a rational: True"),
    "belief-nested": (_problem(_law(_atom(_count([[1], 0])))), "not a rational: [1]"),
    "belief-string": (_problem(_law(_atom(_count("x")))), "belief must be an array"),
    "nan-weight": (
        _problem(_law(_atom(_count(), weight=float("nan")))),
        'refusing float nan: pass a string like "3/10" or "0.3" for exactness',
    ),
    "negative-weight-then-missing": (
        _problem(_law(_atom(_count(), weight=-1), {"weight": 1})),
        "negative weight -1 in population law",
    ),
    "bad-count-then-bad-belief": (
        _problem(_law(_atom(_count(count=-1), _count([True, 0])))),
        "count -1 is not an integer >= 0",
    ),
    "repeated-bad-belief": (
        _problem(_law(_atom(_count(), weight="1/2"), _atom(_count([1, "1/3"])),
                      _atom(_count([1, "1/3"])))),
        "belief coordinates must sum to 1: (Fraction(1, 1), Fraction(1, 3))",
    ),
    "scheme-second-law": (
        _scheme(_law(_atom(_count([1, 0]))), _law(_atom(_count([True, 0])))),
        "not a rational: True",
    ),
}


@pytest.mark.parametrize("command_document,message", REFUSED_DOCUMENTS.values(),
                         ids=REFUSED_DOCUMENTS.keys())
def test_malformed_laws_and_schemes_are_refused_in_one_line(
    capsys, tmp_path, command_document, message
):
    command, document = command_document
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"poplaw: invalid input: {message}\n"


def test_undecodable_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bom.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "feasible", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"poplaw: invalid input: cannot read {bad}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_seed_at_the_ends_of_the_range_runs(capsys, seed):
    args = ("simulate", str(DATA / "uniform9.json"), "--samples", "200", "--seed", seed)
    code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    assert jsonio.law_from_json(json.loads(out)).n == 9


def test_oracle_on_a_large_expansion_decodes_each_label_once(capsys, tmp_path):
    # 300 agents dealt 299 copies of one belief and 1 of the other: 600
    # profiles, 180,000 label cells of 2 distinct beliefs. Decoding each cell
    # on its own made the oracle call take 5-8 s on a shared 2-core host.
    low, high = ["299/300", "1/300"], ["1/300", "299/300"]

    def law(a, b):
        counts = [{"belief": low, "count": a}, {"belief": high, "count": b}]
        return {"n": 300, "atoms": [{"empirical": {"n": 300, "counts": counts}, "weight": 1}]}

    payload = {"mu": ["1/2", "1/2"], "state_laws": [
        {"state": 0, "law": law(299, 1)}, {"state": 1, "law": law(1, 299)}
    ]}
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "expand", str(scheme))
    assert code == 0
    structure = tmp_path / "structure.json"
    structure.write_text(out)
    start = time.perf_counter()
    code, out, _ = run(capsys, "oracle", str(structure))
    assert time.perf_counter() - start < 2.5
    assert code == 0
    # the labels are Bayes-consistent, so the oracle returns the scheme's law
    law = jsonio.scheme_from_json(payload).law()
    assert out == jsonio.dumps(jsonio.law_to_json(law))


def test_byte_identical_reruns(capsys):
    code1, out1, _ = run(capsys, "feasible", str(DATA / "uniform9.json"))
    code2, out2, _ = run(capsys, "feasible", str(DATA / "uniform9.json"))
    assert out1 == out2


# --------------------------------------------------------- malformed JSON shapes

POINT = {"n": 1, "counts": [{"belief": ["1/2", "1/2"], "count": 1}]}
PROBLEM = {"mu": ["1/2", "1/2"], "law": {"n": 1, "atoms": [{"empirical": POINT, "weight": 1}]}}
SCHEME = {
    "n": 1,
    "mu": ["1/2", "1/2"],
    "state_laws": [{"state": s, "law": PROBLEM["law"]} for s in (0, 1)],
}
STRUCTURE = {
    "n": 1,
    "m": 2,
    "mu": ["1/2", "1/2"],
    "signal_sets": [["a"]],
    "kernel": [{"state": s, "profiles": [{"signals": ["a"], "prob": 1}]} for s in (0, 1)],
}


DELETED = object()  # as an edit's value: remove the entry


def _edited(payload, path, value):
    """A deep copy of the payload with the entry at `path` (or the whole) replaced or deleted."""
    if not path:
        return value
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is DELETED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return payload


def _run_payload(capsys, tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    extra = ("--samples", "10", "--seed", "1") if command == "simulate" else ()
    return run(capsys, command, str(path), *extra)


@pytest.mark.parametrize(
    "command,payload",
    [
        ("feasible", PROBLEM),
        ("simulate", SCHEME),
        ("expand", SCHEME),
        ("oracle", STRUCTURE),
        ("expand", {key: value for key, value in SCHEME.items() if key != "n"}),
    ],
)
def test_valid_bases_of_the_malformed_cases_run(capsys, tmp_path, command, payload):
    code, _, err = _run_payload(capsys, tmp_path, command, payload)
    assert (code, err) == (0, "")


MALFORMED = [
    *[
        (command, PROBLEM, (), value)
        for command in ("feasible", "synthesize", "simulate")
        for value in ([], "x", 3)
    ],
    ("feasible", PROBLEM, ("law", "atoms"), 3),
    ("feasible", PROBLEM, ("law", "atoms", 0, "empirical", "counts"), 3),
    ("feasible", PROBLEM, ("law", "n"), True),
    ("feasible", PROBLEM, ("law", "atoms", 0, "empirical", "n"), True),
    ("feasible", PROBLEM, ("law", "atoms", 0, "empirical", "counts", 0, "count"), True),
    ("expand", SCHEME, ("state_laws",), 3),
    ("simulate", SCHEME, ("state_laws",), 3),
    ("oracle", STRUCTURE, ("n",), True),
    ("oracle", STRUCTURE, ("signal_sets",), 3),
    ("oracle", STRUCTURE, ("signal_sets", 0), 3),
    ("oracle", STRUCTURE, ("kernel",), 3),
    ("oracle", STRUCTURE, ("kernel", 0, "profiles"), 3),
    ("oracle", STRUCTURE, ("kernel", 0, "profiles", 0, "signals"), 3),
]


@pytest.mark.parametrize(
    "command,base,path,value",
    MALFORMED,
    ids=[f"{c}-{'.'.join(map(str, p)) or 'input'}={v!r}" for c, _, p, v in MALFORMED],
)
def test_malformed_json_shape_exits_two(capsys, tmp_path, command, base, path, value):
    code, out, err = _run_payload(capsys, tmp_path, command, _edited(base, path, value))
    assert code == 2
    assert out == ""
    assert err.startswith("poplaw: invalid input:") and err.count("\n") == 1


PER_STATE = [
    ("oracle", STRUCTURE, "kernel", "kernel entry"),
    ("expand", SCHEME, "state_laws", "scheme state law"),
]


@pytest.mark.parametrize("command,base,field,where", PER_STATE, ids=["kernel", "state_laws"])
def test_repeated_state_exits_two(capsys, tmp_path, command, base, field, where):
    payload = _edited(base, (field,), base[field] + [base[field][1]])
    code, out, err = _run_payload(capsys, tmp_path, command, payload)
    assert (code, out) == (2, "")
    assert err == f"poplaw: invalid input: {where}: state 1 appears twice\n"


@pytest.mark.parametrize("command,base,field,where", PER_STATE, ids=["kernel", "state_laws"])
def test_boolean_state_exits_two(capsys, tmp_path, command, base, field, where):
    payload = _edited(base, (field, 1, "state"), True)
    code, out, err = _run_payload(capsys, tmp_path, command, payload)
    assert (code, out) == (2, "")
    assert err == f"poplaw: invalid input: {where}: state True is not an integer in [0, 2)\n"


@pytest.mark.parametrize("m", [7, True])
def test_structure_m_that_disagrees_with_mu_exits_two(capsys, tmp_path, m):
    payload = json.loads((DATA / "three_agent_example.json").read_text())
    code, out, err = _run_payload(capsys, tmp_path, "oracle", _edited(payload, ("m",), m))
    assert (code, out) == (2, "")
    assert err == (
        "poplaw: invalid input: information structure: field 'm' must be 2, "
        f"the number of states in mu, not {m!r}\n"
    )


@pytest.mark.parametrize("command", ["expand", "simulate"])
def test_scheme_off_its_prior_state_space_exits_two(capsys, tmp_path, command):
    # three-state beliefs in every state law under a two-state prior
    payload = SCHEME
    for state in (0, 1):
        path = ("state_laws", state, "law", "atoms", 0, "empirical", "counts", 0, "belief")
        payload = _edited(payload, path, ["1/3", "1/3", "1/3"])
    code, out, err = _run_payload(capsys, tmp_path, command, payload)
    assert (code, out) == (2, "")
    assert err == "poplaw: invalid input: state laws and prior live on different state spaces\n"


@pytest.mark.parametrize("n", [7, True, "1"])
def test_scheme_n_that_disagrees_with_its_laws_exits_two(capsys, tmp_path, n):
    code, out, err = _run_payload(capsys, tmp_path, "simulate", _edited(SCHEME, ("n",), n))
    assert (code, out) == (2, "")
    assert err == (
        "poplaw: invalid input: scheme: field 'n' must be 1, "
        f"the population size of the state laws, not {n!r}\n"
    )


COUNTS = ("law", "atoms", 0, "empirical", "counts")
TINY = "1/1" + "0" * 4000  # 1/10**4000
TOO_LONG = [
    ("feasible", PROBLEM, (*COUNTS, 0, "belief", 0), "1" * 10**6),
    ("feasible", PROBLEM, ("law", "n"), "x" * 10**5),
    ("oracle", STRUCTURE, ("signal_sets", 0, 0), {"label": "x" * 10**5}),
    ("oracle", STRUCTURE, ("kernel", 0, "profiles", 0, "signals", 0), "x" * 10**5),
    ("feasible", PROBLEM, (*COUNTS, 0, "belief"), ["1/2"] * 10**4),
    (
        "feasible",
        PROBLEM,
        COUNTS,
        [{"belief": [f"{k}/5000", f"{5000 - k}/5000"], "count": 1} for k in range(5000)],
    ),
    ("feasible", PROBLEM, ("mu",), [1] + [0] * 10**4),
    ("feasible", PROBLEM, ("law", "atoms", 0, "weight"), "-" + TINY),
    ("oracle", STRUCTURE, ("kernel", 0, "profiles", 0, "prob"), "-" + TINY),
]


@pytest.mark.parametrize(
    "command,base,path,value",
    TOO_LONG,
    ids=[
        "rational",
        "n",
        "label-object",
        "label-not-in-set",
        "belief-coords",
        "counts-sum",
        "prior-support",
        "law-weight",
        "kernel-probability",
    ],
)
def test_refusal_of_a_long_value_is_one_short_line(capsys, tmp_path, command, base, path, value):
    code, out, err = _run_payload(capsys, tmp_path, command, _edited(base, path, value))
    assert (code, out) == (2, "")
    assert err.startswith("poplaw: invalid input:") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "args",
    [
        ("persuade", "--n", "2", "--mu", TINY, "--tau", TINY, "--u", "linear"),
        ("product-check", "--n", "2", "--mu", "1/2", f"--a={TINY}", f"--b={TINY}"),
    ],
    ids=["persuade", "product-check"],
)
def test_refusal_of_a_long_argument_is_one_short_line(capsys, args):
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("poplaw: invalid input:") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_refusal_of_a_long_bound_is_one_short_line(capsys, monkeypatch):
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "9" * 10**5 + "x")
    code, out, err = run(capsys, "product-check", "--n", "4", "--mu", "1/2", "--a", "0.3", "--b", "0.7")
    assert (code, out) == (2, "")
    assert err.startswith("poplaw: invalid input: POPLAW_MAX_PROFILES") and err.count("\n") == 1
    assert len(err.encode()) < 200


# --------------------------------------------------------- single-point edits
# Every leaf of two committed inputs replaced by one odd value, or deleted:
# each run ends in exit 0, 1 or 2 with at most one line on stderr, never a
# traceback.

EDIT_VALUES = [-1, 0, "x", None, True, [], {}, "1/0", "1e5000", [[1]], DELETED]
EDITED_INPUTS = [("oracle", "three_agent_example.json"), ("synthesize", "three_beliefs_infeasible.json")]


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(child, (*path, key))
    else:
        yield path


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2) and err.count("\n") <= 1
    assert code == 0 or out == ""


@pytest.mark.parametrize("value", EDIT_VALUES, ids=[*map(json.dumps, EDIT_VALUES[:-1]), "deleted"])
def test_single_leaf_edits_exit_cleanly(capsys, tmp_path, value):
    for command, name in EDITED_INPUTS:
        document = json.loads((DATA / name).read_text())
        for path in _leaf_paths(document):
            assert_clean_exit(*_run_payload(capsys, tmp_path, command, _edited(document, path, value)))


@pytest.mark.parametrize(
    "command",
    [("polarize", "--mu", "1/2"), ("product-check", "--mu", "1/2", "--a", "0.3", "--b", "0.7")],
    ids=["polarize", "product-check"],
)
@pytest.mark.parametrize("n", ["0", "-1", str(10**20)])
def test_population_size_edits_exit_cleanly(capsys, command, n):
    code, out, err = run(capsys, *command, "--n", n)
    assert_clean_exit(code, out, err)
    assert code == (1 if n == str(10**20) else 2)


@pytest.mark.parametrize(
    "args",
    [
        ("persuade", "--mu", "1/4", "--tau", "1/2", "--u", "linear", "--n"),
        ("polarize", "--n", "2", "--mu", "1/2", "--csv", "{path}", "--n-max"),
        ("product-threshold-curve", "--n-max"),
    ],
    ids=["persuade", "polarize-csv", "threshold-curve"],
)
def test_grid_and_table_sizes_past_the_bound_exit_one(capsys, tmp_path, args):
    # a utility grid of n + 1 values, a table of n_max rows, a curve of n_max - 1 rows
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.format(path=tmp_path / "rows.csv") for a in args), str(10**20))
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("poplaw: resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("n_max", ["10", "11"])
def test_polarization_table_rows_are_bounded(capsys, monkeypatch, n_max):
    monkeypatch.setenv("POPLAW_MAX_PROFILES", "10")
    args = ("polarize", "--n", "2", "--mu", "1/2", "--csv", "-", "--n-max", n_max)
    code, out, err = run(capsys, *args)
    if n_max == "10":
        assert code == 0
        assert out[out.index("n,lower,upper,achieved\n") :].count("\n") == 11  # header and 10 rows
    else:
        assert (code, out) == (1, "")
        assert err == (
            "poplaw: resource limit: polarization table needs more than 10 rows; raise the bound\n"
        )
