import json
import math
import random
import typing
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _lawgen import random_feasible_instance
from poplaw import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    FarkasCertificate,
    InfeasibilityCertificate,
    InvariantError,
    MeanMismatch,
    PopulationLaw,
    Prior,
    QuantileViolation,
    ScalarMeasure,
    bayes_posterior,
    check_feasible,
    expand_scheme,
    synthesize,
)
from poplaw import jsonio
from poplaw.rationals import (
    SHOWN_CHARS,
    format_decimal,
    format_rational,
    over_common_denominator,
    parse_rational,
    shown,
)

DATA = Path(__file__).parent / "data"


def _served(tree):
    """An encoder tree as the CLI serves it: through text, so beliefs become arrays."""
    return jsonio.loads(jsonio.dumps(tree))


def test_parse_rational_forms():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.3") == F(3, 10)
    assert parse_rational(7) == F(7)
    with pytest.raises(InvariantError):
        parse_rational(0.3)
    with pytest.raises(InvariantError):
        parse_rational("three tenths")
    with pytest.raises(InvariantError):
        parse_rational("1/0")


def test_format_rational():
    assert format_rational(F(3, 10)) == "3/10"
    assert format_rational(F(14, 7)) == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**6), max_size=8))
def test_over_common_denominator_is_exact(values):
    numerators, denominator = over_common_denominator(values)
    assert [F(v, denominator) for v in numerators] == values
    assert denominator == math.lcm(*[v.denominator for v in values])


def test_format_decimal():
    assert format_decimal(F(1, 3), 4) == "0.3333"
    assert format_decimal(F(5, 16), 6) == "0.312500"
    assert format_decimal(F(2), 0) == "2"
    assert format_decimal(F(-1, 8), 2) == "-0.12"  # half to even


def test_loads_parses_decimals_exactly():
    payload = jsonio.loads('{"w": 0.3, "n": 2}')
    assert payload["w"] == F(3, 10)
    assert payload["n"] == 2
    with pytest.raises(InvariantError):
        jsonio.loads("{not json")


def test_belief_round_trip():
    b = Belief([F(1, 3), F(1, 6), F(1, 2)])
    assert jsonio.belief_from_json(jsonio.belief_to_json(b)) == b


def test_measure_round_trip():
    m = DiscreteMeasure(
        [(Belief.binary(F(1, 4)), F(2, 5)), (Belief.binary(F(2, 3)), F(3, 5))]
    )
    assert jsonio.measure_from_json(_served(jsonio.measure_to_json(m))) == m


def test_scalar_measure_round_trip():
    m = ScalarMeasure([(F(1, 3), F(1, 2)), (F(2, 3), F(1, 2))])
    assert jsonio.scalar_measure_from_json(jsonio.scalar_measure_to_json(m)) == m


def test_law_round_trip():
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))
    law = PopulationLaw(
        3,
        [
            (EmpiricalDistribution(3, [(lo, 2), (hi, 1)]), F(1, 3)),
            (EmpiricalDistribution(3, [(hi, 3)]), F(2, 3)),
        ],
    )
    assert jsonio.law_from_json(_served(jsonio.law_to_json(law))) == law


def test_certificate_round_trips():
    certs = [
        MeanMismatch(F(1, 2), F(2, 5)),
        MeanMismatch(Belief.binary(F(1, 2)), Belief.binary(F(2, 5))),
        QuantileViolation(F(1, 2), F(5, 18), F(1, 4)),
        FarkasCertificate((F(1), F(-1, 3), F(0))),
    ]
    assert {type(cert) for cert in certs} == set(typing.get_args(InfeasibilityCertificate))
    for cert in certs:
        back = jsonio.certificate_from_json(_served(jsonio.certificate_to_json(cert)))
        assert back == cert


def test_verdict_round_trips_both_ways():
    lo, hi = Belief.binary(F(1, 4)), Belief.binary(F(3, 4))

    def fam(ks, w):
        return PopulationLaw(
            9,
            [(EmpiricalDistribution(9, [(hi, k), (lo, 9 - k)]), w) for k in ks],
        )

    half = Prior.binary(F(1, 2))
    for verdict in (
        check_feasible(fam(range(10), F(1, 10)), half),
        check_feasible(fam(range(1, 9), F(1, 8)), half),
        check_feasible(fam(range(10), F(1, 10)), Prior.binary(F(2, 5))),
    ):
        back = jsonio.verdict_from_json(_served(jsonio.verdict_to_json(verdict)))
        assert back == verdict


@pytest.mark.parametrize("field", ["feasible", "prior_consistent"])
@pytest.mark.parametrize("value", ["no", 1, None])
def test_verdict_flags_must_be_json_booleans(field, value):
    verdict = check_feasible(
        PopulationLaw(1, [(EmpiricalDistribution.constant(1, Belief.binary(F(1, 2))), 1)]),
        Prior.binary(F(1, 2)),
    )
    payload = _served(jsonio.verdict_to_json(verdict))
    assert jsonio.verdict_from_json(payload) == verdict
    payload[field] = value
    with pytest.raises(InvariantError, match=f"field '{field}' must be true or false"):
        jsonio.verdict_from_json(payload)


def _verdict_payloads():
    """The JSON of a feasible verdict and of a prior-inconsistent one."""
    law = PopulationLaw(
        1, [(EmpiricalDistribution.constant(1, Belief.binary(F(1, 2))), 1)]
    )
    return (
        _served(jsonio.verdict_to_json(check_feasible(law, Prior.binary(F(1, 2))))),
        _served(jsonio.verdict_to_json(check_feasible(law, Prior.binary(F(1, 3))))),
    )


_DROP = object()  # a change that deletes its field


def _edited(payload, **changes):
    out = {**payload, **changes}
    return {key: value for key, value in out.items() if value is not _DROP}


@pytest.mark.parametrize(
    "which, changes, message",
    [
        ("feasible", {"feasible": False}, "field 'feasible' disagrees"),
        ("inconsistent", {"feasible": True}, "field 'feasible' disagrees"),
        ("inconsistent", {"prior_consistent": True}, "field 'prior_consistent' disagrees"),
        ("feasible", {"prior_consistent": False}, "field 'prior_consistent' disagrees"),
        ("feasible", {"decomposition": _DROP}, "exactly one of"),
        ("inconsistent", {"certificate": _DROP}, "exactly one of"),
        ("inconsistent", {"certificate": None}, "exactly one of"),
        ("feasible", {"base": None, "prior_consistent": False}, "a decomposition needs a base"),
    ],
)
def test_verdict_decoder_refuses_flags_without_evidence(which, changes, message):
    feasible, inconsistent = _verdict_payloads()
    payload = {"feasible": feasible, "inconsistent": inconsistent}[which]
    with pytest.raises(InvariantError, match=message):
        jsonio.verdict_from_json(_edited(payload, **changes))


def test_verdict_decoder_refuses_both_kinds_of_evidence():
    feasible, inconsistent = _verdict_payloads()
    both = {**feasible, "certificate": inconsistent["certificate"]}
    with pytest.raises(InvariantError, match="exactly one of"):
        jsonio.verdict_from_json(both)


def test_edited_cli_verdict_is_refused():
    """`poplaw feasible tests/data/uniform8.json` output, edited to claim feasibility."""
    payload = jsonio.loads((DATA / "uniform8.json").read_text())
    law = jsonio.law_from_json(payload["law"])
    prior = jsonio.prior_from_json(payload["mu"])
    out = jsonio.loads(jsonio.dumps(jsonio.verdict_to_json(check_feasible(law, prior))))
    assert out["certificate"]["kind"] == "quantile_violation"
    with pytest.raises(InvariantError, match="field 'feasible' disagrees"):
        jsonio.verdict_from_json({**out, "feasible": True})
    del out["certificate"]
    with pytest.raises(InvariantError, match="exactly one of"):
        jsonio.verdict_from_json(out)


def test_structure_and_scheme_round_trip():
    rng = random.Random(5)
    law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    verdict = check_feasible(law, prior)
    scheme = synthesize(law, prior, verdict.decomposition)
    assert jsonio.scheme_from_json(_served(jsonio.scheme_to_json(scheme))) == scheme
    structure = expand_scheme(scheme)
    assert jsonio.structure_from_json(_served(jsonio.structure_to_json(structure))) == structure


def _structure_text(signal_set, signals):
    """JSON text: two agents with signal set `signal_set` see `signals` in both states."""
    kernel = ", ".join(
        '{"state": %d, "profiles": [{"signals": %s, "prob": 1}]}' % (s, signals) for s in (0, 1)
    )
    return '{"n": 2, "mu": ["1/2", "1/2"], "signal_sets": [%s, %s], "kernel": [%s]}' % (
        signal_set,
        signal_set,
        kernel,
    )


def _law_text(*beliefs):
    """JSON text: one two-agent atom per belief, each beside its own second belief."""
    count = '{"belief": %s, "count": 1}'
    atoms = ", ".join(
        '{"empirical": {"n": 2, "counts": [%s, %s]}, "weight": "1/%d"}'
        # the second beliefs ["1/2", "1/2"], ["2/3", "1/3"], ... are distinct and never 1/4
        % (count % belief, count % f'["{i + 1}/{i + 2}", "1/{i + 2}"]', len(beliefs))
        for i, belief in enumerate(beliefs)
    )
    return '{"n": 2, "atoms": [%s]}' % atoms


# for each document kind: its text from two lists of belief texts, its parser, and
# every belief the parsed value holds
_DOCUMENTS = {
    "structure": (
        lambda first, second: _structure_text(
            "[%s]" % ", ".join(first), "[%s]" % ", ".join(second)
        ),
        jsonio.structure_from_json,
        lambda structure: [
            *(label for signals in structure.signal_sets for label in signals),
            *(label for ps in structure.kernel for profile, _ in ps for label in profile),
        ],
    ),
    "law": (
        lambda first, second: _law_text(*first, *second),
        jsonio.law_from_json,
        lambda law: [belief for e, _ in law.atoms for belief, _ in e.counts],
    ),
    "scheme": (
        lambda first, second: '{"mu": ["1/2", "1/2"], "state_laws": [%s, %s]}'
        % tuple(
            '{"state": %d, "law": %s}' % (state, _law_text(*beliefs))
            for state, beliefs in enumerate((first, second))
        ),
        jsonio.scheme_from_json,
        lambda scheme: [
            belief for law in scheme.state_laws for e, _ in law.atoms for belief, _ in e.counts
        ],
    ),
}


@pytest.mark.parametrize("kind", _DOCUMENTS)
def test_structure_decodes_each_distinct_label_once(kind):
    # as signal labels, and across the atoms of a law and the state laws of a scheme
    build, parse, beliefs_of = _DOCUMENTS[kind]
    quarter = Belief([F(1, 4), F(3, 4)])

    def decoded(first, second):
        value = parse(jsonio.loads(build(first, second)))
        return [belief for belief in beliefs_of(value) if belief == quarter]

    spelled = '["1/4", "3/4"]'
    labels = decoded([spelled], [spelled, spelled])
    assert len(labels) >= 3 and len({id(x) for x in labels}) == 1
    # an equal belief spelled otherwise is decoded on its own
    labels = decoded([spelled], ['["2/8", "6/8"]', '["0.25", 0.75]'])
    assert len(labels) >= 3 and len({id(x) for x in labels}) == 3


@pytest.mark.parametrize("kind", _DOCUMENTS)
@pytest.mark.parametrize(
    "signal_set,signals,refused",
    [
        # equal as Python values to the decoded [1, 0], but not rationals
        ("[[1, 0]]", "[[true, 0], [1, 0]]", "[true, 0]"),
        ("[[1, 0]]", "[[1, 0], [1, false]]", "[1, false]"),
        ('[["1/2", "1/2"]]', '[["1/2", "1/2"], ["1/2", [1]]]', '["1/2", [1]]'),
        ('[["1/2", "1/3"]]', '[["1/2", "1/3"], ["1/2", "1/3"]]', '["1/2", "1/3"]'),
        ('[["1/2", "1/2"]]', '[["1/2", "1/2"], 2]', "2"),
    ],
    ids=["true-for-1", "false-for-0", "nested", "sum", "number"],
)
def test_structure_label_refusals_survive_the_memo(kind, signal_set, signals, refused):
    # a law or scheme reads a belief where a structure reads a label
    build, parse, _ = _DOCUMENTS[kind]
    alone = jsonio._label_from_json if kind == "structure" else jsonio.belief_from_json
    with pytest.raises(InvariantError) as expected:
        alone(jsonio.loads(refused))
    first, second = ([json.dumps(x) for x in json.loads(text)] for text in (signal_set, signals))
    with pytest.raises(InvariantError) as info:
        parse(jsonio.loads(build(first, second)))
    assert str(info.value) == str(expected.value)


def test_dumps_is_canonical():
    payload = {"b": 1, "a": [1, 2]}
    assert jsonio.dumps(payload) == jsonio.dumps({"a": [1, 2], "b": 1})
    assert jsonio.dumps(payload).endswith("\n")


def test_decimal_formatter_mode():
    m = ScalarMeasure([(F(1, 3), F(1))])
    payload = jsonio.scalar_measure_to_json(m)
    rendered = jsonio.loads(jsonio.dumps(payload, fmt=lambda x: format_decimal(x, 3)))
    assert rendered == [{"value": "0.333", "weight": "1.000"}]


# ------------------------------------------------------------ the canonical writer

CHARACTERS = st.one_of(
    st.characters(),  # non-ASCII and control characters
    st.characters(categories=["Cs"]),  # lone surrogates
    st.sampled_from('"\\/\b\f\n\r\t\x00\x7f\u2028'),
)
TEXT = st.text(CHARACTERS, max_size=8)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(max_value=-(10**40)),
    TEXT,
    st.fractions(),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)
FORMATTERS = {"rational": format_rational, "decimal": lambda value: format_decimal(value, 7)}


def _formatted(tree, fmt):
    if type(tree) is F:
        return fmt(tree)
    if type(tree) is list:
        return [_formatted(item, fmt) for item in tree]
    if type(tree) is dict:
        return {key: _formatted(item, fmt) for key, item in tree.items()}
    return tree


@settings(max_examples=150, deadline=None)
@given(tree=TREES)
@pytest.mark.parametrize("fmt", FORMATTERS.values(), ids=FORMATTERS.keys())
def test_dumps_matches_the_standard_library(fmt, tree):
    expected = json.dumps(_formatted(tree, fmt), indent=2, sort_keys=True) + "\n"
    assert jsonio.dumps(tree, fmt) == expected


def _coordinate_lists(tree):
    if type(tree) is Belief:
        return list(tree.coords)
    if type(tree) is list:
        return [_coordinate_lists(item) for item in tree]
    if type(tree) is dict:
        return {key: _coordinate_lists(item) for key, item in tree.items()}
    return tree


BELIEFS = (
    st.lists(st.integers(0, 9), min_size=2, max_size=4)
    .filter(any)
    .map(lambda ks: Belief(F(k, sum(ks)) for k in ks))
)
BELIEF_TREES = st.recursive(
    st.one_of(LEAVES, BELIEFS),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(tree=BELIEF_TREES)
@pytest.mark.parametrize("fmt", FORMATTERS.values(), ids=FORMATTERS.keys())
def test_dumps_writes_a_belief_as_its_coordinate_list(fmt, tree):
    assert jsonio.dumps(tree, fmt) == jsonio.dumps(_coordinate_lists(tree), fmt)


def test_dumps_renders_each_belief_once_per_indentation():
    formatted = []

    def fmt(value):
        formatted.append(value)
        return format_rational(value)

    belief = Belief([F(1, 3), F(2, 3)])
    tree = {"a": [belief, Belief([F(1, 3), F(2, 3)]), belief], "b": [[belief]]}
    assert jsonio.dumps(tree, fmt) == jsonio.dumps(_coordinate_lists(tree))
    assert formatted == [F(1, 3), F(2, 3)] * 2  # "a" and "b" nest their beliefs differently


def test_encoders_hand_over_the_values_own_beliefs():
    rng = random.Random(5)
    law, prior = random_feasible_instance(rng, max_n=3, max_atoms=3)
    tree = jsonio.law_to_json(law)
    for (empirical, _), atom in zip(law.atoms, tree["atoms"], strict=True):
        for (belief, _), entry in zip(empirical.counts, atom["empirical"]["counts"], strict=True):
            assert entry["belief"] is belief
    structure = expand_scheme(synthesize(law, prior, check_feasible(law, prior).decomposition))
    tree = jsonio.structure_to_json(structure)
    assert tree["mu"] is structure.prior.belief
    pairs = list(zip(structure.signal_sets, tree["signal_sets"], strict=True))
    for state, entry in enumerate(tree["kernel"]):
        profiles = zip(structure.kernel[state], entry["profiles"], strict=True)
        pairs += [(profile, written["signals"]) for (profile, _), written in profiles]
    for labels, leaves in pairs:
        for label, leaf in zip(labels, leaves, strict=True):
            assert type(label) is Belief and leaf is label


@pytest.mark.parametrize(
    "payload",
    [1.5, [F(1, 2), 0.0], {"a": {1, 2}}, {1: "a"}, {"a": [{"b": 1, 2: 3}]}, (1, 2), b"x"],
    ids=["float", "nested-float", "set", "int-key", "mixed-keys", "tuple", "bytes"],
)
def test_dumps_refuses_what_poplaw_never_emits(payload):
    with pytest.raises(TypeError):
        jsonio.dumps(payload)


def test_shown_clips_what_a_refusal_echoes():
    assert shown("1/2") == "'1/2'"
    long = shown("x" * 10**6)
    assert len(long) == SHOWN_CHARS + 3 and long.endswith("...")
    assert shown(-(10**5000)) == "with more than 4300 digits"
    assert shown(F(1, 2), str) == "1/2"
    tiny = shown(F(1, 10**4000), str)
    assert tiny == "1/1" + "0" * (SHOWN_CHARS - 3) + "..."
    assert shown(Belief.binary(F(1, 3)), str) == "(2/3, 1/3)"
    deep = []
    for _ in range(10**5):
        deep = [deep]
    assert shown(deep) == "<list nested too deeply>"


LONG = "x" * 10**5
STRUCTURE = {
    "n": 1,
    "m": 2,
    "mu": ["1/2", "1/2"],
    "signal_sets": [["a"]],
    "kernel": [{"state": s, "profiles": [{"signals": ["a"], "prob": 1}]} for s in (0, 1)],
}


@pytest.mark.parametrize(
    "decode",
    [
        lambda: jsonio.verdict_from_json({"feasible": LONG, "prior_consistent": True}),
        lambda: jsonio.certificate_from_json({"kind": LONG}),
        lambda: jsonio.structure_from_json({**STRUCTURE, "m": LONG}),
        lambda: jsonio.certificate_to_json(LONG),
        lambda: bayes_posterior(jsonio.structure_from_json(STRUCTURE), 0, LONG),
    ],
    ids=["verdict-flag", "certificate-kind", "structure-m", "certificate-type", "zero-signal"],
)
def test_refusals_echo_a_clipped_value(decode):
    with pytest.raises(InvariantError) as info:
        decode()
    assert "xxx..." in str(info.value) and len(str(info.value)) < 200
