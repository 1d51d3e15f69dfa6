import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from _lawgen import random_feasible_instance
from poplaw import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    FarkasCertificate,
    InvariantError,
    MeanMismatch,
    PopulationLaw,
    Prior,
    QuantileViolation,
    ScalarMeasure,
    check_feasible,
    expand_scheme,
    synthesize,
)
from poplaw import jsonio
from poplaw.rationals import format_decimal, format_rational, parse_rational

DATA = Path(__file__).parent / "data"


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
    assert jsonio.measure_from_json(jsonio.measure_to_json(m)) == m


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
    assert jsonio.law_from_json(jsonio.law_to_json(law)) == law


def test_certificate_round_trips():
    certs = [
        MeanMismatch(F(1, 2), F(2, 5)),
        MeanMismatch(Belief.binary(F(1, 2)), Belief.binary(F(2, 5))),
        QuantileViolation(F(1, 2), F(5, 18), F(1, 4)),
        FarkasCertificate((F(1), F(-1, 3), F(0))),
    ]
    for cert in certs:
        back = jsonio.certificate_from_json(jsonio.certificate_to_json(cert))
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
        back = jsonio.verdict_from_json(jsonio.verdict_to_json(verdict))
        assert back == verdict


@pytest.mark.parametrize("field", ["feasible", "prior_consistent"])
@pytest.mark.parametrize("value", ["no", 1, None])
def test_verdict_flags_must_be_json_booleans(field, value):
    verdict = check_feasible(
        PopulationLaw(1, [(EmpiricalDistribution.constant(1, Belief.binary(F(1, 2))), 1)]),
        Prior.binary(F(1, 2)),
    )
    payload = jsonio.verdict_to_json(verdict)
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
        jsonio.verdict_to_json(check_feasible(law, Prior.binary(F(1, 2)))),
        jsonio.verdict_to_json(check_feasible(law, Prior.binary(F(1, 3)))),
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
    assert jsonio.scheme_from_json(jsonio.scheme_to_json(scheme)) == scheme
    structure = expand_scheme(scheme)
    assert jsonio.structure_from_json(jsonio.structure_to_json(structure)) == structure


def test_dumps_is_canonical():
    payload = {"b": 1, "a": [1, 2]}
    assert jsonio.dumps(payload) == jsonio.dumps({"a": [1, 2], "b": 1})
    assert jsonio.dumps(payload).endswith("\n")


def test_decimal_formatter_mode():
    m = ScalarMeasure([(F(1, 3), F(1))])
    rendered = jsonio.scalar_measure_to_json(m, fmt=lambda x: format_decimal(x, 3))
    assert rendered == [{"value": "0.333", "weight": "1.000"}]
