"""JSON schemas for every externally visible value.

Encoders return trees of exact values: `Fraction` and `Belief` leaves, never
text. `dumps` is the one place either becomes text: a rational as an int when
integral and a "p/q" string otherwise, or through the formatter it is given,
such as display-only decimals; a belief as the array of its coordinates. On
input, ints, "p/q" strings and decimal literals are all accepted and converted
exactly (`loads` parses JSON number literals through their source text, so 0.3
really means 3/10); parsers always rebuild exact values. Within one measure,
law, scheme, structure, spread target or decomposition, each distinct belief
array is decoded once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial

from .errors import InvariantError
from .feasibility import FeasibilityVerdict
from .measures import (
    Belief,
    DiscreteMeasure,
    EmpiricalDistribution,
    PopulationLaw,
    Prior,
    ScalarMeasure,
)
from .mps import (
    FarkasCertificate,
    MeanMismatch,
    QuantileViolation,
    SpreadDecomposition,
    SpreadTarget,
)
from .rationals import check_exponent, format_rational, parse_rational, require_int, shown
from .structures import InformationStructure, SymmetricScheme


def loads(text: str):
    """Parse JSON with exact number handling (decimal literals become Fractions)."""
    try:
        return json.loads(text, parse_float=_parse_float, parse_int=int)
    except json.JSONDecodeError as exc:
        raise InvariantError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per nested array or object
        raise InvariantError("malformed JSON: nested too deeply") from exc
    except InvariantError:
        raise
    except ValueError as exc:
        # int() and Fraction() refuse digit strings past sys.get_int_max_str_digits()
        raise InvariantError("JSON number literal has too many digits") from exc


def _parse_float(text: str) -> Fraction:
    check_exponent(text)
    return Fraction(text)


_quote = json.encoder.encode_basestring_ascii


def dumps(payload, fmt=format_rational) -> str:
    """Canonical serialization: sorted keys, stable separators, trailing newline.

    The one place a rational or a belief becomes text: each `Fraction` leaf is
    passed through `fmt` (by default an int or a "p/q" string), and each
    `Belief` leaf is the array of its coordinates, each through `fmt`, rendered
    once per document and indentation: equal beliefs render alike. The text
    is byte for byte what `json.dumps(payload, indent=2, sort_keys=True) + "\n"`
    gives for the formatted tree with each belief replaced by its coordinate
    list, written without the standard library's pure-Python encoder, which it
    uses whenever `indent` is set. Strings, ints, bools, None, lists and dicts
    with str keys are the only other values; anything else, floats and tuples
    included, raises TypeError.
    """
    chunks: list[str] = []
    _write(payload, fmt, "\n", chunks.append, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value, fmt, newline: str, emit, beliefs: dict) -> None:
    # beliefs: each (belief, newline) already rendered in this document, with its text
    kind = type(value)
    if kind is Fraction:
        value = fmt(value)
        kind = type(value)
    elif kind is Belief:
        text = beliefs.get((value, newline))
        if text is None:
            # the array of its coordinates: a tuple of Fraction leaves
            chunks: list[str] = []
            _write(list(value.coords), fmt, newline, chunks.append, beliefs)
            text = beliefs[value, newline] = "".join(chunks)
        emit(text)
        return
    if kind is str:
        emit(_quote(value))
    elif kind is int:
        emit(int.__repr__(value))
    elif kind is list:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            sep = "," + inner
            _write(item, fmt, inner, emit, beliefs)
        emit(newline + "]")
    elif kind is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # a key that is not a str makes sorted() or _quote raise TypeError
        for key in sorted(value):
            emit(sep + _quote(key) + ": ")
            sep = "," + inner
            _write(value[key], fmt, inner, emit, beliefs)
        emit(newline + "}")
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------- encoders

def belief_to_json(belief: Belief):
    return list(belief.coords)


def measure_to_json(measure: DiscreteMeasure):
    return [{"belief": b, "weight": w} for b, w in measure.atoms]


def scalar_measure_to_json(measure: ScalarMeasure):
    return [{"value": v, "weight": w} for v, w in measure.atoms]


def empirical_to_json(empirical: EmpiricalDistribution):
    return {
        "n": empirical.n,
        "counts": [{"belief": b, "count": c} for b, c in empirical.counts],
    }


def law_to_json(law: PopulationLaw):
    return {
        "n": law.n,
        "atoms": [{"empirical": empirical_to_json(e), "weight": w} for e, w in law.atoms],
    }


def target_to_json(target: SpreadTarget):
    return [{"weight": w, "measure": measure_to_json(m)} for w, m in target.components]


def decomposition_to_json(decomposition: SpreadDecomposition):
    return [{"weight": w, "law": law_to_json(q)} for w, q in decomposition.components]


def certificate_to_json(certificate):
    fields = _CERTIFICATE_FIELDS.get(type(certificate))
    if fields is None:
        raise InvariantError(f"unknown certificate type: {shown(certificate)}")
    out = {"kind": certificate.kind}
    for key, _ in fields:
        value = getattr(certificate, key)
        out[key] = list(value) if type(value) is tuple else value
    return out


def verdict_to_json(verdict: FeasibilityVerdict):
    out = {
        "feasible": verdict.feasible,
        "prior_consistent": verdict.prior_consistent,
        "base": None if verdict.base is None else target_to_json(verdict.base),
    }
    if verdict.decomposition is not None:
        out["decomposition"] = decomposition_to_json(verdict.decomposition)
    if verdict.certificate is not None:
        out["certificate"] = certificate_to_json(verdict.certificate)
    return out


def structure_to_json(structure: InformationStructure):
    return {
        "n": structure.n,
        "m": structure.m,
        "mu": structure.prior.belief,
        "signal_sets": [list(signals) for signals in structure.signal_sets],
        "kernel": [
            {
                "state": state,
                "profiles": [
                    {"signals": list(profile), "prob": prob}
                    for profile, prob in structure.kernel[state]
                ],
            }
            for state in range(structure.m)
        ],
    }


def scheme_to_json(scheme: SymmetricScheme):
    return {
        "n": scheme.n,
        "mu": scheme.prior.belief,
        "state_laws": [
            {"state": state, "law": law_to_json(law)}
            for state, law in enumerate(scheme.state_laws)
        ],
    }


# ---------------------------------------------------------------- parsers

def _require(payload, key, where):
    if not isinstance(payload, dict) or key not in payload:
        raise InvariantError(f"{where}: missing field {key!r}")
    return payload[key]


def _array(payload, what):
    if not isinstance(payload, list):
        raise InvariantError(f"{what} must be an array")
    return payload


def _require_array(payload, key, where):
    return _array(_require(payload, key, where), f"{where}: field {key!r}")


def _require_bool(payload, key, where):
    # type(), not bool(): any non-empty string or non-zero number is truthy
    value = _require(payload, key, where)
    if type(value) is not bool:
        raise InvariantError(f"{where}: field {key!r} must be true or false, not {shown(value)}")
    return value


def _pairs(items, where, first, read_first, second, read_second):
    """Read each object of `items` as the pair of its two fields, each through its reader.

    A generator, so the constructor it feeds reports the first fault in
    document order.
    """
    for item in items:
        yield read_first(_require(item, first, where)), read_second(_require(item, second, where))


def belief_from_json(payload) -> Belief:
    return Belief(_array(payload, "belief"))


def _beliefs():
    """`belief_from_json` for one document, decoding each distinct belief array once.

    The memo key pairs each element with its type, so `[true, 0]` never finds
    the entry of `[1, 0]`, nor `["0.25", 0.75]` that of `["1/4", "3/4"]`. A
    refused array is never stored, so it is refused at its first occurrence.
    """
    memo: dict = {}

    def belief(payload):
        if type(payload) is not list:
            return belief_from_json(payload)
        key = tuple([(type(x), x) for x in payload])
        try:
            found = memo.get(key)
        except TypeError:  # a nested array or object: refused below, never stored
            found = None
        if found is None:
            found = memo[key] = belief_from_json(payload)
        return found

    return belief


def prior_from_json(payload) -> Prior:
    return Prior(belief_from_json(payload))


def _measure(payload, belief) -> DiscreteMeasure:
    atoms = _array(payload, "measure")
    return DiscreteMeasure(
        _pairs(atoms, "measure atom", "belief", belief, "weight", parse_rational)
    )


def measure_from_json(payload) -> DiscreteMeasure:
    return _measure(payload, _beliefs())


def scalar_measure_from_json(payload) -> ScalarMeasure:
    atoms = _array(payload, "scalar measure")
    return ScalarMeasure(
        _pairs(atoms, "scalar atom", "value", parse_rational, "weight", parse_rational)
    )


def _empirical(payload, belief) -> EmpiricalDistribution:
    n = _require(payload, "n", "empirical distribution")
    counts = _require_array(payload, "counts", "empirical distribution")
    # the constructor checks each count
    entries = _pairs(counts, "count entry", "belief", belief, "count", lambda count: count)
    return EmpiricalDistribution(n, entries)


def _law(payload, belief) -> PopulationLaw:
    n = _require(payload, "n", "population law")
    atoms = _require_array(payload, "atoms", "population law")
    empirical = partial(_empirical, belief=belief)
    return PopulationLaw(
        n, _pairs(atoms, "law atom", "empirical", empirical, "weight", parse_rational)
    )


def law_from_json(payload) -> PopulationLaw:
    return _law(payload, _beliefs())


def target_from_json(payload) -> SpreadTarget:
    components = _array(payload, "spread target")
    measure = partial(_measure, belief=_beliefs())
    return SpreadTarget(
        _pairs(components, "target component", "weight", parse_rational, "measure", measure)
    )


def decomposition_from_json(payload) -> SpreadDecomposition:
    components = _array(payload, "decomposition")
    law = partial(_law, belief=_beliefs())
    return SpreadDecomposition(
        _pairs(components, "decomposition component", "weight", parse_rational, "law", law)
    )


def _side_from_json(payload):
    if isinstance(payload, list):
        return belief_from_json(payload)
    return parse_rational(payload)


def _rationals_from_json(payload):
    return tuple(map(parse_rational, _array(payload, "certificate: field 'y'")))


# each certificate class, its fields in order and the reader of each
_CERTIFICATE_FIELDS = {
    MeanMismatch: (("left", _side_from_json), ("right", _side_from_json)),
    QuantileViolation: tuple((k, parse_rational) for k in ("alpha", "quantile_mean", "low_atom")),
    FarkasCertificate: (("y", _rationals_from_json),),
}
_CERTIFICATE_KINDS = {cls.kind: cls for cls in _CERTIFICATE_FIELDS}


def certificate_from_json(payload):
    kind = _require(payload, "kind", "certificate")
    # an unhashable kind, an array or an object, is unknown too
    cls = _CERTIFICATE_KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        raise InvariantError(f"unknown certificate kind: {shown(kind)}")
    fields = _CERTIFICATE_FIELDS[cls]
    return cls(*[read(_require(payload, key, "certificate")) for key, read in fields])


def problem_from_json(payload) -> tuple[PopulationLaw, Prior]:
    """The (law, prior) of a problem document {"mu": belief, "law": law}."""
    prior = prior_from_json(_require(payload, "mu", "problem"))
    return law_from_json(_require(payload, "law", "problem")), prior


def verdict_from_json(payload) -> FeasibilityVerdict:
    flags = {
        key: _require_bool(payload, key, "verdict") for key in ("feasible", "prior_consistent")
    }
    base = _require(payload, "base", "verdict")
    decomposition, certificate = payload.get("decomposition"), payload.get("certificate")
    if (decomposition is None) == (certificate is None):
        raise InvariantError("verdict: need exactly one of 'decomposition' and 'certificate'")
    verdict = FeasibilityVerdict(
        base=None if base is None else target_from_json(base),
        decomposition=None if decomposition is None else decomposition_from_json(decomposition),
        certificate=None if certificate is None else certificate_from_json(certificate),
    )
    if verdict.feasible and not verdict.prior_consistent:
        raise InvariantError("verdict: a decomposition needs a base")
    for key, flag in flags.items():
        if getattr(verdict, key) != flag:
            raise InvariantError(f"verdict: field {key!r} disagrees with the evidence")
    return verdict


def _label_from_json(payload, belief=belief_from_json):
    if isinstance(payload, list):
        return belief(payload)
    if isinstance(payload, str):
        return payload
    raise InvariantError(f"signal label must be a string or a belief array: {shown(payload)}")


def _per_state(entries, dimension: int, where: str, decode) -> list:
    """Decode an array of {"state": S, ...} entries into one value per state.

    Refuses a state that is not an integer in range, repeats or is missing.
    """
    decoded: list = [None] * dimension
    for entry in entries:
        state = require_int(_require(entry, "state", where), f"{where}: state", 0, dimension)
        if decoded[state] is not None:
            raise InvariantError(f"{where}: state {state} appears twice")
        decoded[state] = decode(entry)
    for state, value in enumerate(decoded):
        if value is None:
            raise InvariantError(f"{where}: state {state} is missing")
    return decoded


def _profiles_from_json(entry, label):
    def signals(payload):
        return tuple(map(label, _array(payload, "profile: field 'signals'")))

    profiles = _require_array(entry, "profiles", "kernel entry")
    return tuple(_pairs(profiles, "profile", "signals", signals, "prob", parse_rational))


def _redundant(payload, key, value, where, what):
    """Refuse an optional field that repeats `value`, read off the rest, but disagrees."""
    given = payload.get(key, value)
    if type(given) is not int or given != value:
        raise InvariantError(f"{where}: field {key!r} must be {value}, {what}, not {shown(given)}")


def structure_from_json(payload) -> InformationStructure:
    n = _require(payload, "n", "information structure")
    prior = prior_from_json(_require(payload, "mu", "information structure"))
    _redundant(
        payload, "m", prior.dimension, "information structure", "the number of states in mu"
    )
    label = partial(_label_from_json, belief=_beliefs())
    signal_sets = [
        tuple(map(label, _array(signals, "signal set")))
        for signals in _require_array(payload, "signal_sets", "information structure")
    ]
    kernel = _per_state(
        _require_array(payload, "kernel", "information structure"),
        prior.dimension,
        "kernel entry",
        lambda entry: _profiles_from_json(entry, label),
    )
    return InformationStructure(n, prior, signal_sets, kernel)


def scheme_from_json(payload) -> SymmetricScheme:
    prior = prior_from_json(_require(payload, "mu", "scheme"))
    belief = _beliefs()
    laws = _per_state(
        _require_array(payload, "state_laws", "scheme"),
        prior.dimension,
        "scheme state law",
        lambda entry: _law(_require(entry, "law", "scheme state law"), belief),
    )
    scheme = SymmetricScheme(prior, laws)
    _redundant(payload, "n", scheme.n, "scheme", "the population size of the state laws")
    return scheme
