"""The four benchmark workloads: inputs, the timed operation, and its checks.

Each workload is a closed loop with one caller. `setup` builds the inputs
from the seed; `op` is the timed operation on one input; `check` runs after
the timer stops and returns whether the output is correct together with the
JSON payload that goes into the workload's output digest; `check_all`, when
present, checks properties that span several operations.

Every function takes the imported ``poplaw`` package as ``P``.
"""

from fractions import Fraction as F

import instances

# ---------------------------------------------------------------- synth-roundtrip

def decode_problem(P, text):
    """JSON text of a {law, mu} problem to (law, prior), as the CLI reads it."""
    payload = P.jsonio.loads(text)
    return P.jsonio.law_from_json(payload["law"]), P.jsonio.prior_from_json(payload["mu"])


def encode_result(P, verdict, scheme):
    """The verdict plus the synthesized scheme as canonical JSON text."""
    out = P.jsonio.verdict_to_json(verdict)
    out["scheme"] = P.jsonio.scheme_to_json(scheme)
    return P.jsonio.dumps(out)


def synth_setup(P, seed):
    return [
        P.jsonio.dumps(
            {"law": P.jsonio.law_to_json(law), "mu": P.jsonio.belief_to_json(prior.belief)}
        )
        for _, law, prior in instances.synth_problems(P, seed)
    ]


def synth_op(P, text):
    law, prior = decode_problem(P, text)
    verdict = P.check_feasible(law, prior)
    scheme = P.synthesize(law, prior, verdict.decomposition)
    encoded = encode_result(P, verdict, scheme)
    structure = P.expand_scheme(scheme)
    same_law = P.induced_population_law(structure) == law
    fixed_points = all(
        P.bayes_posterior(structure, agent, label) == label
        for agent in range(structure.n)
        for label in structure.signal_sets[agent]
    )
    return law, verdict, encoded, same_law, fixed_points


def synth_check(P, text, result):
    law, verdict, encoded, same_law, fixed_points = result
    ok = (
        verdict.feasible
        and same_law
        and fixed_points
        and P.verify_decomposition(law, verdict.base, verdict.decomposition)
    )
    return ok, encoded


# ---------------------------------------------------------------- binary-crosscheck


def _evidence_ok(P, law, target, evidence):
    if isinstance(evidence, P.SpreadDecomposition):
        return P.verify_decomposition(law, target, evidence)
    return P.verify_certificate(law, target, evidence)


def _evidence_json(P, evidence):
    if isinstance(evidence, P.SpreadDecomposition):
        return P.jsonio.decomposition_to_json(evidence)
    return P.jsonio.certificate_to_json(evidence)


def binary_setup(P, seed):
    return instances.binary_cases(P, seed)


def binary_op(P, case):
    if case[0] == "law":
        _, law, prior, consistent = case
        verdict = P.check_feasible(law, prior)
        if not consistent:
            return verdict, None
        return verdict, P.mps_decompose(law, verdict.base, route="lp")
    _, n, mu, a, b = case
    quick = P.binary_product_feasible_quantile(n, mu, a, b)
    high = (mu - a) / (b - a)
    marginal = P.DiscreteMeasure([(P.Belief.binary(a), 1 - high), (P.Belief.binary(b), high)])
    law = P.multinomial_law(P.SymmetricProduct(marginal, n))
    target = P.base_law(law, P.Prior.binary(mu))
    return quick, law, target, P.mps_decompose(law, target, route="lp")


def binary_check(P, case, result):
    if case[0] == "law":
        _, law, prior, consistent = case
        verdict, via_lp = result
        payload = {"auto": P.jsonio.verdict_to_json(verdict)}
        if not consistent:
            mean = P.barycenter(P.law_expected_measure(law))
            cert = verdict.certificate
            ok = (
                not verdict.feasible
                and not verdict.prior_consistent
                and isinstance(cert, P.MeanMismatch)
                and cert.left == mean
                and cert.right == prior.belief != mean
            )
            return ok, payload
        evidence = verdict.decomposition if verdict.feasible else verdict.certificate
        payload["lp"] = _evidence_json(P, via_lp)
        ok = (
            verdict.prior_consistent
            and verdict.feasible == isinstance(via_lp, P.SpreadDecomposition)
            and _evidence_ok(P, law, verdict.base, evidence)
            and _evidence_ok(P, law, verdict.base, via_lp)
        )
        return ok, payload
    quick, law, target, via_lp = result
    ok = quick == isinstance(via_lp, P.SpreadDecomposition) and _evidence_ok(
        P, law, target, via_lp
    )
    return ok, {"quick": quick, "lp": _evidence_json(P, via_lp)}


# ---------------------------------------------------------------- polarization-search


def polarization_setup(P, seed):
    return instances.polarization_cases(P, seed)


def polarization_op(P, case):
    n, denominator, prior = case
    best, structure = P.search_max_polarization(n, prior, 2, denominator)
    return best, structure, P.max_polarization(n, prior)


def polarization_check(P, case, result):
    n, _, prior = case
    best, structure, report = result
    mu = prior.coordinate(1)
    bound = mu * (1 - mu) / 4
    ok = (
        best <= bound
        and report.upper_bound == bound
        and report.value <= bound
        and P.expected_polarization(P.induced_population_law(structure)) == best
    )
    fmt = P.rationals.format_rational
    payload = {
        "best": fmt(best),
        "structure": P.jsonio.structure_to_json(structure),
        "max": fmt(report.value),
    }
    return ok, payload


# ---------------------------------------------------------------- montecarlo

TV_BOUND = F(1, 50)


def mc_setup(P, seed):
    return instances.mc_cases(P, seed)


def mc_op(P, case):
    _, _, scheme, sample_seed, shards = case
    return P.simulate(scheme, instances.MC_SAMPLES, seed=sample_seed, shards=shards)


def mc_check(P, case, result):
    return True, P.jsonio.law_to_json(result)


def mc_check_all(P, cases, results):
    """Sharded runs match unsharded ones byte for byte; pooled TV <= 1/50."""
    ok = True
    encoded = {}
    pooled = {}
    for case, result in zip(cases, results):
        name, law, _, sample_seed, shards = case
        text = P.jsonio.dumps(P.jsonio.law_to_json(result))
        other = encoded.setdefault((name, sample_seed), text)
        ok = ok and other == text
        if shards == 1:
            counts = pooled.setdefault(name, (law, {}))[1]
            for empirical, weight in result.atoms:
                counts[empirical] = counts.get(empirical, 0) + weight
    for law, counts in pooled.values():
        total = sum(counts.values())
        support = set(counts) | set(law.support())
        tv = sum(abs(counts.get(e, 0) / total - law.mass(e)) for e in support) / 2
        ok = ok and tv <= TV_BOUND
    return ok


class Workload:
    def __init__(self, setup, op, check, check_all=None):
        self.setup = setup
        self.op = op
        self.check = check
        self.check_all = check_all


WORKLOADS = {
    "synth-roundtrip": Workload(synth_setup, synth_op, synth_check),
    "binary-crosscheck": Workload(binary_setup, binary_op, binary_check),
    "polarization-search": Workload(polarization_setup, polarization_op, polarization_check),
    "montecarlo": Workload(mc_setup, mc_op, mc_check, mc_check_all),
}
