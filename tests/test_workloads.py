"""Seeded workload generation: determinism, serialization, replay.

The workload format's whole value is the guarantee that the same spec
produces a byte-identical serialized workload on any machine and Python
version — the golden checksum below is computed once and asserted on every
interpreter in the CI matrix, so a platform-dependent draw or float format
regression fails loudly rather than silently desynchronizing CI replays.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import CONFIGURATIONS, replay_workload
from repro.bench.workloads import (QUERY_FAMILIES, Workload, WorkloadSpec,
                                   generate_workload, standard_mixes)

GOLDEN_SPEC = WorkloadSpec(
    name="golden", num_series=64, length=32, data_seed=5, seed=21,
    num_queries=18, mix={"range": 0.5, "nearest": 0.3, "join": 0.2},
    skew=0.7, repetition=0.25, selectivity=(0.02, 0.1), k_choices=(1, 3))

#: SHA-256 of GOLDEN_SPEC's serialized workload; identical on every
#: platform and Python version by design.  If an intentional generator
#: change moves it, update it here and bump WORKLOAD_FORMAT.
GOLDEN_CHECKSUM = "2317c18d302a3cf8addb1762ef25dc619028d0490477273d94d702e1d1a62beb"


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = generate_workload(GOLDEN_SPEC)
        second = generate_workload(GOLDEN_SPEC)
        assert first.to_json() == second.to_json()

    def test_golden_checksum(self):
        assert generate_workload(GOLDEN_SPEC).checksum() == GOLDEN_CHECKSUM

    def test_different_seed_different_stream(self):
        from dataclasses import replace
        other = generate_workload(replace(GOLDEN_SPEC, seed=22))
        assert other.checksum() != GOLDEN_CHECKSUM


class TestSerialization:
    def test_json_round_trip(self):
        workload = generate_workload(GOLDEN_SPEC)
        restored = Workload.from_json(workload.to_json())
        assert restored == workload
        assert restored.to_json() == workload.to_json()

    def test_unknown_format_rejected(self):
        text = generate_workload(GOLDEN_SPEC).to_json().replace(
            '"format": 1', '"format": 99')
        with pytest.raises(ValueError):
            Workload.from_json(text)


class TestSpecValidation:
    def test_mapping_mix_normalized(self):
        spec = WorkloadSpec(name="m", mix={"nearest": 1.0, "range": 2.0})
        assert spec.mix == (("nearest", 1.0), ("range", 2.0))
        assert spec.mix_weights() == {"nearest": 1.0, "range": 2.0}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", mix={"cartesian": 1.0})

    def test_all_zero_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", mix={"range": 0.0})

    def test_repetition_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", repetition=1.0)

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", selectivity=(0.1, 0.01))


class TestGeneratedStream:
    def test_only_requested_families(self):
        workload = generate_workload(WorkloadSpec(
            name="r", num_series=32, length=16, num_queries=12,
            mix={"range": 1.0}))
        assert {q.family for q in workload.queries} == {"range"}
        for query in workload.queries:
            assert query.family in QUERY_FAMILIES

    def test_repeats_point_at_fresh_roots(self):
        workload = generate_workload(GOLDEN_SPEC)
        by_label = {q.label: q for q in workload.queries}
        repeats = [q for q in workload.queries if q.repeat_of]
        assert repeats, "repetition=0.25 over 18 queries should repeat"
        for query in repeats:
            root = by_label[query.repeat_of]
            assert root.repeat_of is None
            assert root.text == query.text
            assert root.values == query.values

    def test_join_queries_are_parameterless(self):
        workload = generate_workload(GOLDEN_SPEC)
        for query in workload.queries:
            if query.family == "join":
                assert query.values is None and query.bindings() == {}
            else:
                assert query.parameter_series() is not None

    def test_profile_collapses_repeats(self):
        workload = generate_workload(GOLDEN_SPEC)
        profile = workload.profile()
        fresh = sum(1 for q in workload.queries if not q.repeat_of)
        assert profile.total_queries == len(workload)
        assert len(profile) == fresh < len(workload)


REPLAY_SPECS = {
    "replay": WorkloadSpec(
        name="replay", num_series=48, length=16, data_seed=3, seed=9,
        num_queries=10, mix={"range": 0.7, "nearest": 0.3},
        repetition=0.5, selectivity=(0.05, 0.2)),
    **standard_mixes(),
}

#: The advisor's measured weighted cost may exceed the best hand-picked
#: configuration's by at most this factor.
ADVISOR_TOLERANCE = 1.15


@pytest.fixture(scope="module", params=sorted(REPLAY_SPECS))
def replayed(request):
    """One workload — the small replay spec or a standard mix — replayed
    under every configuration."""
    workload = generate_workload(REPLAY_SPECS[request.param])
    return workload, {
        configuration: replay_workload(workload, configuration=configuration)
        for configuration in CONFIGURATIONS}


class TestReplayDeterminism:
    def test_same_workload_same_plans_and_answers(self, replayed):
        """The advisor's second replay is the witness: what it installs,
        what the planner then picks and what comes back all repeat."""
        workload, reports = replayed
        again = replay_workload(workload, configuration="advisor")
        assert again.detail == reports["advisor"].detail
        assert again.plan_signature() == reports["advisor"].plan_signature()
        assert again.answer_signature() == reports["advisor"].answer_signature()

    def test_configurations_agree_on_answers(self, replayed):
        _, reports = replayed
        for report in reports.values():
            assert report.answer_signature() == reports["none"].answer_signature()

    def test_advisor_stays_within_15_percent_of_the_best_configuration(self, replayed):
        """In measured weighted cost — ``io_total`` plus distance
        computations at the cost model's exchange rate, the currency the
        advisor optimised in."""
        _, reports = replayed
        costs = {name: report.total_weighted_cost for name, report in reports.items()}
        best = min(costs, key=costs.get)
        assert costs["advisor"] <= ADVISOR_TOLERANCE * costs[best] + 0.5, (
            f"{reports['advisor'].detail!r} at {costs['advisor']:.1f} against "
            f"{best!r} at {costs[best]:.1f}")

    def test_high_repetition_hits_the_answer_cache(self):
        report = replay_workload(generate_workload(REPLAY_SPECS["replay"]),
                                 configuration="none")
        assert report.cache_hits > 0
        for result in report.results:
            if result.from_cache:
                assert result.io_accesses == 0
                assert result.weighted_cost == 0.0
