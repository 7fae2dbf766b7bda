"""The fault storm: schedules, the oracle and ledger gates, and the
report.

A quick storm under fault injection must check every OK answer against
the interpreter oracle, serialize the first answer per (query, engine)
byte for byte, and balance the fault ledger three ways at every load
point: the injector's total, the service's recovery ledger and the sum
of the per-tenant ledgers.
"""

from __future__ import annotations

import random

import pytest

from repro.engines import Engine
from repro.workloads import soak
from repro.workloads.soak import (
    DEFAULT_TENANTS,
    STORM_TENANTS,
    SoakConfig,
    TenantProfile,
    _fairness_index,
    _find_knee,
    _schedule,
    format_soak_report,
    run_soak,
)


#: two one-template tenants: a cheap oracle for the tests that do not
#: need the four personas
PAIR = (
    TenantProfile(name="a", queries={"Q": "collection()//item/name"}),
    TenantProfile(name="b", queries={"Q": "collection()//person/name"}),
)


CONTRACT_GATES = (
    "no_wrong_answers", "no_crashes", "ledger_balanced", "slow_log_complete",
)


def quick_config(**kwargs) -> SoakConfig:
    defaults = dict(
        duration_s=1.0,
        documents=2,
        factor=0.002,
        load_points=(1.0,),
        deadline_s=0.5,
    )
    defaults.update(kwargs)
    return SoakConfig(**defaults)


def assert_ledgers_balance(report: dict) -> int:
    """Every point's three ledgers agree and every tenant's ledger
    balances on its own; returns the storm's injected total."""
    total = 0
    for point in report["curve"]:
        faults = point["faults"]
        tenants = point["per_tenant"].values()
        assert faults["injected_total"] == faults["handled_total"], faults
        assert faults["injected_total"] == sum(
            tenant["faults"]["injected"] for tenant in tenants
        ), faults
        for tenant in tenants:
            ledger = tenant["faults"]
            assert ledger["injected"] == (
                ledger["retried"] + ledger["degraded"] + ledger["surfaced"]
            ), ledger
        assert faults["balanced"] is True
        total += faults["injected_total"]
    assert report["faults"]["ledger_balanced"] is True
    return total


# -- building blocks -------------------------------------------------------


def test_default_tenants_are_three_distinct_personas():
    assert len(DEFAULT_TENANTS) >= 3
    names = [profile.name for profile in DEFAULT_TENANTS]
    assert len(set(names)) == len(names)
    mixes = [frozenset(profile.queries.values()) for profile in DEFAULT_TENANTS]
    assert len(set(mixes)) == len(mixes), "query mixes must be distinct"


def test_storm_tenants_add_routed_lookups():
    assert STORM_TENANTS[: len(DEFAULT_TENANTS)] == DEFAULT_TENANTS
    [lookup] = STORM_TENANTS[len(DEFAULT_TENANTS):]
    assert sorted(lookup.queries) == ["X1", "X13", "X17", "X19", "X5"]
    # bare paths: they resolve against the default document and route
    # to the one shard hosting it
    assert not any("collection()" in text for text in lookup.queries.values())
    assert SoakConfig().tenants == STORM_TENANTS


def test_schedule_is_poisson_open_loop_and_deterministic():
    profile = DEFAULT_TENANTS[0]
    first = _schedule(profile, 1.0, 10.0, random.Random(7))
    again = _schedule(profile, 1.0, 10.0, random.Random(7))
    assert first == again, "schedules must be reproducible from the seed"
    times = [when for when, _, _ in first]
    assert times == sorted(times)
    assert all(0 <= when < 10.0 for when in times)
    assert {engine for _, _, engine in first} == set(Engine.sql_engines())
    assert {template for _, template, _ in first} == set(profile.queries)
    # the mean arrival count tracks rate * duration (Poisson, so give
    # it wide slack)
    expected = profile.rate_qps * 10.0
    assert 0.5 * expected < len(first) < 1.5 * expected
    # doubling the multiplier roughly doubles the arrivals
    double = _schedule(profile, 2.0, 10.0, random.Random(7))
    assert len(double) > 1.5 * len(first)


def test_fairness_index_bounds():
    assert _fairness_index([]) == 1.0
    assert _fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    skewed = _fairness_index([10.0, 0.0, 0.0])
    assert skewed == pytest.approx(1 / 3)
    assert _fairness_index([0.0, 0.0]) == 1.0


def test_find_knee_takes_last_tracking_point():
    curve = [
        {"multiplier": 0.5, "goodput_qps": 10.0, "goodput_ratio": 1.0},
        {"multiplier": 1.0, "goodput_qps": 19.0, "goodput_ratio": 0.95},
        {"multiplier": 2.0, "goodput_qps": 22.0, "goodput_ratio": 0.55},
    ]
    knee = _find_knee(curve)
    assert knee["multiplier"] == 1.0
    assert _find_knee(curve[2:])["multiplier"] is None


def test_config_validation():
    with pytest.raises(ValueError, match="two tenants"):
        SoakConfig(tenants=(DEFAULT_TENANTS[0],))
    with pytest.raises(ValueError, match="duration"):
        SoakConfig(duration_s=0)
    with pytest.raises(ValueError, match="load_points"):
        SoakConfig(load_points=())
    with pytest.raises(ValueError, match="deadline_s"):
        SoakConfig(deadline_s=0)
    # stalls always overrun the budget
    assert SoakConfig(deadline_s=0.5).stall_ms == 1_000.0
    quick = SoakConfig().quick()
    assert quick.duration_s <= 2.0 and quick.documents <= 2


# -- the storm -------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2])
def test_storm_contract_holds(shards):
    """The storm on one shard and on two: the lookup tenant's XMark
    queries route to the default document, the other tenants'
    collection() queries scatter.  Every answer is right, every
    failure typed, every injected fault accounted for three ways."""
    config = quick_config(shards=shards, fault_rate=0.15, seed=7)
    report = run_soak(config)
    assert report["metadata"]["shards"] == shards
    assert report["metadata"]["stall_ms"] == 1_000.0

    # the storm actually stormed, on both engines
    assert assert_ledgers_balance(report) > 0
    answers = report["answers"]
    assert answers["wrong"] == [] and answers["crashes"] == []
    [point] = report["curve"]
    assert answers["checked"] == point["ok"] > 0
    # one byte comparison per (query, engine) that answered at least once
    queries = {text for p in STORM_TENANTS for text in p.queries.values()}
    assert len(queries) < answers["serialized"] <= 2 * len(queries)

    # every offered arrival is accounted for exactly once, and every
    # failure past admission is a typed service error
    for tenant in point["per_tenant"].values():
        assert tenant["offered"] == (
            tenant["ok"]
            + tenant["rejected_quota"]
            + tenant["rejected_overload"]
            + sum(tenant["errors"].values())
        )

    # the flight recorder saw every execution: clean + degraded +
    # surfaced calls are the front door's executions
    latency = report["latency"]
    executions = point["frontdoor"]["counters"]["service.frontdoor.executions"]
    assert sum(s["count"] for s in latency.values()) == executions
    slow_log = report["slow_log"]
    assert slow_log["expected"] == (
        latency["degraded"]["count"] + latency["surfaced"]["count"]
    )
    assert slow_log["captured"] == slow_log["with_diagnostics"]
    assert slow_log["complete"] is True

    # the contract gates; the knee and fairness describe the load curve
    # and are gated at full size (a one-second point on a loaded test
    # machine may shed more than 10%)
    gates = report["gates"]
    assert all(gates[gate] for gate in CONTRACT_GATES), gates
    rendered = format_soak_report(report)
    assert f"on {shards} shard(s)" in rendered
    assert "seed 7" in rendered and "0 wrong, 0 crashes" in rendered


def test_soak_under_faults_balances_every_tenant_ledger():
    """A high fault rate on the default two shards: the per-tenant
    half of the accounting invariant, at every point."""
    report = run_soak(quick_config(tenants=PAIR, fault_rate=0.3))
    assert report["faults"]["enabled"] is True
    # a 30% rate over ~100 calls must actually inject; if this fires
    # the attribution plumbing is broken, not the dice
    assert assert_ledgers_balance(report) > 0


def test_soak_differential_gate_is_byte_identical_under_chaos(monkeypatch):
    """The answer gate is live under chaos: an answer that differs
    from the oracle (here: an oracle tampered with before the storm)
    fails ``no_wrong_answers`` for the OK answers and for their
    serialization, and leaves the other gates alone."""
    target = soak._target

    def tampered(config, arrivals):
        service, oracle, texts = target(config, arrivals)
        query = PAIR[0].queries["Q"]
        oracle[query] = oracle[query][1:]
        texts[query] = texts[query] + "<extra/>"
        return service, oracle, texts

    monkeypatch.setattr(soak, "_target", tampered)
    report = run_soak(quick_config(tenants=PAIR, fault_rate=0.1))
    wrong = report["answers"]["wrong"]
    assert wrong and all(label.startswith("a/Q/") for label in wrong)
    assert any(label.endswith("(serialized)") for label in wrong)
    gates = report["gates"]
    assert gates["no_wrong_answers"] is False and gates["passed"] is False
    assert gates["no_crashes"] and gates["ledger_balanced"]


def test_soak_report_gates_and_format():
    report = run_soak(
        quick_config(
            tenants=PAIR, load_points=(0.5, 1.0), fault_rate=0.0, deadline_s=2.0
        )
    )
    assert report["gates"]["passed"] is True
    assert report["faults"]["enabled"] is False
    assert report["knee"]["multiplier"] is not None
    # offered tracks goodput up to the knee within the 10% budget
    for point in report["curve"]:
        assert point["faults"]["injected_total"] == 0
        if point["multiplier"] <= report["knee"]["multiplier"]:
            assert point["goodput_ratio"] >= 0.9
    rendered = format_soak_report(report)
    assert "knee" in rendered and "fairness" in rendered
    assert "faults off" in rendered and "slow-query log" in rendered


def test_soak_custom_tenants_and_conservation():
    report = run_soak(quick_config(tenants=PAIR, fault_rate=0.0, deadline_s=2.0))
    [point] = report["curve"]
    assert set(point["per_tenant"]) == {"a", "b"}
    for tenant in point["per_tenant"].values():
        # every offered arrival is accounted for exactly once
        assert tenant["offered"] == (
            tenant["ok"]
            + tenant["rejected_quota"]
            + tenant["rejected_overload"]
            + sum(tenant["errors"].values())
        )
