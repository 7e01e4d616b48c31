"""Integration tests: the four protocol families over the NoC.

Each test builds a chip, a replica group, and a closed-loop client, then
exercises a protocol property end-to-end (normal case, crash failover,
Byzantine behaviour, state sync, dedup, checkpoints).
"""

import pytest

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.bft.batching import BatchConfig
from repro.bft.group import FAMILIES, protocol_config_for
from repro.bft.leases import LeaseConfig
from repro.bft.messages import ClientRequest, proposal_keys
from repro.bft.pbft import PbftConfig, required_replicas as pbft_n
from repro.bft.minbft import MinBftConfig, required_replicas as minbft_n
from repro.bft.cft import required_replicas as cft_n
from repro.bft.passive import PassiveConfig, required_replicas as passive_n
from repro.faults import make_strategy
from repro.mesoscale import PopulationConfig
from repro.shard import ShardConfig, ShardedSystem
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig
from repro.workloads import kv_workload


def build(protocol, f=1, seed=1, width=5, height=5, client_cfg=None, protocol_config=None):
    sim = Simulator(seed=seed)
    chip = Chip(sim, ChipConfig(width=width, height=height))
    group = build_group(
        chip,
        GroupConfig(protocol=protocol, f=f, group_id="g", protocol_config=protocol_config),
    )
    client = ClientNode("c0", client_cfg or ClientConfig(think_time=50, timeout=20_000))
    group.attach_client(client)
    return sim, chip, group, client


# ----------------------------------------------------------------------
# Replica-count arithmetic (the paper's §III headline)
# ----------------------------------------------------------------------
def test_replica_requirements():
    assert [pbft_n(f) for f in (1, 2, 3)] == [4, 7, 10]
    assert [minbft_n(f) for f in (1, 2, 3)] == [3, 5, 7]
    assert [cft_n(f) for f in (1, 2, 3)] == [3, 5, 7]
    assert [passive_n(f) for f in (1, 2, 3)] == [2, 3, 4]


def test_wrong_group_size_rejected():
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    from repro.bft.replica import GroupContext
    from repro.bft.pbft import PbftReplica
    from repro.bft import KeyValueStore, SafetyRecorder
    from repro.crypto import KeyStore

    context = GroupContext(
        "g", ["a", "b", "c"], 1, KeyValueStore, KeyStore(), SafetyRecorder(), chip.metrics
    )
    with pytest.raises(ValueError):
        PbftReplica("a", context)  # PBFT f=1 needs 4, not 3


# ----------------------------------------------------------------------
# Normal-case commits for every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_normal_case_commits_and_safety(protocol):
    sim, chip, group, client = build(protocol)
    client.config.max_requests = 50
    client.start()
    sim.run(until=1_500_000)
    assert client.completed == 50
    assert group.safety.is_safe
    # Every correct replica executed every operation (within the horizon).
    for replica in group.correct_replicas():
        assert replica.last_executed == 50


@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_app_state_converges_across_replicas(protocol):
    sim, chip, group, client = build(protocol)
    client.config.max_requests = 30
    client.start()
    sim.run(until=1_500_000)
    digests = {r.app.state_digest() for r in group.correct_replicas()}
    assert len(digests) == 1


def test_latency_ordering_between_families():
    means = {}
    for protocol in ["passive", "cft", "minbft", "pbft"]:
        sim, chip, group, client = build(protocol, seed=7)
        client.config.max_requests = 60
        client.start()
        sim.run(until=2_000_000)
        means[protocol] = sum(client.latencies) / len(client.latencies)
    assert means["passive"] < means["cft"] < means["minbft"] < means["pbft"]


# ----------------------------------------------------------------------
# Crash faults / failover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_primary_crash_liveness_restored(protocol):
    sim, chip, group, client = build(protocol)
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.run(until=3_000_000)
    assert client.completed > 100
    assert group.safety.is_safe
    assert client.timeouts >= 1  # the failover was visible, then recovered


def test_pbft_tolerates_f_backup_crashes_without_timeout():
    sim, chip, group, client = build("pbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[3])  # a backup
    sim.run(until=1_000_000)
    assert client.completed > 100
    assert client.timeouts == 0  # masked seamlessly (§II.A active replication)
    assert group.safety.is_safe


def test_minbft_tolerates_backup_crash_seamlessly():
    sim, chip, group, client = build("minbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[2])
    sim.run(until=1_000_000)
    assert client.completed > 100
    assert client.timeouts == 0
    assert group.safety.is_safe


def test_passive_failover_gap_visible():
    sim, chip, group, client = build(
        "passive",
        client_cfg=ClientConfig(think_time=50, timeout=5_000),
    )
    client.start()
    sim.schedule_at(100_000, group.crash, group.members[0])
    sim.run(until=1_000_000)
    assert client.completed > 100
    gap = client.max_completion_gap(50_000, 1_000_000)
    assert gap > 5_000  # the §II.A "not seamless" gap
    assert group.replicas[group.members[1]].role == "primary"
    assert group.safety.is_safe


def test_crash_beyond_f_stalls_bft():
    sim, chip, group, client = build("minbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.schedule_at(40_000, group.crash, group.members[1])  # 2 > f=1
    sim.run(until=500_000)
    before = client.completed
    sim.run(until=1_000_000)
    assert client.completed == before  # no quorum, no progress
    assert group.safety.is_safe  # but still safe


# ----------------------------------------------------------------------
# Byzantine faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft"])
@pytest.mark.parametrize("attack", ["silent", "corrupt", "equivocate"])
def test_byzantine_primary_safety_and_liveness(protocol, attack):
    sim, chip, group, client = build(protocol)
    client.start()
    strategy = make_strategy(attack, sim.rng.stream("atk"))
    sim.schedule_at(40_000, strategy.activate, group.replicas[group.members[0]])
    sim.run(until=3_000_000)
    assert group.safety.is_safe
    assert client.completed > 100  # view change restored liveness


def test_byzantine_backup_masked():
    sim, chip, group, client = build("pbft")
    client.start()
    strategy = make_strategy("corrupt", sim.rng.stream("atk"))
    sim.schedule_at(40_000, strategy.activate, group.replicas[group.members[2]])
    sim.run(until=1_000_000)
    assert group.safety.is_safe
    assert client.completed > 150


def test_minbft_equivocation_detected_by_usig():
    """An equivocating primary cannot get conflicting ops committed."""
    sim, chip, group, client = build("minbft")
    client.start()
    strategy = make_strategy("equivocate", sim.rng.stream("atk"))
    sim.schedule_at(30_000, strategy.activate, group.replicas[group.members[0]])
    sim.run(until=2_000_000)
    assert group.safety.is_safe


# ----------------------------------------------------------------------
# Request deduplication and retransmission
# ----------------------------------------------------------------------
def test_retransmitted_requests_execute_once():
    sim, chip, group, client = build("minbft", client_cfg=ClientConfig(think_time=50, timeout=800))
    # Aggressive timeout: the client retransmits even when things work.
    client.config.max_requests = 20
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 20
    replica = group.replicas[group.members[1]]
    assert replica.app.ops_executed == 20  # not inflated by retries
    assert group.safety.is_safe


# ----------------------------------------------------------------------
# PBFT checkpoints
# ----------------------------------------------------------------------
def test_pbft_checkpoint_truncates_log():
    sim, chip, group, client = build(
        "pbft", protocol_config=PbftConfig(checkpoint_interval=10)
    )
    client.config.max_requests = 40
    client.start()
    sim.run(until=2_000_000)
    assert client.completed == 40
    for replica in group.replicas.values():
        assert replica._stable_seq >= 30
        assert all(seq > replica._stable_seq for _, seq in replica._slots)


# ----------------------------------------------------------------------
# The shared request path (BaseReplica): admission, pending timer, era
# ----------------------------------------------------------------------
BATCHING = BatchConfig(batch_size=8, batch_delay=100.0, max_inflight=4)


# Unbatched passive executes on arrival: nothing is ever in flight.
@pytest.mark.parametrize(
    "protocol,batching",
    [(p, None) for p in ("pbft", "minbft", "cft")]
    + [(p, BATCHING) for p in ("pbft", "minbft", "cft", "passive")],
    ids=lambda v: v if isinstance(v, str) else ("batched" if v else "unbatched"),
)
def test_in_flight_request_is_not_proposed_twice(protocol, batching, monkeypatch):
    proposed = []
    cls = FAMILIES[protocol].replica_cls
    order = cls._order_proposal

    def counting_order(self, proposal):
        proposed.append(proposal)
        return order(self, proposal)

    monkeypatch.setattr(cls, "_order_proposal", counting_order)
    sim, chip, group, client = build(
        protocol, protocol_config=protocol_config_for(protocol, batching=batching)
    )
    for backup in group.members[1:]:
        group.crash(backup)  # nothing commits: the proposal stays in flight
    primary = group.replicas[group.members[0]]
    request = ClientRequest("c0", 1, ("put", "k", "v"))
    primary.on_message("c0", request)
    if batching is not None:
        primary.on_message("c0", request)  # while still pooled in the batcher
    sim.run(until=sim.now + 2_000)
    primary.on_message("c0", request)  # while being ordered
    sim.run(until=sim.now + 2_000)
    assert [request.key() in proposal_keys(p) for p in proposed] == [True]


@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_pending_timer_armed_while_requests_pending(protocol):
    sim, chip, group, client = build(protocol)
    replica = group.replicas[group.members[1]]
    first = ClientRequest("c0", 1, ("put", "a", "1"))
    second = ClientRequest("c0", 2, ("put", "b", "2"))
    assert replica._pending_timer is None or not replica._pending_timer.armed
    replica._note_pending(first)
    assert replica._pending_timer.armed
    replica._note_pending(second)
    replica._note_executed(first)
    assert replica._pending_timer.armed  # second still pending
    replica._note_executed(second)
    assert not replica._pending_timer.armed
    assert replica._pending_requests == {}


VOTE_MAPS = {
    "pbft": ["_view_change_votes"],
    "minbft": ["_req_view_change_votes", "_view_change_votes"],
    "cft": ["_elect_votes"],
    "passive": [],
}


@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_era_change_voids_batcher_leases_and_old_votes(protocol):
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    config = protocol_config_for(protocol, batching=BATCHING, leases=LeaseConfig())
    group = build_group(
        chip, GroupConfig(protocol=protocol, f=1, group_id=protocol, protocol_config=config)
    )
    replica = group.replicas[group.members[1]]
    replica.batcher.pending_keys.add(("c0", 1))
    replica.batcher.inflight = 2
    replica.lease_table._grants[0] = (0, 0, 1e12)
    votes = [getattr(replica, name) for name in VOTE_MAPS[protocol]]
    for vote_map in votes:
        vote_map.update({1: {}, 2: {}, 5: {}})
    epoch = replica.lease_manager.epoch
    if protocol in ("pbft", "minbft"):
        replica._enter_view(2)
    elif protocol == "cft":
        replica._enter_era(2, replica._elect_votes)
    else:
        replica._on_suspect()  # promotion: the passive era change
    assert replica.batcher.pending_keys == set() and replica.batcher.inflight == 0
    assert len(replica.lease_table) == 0
    assert replica.lease_manager.epoch > epoch
    assert all(sorted(vote_map) == [5] for vote_map in votes)
    if protocol != "passive":
        assert replica.view == 2


# ----------------------------------------------------------------------
# PBFT agreement under batching + rejuvenation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2])
def test_pbft_batching_with_rejuvenation_keeps_agreement(seed):
    """A primary rejuvenated mid-proposal leaves a sequence gap; the
    replicas that committed operations above it are rejuvenated or
    outvoted before it closes.  The next view must re-propose those
    operations at their sequence numbers (null-filling the gap), and no
    replica may execute a commit from an older view that the new view
    did not re-propose."""
    system = ShardedSystem(
        ShardConfig(
            seed=seed, n_shards=1, protocol="pbft", f=1,
            protocol_config=protocol_config_for("pbft", batching=BATCHING),
        )
    )
    workload = kv_workload(keys=64, read_ratio=0.1, rate_per_client=1e-5)
    system.attach_population("pop", PopulationConfig(n_clients=1000, workload=workload))
    system.start()
    system.run(260_000)
    group = system.shards["s0"].group
    assert group.safety.is_safe, group.safety.violations[:2]
    assert min(r.last_executed for r in group.replicas.values()) > 40


# ----------------------------------------------------------------------
# State sync
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft"])
def test_recovered_replica_catches_up(protocol):
    sim, chip, group, client = build(protocol)
    client.start()
    victim = group.members[1]
    sim.schedule_at(40_000, group.crash, victim)
    sim.schedule_at(240_000, group.replicas[victim].recover)
    sim.run(until=2_000_000)
    assert group.safety.is_safe
    recovered = group.replicas[victim]
    leader = max(r.last_executed for r in group.correct_replicas())
    assert recovered.last_executed >= leader - 20  # caught up (modulo in-flight)
    assert recovered.state_syncs >= 1


def test_client_view_tracking_follows_primary():
    sim, chip, group, client = build("minbft")
    client.start()
    sim.schedule_at(40_000, group.crash, group.members[0])
    sim.run(until=2_000_000)
    # After failover the client should address the new primary directly.
    assert client.primary_name != group.members[0]
