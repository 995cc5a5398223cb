"""The serial block pipeline settles runs of transactions in one step; what it
produces must be what one event per transaction produced.

The oracle here is the per-transaction schedule written out by hand: the
first transaction of a block is handled the instant the pipeline reaches the
block, each next one ``step`` later (``t = t + step``, accumulated — the very
float additions ``sim.now + delay`` made), the block end after the last; a
crash or retirement at ``cut`` keeps exactly what was handled at instants
strictly before it (the fault event is queued first, so it wins ties), and a
recovery replays the interrupted block whole.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import inf
from typing import ClassVar
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Scenario, Session
from repro.analysis.metrics import MetricsCollector
from repro.api.parallel import reset_run_counters
from repro.config import HASH_BATCH_SIZE, SetchainConfig
from repro.core.base import BaseSetchainServer
from repro.core.byzantine import BEHAVIOURS, ByzantineBehaviour
from repro.core.hashchain import HashchainServer
from repro.core.types import EpochProof, HashBatch
from repro.core.vanilla import VanillaServer
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.ledger.types import Block, new_transaction
from repro.obs.export import export_chrome
from repro.sim.scheduler import Simulator
from repro.workload.elements import Element, make_element


class RecordingLedger:
    """The two ledger endpoints a server sees; keeps what was appended, when."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.appended: list[tuple[float, object]] = []

    def append(self, tx) -> None:
        self.appended.append((self.sim.now, tx.payload))

    def subscribe(self, app) -> None:
        pass


@dataclass
class Oracle:
    """The per-transaction schedule, one transaction at a time."""

    overhead: float
    validation: float
    stamps: dict[int, float] = field(default_factory=dict)
    epochs: list[set[int]] = field(default_factory=list)
    proof_times: list[float] = field(default_factory=list)
    refused: int = 0
    idle_at: list[float] = field(default_factory=list)

    def block(self, payloads: list[object], start: float, cut: float) -> bool:
        """Process one block from ``start``; False if ``cut`` interrupted it."""
        epoched = set().union(*self.epochs)
        candidates: dict[int, Element] = {}
        step = self.overhead + self.validation
        t = start
        for payload in payloads:
            if t >= cut:
                return False
            if isinstance(payload, Element):
                if not payload.valid:
                    self.refused += 1
                elif (payload.element_id not in epoched
                        and payload.element_id not in candidates):
                    candidates[payload.element_id] = payload
                    self.stamps[payload.element_id] = min(
                        t, self.stamps.get(payload.element_id, inf))
                t = t + step
            else:
                t = t + self.overhead
        if t >= cut:
            return False
        if candidates:
            self.epochs.append(set(candidates))
            self.proof_times.append(t)
        self.idle_at.append(t)
        return True


def _payloads(draw, known: list[Element]) -> list[object]:
    """A block mixing fresh, duplicate, already-epoched and invalid elements
    with proofs and payloads that are not Vanilla's at all."""
    payloads: list[object] = []
    for kind in draw(st.lists(st.sampled_from(
            ["fresh", "fresh", "fresh", "duplicate", "known", "invalid",
             "proof", "foreign"]), min_size=0, max_size=25)):
        earlier = [p for p in payloads if isinstance(p, Element)]
        if kind == "duplicate" and earlier:
            payloads.append(draw(st.sampled_from(earlier)))
        elif kind == "known" and known:
            payloads.append(draw(st.sampled_from(known)))
        elif kind == "invalid":
            payloads.append(make_element("byz", 100, valid=False))
        elif kind == "proof":
            payloads.append(EpochProof(epoch_number=99, epoch_hash="0" * 128,
                                       signature=b"x", signer="server-9"))
        elif kind == "foreign":
            payloads.append(HashBatch(batch_hash="f" * 128, signature=b"x",
                                      signer="server-9"))
        else:
            payloads.append(make_element("c", 100))
    return payloads


_service_time = st.one_of(st.just(0.0),
                          st.floats(min_value=1e-6, max_value=0.5))


#: The prelude block (at most 4 elements of at most 1 s each) is finalized at
#: ``_PRELUDE_AT`` and is idle again by 4.0: strictly clear of the second
#: block (``start >= 5``) and of the interruption (``cut >= start - 0.5``).
_PRELUDE_AT = 0.0


@st.composite
def _cases(draw):
    prelude = [make_element("c", 100)
               for _ in range(draw(st.integers(0, 4)))]
    main = _payloads(draw, prelude)
    overhead, validation = draw(_service_time), draw(_service_time)
    start = draw(st.floats(min_value=5.0, max_value=6.0))
    # The instants of the uninterrupted schedule: cutting exactly on one pins
    # the tie rule, cutting between two the truncation.
    instants, t = [], start
    for payload in main:
        instants.append(t)
        t = t + (overhead + validation if isinstance(payload, Element)
                 else overhead)
    instants.append(t)
    cut = draw(st.one_of(
        st.just(inf), st.sampled_from(instants),
        st.floats(min_value=start - 0.5, max_value=max(t, start) + 0.5)))
    how = draw(st.sampled_from(["crash", "retire"]))
    recover_after = draw(st.floats(min_value=0.0, max_value=2.0))
    stepped = draw(st.booleans())
    return (prelude, main, overhead, validation, start, cut, how,
            recover_after, stepped)


def _boundary_case(cut: float, how: str, stepped: bool):
    """The slowest prelude and a second block arriving, and cut, at ``start``
    or one instant in: every same-instant tie at once."""
    prelude = [make_element("c", 100) for _ in range(4)]
    main = [prelude[0], make_element("c", 100), make_element("c", 100)]
    return prelude, main, 0.5, 0.5, 5.0, cut, how, 0.0, stepped


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
@example(_boundary_case(5.0, "crash", True))
@example(_boundary_case(5.0, "retire", False))
@example(_boundary_case(6.0, "crash", False))
@example(_boundary_case(6.0, "retire", True))
def test_runs_match_the_per_transaction_schedule(case):
    (prelude, main, overhead, validation, start, cut, how, recover_after,
     stepped) = case
    sim = Simulator(seed=1)
    scheme = SignatureScheme(PublicKeyInfrastructure())
    config = SetchainConfig(n_servers=4, tx_processing_overhead=overhead,
                            element_validation_time=validation)
    metrics = MetricsCollector()
    server = VanillaServer("server-0", sim, config, scheme,
                           scheme.generate_keypair("server-0"), metrics=metrics)
    ledger = RecordingLedger(sim)
    server.connect_ledger(ledger)

    def block(height: int, payloads: list[object], at: float) -> Block:
        return Block(height=height, proposer="p", timestamp=at,
                     transactions=tuple(new_transaction(p, 100, "server-1")
                                        for p in payloads))

    oracle = Oracle(overhead, validation)
    # The interruption is queued before the blocks, as a fault schedule is.
    if cut != inf:
        sim.call_at(cut, server.crash if how == "crash" else server.retire)
    first, second = block(1, prelude, _PRELUDE_AT), block(2, main, start)
    sim.call_at(_PRELUDE_AT, lambda: server.finalize_block(first))
    sim.call_at(start, lambda: server.finalize_block(second))
    assert oracle.block(prelude, _PRELUDE_AT, inf)
    assert oracle.idle_at[-1] < min(start, cut)
    done = oracle.block(main, start, cut)
    if not done and how == "crash":
        if start < cut:
            oracle.idle_at.append(cut)  # the crash empties the pipeline
        resume = max(cut, start) + recover_after
        sim.call_at(resume, server.recover)
        assert oracle.block(main, resume, inf)
    elif not done and start < cut:
        oracle.idle_at.append(cut)  # so does retirement

    # Stepped, the clock stops after every event and a run in flight is
    # published piecemeal; straight, each run is published at its end.
    idle_at: list[float] = []
    was_idle = True
    while stepped and sim.step():
        if server.pipeline_idle and not was_idle:
            idle_at.append(sim.now)
        was_idle = server.pipeline_idle
        # The running count is the transactions no step has begun on.
        assert server.backlog == sum(
            len(txs) for _, txs in server._blocks) - server._cursor
    sim.run_until_idle()

    stamps = {record.element_id: record.in_ledger_at
              for record in metrics.elements.values()
              if record.in_ledger_at is not None}
    assert stamps == oracle.stamps
    assert [{e.element_id for e in server.epoch_elements(number)}
            for number in range(1, server.epoch + 1)] == oracle.epochs
    assert [at for at, payload in ledger.appended
            if isinstance(payload, EpochProof)] == oracle.proof_times
    assert metrics.byzantine_counters.get(
        "invalid_elements_refused", 0) == oracle.refused
    assert not stepped or idle_at == oracle.idle_at
    assert server.backlog == 0 and server.pipeline_idle


def test_a_run_end_tied_with_an_event_armed_mid_run_goes_to_the_run():
    """The tie residue, pinned.  A run's continuation draws its sequence
    number when the run begins; the per-transaction schedule drew it at the
    last member.  An event armed in between for exactly the run's last
    instant used to precede the continuation and now follows it: a crash
    armed at 1.25 for 2.5, the end of a run begun at 1.0, finds the block
    end handled and the epoch made, where it used to interrupt the block
    and leave it to the recovery replay.  (An event armed before the run
    begins, as every scheduled fault is, wins the tie either way.)"""
    def play(armed_at: float) -> tuple[int, bool]:
        sim = Simulator(seed=1)
        scheme = SignatureScheme(PublicKeyInfrastructure())
        config = SetchainConfig(n_servers=4, tx_processing_overhead=0.25,
                                element_validation_time=0.25)
        server = VanillaServer("server-0", sim, config, scheme,
                               scheme.generate_keypair("server-0"))
        server.connect_ledger(RecordingLedger(sim))
        block = Block(height=1, proposer="p", timestamp=1.0,
                      transactions=tuple(
                          new_transaction(make_element("c", 100), 100, "server-1")
                          for _ in range(3)))
        sim.call_at(1.0, lambda: server.finalize_block(block))
        sim.call_at(armed_at, lambda: sim.call_at(2.5, server.crash))
        sim.run_until(3.0)
        return server.epoch, bool(server._missed_blocks)

    assert 1.0 + 0.5 + 0.5 + 0.5 == 2.5  # the tie is exact
    assert play(armed_at=1.25) == (1, False)
    assert play(armed_at=0.5) == (0, True)


def _vanilla_session() -> Session:
    return (Scenario.vanilla().servers(4).rate(400).inject_for(3).drain(10)
            .backend("ideal").seed(3).session().start())


def test_stopping_the_clock_mid_run_shows_exactly_the_stamps_so_far():
    """A run publishes its stamps when its step completes; a clock stopped
    inside the step must still show every instant that has passed — whoever
    stops it, here the bare simulator and no ``Session`` or ``Deployment``."""
    complete = _vanilla_session()
    complete.run()
    final = {record.element_id: record.in_ledger_at
             for record in complete.deployment.metrics.elements.values()}
    at = sorted(t for t in final.values() if t is not None)
    horizon = at[len(at) // 3]  # an element's own instant: inside a run
    paused = _vanilla_session()
    paused.deployment.sim.run_until(horizon)
    assert any(not server.pipeline_idle for server in paused.deployment.servers)
    seen = {record.element_id: record.in_ledger_at
            for record in paused.deployment.metrics.elements.values()
            if record.in_ledger_at is not None}
    # Element ids differ between the two sessions (one global counter), the
    # schedule does not: compare the stamps as a multiset.
    assert sorted(seen.values()) == [t for t in at if t <= horizon]


def test_a_traced_run_reads_the_same_however_the_clock_is_advanced():
    """Stopping the clock publishes each server's partial run, in server
    order rather than time order; spans, percentiles and exports must not
    care (they keep the earliest instant, and sort)."""
    def traced() -> Session:
        # CometBFT delivers a block to each server at its own instant.
        return (Scenario.vanilla().servers(4).rate(200).inject_for(3).drain(12)
                .seed(3).trace().session().start())

    straight, ticked, stepped = traced(), traced(), traced()
    straight.run()
    while ticked.now + 0.013 < straight.now:
        ticked.run_for(0.013)
    ticked.run()
    while stepped.now < 2.0 and stepped.deployment.sim.step():
        pass
    stepped.run()
    reference = straight.deployment.tracer
    assert reference.phase_summary()["in_ledger"]["count"] == 600
    for session in (ticked, stepped):
        tracer = session.deployment.tracer
        assert tracer.phase_summary() == reference.phase_summary()
        assert export_chrome(tracer) == export_chrome(reference)
        assert (session.deployment.metrics.byzantine_counters
                == straight.deployment.metrics.byzantine_counters)


def test_a_vanilla_run_costs_well_under_one_event_per_ten_elements():
    """8 104 events at one event per transaction per server; the rest is
    injection ticks, block production and block ends."""
    session = (Scenario.vanilla().servers(4).rate(2000).inject_for(1).drain(5)
               .backend("ideal").seed(5).session().start())
    session.run()
    assert session.deployment.metrics.committed_count == 2000
    assert session.deployment.sim.events_executed < 0.1 * 2000


def test_finished_runs_leave_no_element_reachable():
    """Regression: a module-level memo of verified batches pinned every
    element of finished deployments (+8 MB per 24k-element hashchain pass)."""
    finished: set[int] = set()
    for seed in (1, 2, 3):
        session = (Scenario.hashchain().servers(4).rate(500).collector(50)
                   .inject_for(2).drain(10).backend("ideal").seed(seed)
                   .session().start())
        session.run()
        assert any(s.batch_requests_sent for s in session.deployment.servers)
        assert session.deployment.metrics.committed_count > 0
        finished.update(e.element_id
                        for e in session.deployment.injected_elements)
        del session
    gc.collect()
    assert finished and not [o for o in gc.get_objects()
                             if isinstance(o, Element)
                             and o.element_id in finished]


# -- Hashchain: co-sign repeats as one run ---------------------------------------
#
# The oracle is the per-transaction schedule itself: ``_handle_txs`` put back
# to the base class's run of one, every transaction through ``_handle_tx``.
# Each case plays one small deployment three times in a fresh id namespace —
# a dry oracle run to harvest the instants at which the target server handles
# transactions, then oracle and runs with the fault placed on or between two
# of them — and compares the servers at every instant the oracle has an event.


class Forger(ByzantineBehaviour):
    """Beside normal behaviour, append what a correct server must skip: a
    hash-batch of a real, held digest under a forged signature, and a payload
    that is no hash-batch at all."""

    name: ClassVar[str] = "forger"

    def on_after_add(self, server, element) -> bool:
        server._after_add(element)
        if server.hash_to_signers:
            digest = next(reversed(server.hash_to_signers))
            server._append_to_ledger(
                HashBatch(batch_hash=digest, signature=b"forged",
                          signer="server-0"), HASH_BATCH_SIZE)
        server._append_to_ledger(element, element.size_bytes)
        return True


def per_transaction(on: bool):
    """Inside, every Hashchain server handles one transaction per step."""
    return mock.patch.object(HashchainServer, "_handle_txs",
                             BaseSetchainServer._handle_txs) if on \
        else nullcontext()


def _deployment(case: dict, cut: float | None):
    make = Scenario.hashchain_light if case["light"] else Scenario.hashchain
    builder = (make().servers(case["servers"]).rate(case["rate"])
               .collector(case["collector"]).inject_for(1.2).drain(4.0)
               .backend("ideal").block_rate(case["block_rate"])
               .setchain(tx_processing_overhead=case["overhead"],
                         batch_request_timeout=0.05)
               .seed(case["seed"]))
    if case["byz"]:
        builder = builder.become_byzantine(0.3, "server-0",
                                           behaviour=case["byz"], until=1.0)
    target, kind = case["target"], case["fault"]
    if cut is None or kind == "none":
        return builder
    if kind == "crash":
        return builder.crash(cut, target, until=cut + case["outage"])
    if kind == "retire":
        return builder.leave(cut, target, drain=False)
    if kind == "join":  # a quorum boundary rides the pipeline between blocks
        return builder.join(cut)
    # A cut-off server times its requests out and retries in the background;
    # replies and retries then land while runs are in flight.
    return builder.partition(cut, until=cut + case["outage"], nodes=(target,))


def _shows(deployment, full: bool) -> list:
    """What the differential compares, by value, server by server: the
    counts at every stop, the signer sets and fill order themselves at every
    sixteenth (a signer applied early or late moves the counts too)."""
    rows: list = [dict(deployment.metrics.epoch_commit_times)]
    for server in deployment.servers:
        rows.append((server.name, server.epoch, len(server._committed_epochs),
                     len(server._proofs), server.invalid_proofs,
                     len(server.hash_to_signers),
                     sum(map(len, server.hash_to_signers.values())),
                     tuple(server._fill_queue), len(server._consolidated),
                     server.scan_cache_hits, server.pipeline_idle,
                     server.crashed, server.batch_requests_sent,
                     server.batch_request_retries,
                     server.hash_batches_appended, server.blocks_processed))
        if full:
            rows.append([(digest, sorted(signers)) for digest, signers
                         in server.hash_to_signers.items()])
            rows.append(sorted(server._committed_epochs))
    return rows


def _play(case: dict, cut: float | None, oracle: bool, *, stops=(),
          stepped: bool = False, spy=None):
    """One world.  ``stops=None`` stops wherever there is an event and
    returns those instants; otherwise the clock stops at ``stops``, driven
    one event at a time if ``stepped``.  Returns the stops, what the servers
    showed and their backlogs at each, and the final artifact."""
    reset_run_counters()
    original = HashchainServer._handle_tx

    def spying(server, block, tx):
        spy.append((server.sim.now, server.name))
        original(server, block, tx)

    with per_transaction(oracle), (
            mock.patch.dict(BEHAVIOURS, {Forger.name: Forger})), (
            mock.patch.object(HashchainServer, "_handle_tx", spying)
            if spy is not None else nullcontext()):
        session = _deployment(case, cut).session().start()
        deployment, sim = session.deployment, session.deployment.sim
        horizon = session.config.total_duration

        def wherever_there_is_an_event():
            while ((stop := sim._queue.peek_time()) is not None
                   and stop <= horizon):
                yield stop

        if stops is None:
            stops, stepped = wherever_there_is_an_event(), True
        taken, shown, backlogs = [], [], []
        for index, stop in enumerate(stops):
            while stepped and (sim._queue.peek_time() or inf) <= stop:
                sim.step()
            sim.run_until(stop)
            taken.append(stop)
            shown.append(_shows(deployment, full=index % 16 == 0))
            backlogs.append([s.backlog for s in deployment.servers])
        session.run()
        shown.append(_shows(deployment, full=True))
        return taken, shown, backlogs, session.result().to_json()


@st.composite
def _hashchain_cases(draw):
    byz = draw(st.sampled_from(
        [None, "forger", "forger", "equivocate", "withhold"]))
    fault = draw(st.sampled_from(
        ["none", "crash", "crash", "retire", "partition", "join"]))
    # Four servers tolerate one fault: a Byzantine one and a crashed or
    # departed one together need seven.
    servers = 7 if byz and fault in ("crash", "retire") else draw(
        st.sampled_from([4, 4, 7]))
    return {
        "servers": servers,
        "rate": draw(st.sampled_from([120, 240] if servers == 7
                                     else [120, 240, 400])),
        "collector": draw(st.sampled_from([5, 10, 25])),
        "block_rate": draw(st.sampled_from([2.0, 5.0])),
        "overhead": draw(st.sampled_from([0.0, 1e-4, 3e-3])),
        "light": draw(st.booleans()),
        # An equivocator's proofs are re-counted invalid on every repeat; a
        # withholder's batches wait at the head of the fill queue.
        "byz": byz,
        "seed": draw(st.integers(1, 50)),
        "fault": fault,
        "target": f"server-{draw(st.integers(1, servers - 1))}",
        "outage": draw(st.sampled_from([1e-4, 0.04, 0.7])),
        "pick": draw(st.floats(0.05, 0.95)),
        "between": draw(st.booleans()),
        "stepped": draw(st.booleans()),
    }


def _case(**overrides) -> dict:
    case = {"servers": 4, "rate": 240, "collector": 10, "block_rate": 2.0,
            "overhead": 3e-3, "light": False, "byz": None, "seed": 5,
            "fault": "crash", "target": "server-2", "outage": 0.04,
            "pick": 0.5, "between": False, "stepped": True}
    case.update(overrides)
    return case


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_hashchain_cases())
@example(_case())
@example(_case(fault="retire", byz="forger", servers=7, stepped=False))
@example(_case(fault="partition", outage=0.7, overhead=1e-4, collector=5,
               byz="equivocate"))
@example(_case(fault="join", servers=7, light=True, overhead=0.0))
def test_hashchain_runs_match_the_per_transaction_schedule(case):
    # Where does the target handle transactions?  The fault goes on one of
    # those instants (the tie goes to the fault, armed first) or between two.
    handled: list[tuple[float, str]] = []
    _play(case, None, True, spy=handled)
    instants = sorted({t for t, name in handled
                       if name == case["target"] and t > 0.4})
    index = int(case["pick"] * (len(instants) - 2))
    cut = instants[index]
    if case["between"]:
        cut = (cut + instants[index + 1]) / 2

    stops, expected, owed, artifact = _play(case, cut, True, stops=None)
    _, shown, backlogs, same = _play(case, cut, False, stops=stops,
                                     stepped=case["stepped"])
    for stop, ours, theirs in zip(stops + [inf], shown, expected):
        assert ours == theirs, f"diverged by t={stop}"
    # A run in flight has left the count; nothing else may differ.
    assert all(mine <= reference for queued, steps in zip(backlogs, owed)
               for mine, reference in zip(queued, steps))
    assert backlogs[-1] == owed[-1]
    assert same == artifact
    assert _play(case, cut, False)[3] == artifact


def test_co_sign_repeats_cost_one_step_per_run_not_per_transaction():
    """Every server re-handles every hash once per co-signer; those steps
    now come in runs, so the pipeline costs far fewer events — and a scanned
    digest is always one the server holds and has co-signed, which is what
    lets a run skip the store and ``_signed_hashes`` look-ups."""
    def events(oracle: bool) -> int:
        reset_run_counters()
        with per_transaction(oracle):
            session = (Scenario.hashchain().servers(7).rate(600).collector(10)
                       .inject_for(2).drain(6).backend("ideal").seed(9)
                       .session().start())
            session.run()
        for server in session.deployment.servers:
            assert server.scan_cache_hits > 100
            assert all(digest in server._signed_hashes
                       and server.store.get(digest) is not None
                       for digest in server._scanned_batches)
        return session.deployment.sim.events_executed

    assert events(oracle=False) < 0.6 * events(oracle=True)
