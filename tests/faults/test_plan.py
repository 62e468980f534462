"""Unit tests for fault plans, runtimes and the journal."""

import pytest

from repro.faults import (
    FaultJournal,
    FaultPlan,
    MessageFault,
    RankFault,
)


class TestValidation:
    def test_unknown_message_action(self):
        with pytest.raises(ValueError, match="unknown message fault action"):
            MessageFault("explode")

    def test_delay_needs_positive_delay(self):
        with pytest.raises(ValueError, match="delay > 0"):
            MessageFault("delay")

    def test_unknown_rank_action(self):
        with pytest.raises(ValueError, match="unknown rank fault action"):
            RankFault("sulk", rank=0)

    def test_stall_needs_positive_stall(self):
        with pytest.raises(ValueError, match="stall > 0"):
            RankFault("stall", rank=0)

    def test_plan_coerces_lists_to_tuples(self):
        plan = FaultPlan(
            message_faults=[MessageFault("drop")],
            rank_faults=[RankFault("crash", rank=1)],
        )
        assert isinstance(plan.message_faults, tuple)
        assert isinstance(plan.rank_faults, tuple)
        assert "1 message fault(s)" in plan.describe()


class TestMatching:
    def test_wildcards_match_everything(self):
        f = MessageFault("drop")
        assert f.matches(0, 1, "halo")
        assert f.matches(5, 3, ("urow", 2))

    def test_endpoint_filters(self):
        f = MessageFault("drop", src=1, dst=2)
        assert f.matches(1, 2, None)
        assert not f.matches(2, 1, None)

    def test_string_tag_matches_tuple_head(self):
        f = MessageFault("drop", tag="urow")
        assert f.matches(0, 1, "urow")
        assert f.matches(0, 1, ("urow", 7))
        assert not f.matches(0, 1, ("mis", 7))


class TestRuntimeWindows:
    def test_skip_and_count_window(self):
        plan = FaultPlan(message_faults=[MessageFault("drop", skip=1, count=2)])
        rt = plan.runtime()
        effects = [rt.on_send(0, 1, "t", superstep=0) for _ in range(4)]
        # message 0 passes (skip), 1 and 2 dropped (count=2), 3 passes
        assert [e.deliver for e in effects] == [True, False, False, True]
        assert rt.journal.counts() == {"drop": 2}

    def test_first_match_wins(self):
        plan = FaultPlan(
            message_faults=[
                MessageFault("drop", tag="a"),
                MessageFault("duplicate", tag="a", count=5),
            ]
        )
        rt = plan.runtime()
        e = rt.on_send(0, 1, "a", superstep=0)
        assert not e.deliver and e.copies == 1

    def test_crash_is_one_shot(self):
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=1)])
        rt = plan.runtime()
        assert rt.plan_region([0, 1, 2], superstep=0) == {}  # before its superstep
        assert rt.plan_region([0, 1], superstep=1) == {}  # rank 2 idle
        inject = rt.plan_region([0, 1, 2], superstep=3)
        assert {r: i.kind for r, i in inject.items()} == {2: "crash"}
        # disarmed at dispatch: the retried region runs clean
        assert rt.plan_region([0, 1, 2], superstep=3) == {}
        assert rt.journal.counts() == {"crash": 1}

    def test_stall_returns_seconds_once(self):
        plan = FaultPlan(rank_faults=[RankFault("stall", rank=0, stall=2.5)])
        rt = plan.runtime()
        assert rt.plan_region([0], superstep=0)[0].stall == 2.5
        assert rt.plan_region([0], superstep=1) == {}


class TestCorruptResult:
    def test_corrupt_is_read_per_region_not_per_message(self):
        """A message carries no data: ``corrupt`` never touches a post,
        it schedules a corrupt-result against a region's rank."""
        plan = FaultPlan(message_faults=[MessageFault("corrupt", src=1)])
        rt = plan.runtime()
        e = rt.on_send(1, 0, "t", superstep=0)
        assert e.deliver and e.copies == 1 and e.extra_delay == 0.0
        assert len(rt.journal) == 0
        inject = rt.plan_region([0, 1], superstep=2)
        assert {r: i.kind for r, i in inject.items()} == {1: "corrupt"}
        assert rt.journal.counts() == {"corrupt": 1}

    def test_other_message_faults_are_not_read_per_region(self):
        """Drop / delay / duplicate stay per message: dispatch neither
        injects them nor advances their match counters."""
        plan = FaultPlan(message_faults=[MessageFault("drop", src=1)])
        rt = plan.runtime()
        assert rt.plan_region([0, 1], superstep=0) == {}
        assert not rt.on_send(1, 0, "t", superstep=0).deliver
        assert rt.journal.counts() == {"drop": 1}


class TestJournal:
    def test_signature_and_summary(self):
        j = FaultJournal()
        assert j.summary() == "fault journal: empty"
        j.record("drop", superstep=3, src=0, dst=1, tag=("urow", 2))
        j.record("crash", superstep=4, rank=2)
        assert len(j) == 2
        assert j.counts() == {"drop": 1, "crash": 1}
        sig = j.signature()
        assert sig == FaultJournal(events=list(j.events)).signature()
        assert "2 event(s)" in j.summary()
