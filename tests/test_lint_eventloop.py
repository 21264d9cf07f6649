"""Fixture-snippet tests for the ``event-loop`` lint rule."""

import textwrap

from repro.lint import all_checkers, run_checkers
from repro.lint.driver import parse_source


def lint(source, rel="repro/servers/fixture.py"):
    file = parse_source(textwrap.dedent(source), rel)
    return run_checkers([file], all_checkers(["event-loop"])).findings


def test_heap_access_outside_kernel_flagged():
    findings = lint(
        """
        def depth(sim):
            return len(sim._queue._heap)
        """
    )
    assert len(findings) == 1
    assert "_heap" in findings[0].message


def test_queue_backend_internal_access_flagged():
    findings = lint(
        """
        def live_count(sim):
            return sim._queue._live
        """
    )
    assert len(findings) == 1
    assert "_live" in findings[0].message and "stats()" in findings[0].message


def test_queue_internal_names_on_other_receivers_allowed():
    # A rate limiter's own `self._seq` is not queue state; only
    # queue-shaped receivers are flagged for the engine-internal names.
    findings = lint(
        """
        class RateLimiter:
            def __init__(self):
                self._seq = 0

            def observe(self):
                self._seq += 1
                return self._seq
        """
    )
    assert findings == []


def test_heapq_import_outside_kernel_flagged():
    assert len(lint("import heapq\n")) == 1
    assert len(lint("from heapq import heappush\n")) == 1


def test_clock_assignment_flagged():
    findings = lint(
        """
        def rewind(sim):
            sim.now = 0.0
        """
    )
    assert len(findings) == 1
    assert "sim.now" in findings[0].message


def test_kernel_itself_exempt():
    findings = lint(
        """
        import heapq


        def pop(queue):
            return heapq.heappop(queue._heap)
        """,
        rel="repro/simcore/events.py",
    )
    assert findings == []


def test_reentrant_run_in_callback_flagged():
    findings = lint(
        """
        class Prober:
            def __init__(self, sim):
                self.sim = sim
                sim.call_later(1.0, self.tick)

            def tick(self):
                self.sim.run()
        """
    )
    assert len(findings) == 1
    assert "not" in findings[0].message and "reentrant" in findings[0].message


def test_run_outside_callback_path_allowed():
    # Experiments drive the clock from the outside; only callback-path
    # pumping is reentrant.
    findings = lint(
        """
        def drive(sim):
            sim.run(until=300.0)
            return sim.now
        """
    )
    assert findings == []
