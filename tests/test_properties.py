"""Cross-cutting property tests on core invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import quantile
from repro.dnscore.name import Name
from repro.netem.attack import AttackSchedule, AttackWindow
from repro.resolvers.retry import RetryPolicy

LABEL = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1,
    max_size=12,
)
NAMES = st.lists(LABEL, min_size=0, max_size=4).map(Name)


@given(NAMES, NAMES, NAMES)
def test_name_ordering_transitive(a, b, c):
    sorted([a, b, c])  # consistent ordering or sorted() misbehaves
    if a < b and b < c:
        assert a < c
    # Irreflexivity and asymmetry of the strict ordering.
    assert not (a < a)
    if a < b:
        assert not (b < a)


@given(NAMES, NAMES)
def test_name_subdomain_consistent_with_ancestors(a, b):
    if a.is_subdomain_of(b):
        assert b in list(a.ancestors())
    if b in list(a.ancestors()):
        assert a.is_subdomain_of(b)


@given(
    windows=st.lists(
        st.tuples(
            st.floats(0, 1000, allow_nan=False),
            st.floats(1, 1000, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        min_size=0,
        max_size=5,
    ),
    when=st.floats(0, 2500, allow_nan=False),
)
def test_attack_loss_always_a_probability(windows, when):
    schedule = AttackSchedule(
        [
            AttackWindow(["t"], start, start + duration, loss)
            for start, duration, loss in windows
        ]
    )
    loss = schedule.inbound_loss("t", when)
    assert 0.0 <= loss <= 1.0
    # Combined loss never falls below the strongest active window.
    active = [
        loss_value
        for start, duration, loss_value in windows
        if start <= when < start + duration
    ]
    if active:
        assert loss >= max(active) - 1e-9
    else:
        assert loss == 0.0


@given(
    initial=st.floats(0.01, 5.0, allow_nan=False),
    backoff=st.floats(1.0, 3.0, allow_nan=False),
    cap=st.floats(0.01, 10.0, allow_nan=False),
    attempt=st.integers(0, 20),
)
def test_retry_timeouts_monotone_and_capped(initial, backoff, cap, attempt):
    policy = RetryPolicy(
        initial_timeout=initial, backoff=backoff, max_timeout=cap
    )
    current = policy.timeout_for_attempt(attempt)
    following = policy.timeout_for_attempt(attempt + 1)
    assert current <= cap + 1e-12
    assert following >= current - 1e-12  # non-decreasing


@given(
    values=st.lists(
        st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50
    ),
    fraction=st.floats(0, 1, allow_nan=False),
)
def test_quantile_bounded_and_monotone(values, fraction):
    ordered = sorted(values)
    result = quantile(ordered, fraction)
    assert ordered[0] <= result <= ordered[-1]
    if fraction <= 0.5:
        assert quantile(ordered, fraction) <= quantile(ordered, 0.5) + 1e-9


@given(
    serials=st.lists(st.integers(0, 0xFFF), min_size=1, max_size=10),
)
def test_zone_serial_updates_visible(serials):
    from repro.dnscore.records import SOA
    from repro.dnscore.zone import Zone

    origin = Name.from_text("z.test.")
    zone = Zone(origin, SOA(origin, origin, 1))
    for serial in serials:
        zone.set_serial(serial)
        assert zone.serial == serial


@given(
    delays=st.lists(
        st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=40
    )
)
def test_simulator_fires_in_nondecreasing_time_order(delays):
    from repro.simcore.simulator import Simulator

    sim = Simulator()
    fired = []
    for delay in delays:
        sim.call_later(delay, lambda: fired.append(sim.now))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)
    assert sim.now == max(delays)


@given(
    delays=st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=2, max_size=20
    ),
    cancel_index=st.integers(0, 19),
)
def test_simulator_cancel_is_exact(delays, cancel_index):
    from repro.simcore.simulator import Simulator

    sim = Simulator()
    fired = []
    events = [
        sim.call_later(delay, fired.append, index)
        for index, delay in enumerate(delays)
    ]
    cancel_index %= len(events)
    events[cancel_index].cancel()
    sim.run()
    assert cancel_index not in fired
    assert sorted(fired) == [
        index for index in range(len(delays)) if index != cancel_index
    ]
