"""Unit tests for latency models."""

import random

import pytest

from repro.netem.link import (
    ConstantLatency,
    PerHostLatency,
    draw_authoritative_base,
    draw_client_base,
    draw_recursive_base,
)


def test_constant_latency():
    model = ConstantLatency(0.025)
    assert model.one_way("a", "b", random.Random(0)) == 0.025


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


def test_per_host_latency_sums_endpoint_bases():
    model = PerHostLatency(default_base=0.01, jitter=0.0)
    model.set_base("client", 0.002)
    model.set_base("server", 0.020)
    assert model.one_way("client", "server", random.Random(0)) == pytest.approx(
        0.022
    )
    # Unknown hosts fall back to the default base.
    assert model.one_way("client", "mystery", random.Random(0)) == pytest.approx(
        0.012
    )


def test_per_host_latency_jitter_bounded():
    model = PerHostLatency(default_base=0.01, jitter=0.5)
    rng = random.Random(1)
    base = 0.02
    for _ in range(200):
        delay = model.one_way("a", "b", rng)
        assert base <= delay <= base * 1.5 + 1e-12


def test_per_host_rejects_negative_base():
    model = PerHostLatency()
    with pytest.raises(ValueError):
        model.set_base("x", -0.01)


def test_base_draws_in_sane_ranges():
    rng = random.Random(42)
    for _ in range(300):
        assert 0.0 < draw_client_base(rng) <= 0.050
        assert 0.0 < draw_recursive_base(rng) <= 0.080
        assert 0.0 < draw_authoritative_base(rng) <= 0.120


def test_authoritative_bases_generally_larger_than_client():
    rng = random.Random(42)
    clients = sum(draw_client_base(rng) for _ in range(500)) / 500
    auths = sum(draw_authoritative_base(rng) for _ in range(500)) / 500
    assert auths > clients
