"""Admission windows: per-client, per-node queue, per-upstream in-flight."""

import pytest

from repro.gateway import (
    SHED_CLIENT_WINDOW,
    SHED_IN_FLIGHT,
    SHED_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
)
from repro.net.codec import MAX_RETRY_MS, Decoder, encode_response


def make(**overrides):
    defaults = dict(
        max_per_client=1, max_queue_depth=4, max_in_flight=8,
        retry_after_s=0.05,
    )
    defaults.update(overrides)
    return AdmissionController(AdmissionConfig(**defaults))


class TestWindows:
    def test_admit_then_client_window_sheds(self):
        adm = make()
        assert adm.try_admit("c1", 0, 0, "acquire") is None
        assert adm.try_admit("c1", 0, 0, "acquire") == SHED_CLIENT_WINDOW

    def test_settle_reopens_client_window(self):
        adm = make()
        adm.try_admit("c1", 0, 0, "acquire")
        adm.settle("c1", 0, 0, "acquire")
        assert adm.try_admit("c1", 0, 0, "acquire") is None

    def test_queue_depth_sheds(self):
        adm = make(max_per_client=100)
        for i in range(4):
            assert adm.try_admit(f"c{i}", 0, 0, "acquire") is None
        assert adm.try_admit("c9", 0, 0, "acquire") == SHED_QUEUE_FULL
        # Another node's queue is independent.
        assert adm.try_admit("c9", 1, 1, "acquire") is None

    def test_in_flight_window_sheds(self):
        adm = make(max_per_client=100, max_queue_depth=100, max_in_flight=2)
        assert adm.try_admit("c1", 0, 0, "acquire") is None
        assert adm.try_admit("c2", 0, 0, "acquire") is None
        assert adm.try_admit("c3", 0, 0, "acquire") == SHED_IN_FLIGHT

    def test_release_bypasses_client_and_queue_windows(self):
        adm = make()
        for i in range(4):
            adm.try_admit(f"c{i}", 0, 0, "acquire")
        # Queue is full and c0's window is used — a release still passes.
        assert adm.try_admit("c0", 0, 0, "release") is None

    def test_release_consumes_upstream_slot_but_is_never_shed(self):
        adm = make(max_per_client=100, max_queue_depth=100, max_in_flight=1)
        assert adm.try_admit("c1", 0, 0, "release") is None
        # A second release still passes — refusing one would leak a lock —
        # but the slot it took now sheds the next acquire.
        assert adm.try_admit("c2", 0, 0, "release") is None
        assert adm.try_admit("c3", 0, 0, "acquire") == SHED_IN_FLIGHT


class TestAccounting:
    def test_counters_and_gauges(self):
        adm = make()
        adm.try_admit("c1", 0, 0, "acquire")
        adm.try_admit("c1", 0, 0, "acquire")  # shed
        assert adm.admitted == 1
        assert adm.shed_total() == 1
        assert adm.queue_depth(0) == 1
        assert adm.in_flight(0) == 1
        adm.settle("c1", 0, 0, "acquire")
        assert adm.completed == 1
        assert adm.queue_depth(0) == 0
        assert adm.in_flight(0) == 0

    def test_fairness_counts_per_client(self):
        adm = make(max_per_client=10)
        adm.try_admit("a", 0, 0, "acquire")
        adm.try_admit("a", 0, 0, "acquire")
        adm.try_admit("b", 0, 0, "acquire")
        counts = dict(adm.fairness_counts())
        assert counts["a"] == 2 and counts["b"] == 1


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_per_client", 0),
            ("max_queue_depth", 0),
            ("max_in_flight", 0),
            ("retry_after_s", -0.1),
            ("retry_after_s", (MAX_RETRY_MS + 1) / 1000),
        ],
    )
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValueError):
            AdmissionConfig(**{field: value}).validate()

    def test_largest_retry_hint_is_accepted_and_encodable(self):
        # No JSON fallback: whatever the config admits, a shed must carry.
        config = AdmissionConfig(retry_after_s=MAX_RETRY_MS / 1000)
        config.validate()
        frame = encode_response(
            "acquire", "c.1", False, error="retry",
            retry_after_s=config.retry_after_s,
        )
        body = Decoder().feed(frame)[0].body
        assert body["retry_after_s"] == config.retry_after_s
