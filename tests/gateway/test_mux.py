"""The transport-free mux: routing, ids, completions, abandonment."""

import pytest

from repro.gateway import (
    LOST_ERROR,
    RETRY_ERROR,
    AdmissionConfig,
    GatewayMux,
    retry_body,
)
from repro.obs import find


def make(nodes=3, **admission):
    return GatewayMux(
        [f"n{i}" for i in range(nodes)],
        upstreams_per_node=2,
        admission=AdmissionConfig(**admission) if admission else AdmissionConfig(),
        gateway_id="g",
    )


class TestRouting:
    def test_slots_grouped_per_node(self):
        mux = make(nodes=2)
        assert mux.upstream_count == 4
        assert mux.slot_node == [0, 0, 1, 1]

    def test_round_robin_within_a_node(self):
        mux = make(max_per_client=10)
        first = mux.submit("c", 1, "acquire", 0.0)
        second = mux.submit("c", 1, "acquire", 0.0)
        assert {first.upstream, second.upstream} == {2, 3}

    def test_request_ids_are_unique_and_prefixed(self):
        mux = make(max_per_client=10)
        ids = {mux.submit("c", 0, "acquire", 0.0).req_id for _ in range(5)}
        assert len(ids) == 5
        assert all(i.startswith("g.") for i in ids)

    def test_bad_node_index_refused(self):
        mux = make()
        decision = mux.submit("c", 99, "acquire", 0.0)
        assert not decision.admitted and decision.reason == "bad-node"
        assert mux.submit("c", -1, "acquire", 0.0).admitted is False


class TestCompletions:
    def test_resolve_measures_wait(self):
        mux = make()
        decision = mux.submit("c", 0, "acquire", 10.0)
        completion = mux.resolve(decision.req_id, True, 10.25)
        assert completion.client == "c" and completion.ok
        assert completion.wait_s == pytest.approx(0.25)
        assert mux.grants == 1

    def test_unknown_and_duplicate_ids_return_none(self):
        mux = make()
        decision = mux.submit("c", 0, "acquire", 0.0)
        assert mux.resolve("g.ffff", True, 0.0) is None
        assert mux.resolve(decision.req_id, True, 0.0) is not None
        assert mux.resolve(decision.req_id, True, 0.0) is None
        assert mux.unmatched == 2

    @pytest.mark.parametrize(
        "window, admitted, refused, reason",
        [
            ({"max_per_client": 1}, [("c", 0)], ("c", 0), "client-window"),
            ({"max_queue_depth": 1}, [("a", 0)], ("b", 0), "queue-full"),
            # Two slots per node: the third acquire is back on slot 0.
            ({"max_in_flight": 1}, [("a", 0), ("b", 0)], ("c", 0),
             "in-flight-window"),
            # No node 99: refused as a bad request, not a retryable shed.
            ({}, [], ("c", 99), "bad-node"),
        ],
        ids=["client-window", "queue-full", "in-flight-window", "bad-node"],
    )
    def test_shed_decision_carries_retry_hint(
        self, window, admitted, refused, reason
    ):
        mux = make(retry_after_s=0.07, **{"max_per_client": 10, **window})
        for client, node in admitted:
            assert mux.submit(client, node, "acquire", 0.0).admitted
        shed = mux.submit(*refused, "acquire", 0.0)
        assert not shed.admitted and shed.reason == reason
        body = retry_body(shed)
        assert body["ok"] is False
        if reason == "bad-node":
            assert shed.retry_after_s == 0.0
            assert body["error"] == "bad-request" and "shed" not in body
            assert mux.admission.shed_total() == 0
            return
        assert shed.retry_after_s == pytest.approx(0.07)
        assert body["error"] == RETRY_ERROR and body["shed"] == reason
        assert mux.admission.shed == {
            r: int(r == reason) for r in mux.admission.shed
        }

    def test_abandon_fails_only_that_slot(self):
        mux = make(max_per_client=10)
        kept = mux.submit("a", 1, "acquire", 0.0)
        lost = mux.submit("b", 0, "acquire", 0.0)
        completions = mux.abandon(lost.upstream, 1.0)
        assert [c.req_id for c in completions] == [lost.req_id]
        assert completions[0].error == LOST_ERROR and not completions[0].ok
        assert mux.pending_count() == 1
        assert mux.resolve(kept.req_id, True, 1.0) is not None


class TestGauges:
    def test_counters_shape(self):
        mux = make(max_per_client=1)
        decision = mux.submit("c", 0, "acquire", 0.0)
        mux.submit("c", 0, "acquire", 0.0)  # shed
        mux.resolve(decision.req_id, True, 0.1)
        counters = mux.counters()
        assert counters["admitted"] == 1
        assert counters["grants"] == 1
        assert counters["pending"] == 0
        assert counters["shed"]["client-window"] == 1

    def test_prom_samples(self):
        mux = make(max_per_client=10)
        mux.submit("c", 0, "acquire", 0.0)
        samples = mux.samples()
        assert find(samples, "repro_gateway_pending").value == 1.0
        assert find(samples, "repro_gateway_queue_depth", node="n0").value == 1.0
        assert find(samples, "repro_gateway_queue_depth", node="n1").value == 0.0
        assert find(samples, "repro_gateway_upstream_in_flight", slot="0") is not None


class TestValidation:
    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            GatewayMux([])

    def test_needs_positive_upstreams(self):
        with pytest.raises(ValueError):
            GatewayMux(["n0"], upstreams_per_node=0)
