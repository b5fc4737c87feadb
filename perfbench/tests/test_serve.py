from perfbench.serve import hop_ms


def span(name, span_id, parent_id=None, duration_ms=0.0, shard=None):
    attributes = {"shard": shard} if shard else {}
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "duration_ms": duration_ms, "attributes": attributes,
    }


def test_hop_is_the_router_span_minus_the_shard_requests_under_it():
    trace = [
        span("router.scan", "r", duration_ms=40.0),
        span("http.scan", "a", parent_id="r", duration_ms=10.0, shard="shard-0"),
        span("scan.batch", "a1", parent_id="a", duration_ms=8.0, shard="shard-0"),
        # A failover: the second replica answered.
        span("http.scan", "b", parent_id="r", duration_ms=25.0, shard="shard-1"),
    ]
    assert hop_ms(trace) == 5.0


def test_traces_without_a_forwarded_router_scan_have_no_hop():
    assert hop_ms([span("http.scan", "a", duration_ms=9.0, shard="shard-0")]) is None
    assert hop_ms([span("router.scan", "r", duration_ms=2.0)]) is None
