import base64
import socket
import threading

import pytest

from alurity import rvd
from alurity.model import Command, FlowSpec, WindowSpec
from alurity.parser import dump_yaml, serialize_flow, serialize_scenario
from alurity.pipeline import FlawRecord, TrackerSink, emit_all
from alurity.rvd import (
    NoReproductionFound,
    NotFound,
    Rejected,
    Ticket,
    TransportError,
    extract_reproduction,
    fetch_ticket,
    push_issue,
)

from strategies import scenarios


def make_record(scenario_yaml, flow_yaml=""):
    return FlawRecord(
        title="ROS master takedown",
        flaw_class="dos",
        description="FIN-ACK flood",
        system="r/robo_x:1",
        detected_by="r/expl_y:1",
        reproduction_scenario=scenario_yaml,
        reproduction_flow=flow_yaml,
        severity="high",
    )


class TestFetch:
    def test_seeded_ticket(self, tracker):
        stub, url = tracker
        ticket_id = stub.seed("UR3 flaw", "details", labels=["dos"])
        ticket = fetch_ticket(url, ticket_id)
        assert ticket == Ticket(id=ticket_id, title="UR3 flaw", body="details", labels=("dos",))

    def test_unknown_id(self, tracker):
        _, url = tracker
        with pytest.raises(NotFound):
            fetch_ticket(url, 99999)

    def test_unreachable_host(self):
        with pytest.raises(TransportError):
            fetch_ticket("http://127.0.0.1:1", 1, timeout=0.3)

    def test_bearer_token_sent_when_set(self, tracker, monkeypatch):
        stub, url = tracker
        ticket_id = stub.seed("t", "b")
        monkeypatch.setenv("ALURITY_TRACKER_TOKEN", "sekrit")
        fetch_ticket(url, ticket_id)
        assert stub.seen[-1][2]["Authorization"] == "Bearer sekrit"

    def test_non_json_body_is_a_transport_error(self, tracker):
        stub, url = tracker
        stub.canned = (200, b"<html>maintenance</html>")
        with pytest.raises(TransportError):
            fetch_ticket(url, 1)

    def test_body_without_id_is_a_transport_error(self, tracker):
        stub, url = tracker
        stub.canned = (200, b'{"title": "t", "body": "b"}')
        with pytest.raises(TransportError):
            fetch_ticket(url, 1)

    def test_server_error(self, tracker):
        stub, url = tracker
        stub.canned = (503, b"busy")
        with pytest.raises(TransportError):
            fetch_ticket(url, 1)


class TestPush:
    def test_push_stores_fenced_yaml(self, tracker):
        stub, url = tracker
        issue_id = push_issue(url, make_record("networks:\n"))
        assert issue_id > 0
        body = stub.issues[issue_id]["body"]
        assert body.startswith("```yaml\n") and "```" in body[7:]
        assert stub.issues[issue_id]["labels"] == ["dos", "high"]

    def test_rejected(self, tracker):
        stub, url = tracker
        stub.reject_status = 422
        with pytest.raises(Rejected) as exc:
            push_issue(url, make_record("networks:\n"))
        assert exc.value.status == 422

    def test_bearer_token_argument(self, tracker):
        stub, url = tracker
        push_issue(url, make_record("networks:\n"), token="t0k")
        assert stub.seen[-1][2]["Authorization"] == "Bearer t0k"

    @pytest.mark.parametrize(
        "canned",
        [(200, b"not json"), (201, b'{"title": "no id"}'), (201, b"[1, 2]"), (500, b"oops")],
    )
    def test_unusable_reply_is_a_transport_error(self, tracker, canned):
        stub, url = tracker
        stub.canned = canned
        with pytest.raises(TransportError):
            push_issue(url, make_record("networks:\n"))

    def test_batch_survives_unusable_replies(self, tracker):
        stub, url = tracker
        records = [make_record("networks:\n"), make_record("containers:\n")]
        for canned in [(200, b"not json"), (201, b'{"title": "no id"}')]:
            stub.canned = canned
            locations, outbox = emit_all(records, TrackerSink(url))
            assert locations == [] and outbox == records


class TestClient:
    """One exchange on a connection ``http.client`` opens: its request, the
    proxy the environment names, its reply's framing, redirects, and URLs
    and tokens it cannot send."""

    @pytest.fixture(autouse=True)
    def no_proxies(self, monkeypatch):
        """A process that has not read its proxies yet, in an environment
        that names none."""
        monkeypatch.setattr(rvd, "_proxies", None)
        for scheme in ("http", "https", "all", "no"):
            for name in (f"{scheme}_proxy", f"{scheme.upper()}_PROXY"):
                monkeypatch.delenv(name, raising=False)

    def test_headers(self, tracker, monkeypatch):
        stub, url = tracker
        monkeypatch.setenv("ALURITY_TRACKER_TOKEN", "sekrit")
        push_issue(url, make_record("networks:\n"))
        method, target, headers = stub.seen[-1]
        assert (method, target) == ("POST", "/issues")
        assert headers["Authorization"] == "Bearer sekrit"
        assert headers["Content-Type"] == "application/json"
        assert headers["User-Agent"].startswith("alurity/")

    def test_http_proxy_gets_the_absolute_url(self, tracker, monkeypatch):
        stub, url = tracker
        monkeypatch.setenv("http_proxy", url.replace("http://", "http://user:p%40ss@"))
        with pytest.raises(NotFound):  # the stub answers an absolute target with 404
            fetch_ticket("http://tracker.invalid:8080/api", 7)
        _, target, headers = stub.seen[-1]
        assert target == "http://tracker.invalid:8080/api/issues/7"
        assert headers["Host"] == "tracker.invalid:8080"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_https_proxy_opens_a_tunnel(self, tracker, monkeypatch):
        stub, url = tracker
        monkeypatch.setenv("https_proxy", url.replace("http://", "http://user:pw@"))
        with pytest.raises(TransportError):  # the stub refuses the tunnel
            fetch_ticket("https://tracker.invalid", 7)
        method, target, headers = stub.seen[-1]
        assert (method, target) == ("CONNECT", "tracker.invalid:443")
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()

    def test_no_proxy_bypasses_the_proxy(self, tracker, monkeypatch):
        stub, url = tracker
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:1")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        ticket_id = stub.seed("t", "b")
        assert fetch_ticket(url, ticket_id).id == ticket_id
        assert stub.seen[-1][1] == f"/issues/{ticket_id}"

    def test_no_proxy_is_read_once_per_process(self, tracker, monkeypatch):
        stub, url = tracker
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:1")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        ticket_id = stub.seed("t", "b")
        fetch_ticket(url, ticket_id)
        monkeypatch.delenv("no_proxy")
        assert fetch_ticket(url, ticket_id, timeout=0.3).id == ticket_id
        assert stub.seen[-1][1] == f"/issues/{ticket_id}"

    def test_proxies_are_read_once_per_process(self, tracker, monkeypatch):
        stub, url = tracker
        ticket_id = stub.seed("t", "b")
        fetch_ticket(url, ticket_id)
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:1")
        assert fetch_ticket(url, ticket_id).id == ticket_id
        monkeypatch.setattr(rvd, "_proxies", None)
        with pytest.raises(TransportError):
            fetch_ticket(url, ticket_id, timeout=0.3)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_a_redirect_is_not_followed(self, tracker, status):
        stub, url = tracker
        stub.raw = f"HTTP/1.0 {status} Moved\r\nLocation: {url}/issues/2\r\n\r\n".encode()
        with pytest.raises(TransportError, match=f"HTTP {status} redirect to {url}/issues/2 not followed"):
            fetch_ticket(url, 1)
        assert len(stub.seen) == 1

    def test_a_reply_without_length_runs_to_the_close(self, tracker):
        stub, url = tracker
        stub.raw = b'HTTP/1.0 200 OK\r\ncontent-type: application/json\r\n\r\n{"id": 3, "title": "t", "body": "b"}'
        assert fetch_ticket(url, 3) == Ticket(id=3, title="t", body="b")

    def test_the_request_is_http_1_0_and_its_reply_is_read_to_its_length(self):
        """A server that keeps the connection open after a reply with a
        ``Content-Length`` is not waited on until the timeout."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        requests, done = [], threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                requests.append(conn.recv(65536))
                body = b'{"id": 5, "title": "t", "body": "b"}'
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
                done.wait(10)

        server = threading.Thread(target=serve)
        server.start()
        try:
            assert fetch_ticket(f"http://127.0.0.1:{port}", 5, timeout=5).id == 5
        finally:
            done.set()
            server.join(10)
            listener.close()
        assert not server.is_alive()
        assert requests[0].startswith(f"GET /issues/5 HTTP/1.0\r\nHost: 127.0.0.1:{port}\r\n".encode())

    def test_a_reply_stops_at_its_length(self, tracker):
        stub, url = tracker
        stub.raw = b'HTTP/1.1 201 Created\r\nContent-Length:  9\r\n\r\n{"id": 4}trailing'
        assert push_issue(url, make_record("networks:\n")) == 4

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"HTTP/1.0 200 OK\r\nContent-Length: 9\r\n",
            b'HTTP/1.0 200 OK\r\nContent-Length: 90\r\n\r\n{"id": 1}',
            b"HTTP/1.0 200 OK\r\nContent-Length: -1\r\n\r\n",
            b'SSH-2.0-OpenSSH\r\n\r\n{"id": 1}',
            b"HTTP/1.0 OK\r\n\r\n",
        ],
        ids=["nothing", "no-blank-line", "short-body", "bad-length", "not-http", "no-status"],
    )
    def test_a_broken_reply_is_a_transport_error(self, tracker, raw):
        stub, url = tracker
        stub.raw = raw
        with pytest.raises(TransportError):
            fetch_ticket(url, 1)

    @pytest.mark.parametrize(
        "url", ["ftp://127.0.0.1/x", "http://h:notaport", "http://h:99999", "http://[::1", "http:///issues", "h", "http://127.0.0.1/a b", "http://exämple"]
    )
    def test_an_unusable_url_is_a_transport_error(self, url):
        with pytest.raises(TransportError):
            fetch_ticket(url, 1, timeout=0.3)

    @pytest.mark.parametrize("token", ["tökén€", "a\r\nX-Injected: 1", "a\nb"])
    def test_a_token_that_cannot_be_a_header(self, tracker, monkeypatch, token):
        stub, url = tracker
        monkeypatch.setenv("ALURITY_TRACKER_TOKEN", token)
        with pytest.raises(TransportError, match="ALURITY_TRACKER_TOKEN"):
            fetch_ticket(url, 1)
        monkeypatch.delenv("ALURITY_TRACKER_TOKEN")
        with pytest.raises(TransportError, match="token argument"):
            push_issue(url, make_record("networks:\n"), token=token)
        assert stub.seen == []


class TestExtract:
    def test_listing_blocks(self, listing1_text, listing3_text, listing1, listing3):
        body = f"prose\n```yaml\n{listing1_text}```\nmore prose\n```yaml\n{listing3_text}```\n"
        scenario, flow = extract_reproduction(Ticket(id=1, title="t", body=body))
        assert scenario == listing1
        assert flow == listing3

    def test_prose_only(self):
        with pytest.raises(NoReproductionFound):
            extract_reproduction(Ticket(id=1, title="t", body="no yaml here"))

    def test_scenario_block_only(self, listing1_text, listing1):
        body = f"```yaml\n{listing1_text}```\n"
        scenario, flow = extract_reproduction(Ticket(id=1, title="t", body=body))
        assert scenario == listing1
        assert flow is None

    def test_non_scenario_yaml_blocks_skipped(self, listing1_text, listing1):
        # the first block is valid YAML but not a scenario
        body = f"```yaml\njust: prose\n```\n```yaml\n{listing1_text}```\n"
        scenario, _ = extract_reproduction(Ticket(id=1, title="t", body=body))
        assert scenario == listing1

    def test_flaw_record_block_recovers_reproduction(self, listing1_text, listing3_text, listing1, listing3):
        record = make_record(listing1_text, listing3_text)
        body = f"```yaml\n{record.to_yaml()}```\n"
        scenario, flow = extract_reproduction(Ticket(id=1, title="t", body=body))
        assert scenario == listing1
        assert flow == listing3

    def test_backticks_inside_a_record_do_not_close_the_fence(self, listing1_text, listing1):
        flow = [FlowSpec(endpoint="ur3", windows=(WindowSpec(name="w0", items=(Command("```"),)),))]
        record = make_record(listing1_text, serialize_flow(flow))
        body = f"```yaml\n{record.to_yaml()}```\n"
        scenario, recovered = extract_reproduction(Ticket(id=1, title="t", body=body))
        assert scenario == listing1
        assert recovered == flow

    @pytest.mark.parametrize(
        "record",
        [
            "reproduction: 5\n",
            "reproduction: [a, b]\n",
            "reproduction:\n  scenario: 5\n",
            "reproduction:\n  scenario: [networks]\n",
        ],
    )
    def test_record_without_usable_reproduction(self, record):
        with pytest.raises(NoReproductionFound):
            extract_reproduction(Ticket(id=1, title="t", body=f"```yaml\n{record}```\n"))

    def test_a_record_block_is_read_by_the_config_rules(self, listing1_text, listing1):
        """Explicit tags are ignored, and a node that contains itself leaves
        the block without a record."""
        block = make_record(listing1_text).to_yaml().replace('severity: "high"', "severity: !!bool high")
        scenario, _ = extract_reproduction(Ticket(id=1, title="t", body=f"```yaml\n{block}```\n"))
        assert scenario == listing1
        looped = f"{block}loop: &loop [*loop]\n"
        with pytest.raises(NoReproductionFound):
            extract_reproduction(Ticket(id=1, title="t", body=f"```yaml\n{looped}```\n"))

    def test_record_with_non_text_flow(self, listing1_text):
        record = {"reproduction": {"scenario": listing1_text, "flow": {"endpoint": "ur3"}}}
        body = f"```yaml\n{dump_yaml(record)}```\n"
        with pytest.raises(NoReproductionFound):
            extract_reproduction(Ticket(id=1, title="t", body=body))


class TestRoundTrip:
    def test_push_fetch_extract(self, tracker, listing1_text, listing1):
        stub, url = tracker
        issue_id = push_issue(url, make_record(listing1_text))
        ticket = fetch_ticket(url, issue_id)
        scenario, _ = extract_reproduction(ticket)
        assert scenario == listing1

    def test_generated_scenarios_survive_the_loop(self, tracker):
        from hypothesis import HealthCheck, given, settings

        stub, url = tracker

        @settings(max_examples=20, deadline=None, suppress_health_check=list(HealthCheck))
        @given(scenarios())
        def inner(scenario):
            text = serialize_scenario(scenario)
            flow_text = serialize_flow(scenario.flows) if scenario.flows else ""
            issue_id = push_issue(url, make_record(text, flow_text))
            ticket = fetch_ticket(url, issue_id)
            if not (scenario.networks or scenario.containers or scenario.vms):
                with pytest.raises(NoReproductionFound):
                    extract_reproduction(ticket)
                return
            recovered, flow = extract_reproduction(ticket)
            assert recovered == scenario
            if scenario.flows:
                assert tuple(flow) == scenario.flows

        inner()
