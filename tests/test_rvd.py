import pytest

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
        assert stub.seen_auth[-1] == "Bearer sekrit"

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
        assert stub.seen_auth[-1] == "Bearer t0k"

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
