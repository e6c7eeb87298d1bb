import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alurity.model import (
    Command,
    ContainerSpec,
    FlowSpec,
    ModuleRef,
    NetworkSpec,
    Scenario,
    Split,
    VmSpec,
    WindowSpec,
)
from alurity.parser import (
    ParseFailure,
    parse_flow,
    parse_scenario,
    parse_scenario_with_warnings,
    serialize_flow,
    serialize_scenario,
)

from strategies import scenarios

REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"

LISTING1_EXPECTED = Scenario(
    networks=(
        NetworkSpec(name="process-network", driver="overlay", internal=True, encryption=False, subnet="12.0.0.0/24"),
        NetworkSpec(name="cloud-network", driver="overlay", internal=False, encryption=False, subnet="17.0.0.0/24"),
    ),
    containers=(
        ContainerSpec(
            name="ur3",
            base=ModuleRef.parse(f"{REG}/robo_ur_cb3_1:3.13.0"),
            networks=("process-network",),
            ip="12.0.0.20",
            cpus=4,
            memory=2048,
        ),
        ContainerSpec(
            name="attacker",
            base=ModuleRef.parse(f"{REG}/comp_ros:melodic-scenario"),
            volumes=(
                ModuleRef.parse(f"{REG}/expl_robosploit/expl_robosploit:latest"),
                ModuleRef.parse(f"{REG}/reco_aztarna:latest"),
                ModuleRef.parse(f"{REG}/deve_gazebo:latest"),
            ),
            networks=("process-network", "cloud-network"),
            extra_options="ALL",
        ),
    ),
)

LISTING2_EXPECTED = Scenario(
    vms=(
        VmSpec(
            name="irc5",
            path="$(pwd)/vms/irc5",
            networks=("process-network",),
            ip="12.0.0.100",
            cpus=2,
            memory=2048,
        ),
    ),
)


class TestParseScenario:
    def test_listing1_fidelity(self, listing1):
        assert listing1 == LISTING1_EXPECTED

    def test_listing2_fidelity(self, listing2):
        assert listing2 == LISTING2_EXPECTED

    def test_pwd_interpolation_kept_verbatim(self, listing2):
        assert listing2.vms[0].path == "$(pwd)/vms/irc5"

    def test_module_groups_inferred(self, listing1):
        assert listing1.containers[0].base.group == "robots"
        assert [v.group for v in listing1.containers[1].volumes] == [
            "exploitation",
            "reconnaissance",
            "ide-ui",
        ]

    def test_empty_document(self):
        assert parse_scenario("") == Scenario()

    def test_container_without_networks_parses(self):
        text = (
            "containers:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - modules:\n"
            "       - base: a/b:1\n"
        )
        scenario = parse_scenario(text)
        assert scenario.containers[0].networks == ()

    def test_unknown_top_level_key_fails(self):
        with pytest.raises(ParseFailure):
            parse_scenario("wat:\n  - 1\n")

    def test_malformed_yaml_fails_with_line(self):
        with pytest.raises(ParseFailure) as exc:
            parse_scenario("networks:\n  - network:\n  [oops\n")
        assert exc.value.line is not None

    def test_repeated_base_fails(self):
        text = (
            "containers:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - modules:\n"
            "       - base: a/b:1\n"
            "       - base: a/c:2\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_scenario(text)
        assert exc.value.line == 6

    @pytest.mark.parametrize(
        "text",
        [
            "networks:\n  - network:\n    - driver: overlay\n",  # missing name
            "networks:\n  - network:\n    - name: n\n",  # missing subnet
            "containers:\n  - container:\n    - name: x\n    - modules:\n       - volume: a/b:1\n",  # missing base
            "containers:\n  - container:\n    - modules:\n       - base: a/b:1\n",  # missing name
            "vms:\n  - vm:\n    - name: v\n",  # missing path
        ],
    )
    def test_missing_mandatory_keys(self, text):
        with pytest.raises(ParseFailure):
            parse_scenario(text)

    def test_unknown_record_key_is_warning(self):
        text = (
            "networks:\n"
            "  - network:\n"
            "    - name: n\n"
            "    - subnet: 12.0.0.0/24\n"
            "    - fancy: yes\n"
        )
        scenario, warnings = parse_scenario_with_warnings(text)
        assert scenario.networks[0].name == "n"
        assert [w.code for w in warnings] == ["unknown-key"]
        assert warnings[0].line == 5

    @pytest.mark.parametrize(
        "name",
        [
            "2020-13-45",  # matches the timestamp pattern, is no date
            "=",  # resolves to the value tag, which has no safe constructor
        ],
    )
    def test_odd_scalar_stays_text(self, name):
        text = f"networks:\n  - network:\n    - name: {name}\n    - subnet: 12.0.0.0/24\n"
        scenario = parse_scenario(text)
        assert scenario.networks[0].name == name
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_lone_surrogate_fails_cleanly(self):
        with pytest.raises(ParseFailure):
            parse_scenario("networks:\n  - network:\n    - name: \ud800\n")

    def test_source_lines_recorded(self, listing1_text):
        scenario = parse_scenario(listing1_text)
        lines = listing1_text.splitlines()
        ip_line = scenario.source_map["containers[0].ip"]
        assert "ip: 12.0.0.20" in lines[ip_line - 1]
        subnet_line = scenario.source_map["networks[1].subnet"]
        assert "17.0.0.0/24" in lines[subnet_line - 1]


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=20))
def test_any_network_name_parses_or_fails_cleanly(name):
    text = f"networks:\n  - network:\n    - name: {name}\n    - subnet: 12.0.0.0/24\n"
    try:
        parse_scenario(text)
    except ParseFailure:
        pass


class TestParseFlow:
    def test_listing3_shape(self, listing3):
        assert [f.endpoint for f in listing3] == ["rosmachine", "attacker"]
        rosmachine, attacker = listing3
        assert [w.name for w in rosmachine.windows] == ["ros"]
        assert [w.name for w in attacker.windows] == ["setup", "attack"]
        assert attacker.select == "attack"
        assert rosmachine.select is None
        # 2 splits -> 3 panes in the ros window
        assert sum(isinstance(i, Split) for i in rosmachine.windows[0].items) == 2

    def test_trailing_period_split_normalized(self, listing3):
        attack = listing3[1].windows[1]
        splits = [i for i in attack.items if isinstance(i, Split)]
        assert [s.direction for s in splits] == ["horizontal"]

    def test_last_attack_command(self, listing3):
        commands = listing3[1].windows[1].commands()
        assert commands[-1].text == 'robosploit -m exploits/ros/fin_ack -s "target 12.0.0.2"'

    def test_empty_flow(self):
        assert parse_flow("flow:\n") == []

    def test_unknown_split_fails_at_line(self):
        text = (
            "flow:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - window:\n"
            "      - name: w\n"
            "      - commands:\n"
            "        - split: diagonal\n"
        )
        with pytest.raises(ParseFailure) as exc:
            parse_flow(text)
        assert exc.value.line == 7

    def test_select_must_name_declared_window(self):
        text = (
            "flow:\n"
            "  - container:\n"
            "    - name: x\n"
            "    - window:\n"
            "      - name: w\n"
            "    - select: ghost\n"
        )
        with pytest.raises(ParseFailure):
            parse_flow(text)


class TestRoundTrip:
    def test_listing1(self, listing1):
        assert parse_scenario(serialize_scenario(listing1)) == listing1

    def test_listing2(self, listing2):
        assert parse_scenario(serialize_scenario(listing2)) == listing2

    def test_listing3(self, listing3):
        assert parse_flow(serialize_flow(listing3)) == listing3

    def test_empty(self):
        text = serialize_scenario(Scenario())
        assert parse_scenario(text) == Scenario()

    def test_flow_embedded_in_scenario(self, listing1, listing3):
        from dataclasses import replace

        combined = replace(listing1, flows=tuple(listing3))
        assert parse_scenario(serialize_scenario(combined)) == combined

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_random_scenarios(self, scenario):
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_tricky_command_quoting(self):
        flow = [
            FlowSpec(
                endpoint="x",
                windows=(
                    WindowSpec(
                        name="w",
                        items=(
                            Command('export A="b: c" # not a comment'),
                            Command("true"),
                            Command("1234"),
                            Split("vertical"),
                            Command("wireshark -i eth0 . &"),
                            Command("echo \U0001F916"),
                            Command("printf '\\x85\x7f\x85\u2028\ufeff'"),
                        ),
                    ),
                ),
            )
        ]
        assert parse_flow(serialize_flow(flow)) == flow

    def test_astral_names(self):
        scenario = Scenario(
            networks=(NetworkSpec(name="net-\U0001F916", subnet="12.0.0.0/24"),),
            containers=(
                ContainerSpec(
                    name="arm-\U0001F9BE",
                    base=ModuleRef.parse(f"{REG}/robo_x:1"),
                    networks=("net-\U0001F916",),
                ),
            ),
        )
        assert parse_scenario(serialize_scenario(scenario)) == scenario
