"""Seeded input generators and the reference oracles the checks use.

Everything here is written for the benchmark alone: it does not import
``tests/strategies.py`` and it never calls the ``alurity`` layer it is used
to check, so an edit to either cannot move the benchmark.  The program sees
only the YAML text these functions return.
"""

from __future__ import annotations

import ipaddress
import json
import random
import re

import yaml

REGISTRY = "registry.bench.local/alurity"
GROUP_PREFIXES = ("robo_", "comp_", "fore_", "expl_", "test_", "reco_", "deve_")
GROUP_NAMES = ("robots", "robot-components", "forensics", "exploitation", "testing", "reconnaissance", "ide-ui")
MODULES_PER_GROUP = 20
FLAW_CLASSES = ("exposure", "vulnerability", "misconfiguration", "weakness")
SEVERITIES = ("low", "medium", "high", "critical")

# The pipeline's documented scenario shape: one /24 with the gateway at .1,
# so the target (first endpoint) gets .2.
PIPELINE_NETWORK = "pipeline-network"
PIPELINE_SUBNET = "10.110.0.0/24"
PIPELINE_TARGET_IP = "10.110.0.2"


# --- tool registry -----------------------------------------------------------


def registry(seed: int) -> dict:
    """140 modules, 20 per group prefix; each has 1-3 extraction rules and a
    scripted output that plants 0-4 findings.

    Returns ``{"index": <index YAML doc>, "responses": <fixture doc>,
    "modules": {ref: {"entrypoint", "findings": [(rule id, title)]}}}``.
    """
    rng = random.Random(f"registry:{seed}")
    index: dict = {}
    responses: dict = {}
    modules: dict = {}
    for prefix, group in zip(GROUP_PREFIXES, GROUP_NAMES):
        # Every group holds the same multiset of rule and finding counts, so
        # the seed moves which module plants what, not how much is planted.
        rule_counts = [1 + i % 3 for i in range(MODULES_PER_GROUP)]
        finding_counts = [i % 5 for i in range(MODULES_PER_GROUP)]
        rng.shuffle(rule_counts)
        rng.shuffle(finding_counts)
        for i in range(MODULES_PER_GROUP):
            leaf = f"{prefix}m{i:02d}"
            ref = f"{REGISTRY}/{leaf}:1.{i % 3}"
            entrypoint = f"{leaf} --sweep"
            rules = []
            for r in range(rule_counts[i]):
                rules.append(
                    {
                        "id": f"{leaf}-r{r}",
                        "pattern": rf"VULN\[{leaf}/r{r}\] (?P<title>[^\n]+)",
                        "title": "{title}",
                        "flaw-class": rng.choice(FLAW_CLASSES),
                        "severity": rng.choice(SEVERITIES),
                        "description": f"reported by {leaf}: {{title}}",
                    }
                )
            findings = []
            lines = [f"{leaf} sweep started"]
            for f in range(finding_counts[i]):
                r = rng.randrange(len(rules))
                title = f"{leaf} finding {f} on port {rng.randint(1, 65535)}"
                findings.append((f"{leaf}-r{r}", title))
                lines.append(f"VULN[{leaf}/r{r}] {title}")
            lines.append("sweep done")
            index[ref] = {"group": group, "tools": [leaf], "entrypoint": entrypoint, "rules": rules}
            responses[f"^{re.escape(entrypoint)} "] = {"exit": 0, "stdout": "\n".join(lines) + "\n"}
            modules[ref] = {"entrypoint": entrypoint, "findings": findings}
    return {"index": index, "responses": responses, "modules": modules}


def dump_yaml(doc) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


# --- scenario documents ------------------------------------------------------


class Topology:
    """A generated scenario: the document text plus what the generator knows."""

    def __init__(self, networks, endpoints, text):
        self.networks = networks  # [(name, subnet)]
        self.endpoints = endpoints  # [(name, kind, (network, ...), ip or None)], containers first
        self.text = text

    @property
    def attachments(self) -> int:
        return sum(len(nets) for _, _, nets, _ in self.endpoints)


def topology(rng: random.Random, n_endpoints: int, n_networks: int, modules: list[str], prefixlen: int = 20) -> Topology:
    """Scenario with 70% containers and 30% VMs; each endpoint joins 1-3 of
    the networks and about 10% carry a manual address."""
    second = rng.randrange(0, 200)
    step = 2 ** (32 - prefixlen)
    networks = []
    for i in range(n_networks):
        base = ipaddress.IPv4Address(f"10.{second}.0.0") + i * step
        networks.append((f"net{i:02d}", f"{base}/{prefixlen}"))
    hosts = step - 2
    used: dict[str, set] = {name: set() for name, _ in networks}

    n_containers = round(0.7 * n_endpoints)
    endpoints = []
    for i in range(n_endpoints):
        kind = "container" if i < n_containers else "vm"
        name = f"ct{i:04d}" if kind == "container" else f"vm{i:04d}"
        nets = tuple(net for net, _ in rng.sample(networks, rng.randint(1, min(3, n_networks))))
        ip = None
        if rng.random() < 0.1:
            first = nets[0]
            offset = rng.randint(2, hosts)
            while offset in used[first]:
                offset = rng.randint(2, hosts)
            used[first].add(offset)
            subnet = dict(networks)[first]
            ip = str(ipaddress.IPv4Network(subnet).network_address + offset)
        endpoints.append((name, kind, nets, ip))

    lines = ["networks:"]
    for name, subnet in networks:
        lines += [
            "  - network:",
            f"    - name: {name}",
            "    - driver: overlay",
            f"    - internal: {'true' if rng.random() < 0.3 else 'false'}",
            f"    - encryption: {'true' if rng.random() < 0.2 else 'false'}",
            f"    - subnet: {subnet}",
            "",
        ]
    lines.append("containers:")
    vm_lines = ["vms:"]
    for name, kind, nets, ip in endpoints:
        cpus = rng.randint(1, 4)
        memory = rng.choice((256, 512, 1024, 2048))
        if kind == "container":
            lines += ["  - container:", f"    - name: {name}", "    - modules:", f"        - base: {rng.choice(modules)}"]
            for vol in rng.sample(modules, rng.randint(0, 2)):
                lines.append(f"        - volume: {vol}")
            lines.append("        - network:")
            lines += [f"          - {net}" for net in nets]
            if ip is not None:
                lines.append(f"    - ip: {ip}")
            lines += [f"    - cpus: {cpus}", f"    - memory: {memory}"]
            if rng.random() < 0.1:
                lines.append('    - extra-options: "--cap-add NET_ADMIN"')
            lines.append("")
        else:
            vm_lines += ["  - vm:", f"    - name: {name}", f"    - path: images/{name}.qcow2"]
            vm_lines += [f"    - network: {net}" for net in nets]
            if ip is not None:
                vm_lines.append(f"    - ip: {ip}")
            vm_lines += [f"    - cpus: {cpus}", f"    - memory: {memory}", ""]
    if len(vm_lines) > 1:
        lines += vm_lines
    return Topology(networks, endpoints, "\n".join(lines) + "\n")


def lowest_free(networks, endpoints) -> dict:
    """Reference allocator: manual addresses verbatim, then for every
    endpoint in document order and each of its networks, the lowest host
    address above the gateway that is still free.  One cursor per network,
    so it is linear in the number of attachments."""
    bases = {name: int(ipaddress.IPv4Network(subnet).network_address) for name, subnet in networks}
    manual: dict[str, set] = {name: set() for name in bases}
    out: dict = {}
    for name, _kind, nets, ip in endpoints:
        if ip is not None:
            out[(name, nets[0])] = ip
            manual[nets[0]].add(int(ipaddress.IPv4Address(ip)) - bases[nets[0]])
    cursor = {name: 2 for name in bases}
    for name, _kind, nets, _ip in endpoints:
        for net in nets:
            if (name, net) in out:
                continue
            offset = cursor[net]
            while offset in manual[net]:
                offset += 1
            cursor[net] = offset + 1
            out[(name, net)] = str(ipaddress.IPv4Address(bases[net] + offset))
    return out


# --- flow documents ----------------------------------------------------------

# (template, matched by a fixture pattern)
_COMMANDS = (
    ("nmap -sV {ip}", True),
    ("curl -s http://{ip}:{port}/", True),
    ("ping -c 1 {ip}", True),
    ("ssh {user}@{ip} id", True),
    ("cat /etc/passwd", True),
    ("uname -a", True),
    ("ls -la /srv/{word}", True),
    ("ps aux", True),
    ("netstat -tlnp", True),
    ("whoami", True),
    ("id -u {user}", True),
    ("grep -r {word} /var/log", True),
    ("echo {word}", False),
    ("touch /tmp/{word}", False),
    ("mkdir -p /srv/{word}", False),
    ("cp /etc/hosts /tmp/{word}", False),
    ("export VAR_{port}={word}", False),
    ("cd /srv/{word}", False),
    ("chmod 600 /tmp/{word}", False),
    ("date", False),
    ("hostname", False),
    ("true", False),
    ("env | sort", False),
    ("tail -n 5 /var/log/{word}.log", False),
)
_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")
_USERS = ("root", "admin", "operator", "guest")

# Twelve patterns matching the first twelve templates, about half the commands.
FLOW_RESPONSES = {
    r"^nmap ": {"exit": 0, "stdout": "PORT   STATE SERVICE\n22/tcp open  ssh\n80/tcp open  http\n"},
    r"^curl ": {"exit": 0, "stdout": "<html><body>it works</body></html>\n"},
    r"^ping ": {"exit": 0, "stdout": "1 packets transmitted, 1 received, 0% packet loss\n"},
    r"^ssh ": {"exit": 255, "stdout": "", "stderr": "Permission denied (publickey).\n"},
    r"^cat /etc/passwd$": {"exit": 0, "stdout": "root:x:0:0:root:/home:/bin/bash\n"},
    r"^uname ": {"exit": 0, "stdout": "Linux testbed 5.15.0 x86_64 GNU/Linux\n"},
    r"^ls -la ": {"exit": 2, "stdout": "", "stderr": "ls: cannot access: No such file or directory\n"},
    r"^ps aux$": {"exit": 0, "stdout": "USER PID COMMAND\nroot 1 /sbin/init\n"},
    r"^netstat ": {"exit": 0, "stdout": "tcp 0 0 0.0.0.0:22 0.0.0.0:* LISTEN\n"},
    r"^whoami$": {"exit": 0, "stdout": "root\n"},
    r"^id -u ": {"exit": 0, "stdout": "0\n"},
    r"^grep -r ": {"exit": 1, "stdout": ""},
}


def _command(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return f"sleep {rng.randint(1, 5)}"
    template, _ = rng.choice(_COMMANDS)
    return template.format(
        ip=f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(2, 254)}",
        port=rng.randint(1, 65535),
        user=rng.choice(_USERS),
        word=rng.choice(_WORDS),
    )


class Flow:
    """A generated flow document plus the per-pane command lists."""

    def __init__(self, panes, text):
        self.panes = panes  # {(endpoint, window, pane index): [command text]}
        self.text = text

    @property
    def commands(self) -> int:
        return sum(len(cmds) for cmds in self.panes.values())

    @property
    def sleep_total(self) -> int:
        return sum(
            int(c.split()[1]) for cmds in self.panes.values() for c in cmds if c.startswith("sleep ")
        )


def flow(rng: random.Random, endpoints, total: int, windows=(1, 4), panes=(1, 4), commands=(2, 6)) -> Flow:
    """Flow document giving every endpoint ``windows`` windows of ``panes``
    panes with ``commands`` commands each (inclusive ranges), ``total``
    commands in all; about 10% of commands are ``sleep N``.

    Pane lengths are drawn, then single panes are grown or shrunk inside the
    range until they sum to ``total``, so that every document of a slot is
    the same amount of work.
    """
    lo, hi = commands
    if not lo * len(endpoints) <= total <= hi * windows[1] * panes[1] * len(endpoints):
        raise ValueError(f"no flow of {len(endpoints)} endpoints holds {total} commands")
    while True:
        shape = [
            (name, kind, [[rng.randint(lo, hi) for _ in range(rng.randint(*panes))] for _ in range(rng.randint(*windows))])
            for name, kind, _nets, _ip in endpoints
        ]
        lengths = [pane for _, _, wins in shape for pane in wins]
        if lo * sum(map(len, lengths)) <= total <= hi * sum(map(len, lengths)):
            break
    count = sum(sum(pane) for pane in lengths)
    while count != total:
        pane = rng.choice(lengths)
        i = rng.randrange(len(pane))
        if count < total and pane[i] < hi:
            pane[i] += 1
            count += 1
        elif count > total and pane[i] > lo:
            pane[i] -= 1
            count -= 1

    lines = ["flow:"]
    pane_map: dict = {}
    for name, kind, wins in shape:
        lines += [f"  - {kind}:", f"    - name: {name}"]
        for w, pane_lengths in enumerate(wins):
            lines += ["    - window:", f"      - name: w{w}", "      - commands:"]
            for p, length in enumerate(pane_lengths):
                if p:
                    lines.append(f"        - split: {rng.choice(('horizontal', 'vertical'))}")
                cmds = [_command(rng) for _ in range(length)]
                pane_map[(name, f"w{w}", p)] = cmds
                lines += [f"        - command: {json.dumps(c)}" for c in cmds]
        if rng.random() < 0.5:
            lines.append(f"    - select: w{rng.randrange(len(wins))}")
    return Flow(pane_map, "\n".join(lines) + "\n")


def expected_response(command: str, responses) -> tuple[int, str]:
    """Reference for the mock backend's scripted exec: the first pattern
    that matches anywhere in the command wins; otherwise exit 0, no output."""
    for pattern, body in responses:
        if pattern.search(command):
            return int(body.get("exit", 0)), str(body.get("stdout", ""))
    return 0, ""
