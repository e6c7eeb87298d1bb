"""Tool-module registry and base+volume composition.

The index is a local YAML file mapping canonical module references to
manifests; it stands in for a real container registry so resolution stays
deterministic and offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .model import DEFAULT_GROUP_PREFIXES, ContainerSpec, ModuleRef
from .parser import load_yaml


class UnknownModule(Exception):
    def __init__(self, ref):
        self.ref = ref
        super().__init__(f"module {ref} not present in registry index")


@dataclass(frozen=True)
class ExtractionRule:
    """Regex rule turning tool output into flaw-record fields.

    ``title``/``description`` may contain ``{group}`` placeholders filled
    from the pattern's named groups.
    """

    id: str
    pattern: str
    title: str
    flaw_class: str
    severity: str = "medium"
    description: str = ""


@dataclass(frozen=True)
class ModuleManifest:
    group: str = "unknown"
    tools: tuple[str, ...] = ()
    entrypoint: str = ""
    rules: tuple[ExtractionRule, ...] = ()


@dataclass(frozen=True)
class ComposedImage:
    base: ModuleRef
    overlays: tuple[ModuleRef, ...] = ()
    entrypoint: str = ""
    provides: frozenset = frozenset()


class RegistryIndex:
    """Immutable lookup table keyed on canonical ``registry/path:tag`` text."""

    def __init__(self, manifests: Mapping[str, ModuleManifest]):
        self._manifests = dict(manifests)

    def lookup(self, ref) -> ModuleManifest:
        key = str(ref)
        if key not in self._manifests:
            raise UnknownModule(ref)
        return self._manifests[key]

    def __contains__(self, ref) -> bool:
        return str(ref) in self._manifests

    def __len__(self) -> int:
        return len(self._manifests)


def load_registry_index(path: str) -> RegistryIndex:
    with open(path, "r", encoding="utf-8") as handle:
        return registry_index_from_dict(load_yaml(handle) or {})


def registry_index_from_dict(raw: Mapping) -> RegistryIndex:
    manifests = {}
    for ref_text, body in raw.items():
        body = body or {}
        rules = tuple(
            ExtractionRule(
                id=str(r["id"]),
                pattern=str(r["pattern"]),
                title=str(r.get("title", "{title}")),
                flaw_class=str(r.get("flaw-class", r.get("flaw_class", "vulnerability"))),
                severity=str(r.get("severity", "medium")),
                description=str(r.get("description", "")),
            )
            for r in body.get("rules", [])
        )
        manifests[str(ref_text)] = ModuleManifest(
            group=str(body.get("group", "unknown")),
            tools=tuple(body.get("tools", [])),
            entrypoint=str(body.get("entrypoint", "")),
            rules=rules,
        )
    return RegistryIndex(manifests)


def classify(ref: ModuleRef, prefixes: Mapping[str, str] = DEFAULT_GROUP_PREFIXES) -> str:
    """Group per path-prefix map; ``unknown`` when nothing matches."""
    leaf = ref.path.rsplit("/", 1)[-1]
    for prefix, group in prefixes.items():
        if leaf.startswith(prefix):
            return group
    return "unknown"


def resolve(container: ContainerSpec, index: RegistryIndex) -> ComposedImage:
    """Compose base + volume overlays; later overlays shadow earlier tools."""
    base_manifest = index.lookup(container.base)
    provides = set(base_manifest.tools)
    entrypoint = base_manifest.entrypoint
    for overlay in container.volumes:
        manifest = index.lookup(overlay)
        provides.update(manifest.tools)
        if manifest.entrypoint:
            entrypoint = manifest.entrypoint
    return ComposedImage(
        base=container.base,
        overlays=container.volumes,
        entrypoint=entrypoint,
        provides=frozenset(provides),
    )
