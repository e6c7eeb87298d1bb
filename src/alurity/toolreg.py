"""Tool-module registry and base+volume composition.

The index is a local YAML file mapping canonical module references to
manifests; it stands in for a real container registry so resolution stays
deterministic and offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .model import ContainerSpec, ModuleRef
from .parser import ParseFailure, compile_regex, load_yaml_map, map_or_empty, text_field


class UnknownModule(Exception):
    def __init__(self, ref):
        super().__init__(f"module {ref} not present in registry index")


@dataclass(frozen=True)
class ExtractionRule:
    """Regex rule turning tool output into flaw-record fields.

    ``title``/``description`` may contain ``{group}`` placeholders filled
    from the pattern's named groups.  An empty ``title`` is the match's
    ``title`` group where that takes part, the matched text otherwise.
    """

    id: str
    pattern: str
    title: str
    flaw_class: str
    severity: str = "medium"
    description: str = ""


@dataclass(frozen=True)
class ModuleManifest:
    entrypoint: str = ""
    rules: tuple[ExtractionRule, ...] = ()


@dataclass(frozen=True)
class ComposedImage:
    base: ModuleRef
    entrypoint: str = ""


class RegistryIndex:
    """Immutable lookup table keyed on canonical ``registry/path:tag`` text."""

    def __init__(self, manifests: Mapping[str, ModuleManifest]):
        self._manifests = dict(manifests)

    def lookup(self, ref) -> ModuleManifest:
        manifest = self._manifests.get(str(ref))
        if manifest is None:
            raise UnknownModule(ref)
        return manifest


def load_registry_index(path: str) -> RegistryIndex:
    return registry_index_from_dict(load_yaml_map(path))


def _rule(r, where: str) -> ExtractionRule:
    if not isinstance(r, dict) or r.get("id") is None or r.get("pattern") is None:
        raise ParseFailure(f"each rule of {where} must be a map with an 'id' and a 'pattern', got {r!r}")
    pattern = str(r["pattern"])
    compile_regex(pattern, f"the pattern of rule {r['id']!r} of {where}")
    return ExtractionRule(
        id=str(r["id"]),
        pattern=pattern,
        title=text_field(r, "title"),
        flaw_class=text_field(r, "flaw-class", text_field(r, "flaw_class", "vulnerability")),
        severity=text_field(r, "severity", "medium"),
        description=text_field(r, "description"),
    )


def registry_index_from_dict(raw: Mapping) -> RegistryIndex:
    """The index a map of module reference -> manifest describes;
    ``ParseFailure`` for a manifest that is not a map (an empty one is), a
    ``rules`` entry that is not a list of rule maps, a rule ``pattern``
    that is not a regex or a ``tools`` entry that is not a list."""
    manifests = {}
    for ref_text, body in raw.items():
        body = map_or_empty(body, f"the manifest of {ref_text}")
        manifests[str(ref_text)] = ModuleManifest(
            rules=tuple(_rule(r, ref_text) for r in map_or_empty(body.get("rules"), f"the rules of {ref_text}", list)),
            entrypoint=text_field(body, "entrypoint"),
        )
        map_or_empty(body.get("tools"), f"the tools of {ref_text}", list)  # documents the module's tools: checked, read by nothing
    return RegistryIndex(manifests)


def resolve(container: ContainerSpec, index: RegistryIndex) -> ComposedImage:
    """Compose base + volume overlays; each must be in ``index``, and the last non-empty entrypoint wins."""
    entrypoint = index.lookup(container.base).entrypoint
    for overlay in container.volumes:
        entrypoint = index.lookup(overlay).entrypoint or entrypoint
    return ComposedImage(base=container.base, entrypoint=entrypoint)
