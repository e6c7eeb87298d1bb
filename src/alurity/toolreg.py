"""Tool-module registry and base+volume composition.

The index is a local YAML file mapping canonical module references to
manifests; it stands in for a real container registry so resolution stays
deterministic and offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .model import ContainerSpec, ModuleRef
from .parser import ParseFailure, compile_regex, load_yaml_map


class UnknownModule(Exception):
    def __init__(self, ref):
        self.ref = ref
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
        key = str(ref)
        if key not in self._manifests:
            raise UnknownModule(ref)
        return self._manifests[key]


def load_registry_index(path: str) -> RegistryIndex:
    return registry_index_from_dict(load_yaml_map(path))


def _rule(r, where: str) -> ExtractionRule:
    if not isinstance(r, dict) or "id" not in r or "pattern" not in r:
        raise ParseFailure(f"each rule of {where} must be a map with an 'id' and a 'pattern', got {r!r}")
    pattern = str(r["pattern"])
    compile_regex(pattern, f"the pattern of rule {r['id']!r} of {where}")
    return ExtractionRule(
        id=str(r["id"]),
        pattern=pattern,
        title=str(r.get("title", "")),
        flaw_class=str(r.get("flaw-class", r.get("flaw_class", "vulnerability"))),
        severity=str(r.get("severity", "medium")),
        description=str(r.get("description", "")),
    )


def _list(body: dict, key: str, where: str) -> list:
    value = body.get(key)
    if value is not None and not isinstance(value, list):
        raise ParseFailure(f"the {key} of {where} must be a list, got a {type(value).__name__}")
    return value or []


def registry_index_from_dict(raw: Mapping) -> RegistryIndex:
    """The index a map of module reference -> manifest describes;
    ``ParseFailure`` for a manifest that is not a map (an empty one is), a
    ``rules`` entry that is not a list of rule maps, a rule ``pattern``
    that is not a regex or a ``tools`` entry that is not a list."""
    manifests = {}
    for ref_text, body in raw.items():
        body = {} if body is None else body
        if not isinstance(body, dict):
            raise ParseFailure(f"the manifest of {ref_text} must be a map, got a {type(body).__name__}")
        manifests[str(ref_text)] = ModuleManifest(
            rules=tuple(_rule(r, ref_text) for r in _list(body, "rules", ref_text)),
            entrypoint=str(body.get("entrypoint", "")),
        )
        _list(body, "tools", ref_text)  # documents the module's tools: checked, read by nothing
    return RegistryIndex(manifests)


def resolve(container: ContainerSpec, index: RegistryIndex) -> ComposedImage:
    """Compose base + volume overlays; each must be in ``index``, and the last non-empty entrypoint wins."""
    entrypoint = index.lookup(container.base).entrypoint
    for overlay in container.volumes:
        entrypoint = index.lookup(overlay).entrypoint or entrypoint
    return ComposedImage(base=container.base, entrypoint=entrypoint)
