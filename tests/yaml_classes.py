"""Switch the package's YAML reader to PyYAML's pure-Python classes, and
the tests' own YAML writer: PyYAML's dumper, which the package no longer uses."""

import contextlib

import pytest
import yaml

from alurity import parser, rvd


class PureNodeLoader(yaml.SafeLoader):
    """``parser._NodeLoader`` on the pure-Python classes."""

    resolve = parser._NodeLoader.resolve
    descend_resolver = parser._NodeLoader.descend_resolver
    ascend_resolver = parser._NodeLoader.ascend_resolver


@contextlib.contextmanager
def pure_python_classes():
    """Route the shared loader, and the loader that composes scenario and
    flow documents, through PyYAML's Python classes.  The reproductions
    ``rvd`` keeps are dropped on the way in and out, so neither side reads
    what the other classes composed."""
    rvd._read_reproduction.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser, "YAML_LOADER", yaml.SafeLoader)
            patch.setattr(parser, "_NodeLoader", PureNodeLoader)
            yield
    finally:
        rvd._read_reproduction.cache_clear()


def dump(doc) -> str:
    """``doc`` as PyYAML's safe dumper writes it, keys in insertion order:
    the former writer of the package's plans, flaw records and transcripts."""
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False, default_flow_style=False)


def load(text: str):
    """The document in ``text`` as PyYAML's safe loader reads it, on the
    classes the package composes with."""
    return yaml.load(text, Loader=parser.YAML_LOADER)


_RESOLVER = yaml.resolver.Resolver()


def load_untagged(text: str):
    """``load`` of ``text`` with every node typed as if it carried no
    explicit tag, as the package's readers type nodes; ``ValueError`` or
    ``yaml.YAMLError`` where that cannot be read."""
    root = yaml.compose(text, Loader=parser.YAML_LOADER)
    todo, seen = [root] if root is not None else [], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            node.tag = _RESOLVER.resolve(type(node), node.value, (not getattr(node, "style", None), False))
            if not isinstance(node, yaml.ScalarNode):
                todo.extend(item for entry in node.value for item in (entry if isinstance(entry, tuple) else (entry,)))
    return None if root is None else yaml.constructor.SafeConstructor().construct_document(root)
