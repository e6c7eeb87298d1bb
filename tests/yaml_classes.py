"""Switch the package's YAML layer to PyYAML's pure-Python classes."""

import contextlib

import pytest
import yaml

from alurity import parser


class PureNodeLoader(yaml.SafeLoader):
    """``parser._NodeLoader`` on the pure-Python classes."""

    resolve = parser._NodeLoader.resolve


@contextlib.contextmanager
def pure_python_classes():
    """Route the shared loader and dumper, and the loader that composes
    scenario and flow documents, through PyYAML's Python classes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "YAML_LOADER", yaml.SafeLoader)
        patch.setattr(parser, "YAML_DUMPER", yaml.SafeDumper)
        patch.setattr(parser, "_NodeLoader", PureNodeLoader)
        yield
