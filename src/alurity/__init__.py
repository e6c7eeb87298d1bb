"""Scenario orchestration toolbox for mixed container/VM cybersecurity
testbeds: declarative YAML scenarios, topology planning, scripted flows,
and automated flaw-record pipelines.

The package root holds only ``__version__``; import every other name from
its module (``alurity.model``, ``alurity.parser``, ``alurity.netplan``, ...).
"""

__version__ = "0.1.0"
