"""Shared fixtures for the test suite.

Expensive artifacts (the paper's symbolic reachability graph, the numeric
performance analysis) are built once per session; everything downstream
treats them as immutable, which they are.
"""

from __future__ import annotations

import pytest

from repro.performance import PerformanceAnalysis
from repro.protocols import (
    paper_bindings,
    simple_protocol_net,
    simple_protocol_symbolic,
)
from repro.reachability import decision_graph, timed_reachability_graph


def pytest_configure(config):
    # ``timeout`` belongs to pytest-timeout, which CI installs; registering
    # it here keeps runs without the plugin free of unknown-mark warnings.
    # With the plugin installed the marker still bounds the test.
    config.addinivalue_line("markers", "timeout(seconds): per-test time limit (pytest-timeout)")


@pytest.fixture(scope="session")
def paper_net():
    """The numeric Figure-1 net with the paper's parameters."""
    return simple_protocol_net()


@pytest.fixture(scope="session")
def paper_trg(paper_net):
    """The numeric timed reachability graph of the paper's protocol (Figure 4)."""
    return timed_reachability_graph(paper_net)


@pytest.fixture(scope="session")
def paper_decision(paper_trg):
    """The numeric decision graph of the paper's protocol (Figure 5)."""
    return decision_graph(paper_trg)


@pytest.fixture(scope="session")
def paper_analysis(paper_net):
    """End-to-end numeric performance analysis of the paper's protocol."""
    return PerformanceAnalysis(paper_net)


@pytest.fixture(scope="session")
def symbolic_protocol():
    """The symbolic Figure-1 net, its Section-4 constraints and its symbols."""
    return simple_protocol_symbolic()


@pytest.fixture(scope="session")
def symbolic_analysis(symbolic_protocol):
    """End-to-end symbolic performance analysis (Figures 6-8)."""
    net, constraints, _symbols = symbolic_protocol
    return PerformanceAnalysis(net, constraints)


@pytest.fixture(scope="session")
def paper_parameter_bindings():
    """Numeric bindings of the symbolic model matching Figure 1b."""
    return paper_bindings()
