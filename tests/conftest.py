import json
import math

import pytest

from qtherm.config import SimConfig


@pytest.fixture
def paper_cfg():
    """Experiment-default configuration, fields overridable per test."""

    def make(**kwargs) -> SimConfig:
        base = dict(
            gamma=1.7,
            omega_r=2.0 * math.pi,
            eta=0.35,
            dt=0.02,
            tau=8.0,
            seed=1,
        )
        base.update(kwargs)
        return SimConfig(**base)

    return make


@pytest.fixture(scope="session", autouse=True)
def acceptance_json(request, tmp_path_factory):
    """At the end of the session, write the records of every acceptance
    criterion that reported (``RECORDS`` in test_acceptance.py) to
    ``acceptance.json`` in pytest's base temp directory, which
    ``--basetemp DIR`` fixes.  ``tests/acceptance_diff.py`` compares two."""
    yield
    modules = dict.fromkeys(getattr(item, "module", None) for item in request.session.items)
    records = [r for module in modules for r in getattr(module, "RECORDS", ())]
    if records:
        path = tmp_path_factory.getbasetemp() / "acceptance.json"
        path.write_text(json.dumps(records, indent=1) + "\n")
