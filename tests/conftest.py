import re

import numpy as np
import pytest

from lorentz_embed import norms


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["default-workers", "one-worker"])
def kernel_workers(request, monkeypatch):
    """The norm kernel's worker count, run twice: at the default, one per
    CPU, and at one, where every task runs on the calling thread, as on a
    one-CPU machine. Reports and decisions must not depend on it."""
    if request.param == "one-worker":
        monkeypatch.setattr(norms, "_WORKERS", 1)
    return norms._WORKERS


def pytest_collection_modifyitems(items):
    """The default-worker run of a test that uses kernel_workers keeps the
    id the test has without it; only the one-worker run is named."""
    for item in items:
        callspec = getattr(item, "callspec", None)
        if callspec is not None and callspec.params.get("kernel_workers") == "default-workers":
            name = re.sub(r"\[default-workers\]|default-workers-|-default-workers",
                          "", item.name)
            item._nodeid = item.nodeid[:-len(item.name)] + name
            item.name = name
