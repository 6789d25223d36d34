import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

from bbt import ground, parse_domain, plan_request_from_domain, refine_tree

import deepgen

settings.register_profile("suite", max_examples=100, derandomize=True)
settings.load_profile("suite")

REPO = Path(__file__).resolve().parent.parent
DOMAINS = REPO / "domains"
WIDEGEN = REPO / "perfbench" / "widegen.py"


@pytest.fixture(scope="session")
def soda_path() -> Path:
    return DOMAINS / "soda.bbt"


@pytest.fixture(scope="session")
def soda_det_path() -> Path:
    return DOMAINS / "soda_deterministic.bbt"


@pytest.fixture(scope="session")
def soda_domain(soda_path):
    return ground(parse_domain(soda_path.read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def soda_det_domain(soda_det_path):
    return ground(parse_domain(soda_det_path.read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def planned_det(soda_det_domain):
    return refine_tree(plan_request_from_domain(soda_det_domain))


@pytest.fixture(scope="session")
def planned_stochastic(soda_domain):
    return refine_tree(plan_request_from_domain(soda_domain))


@pytest.fixture(scope="session")
def widegen():
    """The seeded wide-domain generator of ``perfbench/widegen.py``."""
    spec = importlib.util.spec_from_file_location("widegen", WIDEGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def wide_text(widegen) -> str:
    """The 24-item domain of ``perfbench/widegen.py``, seed 0."""
    return widegen.generate(24, seed=0)


@pytest.fixture(scope="session")
def wide_path(tmp_path_factory, wide_text) -> Path:
    path = tmp_path_factory.mktemp("wide") / "wide.bbt"
    path.write_text(wide_text, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def wide_domain(wide_text):
    return ground(parse_domain(wide_text))


@pytest.fixture(scope="session")
def deep_domain():
    """The deep-perception domain of ``tests/deepgen.py`` with 5 objects."""
    return ground(parse_domain(deepgen.generate(5)))
