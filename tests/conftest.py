from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dimasr.data import AspectInstance, VAPair

FIXTURES = Path(__file__).parent / "fixtures"

# every property test draws the same examples on every run, so a later run
# cannot find a new failing input; each test still sets its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def make_instances(n, seed=0, prefix="s", lo=1.5, hi=8.5):
    """n labeled synthetic instances, one per sentence."""
    rng = np.random.default_rng(seed)
    words = ["food", "staff", "battery", "screen", "price", "service", "keyboard",
             "ram", "wine", "pasta", "mouse", "fan", "case", "soup", "menu", "dock"]
    out = []
    for i in range(n):
        w = words[i % len(words)]
        gold = VAPair(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
        out.append(AspectInstance(f"{prefix}{i}", 0, f"the {w} was something {i}", w, gold))
    return out


@pytest.fixture
def sixteen_instances():
    return make_instances(16, seed=7)


def random_pairs(rng, n):
    return [VAPair(float(v), float(a)) for v, a in rng.uniform(1.0, 9.0, size=(n, 2))]
