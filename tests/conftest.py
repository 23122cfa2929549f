import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tritronquee.bsb import QuantumPair, descendant, solve_bsb
from tritronquee.oscillator import refine_pole


@pytest.fixture(scope="session")
def anchor():
    """The real primitive solution of the quantization system."""
    return solve_bsb(QuantumPair(1, 1))


@pytest.fixture(scope="session")
def coprime_primitives():
    """Route-1 primitives, without the graph check, of the 19 pairs with
    n, m <= 5 and 2n-1, 2m-1 coprime."""
    pairs = [QuantumPair(n, m) for n in range(1, 6) for m in range(1, 6)]
    return {q: solve_bsb(q, verify_graph=False)
            for q in pairs if q.is_primitive}


@pytest.fixture(scope="session")
def q1_sequence(anchor):
    """Descendants k = 0..4 of the real primitive."""
    return [descendant(anchor, k) if k else anchor for k in range(5)]


@pytest.fixture(scope="session")
def pole_table(q1_sequence):
    """Refined poles (with WKB gaps) for q = 1, k = 0..4, plus wall time."""
    t0 = time.monotonic()
    records = [refine_pole(seed) for seed in q1_sequence]
    elapsed = time.monotonic() - t0
    return {"records": records, "elapsed": elapsed}
