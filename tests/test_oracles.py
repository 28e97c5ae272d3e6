"""Independent oracle: ranks over GF(p) from sympy, which shares no code with matlen.

Runs only where the optional `test` extra's sympy is installed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from matlen.linalg import Matrix, PrimeField, SpanBasis, rank  # noqa: E402


def sympy_rank(rows: np.ndarray, p: int) -> int:
    return DomainMatrix.from_list(rows.tolist(), sympy.GF(p)).rank()


def low_rank_stack(rng, p: int, m: int, cols: int, r: int) -> np.ndarray:
    """m x cols stack of rank at most r: a product of random m x r and r x cols factors."""
    return (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, cols))) % p


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 101, 1048573]),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 90),
    cols=st.integers(1, 30),
    r=st.integers(1, 30),
    chunk=st.integers(1, 90),
)
def test_span_dimension_after_insert_rows(p, seed, m, cols, r, chunk):
    rng = np.random.default_rng(seed)
    stack = low_rank_stack(rng, p, m, cols, r)
    basis = SpanBasis(PrimeField(p), cols)
    for lo in range(0, m, chunk):
        basis.insert_rows(stack[lo : lo + chunk])
    assert basis.dim() == sympy_rank(stack, p)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 101, 1048573]), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       r=st.integers(1, 8))
def test_rank(p, seed, n, r):
    rng = np.random.default_rng(seed)
    a = low_rank_stack(rng, p, n, n, r)
    assert rank(Matrix(PrimeField(p), a)) == sympy_rank(a, p)
