"""Length of a generating set: level-by-level span growth of words.

L_i is the linear span of all words of length <= i over the generators,
with the identity counted as the empty word, so dim L_0 = 1. The length
is the first level at which the span fills all n^2 dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, EmptySet, FieldMismatch
from .linalg import Matrix, PrimeField, SpanBasis, _reduce, _rref_array, mat_mul

BRUTE_FORCE_WORD_GUARD = 10**6
# Candidate words per block insert. On random 2-generator sets over F_101
# (2-core x86 VM, three runs each), 64, 128 and 256 ran the
# benchmark's n = 16-32 mix at 37.2-41.6, 40.2-41.2 and 33.2-38.8 sets/s,
# and one n = 48 set in 0.46-0.60, 0.43-0.44 and 0.48-0.54 s. 128 was
# fastest or level at both sizes, so it stays.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class GeneratingSet:
    """A nonempty list of square matrices over a common prime field."""

    field: PrimeField
    n: int
    gens: tuple[Matrix, ...]

    def __post_init__(self):
        if not self.gens:
            raise EmptySet("generating set must contain at least one matrix")
        for g in self.gens:
            if g.field != self.field:
                raise FieldMismatch(f"generator over F_{g.field.p}, set over F_{self.field.p}")
            if g.n != self.n:
                raise DimensionMismatch(f"generator of order {g.n} in a set of order {self.n}")

    @classmethod
    def of(cls, gens: list[Matrix] | tuple[Matrix, ...]) -> GeneratingSet:
        if not gens:
            raise EmptySet("generating set must contain at least one matrix")
        return cls(field=gens[0].field, n=gens[0].n, gens=tuple(gens))


@dataclass(frozen=True)
class LengthReport:
    """Dimension-growth trace dims[i] = dim L_i; the verdict is read from it.

    The set generates iff the trace ends at n^2, and then its length is the
    last level. Otherwise the trace ends on a stalled level with
    dims[-1] == dims[-2], and the length is None.
    """

    n: int
    dims: tuple[int, ...]

    @property
    def generated_dim(self) -> int:
        return self.dims[-1]

    @property
    def is_generating(self) -> bool:
        return self.dims[-1] == self.n * self.n

    @property
    def length(self) -> int | None:
        return len(self.dims) - 1 if self.is_generating else None


def compute_length(s: GeneratingSet, max_levels: int | None = None) -> LengthReport:
    """Frontier-pruned computation of the dimension trace and length.

    Level 0 seeds the span with the identity. Each next level multiplies
    every generator onto the words of the previous level that grew the span;
    candidates that grow it again form the next frontier. Left products
    suffice because every word of length i+1 factors as g * w with w of
    length i. Terminates within n^2 levels: the dimension strictly increases
    until the final level.

    A level's candidates are listed generator-major: every generator in
    turn times the frontier, in frontier order. They are built and inserted
    BLOCK_ROWS words at a time, whatever the generator boundaries, so a
    small level is one block; a block is built from the slices of the
    generators it covers. `SpanBasis._insert_block` takes each block as
    built: already residues in the basis dtype. The frontier is the same,
    in the same order, as one insert per candidate.
    A word repeated on a level lies in the span of its first copy, so the
    basis rejects it like any other dependent word. Once the span is full,
    the level's remaining blocks are neither built nor inserted: no word can
    grow it, and no further level follows.
    """
    field, n = s.field, s.n
    full = n * n
    cap = full if max_levels is None else max_levels
    basis = SpanBasis(field, full)
    identity = Matrix.identity(field, n)
    basis.insert(identity.vec())
    dims = [basis.dim()]
    # A candidate entry sums n products of residues, within the basis's
    # exactness bound. Kept words are residues, stored in the smallest
    # unsigned dtype that holds p - 1 and cast to the basis dtype one block
    # at a time; both casts are exact.
    gens = [g.entries.astype(basis.dtype) for g in s.gens]
    word = np.min_scalar_type(field.p - 1)
    frontier = identity.entries.astype(word)[np.newaxis]
    while dims[-1] < full:
        if len(dims) - 1 >= cap:
            raise BudgetExceeded(f"span still growing after the level cap {cap}")
        grown = []
        # Candidate c of the level is gens[c // f] @ frontier[c % f].
        f = len(frontier)
        rows = len(gens) * f
        for start in range(0, rows, BLOCK_ROWS):
            if basis.dim() == full:
                break
            stop = min(start + BLOCK_ROWS, rows)
            parts = [
                gens[i] @ frontier[max(start - i * f, 0) : stop - i * f].astype(basis.dtype)
                for i in range(start // f, (stop - 1) // f + 1)
            ]
            block = _reduce(parts[0] if len(parts) == 1 else np.concatenate(parts), field.p)
            grown.append(block[basis._insert_block(block.reshape(len(block), full))].astype(word))
        dims.append(basis.dim())
        frontier = np.concatenate(grown)
        if not len(frontier):
            break
    return LengthReport(n, tuple(dims))


def brute_force_length(s: GeneratingSet, max_len: int) -> LengthReport:
    """Independent oracle: enumerate ALL words of each exact length.

    No frontier pruning: level i rebuilds the span from scratch out of the
    full cartesian products of generators up to length i, and takes its
    dimension as the rank of the stacked words by plain Gauss-Jordan
    (`_rref_array`), sharing no code with the span engine. Guarded by
    |gens|^max_len <= 10^6; also raises BudgetExceeded if the trace is still
    growing at the cap, since a truncated trace has no honest verdict.
    """
    field, n = s.field, s.n
    k = len(s.gens)
    if k**max_len > BRUTE_FORCE_WORD_GUARD:
        raise BudgetExceeded(f"{k}^{max_len} words exceed the 10^6 enumeration guard")
    full = n * n
    dims: list[int] = []
    for level in range(max_len + 1):
        words = []
        for length in range(level + 1):
            for word in product(s.gens, repeat=length):
                m = Matrix.identity(field, n)
                for g in word:
                    m = mat_mul(m, g)
                words.append(m.vec())
        dims.append(len(_rref_array(np.stack(words), field)[1]))
        if dims[-1] == full or (level > 0 and dims[-1] == dims[-2]):
            return LengthReport(n, tuple(dims))
    raise BudgetExceeded(f"span still growing after max_len={max_len} levels")
