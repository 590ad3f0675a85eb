"""Discrete Fourier transform on Q[S_r] in Young's natural representation.

The transform sends an element to one exact-rational matrix per
partition of r; it is a ring isomorphism onto the product of the full
matrix rings of sizes given by the hook dimensions.

Representation convention: with standard tableaux in last-letter order,
D(p) is the transpose of the standard-polytabloid matrix of p^{-1}
(Young's natural representation). Under this convention the inverse
transform carries the rank-one idempotents of the (2 1) block of Q[S_3]
to the xi/eta families with their expected coefficients; tests pin those
coefficients, so the convention must not drift.

The work is done in Young's seminormal form by Clausen's recursion
(seminormal.py). Ranks do not depend on the basis, so block_ranks never
leaves that form. In its normalization one upper unitriangular
intertwiner P per shape carries it to the natural form,
D_nat(p) P = P D_sn(p), and fourier_transform, natural_rep_matrix and
inverse_fourier pass through P and P^{-1}, each as two integer products
by linalg.int_mat_mul on numerators over one denominator.

P is built from the seminormal generators alone. A polytabloid obeys
s_i e_t = e_{s_i t} (B. Sagan, The Symmetric Group, 2nd ed., section
2.3), so when s_i t is standard, row t of D_nat(s_i) is e_{s_i t} and
row s_i t of P is row t of P times D_sn(s_i). The last row of P/p is
e_{f-1}, and every other row t is reached from a later row s_i t, one
row operation and one gcd each. The rows of P^{-1} come by back
substitution from the bottom: row t is e_t less the sum, over k after
t, of entry (t, k) of P/p times row k.

The product of two images, @, multiplies block by block with
linalg.mat_mul, which is exact on integer numerators too. Block sizes
are read from one table of hook dimensions per degree (_block_sizes, at
most MAX_DEGREE entries), shared by the BlockMatrixImage constructors,
the zero blocks of a transform and the shape check of block_ranks.

An element is transformed the way it is multiplied, split once by
group_ring._factored: the recursion covers the rest of its support, and
each group sum is a Jucys-Murphy chain. The degree cap MAX_DEGREE is the
only limit: a dense element of degree 8 goes forward, back or to its
ranks in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Sequence

from . import linalg, seminormal
from .group_ring import MAX_DEGREE, GroupRingElement, _factored, _require_degree
from .linalg import Matrix, int_mat_mul
from .permutation import Permutation, _rank_table
from .rationals import Rational, as_rational
from .seminormal import Block, Rows
from .tableaux import (
    Partition,
    YoungTableau,
    format_partition,
    hook_dimension,
    partitions_of,
    standard_tableaux,
    validate_partition,
)

def _checked_shape(parts: Sequence[int]) -> Partition:
    parts = validate_partition(parts)
    if sum(parts) > MAX_DEGREE:
        raise ValueError(
            f"shape {format_partition(parts)} of weight {sum(parts)} exceeds the degree cap {MAX_DEGREE}")
    return parts


@lru_cache(maxsize=MAX_DEGREE)
def _block_sizes(degree: int) -> dict[Partition, int]:
    """The hook dimension f_λ of every partition λ of the degree, in partitions_of order."""
    return {shape: hook_dimension(shape) for shape in partitions_of(degree)}


# _specht_matrix, with the _coefficient and _cells it reads, has no caller
# in the package. perfbench/tracing.py reads its cache by name and its
# self-test requires every cache it names; they go when the benchmark drops it.
def _coefficient(row_of: Sequence[int], columns: Sequence[Sequence[int]]) -> int:
    """Coefficient of the tabloid with rows row_of[v] in the polytabloid of a tableau.

    Only one column permutation can carry the tableau onto the tabloid: each
    column's entries must land on distinct rows 0..k-1, and the sign is the
    product over columns of the sign of that row sequence.
    """
    sign = 1
    for column in columns:
        rows = [row_of[v] for v in column]
        if len(set(rows)) != len(rows) or max(rows) >= len(rows):
            return 0
        for j in range(len(rows)):
            for k in range(j + 1, len(rows)):
                if rows[j] > rows[k]:
                    sign = -sign
    return sign


def _cells(t: YoungTableau) -> list[tuple[int, int]]:
    """cells[v] is the (row, column) of entry v in t; index 0 is unused."""
    cells = [(0, 0)] * (t.size + 1)
    for i, entries in enumerate(t.rows):
        for j, v in enumerate(entries):
            cells[v] = (i, j)
    return cells


@lru_cache(maxsize=None)
def _specht_matrix(parts: Partition) -> tuple[tuple[int, ...], ...]:
    """The standard polytabloids on the standard tabloids, both in last-letter order.

    Entry [k][j] is the coefficient of the tabloid of t_k in the polytabloid
    of t_j; the matrix is lower unitriangular.
    """
    parts = _checked_shape(parts)
    tableaux = standard_tableaux(parts)
    rows_of = [[row for row, _ in _cells(t)] for t in tableaux]
    return tuple(tuple(_coefficient(row_of, t.columns()) for t in tableaux) for row_of in rows_of)


def _seminormal_blocks(a: GroupRingElement, shapes: Sequence[Partition]) -> list[Block | None]:
    """Seminormal D_λ(a) per shape, None for a zero block.

    a is split by _factored: Clausen's recursion covers its rest and each
    group sum is a Jucys-Murphy chain.
    """
    den, stabilizer, numerators = _factored(a)
    values = [0] * factorial(a.degree)
    rank = _rank_table(a.degree)
    for w, n in numerators.items():
        values[rank[w]] = n
    found = seminormal.forward([values[k] for k in seminormal.recursion_order(a.degree)], a.degree,
                               tuple(dict.fromkeys(shapes))) if numerators else {}
    out = []
    for shape in shapes:
        block = found.get(shape)
        if block is not None and stabilizer:
            block = seminormal.times_group_sums(shape, block, stabilizer)
        out.append(None if block is None else (den * block[0], block[1]))
    return out


@lru_cache(maxsize=None)
def _intertwiner(parts: Partition) -> tuple[Rows, int, Rows, int]:
    """(P, p, Q, q): D_nat(g)·P/p = P/p·D_sn(g) for every g, and Q/q is the inverse of P/p.

    P by the walk from its last row, Q by back substitution, both in
    integers, as the module docstring states.
    """
    _, right, contents = seminormal.generators(parts)
    f = len(contents)

    def reduced(num: list[int], den: int) -> tuple[list[int], int]:
        g = gcd(den, *num)
        return [v // g for v in num], den // g

    def common(rows: dict[int, tuple[list[int], int]]) -> tuple[Rows, int]:
        den = lcm(*(e for _, e in rows.values()))
        return [[v * (den // e) for v in x] for x, e in map(rows.__getitem__, range(f))], den

    found = {f - 1: ([int(j == f - 1) for j in range(f)], 1)}
    for n in range(f - 2, -1, -1):
        # row n is row u = s_i n times D_sn(s_i), u after n; b = 0 where s_i t is not standard
        den, ops = next(op for op in right if op[1][n][0] > n)
        x, e = found[ops[n][0]]
        found[n] = reduced([a * x[t] + b * x[u] for t, (u, a, b) in enumerate(ops)], den * e)
    p_rows, p = common(found)
    inverse: dict[int, tuple[list[int], int]] = {}
    for n in range(f - 1, -1, -1):
        below = [(c, *inverse[k]) for k, c in enumerate(p_rows[n][n + 1:], start=n + 1) if c]
        den = p * lcm(*(e for _, _, e in below))
        num = [den * (j == n) for j in range(f)]
        for c, y, e in below:
            s = c * den // (p * e)
            num = [v - s * w for v, w in zip(num, y)]
        inverse[n] = reduced(num, den)
    return p_rows, p, *common(inverse)


def _natural(parts: Partition, block: Block | None) -> list[list[Rational]]:
    """The natural-basis matrix P·M·P^{-1} of a seminormal block M, as exact rationals."""
    if block is None:
        return linalg.zero_matrix(_block_sizes(sum(parts))[parts])
    p, p_den, q, q_den = _intertwiner(parts)
    den = block[0] * p_den * q_den
    rows = int_mat_mul(int_mat_mul(p, block[1]), q)
    return [[Fraction(x, den) if x % den else x // den for x in row] for row in rows]


def _permutation_block(parts: Sequence[int], p: Permutation) -> tuple[Partition, Block]:
    parts = _checked_shape(parts)
    if sum(parts) != p.degree:
        raise ValueError(f"shape weight {sum(parts)} != degree {p.degree}")
    (block,) = _seminormal_blocks(GroupRingElement.from_permutation(p), [parts])
    return parts, block


def natural_rep_matrix(parts: Sequence[int], p: Permutation) -> Matrix:
    """The irreducible matrix of p for this shape, exact and integral."""
    parts, block = _permutation_block(parts, p)
    return tuple(map(tuple, _natural(parts, block)))


@dataclass(frozen=True)
class BlockMatrixImage:
    """The Fourier image of an element: one matrix per partition of r, from any block sequence."""

    __slots__ = ("degree", "blocks")
    degree: int
    blocks: tuple[Matrix, ...]

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, as frozen fields refuse assignment
        return type(self), (self.degree, self.blocks)

    def __post_init__(self):
        _require_degree(self.degree)
        sizes = _block_sizes(self.degree)
        blocks = tuple(linalg.matrix(b) for b in self.blocks)
        if len(blocks) != len(sizes):
            raise ValueError(f"expected {len(sizes)} blocks for degree {self.degree}")
        for (shape, d), block in zip(sizes.items(), blocks):
            if len(block) != d or any(len(row) != d for row in block):
                raise ValueError(f"block for {shape} must be {d}x{d}")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def one(cls, degree: int) -> "BlockMatrixImage":
        _require_degree(degree)
        return cls(degree, [linalg.identity_matrix(d) for d in _block_sizes(degree).values()])

    @classmethod
    def from_single_block(cls, degree: int, parts: Sequence[int], block: Matrix) -> "BlockMatrixImage":
        _require_degree(degree)
        parts = validate_partition(parts)
        sizes = _block_sizes(degree)
        if parts not in sizes:
            raise ValueError(f"{parts} is not a partition of {degree}")
        blocks = [linalg.matrix(block) if shape == parts else linalg.zero_matrix(d) for shape, d in sizes.items()]
        return cls(degree, blocks)

    def block(self, parts: Sequence[int]) -> Matrix:
        parts = validate_partition(parts)
        shapes = partitions_of(self.degree)
        if parts not in shapes:
            raise ValueError(f"{parts} is not a partition of {self.degree}")
        return self.blocks[shapes.index(parts)]

    def __matmul__(self, other: "BlockMatrixImage") -> "BlockMatrixImage":
        """The blockwise product, each block by linalg.mat_mul on integer numerators."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return BlockMatrixImage(
            self.degree,
            [linalg.mat_mul(a, b) for a, b in zip(self.blocks, other.blocks)],
        )

    def __repr__(self) -> str:
        sizes = "+".join(str(len(b)) for b in self.blocks)
        return f"<BlockMatrixImage degree={self.degree} blocks {sizes}>"


def fourier_transform(a: GroupRingElement) -> BlockMatrixImage:
    """Blockwise sum of a(p) times the representation matrix of p."""
    shapes = partitions_of(a.degree)
    return BlockMatrixImage(a.degree, [_natural(shape, block)
                                       for shape, block in zip(shapes, _seminormal_blocks(a, shapes))])


def block_ranks(a: GroupRingElement, shapes: Sequence[Partition]) -> list[int]:
    """rank D_λ(a) for each listed shape, a partition of a's degree, read off the seminormal blocks."""
    shapes = [tuple(shape) for shape in shapes]
    for shape in shapes:
        if shape not in _block_sizes(a.degree):
            raise ValueError(f"shape {list(shape)} is not a partition of the degree {a.degree}")
    return [0 if block is None else linalg.rank_of_rows(block[1]) for block in _seminormal_blocks(a, shapes)]


def inverse_fourier(image: BlockMatrixImage) -> GroupRingElement:
    """Exact two-sided inverse of fourier_transform.

    Coefficient at p is the dimension-weighted sum over shapes of
    trace(D(p^{-1}) . block), divided by r!. Each nonzero block B is taken to
    seminormal form, P^{-1}·B·P, on integer numerators, and the adjoint of
    Clausen's recursion gives every coefficient at once.
    """
    degree = image.degree
    blocks = {}
    for shape, block in zip(partitions_of(degree), image.blocks):
        if not any(map(any, block)):
            continue
        p, p_den, q, q_den = _intertwiner(shape)
        den = lcm(*(x.denominator for row in block for x in row))
        rows = [[int(len(block) * den * x) for x in row] for row in block]
        blocks[shape] = (den * p_den * q_den, int_mat_mul(int_mat_mul(q, rows), p))
    den, totals = seminormal.adjoint(blocks, degree) if blocks else (1, [0] * factorial(degree))
    coeffs = [0] * len(totals)
    for k, t in zip(seminormal.recursion_order(degree), totals):
        coeffs[k] = t
    size = den * factorial(degree)
    return GroupRingElement(degree, [Fraction(t, size) if t % size else t // size for t in coeffs])


def x_matrix(nu: Rational) -> Matrix:
    """The 2x2 idempotent with first column (1, nu) and second column zero."""
    nu = as_rational(nu)
    return ((1, 0), (nu, 0))


def y_matrix() -> Matrix:
    """The 2x2 idempotent supported on the lower-right entry."""
    return ((0, 0), (0, 1))


_TWO_ONE: Partition = (2, 1)


def fourier_xi(nu: Rational) -> GroupRingElement:
    """Primitive idempotent of Q[S_3] from x_matrix(nu) in the (2 1) block.

    The coefficients are affine in nu; nu = 0 recovers one third of the
    Young symmetrizer of the row-filled (2 1) tableau.
    """
    return inverse_fourier(BlockMatrixImage.from_single_block(3, _TWO_ONE, x_matrix(nu)))


def fourier_eta() -> GroupRingElement:
    """Primitive idempotent of Q[S_3] from y_matrix() in the (2 1) block."""
    return inverse_fourier(BlockMatrixImage.from_single_block(3, _TWO_ONE, y_matrix()))


def character(parts: Sequence[int], p: Permutation) -> Rational:
    """Trace of the irreducible matrix of p, read off its seminormal form."""
    _, (den, rows) = _permutation_block(parts, p)
    return as_rational(Fraction(sum(row[i] for i, row in enumerate(rows)), den))
