"""Discrete Fourier transform on Q[S_r] via Young's natural representation.

The transform sends an element to one exact-rational matrix per
partition of r; it is a ring isomorphism onto the product of the full
matrix rings of sizes given by the hook dimensions.

Representation convention: with standard tableaux in last-letter order,
D(p) is the transpose of the standard-polytabloid matrix of p^{-1}.
Under this convention the inverse transform carries the rank-one
idempotents of the (2 1) block of Q[S_3] to the xi/eta families with
their expected coefficients; tests pin those coefficients, so the
convention must not drift.

How D(p) is computed: per shape, the r-1 integer matrices D(s_i) of the
Coxeter generators s_i = (i i+1) are built once. Column t of the
polytabloid matrix of s_i is -e_t when i and i+1 share a column of t,
and e_{s_i t} when they share neither a row nor a column (s_i t is then
standard). When they share a row, the polytabloid of s_i t is restricted
to the standard tabloids and solved by integer substitution against the
standard polytabloids, whose matrix there is lower unitriangular in
last-letter order (B. Sagan, The Symmetric Group, 2nd ed., sections
2.5-2.6). Every other matrix follows a descent chain: if p(i) > p(i+1),
D(p) = D(p s_i) D(s_i). All arithmetic is on ints; the convention above
is unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable, Iterator, Sequence

from . import linalg
from .group_ring import MAX_DEGREE, GroupRingElement, _inverse_table
from .linalg import Matrix
from .permutation import Permutation, _rank_table
from .rationals import Rational, as_rational
from .tableaux import (
    Partition,
    YoungTableau,
    format_partition,
    hook_dimension,
    partitions_of,
    standard_tableaux,
    validate_partition,
)

Word = tuple[int, ...]
# A generator's columns: column a lists the (row, entry) pairs of its nonzeros.
Generator = tuple[tuple[tuple[int, int], ...], ...]
# A representation matrix as the tuple of its integer columns.
Columns = tuple[tuple[int, ...], ...]
# Child words by parent word, each child with the 0-based generator index taking the parent to it.
Tree = dict[Word, list[tuple[int, Word]]]


def _checked_shape(parts: Sequence[int]) -> Partition:
    parts = validate_partition(parts)
    if sum(parts) > MAX_DEGREE:
        raise ValueError(
            f"shape {format_partition(parts)} of weight {sum(parts)} exceeds the degree cap {MAX_DEGREE}")
    return parts


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


@lru_cache(maxsize=None)
def _generators(parts: Partition) -> tuple[Generator, ...]:
    """D(s_i) for i = 1..r-1, each as its sparse integer columns."""
    parts = _checked_shape(parts)
    r = sum(parts)
    tableaux = standard_tableaux(parts)
    index = {t.rows: k for k, t in enumerate(tableaux)}
    cells = [_cells(t) for t in tableaux]
    rows_of = [[row for row, _ in cell] for cell in cells]
    gens = []
    for i in range(1, r):
        # expansion of the polytabloid of s_i t_b in the standard polytabloids, by b
        expansions: list[list[tuple[int, int]]] = []
        same_row, images = [], []
        for b, t in enumerate(tableaux):
            (row, col), (row1, col1) = cells[b][i], cells[b][i + 1]
            if col == col1:
                expansions.append([(b, -1)])
                continue
            swap = {i: i + 1, i + 1: i}
            image = tuple(tuple(swap.get(v, v) for v in entries) for entries in t.rows)
            if row != row1:
                expansions.append([(index[image], 1)])
            else:
                image_columns = [[entries[j] for entries in image if len(entries) > j]
                                 for j in range(parts[0])]
                same_row.append(b)
                images.append([_coefficient(row_of, image_columns) for row_of in rows_of])
                expansions.append([])
        if same_row:
            solved = linalg.solve_columns(_specht_matrix(parts), list(zip(*images)))
            for k, b in enumerate(same_row):
                expansions[b] = [(a, x[k]) for a, x in enumerate(solved) if x[k]]
        # D(s_i) is the transpose of the polytabloid matrix of s_i
        columns: list[list[tuple[int, int]]] = [[] for _ in tableaux]
        for b, expansion in enumerate(expansions):
            for a, c in expansion:
                columns[a].append((b, c))
        gens.append(tuple(tuple(column) for column in columns))
    return tuple(gens)


def _times_generator(m: Columns, gen: Generator) -> Columns:
    """m . D(s_i), column by column."""
    out = []
    for terms in gen:
        if len(terms) == 1:
            b, c = terms[0]
            out.append(m[b] if c == 1 else tuple(c * v for v in m[b]))
        else:
            acc = [0] * len(m)
            for b, c in terms:
                acc = [u + c * v for u, v in zip(acc, m[b])]
            out.append(tuple(acc))
    return tuple(out)


def _descent_tree(words: Iterable[Word]) -> Tree:
    """Every word's first-descent chain down to the identity, as child lists.

    The parent of a word w with first descent i (w[i] > w[i+1], 0-based) is
    w with those two entries swapped, that is w s_{i+1}, one inversion shorter.
    """
    seen: set[Word] = set()
    children: Tree = {}
    for w in words:
        while w not in seen:
            seen.add(w)
            i = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
            if i is None:
                break
            parent = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            children.setdefault(parent, []).append((i, w))
            w = parent
    return children


def _walk(parts: Partition, children: Tree) -> Iterator[tuple[Word, Columns]]:
    """(word, columns of D(word)) over the identity and a descent tree, depth first.

    A child's matrix is its parent's times one generator, computed when the
    child is reached, so only the matrices on the current path are alive.
    """
    gens = _generators(parts)
    f = hook_dimension(parts)
    identity = tuple(tuple(int(i == j) for i in range(f)) for j in range(f))
    stack = [(tuple(range(1, sum(parts) + 1)), identity, None)]
    while stack:
        w, m, i = stack.pop()
        if i is not None:
            m = _times_generator(m, gens[i])
        yield w, m
        stack.extend((child, m, j) for j, child in children.get(w, ()))


def natural_rep_matrix(parts: Sequence[int], p: Permutation) -> Matrix:
    """The irreducible matrix of p for this shape, exact and integral."""
    parts = _checked_shape(parts)
    if sum(parts) != p.degree:
        raise ValueError(f"shape weight {sum(parts)} != degree {p.degree}")
    chain = dict(_walk(parts, _descent_tree([p.images])))
    return tuple(zip(*chain[p.images]))


class BlockMatrixImage:
    """One matrix per partition of r: the Fourier image of an element."""

    __slots__ = ("degree", "blocks")

    def __init__(self, degree: int, blocks: Sequence[Matrix]):
        shapes = partitions_of(degree)
        blocks = tuple(linalg.matrix(b) for b in blocks)
        if len(blocks) != len(shapes):
            raise ValueError(f"expected {len(shapes)} blocks for degree {degree}")
        for shape, block in zip(shapes, blocks):
            d = hook_dimension(shape)
            if len(block) != d or any(len(row) != d for row in block):
                raise ValueError(f"block for {shape} must be {d}x{d}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("BlockMatrixImage is immutable")

    @classmethod
    def zero(cls, degree: int) -> "BlockMatrixImage":
        return cls(degree, [linalg.zero_matrix(hook_dimension(s)) for s in partitions_of(degree)])

    @classmethod
    def one(cls, degree: int) -> "BlockMatrixImage":
        return cls(degree, [linalg.identity_matrix(hook_dimension(s)) for s in partitions_of(degree)])

    @classmethod
    def from_single_block(cls, degree: int, parts: Sequence[int], block: Matrix) -> "BlockMatrixImage":
        parts = validate_partition(parts)
        blocks = [
            linalg.matrix(block) if shape == parts else linalg.zero_matrix(hook_dimension(shape))
            for shape in partitions_of(degree)
        ]
        return cls(degree, blocks)

    def block(self, parts: Sequence[int]) -> Matrix:
        parts = validate_partition(parts)
        shapes = partitions_of(self.degree)
        if parts not in shapes:
            raise ValueError(f"{parts} is not a partition of {self.degree}")
        return self.blocks[shapes.index(parts)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockMatrixImage)
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def __matmul__(self, other: "BlockMatrixImage") -> "BlockMatrixImage":
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
    terms = a.terms()
    den = lcm(*(c.denominator for _, c in terms))
    numerators = {p.images: int(c * den) for p, c in terms}
    tree = _descent_tree(numerators)
    blocks = []
    for shape in partitions_of(a.degree):
        f = hook_dimension(shape)
        acc = [[0] * f for _ in range(f)]
        for w, m in _walk(shape, tree):
            n = numerators.get(w)
            if n:
                for j, column in enumerate(m):
                    acc[j] = [u + n * v for u, v in zip(acc[j], column)]
        blocks.append([[as_rational(Fraction(x, den)) for x in row] for row in zip(*acc)])
    return BlockMatrixImage(a.degree, blocks)


def inverse_fourier(image: BlockMatrixImage) -> GroupRingElement:
    """Exact two-sided inverse of fourier_transform.

    Coefficient at p is the dimension-weighted sum over shapes of
    trace(D(p^{-1}) . block), divided by r!. Every block is scaled to one
    common denominator, so each trace is an integer dot product.
    """
    degree = image.degree
    den = lcm(*(x.denominator for block in image.blocks for row in block for x in row))
    rank = _rank_table(degree)
    inverse = _inverse_table(degree)
    tree = _descent_tree(rank)
    totals = [0] * len(rank)
    for shape, block in zip(partitions_of(degree), image.blocks):
        if not any(any(row) for row in block):
            continue
        d = len(block)
        rows = [[int(d * den * x) for x in row] for row in block]
        # trace(D(q) B) is column j of D(q) dotted with row j of B, summed over j
        for w, m in _walk(shape, tree):
            totals[inverse[rank[w]]] += sum(u * v for column, row in zip(m, rows)
                                            for u, v in zip(column, row))
    size = den * factorial(degree)
    return GroupRingElement(degree, [as_rational(Fraction(t, size)) for t in totals])


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
    """Trace of the irreducible matrix of p."""
    m = natural_rep_matrix(parts, p)
    return sum(m[i][i] for i in range(len(m)))
