"""Young's seminormal form and Clausen's fast Fourier transform on Q[S_r].

Every matrix here is a block: integer rows over one positive
denominator, (den, rows). Each operation below reduces by one gcd per
shape per level, so the numerators stay small.

Seminormal generators come from contents alone. With d = c_T(i+1) -
c_T(i), the content being column minus row, D(s_i) e_T = e_T/d +
b e_{s_i T}, where b = 1 when T comes before s_i T in last-letter order
and 1 - 1/d² otherwise; when i and i+1 share a row or a column, d = ±1
and D(s_i) e_T = d e_T. The Jucys-Murphy element L_j = Σ_{i<j} (i j)
acts on e_T by c_T(j), so the group sum Σ_{g in S_{1..m}} χ(g)·g scales
e_T by Π_{2≤j≤m} (1 + χ·c_T(j)) (G. Murphy, J. Algebra 69, 1981). The
sum over any other block B is that scale conjugated by the shortest word
sliding {1..m} onto B, one rule for every group sum. Only an element's
right group sums are scaled here: dft splits it on the right only and
leaves any left group sum in its words, since the words of a column group
share one coset chain of the recursion below, which costs less than
sliding rows.

The tableaux holding r in one corner are contiguous in last-letter order
and come in the smaller shape's own order, so restricted to S_{r-1} the
form is block diagonal. Clausen's recursion follows (M. Clausen,
Theoret. Comput. Sci. 67, 1989; D. Maslen, Math. Comp. 67, 1998): every
w in S_r is c_k q with k = w(r), c_k = s_k···s_{r-1} and q in S_{r-1}, so
D_λ(a) = Σ_k D(s_k)···D(s_{r-1}) ⊕_μ D_μ(a_k), a_k(q) = a(c_k q), the sum
over the corners of λ. The inverse runs the adjoint recursion. The
recursion's order of S_r is grown like group_ring's index tables: group
k is the order of S_{r-1} read through the map that puts k last.

Both bottom out at TABLE_DEGREE = 4, where they read every D_λ(w) off a
table. The tables are grown by the recursion's own rule from the degree
below: D(c_r q) = ⊕_μ D_μ(q), then D(c_k q) = D(s_k)·D(c_{k+1} q), one
row operation and one gcd per coset on its words' matrices side by side.
The forward transform reads an entry-major layout of them, each entry at
the slice's nonzero words only, and the adjoint a word-major one; each
layout is built when it is first read, so ranks never build the
adjoint's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Sequence

from .group_ring import _inserted, _inverse_table, _positions
from .tableaux import Partition, standard_tableaux

Rows = list[list[int]]
# A matrix as integer rows over one positive denominator.
Block = tuple[int, Rows]
# A generator as row operations over one denominator: row t becomes
# a·row t + b·row u for each (u, a, b), u = -1 when b = 0.
RowOps = tuple[int, tuple[tuple[int, int, int], ...]]

TABLE_DEGREE = 4


@lru_cache(maxsize=None)
def branches(parts: Partition) -> tuple[tuple[Partition, int, int], ...]:
    """(μ, offset, f_μ) for each shape μ of λ minus a corner, in last-letter order.

    The tableaux holding r in that corner are rows offset..offset+f_μ-1.
    """
    r = sum(parts)
    out: list[list] = []
    for k, t in enumerate(standard_tableaux(parts)):
        mu = tuple(n for n in (len(row) - (row[-1] == r) for row in t.rows) if n)
        if not out or out[-1][0] != mu:
            out.append([mu, k, 0])
        out[-1][2] += 1
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def generators(parts: Partition) -> tuple[tuple[RowOps, ...], tuple[RowOps, ...],
                                         tuple[tuple[int, ...], ...]]:
    """(left, right, contents) of the shape.

    left[i-1] takes M to D(s_i)·M and right[i-1] takes the transpose of M to
    the transpose of M·D(s_i). contents[T][v] is the content of entry v of
    tableau T; index 0 is unused.
    """
    tableaux = standard_tableaux(parts)
    index = {t.rows: k for k, t in enumerate(tableaux)}
    contents = []
    for t in tableaux:
        c = [0] * (sum(parts) + 1)
        for i, row in enumerate(t.rows):
            for j, v in enumerate(row):
                c[v] = j - i
        contents.append(tuple(c))
    left, right = [], []
    for i in range(1, sum(parts)):
        swap = {i: i + 1, i + 1: i}
        steps = [(c[i + 1] - c[i], index.get(tuple(tuple(swap.get(v, v) for v in row) for row in t.rows), -1))
                 for t, c in zip(tableaux, contents)]
        den = lcm(*(d * d for d, _ in steps))
        # entry [t][u] of D(s_i) is b_u, 1 when u comes first; entry [u][t] is b_t
        for out, one in ((left, lambda t, u: u < t), (right, lambda t, u: t < u)):
            out.append((den, tuple((u, den // d, 0 if u < 0 else den if one(t, u) else den - den // (d * d))
                                   for t, (d, u) in enumerate(steps))))
    return tuple(left), tuple(right), tuple(contents)


def _apply(rows: Rows, ops: RowOps) -> Rows:
    """The row operations on integer rows; the denominator ops[0] is the caller's."""
    out = []
    for row, (u, a, b) in zip(rows, ops[1]):
        if u >= 0:
            out.append([a * x + b * y for x, y in zip(row, rows[u])])
        else:
            out.append(row if a == 1 else [a * x for x in row])
    return out


def _add(x: Block | None, y: Block, sign: int = 1) -> Block:
    """x + sign·y over the lcm of the denominators; x None stands for zero, added to with sign 1."""
    if x is None:
        return y
    den = lcm(x[0], y[0])
    s, t = den // x[0], sign * den // y[0]
    return den, [[s * u + t * v for u, v in zip(p, q)] for p, q in zip(x[1], y[1])]


def _reduced(block: Block) -> Block | None:
    """The block over its least denominator, by one gcd; None when it is zero."""
    den, rows = block
    g = gcd(den, *(gcd(*row) for row in rows))
    if g == den and not any(map(any, rows)):
        return None
    return block if g == 1 else (den // g, [[x // g for x in row] for row in rows])


def _nonzero(blocks: dict[Partition, Block]) -> dict[Partition, Block]:
    reduced = ((shape, _reduced(block)) for shape, block in blocks.items())
    return {shape: block for shape, block in reduced if block is not None}


def _direct_sum(parts: Partition, blocks: dict[Partition, Block], width: int = 1) -> Block | None:
    """⊕_μ blocks[μ] over the corners of the shape, over one denominator; None when all are zero.

    With width w, each block holds w matrices side by side, entry (a, b) of
    the j-th in column b·w + j, and so does the sum.
    """
    corners = branches(parts)
    dens = [blocks[mu][0] for mu, _, _ in corners if mu in blocks]
    if not dens:
        return None
    den, f = lcm(*dens), sum(size for _, _, size in corners)
    rows: Rows = []
    for mu, offset, size in corners:
        if mu not in blocks:
            rows += [[0] * (f * width)] * size
            continue
        d, block = blocks[mu]
        head, tail = [0] * (offset * width), [0] * ((f - offset - size) * width)
        rows += [head + (row if d == den else [den // d * x for x in row]) + tail for row in block]
    return den, rows


@lru_cache(maxsize=None)
def recursion_order(degree: int) -> tuple[int, ...]:
    """The canonical indices of S_degree in the recursion's order.

    Words are grouped by k = w(r), k = 1 first; within a group they follow
    c_k^{-1} w in S_{r-1}, in that degree's order. c_k^{-1} w raised back is
    w with its last letter k left out, so group k is the order one degree
    down read through the map that puts k last (group_ring._inserted).
    """
    if degree == 1:
        return (0,)
    below = _positions(recursion_order(degree - 1))
    return tuple(chain.from_iterable(below(_inserted(degree, degree - 1, k)) for k in range(degree)))


@lru_cache(maxsize=None)
def _words(parts: Partition) -> Block:
    """D(w) for every w in S_r side by side, r at most TABLE_DEGREE, over their least common denominator.

    Entry (a, b) of the j-th word in recursion order is rows[a][b·r! + j].
    Grown from the smaller shapes by the recursion's own rule: the coset
    c_r S_{r-1} = S_{r-1} holds ⊕_μ D_μ(q), and the coset of c_k holds
    D(s_k) times the coset of c_{k+1}, one row operation and one gcd per
    coset.
    """
    r = sum(parts)
    if r == 1:
        return 1, [[1]]
    n = factorial(r - 1)
    cosets = [_direct_sum(parts, {mu: _words(mu) for mu, _, _ in branches(parts)}, n)]
    for ops in generators(parts)[0][::-1]:
        den, rows = cosets[-1]
        cosets.append(_reduced((den * ops[0], _apply(rows, ops))))
    den = lcm(*(d for d, _ in cosets))
    cosets = [rows if d == den else [[den // d * x for x in row] for row in rows] for d, rows in cosets[::-1]]
    out: Rows = [[] for _ in cosets[0]]
    for b in range(0, len(out) * n, n):
        for rows in cosets:
            for row, coset_row in zip(out, rows):
                row += coset_row[b:b + n]
    return den, out


@lru_cache(maxsize=None)
def _forward_table(parts: Partition) -> tuple[int, int, tuple[list[int], ...]]:
    """(den, f, table): table[i] lists entry i of D(w), row by row, over the words w in recursion order, over den."""
    den, rows = _words(parts)
    size = factorial(sum(parts))
    return den, len(rows), tuple(row[i:i + size] for row in rows for i in range(0, len(row), size))


@lru_cache(maxsize=None)
def _adjoint_table(parts: Partition) -> tuple[int, tuple[list[int], ...]]:
    """(den, table): table[j] lists D(w^{-1}) column by column for the j-th word w, over den."""
    den, rows = _words(parts)
    r = sum(parts)
    size = factorial(r)
    order = recursion_order(r)
    position = {k: j for j, k in enumerate(order)}
    inverse = _inverse_table(r)
    columns = range(0, len(rows) * size, size)
    return den, tuple([row[b + j] for b in columns for row in rows]
                      for j in (position[inverse[k]] for k in order))


def forward(values: Sequence[int], r: int, shapes: Sequence[Partition]) -> dict[Partition, Block]:
    """D_λ(a) for each listed λ, zero blocks left out.

    values holds a's integer coefficients over S_r in recursion order; at
    TABLE_DEGREE and below each table entry is read at its nonzero words.
    """
    if r > TABLE_DEGREE:
        return _cosets(values, r, shapes)
    pick = _positions([k for k, v in enumerate(values) if v])
    support, out = pick(values), {}
    for lam in shapes:
        den, f, table = _forward_table(lam)
        flat = [sum(map(mul, support, pick(entry))) for entry in table]
        out[lam] = (den, [flat[i:i + f] for i in range(0, len(flat), f)])
    return _nonzero(out)


def _cosets(values: Sequence[int], r: int, shapes: Sequence[Partition]) -> dict[Partition, Block]:
    """One step of Clausen's recursion: the coset c_k S_{r-1} is the k-th slice of values.

    Each sub-transform is built once, shared by every λ above its shapes
    and summed in before the next coset is visited.
    """
    below = tuple(dict.fromkeys(mu for lam in shapes for mu, _, _ in branches(lam)))
    step = len(values) // r
    acc: dict[Partition, Block] = {}
    for k in range(r):
        sub = values[k * step:(k + 1) * step]
        if not any(sub):
            continue
        blocks = forward(sub, r - 1, below)
        for lam in shapes:
            term = _direct_sum(lam, blocks)
            if term is not None:
                den, rows = term
                for ops in generators(lam)[0][k:r - 1][::-1]:
                    rows = _apply(rows, ops)
                    den *= ops[0]
                acc[lam] = _add(acc.get(lam), (den, rows))
    return _nonzero(acc)


def adjoint(blocks: dict[Partition, Block], r: int) -> tuple[int, list[int]]:
    """(den, t) with t[j]/den = Σ_λ tr(D_λ(w^{-1}) V_λ) over the blocks V_λ, w the j-th word.

    For w = c_k q, D(w^{-1}) = D(q^{-1}) D(s_{r-1})···D(s_k), so the k-th
    slice is the same sum over S_{r-1} with V replaced by
    W_μ = Σ_{λ ⊃ μ} [D(s_{r-1})···D(s_k) V_λ]_μμ.
    """
    if r <= TABLE_DEGREE:
        terms = []
        for lam, (den, rows) in blocks.items():
            table_den, table = _adjoint_table(lam)
            terms.append((den * table_den, [x for row in rows for x in row], table))
        den = lcm(*(d for d, _, _ in terms))
        return den, [sum(den // d * sum(map(mul, flat, table[j])) for d, flat, table in terms)
                     for j in range(factorial(r))]
    slices = []
    for k in range(r):
        below: dict[Partition, Block] = {}
        for lam, (den, rows) in blocks.items():
            for ops in generators(lam)[0][k:r - 1]:
                rows = _apply(rows, ops)
                den *= ops[0]
            for mu, offset, size in branches(lam):
                block = [row[offset:offset + size] for row in rows[offset:offset + size]]
                below[mu] = _add(below.get(mu), (den, block))
        below = _nonzero(below)
        slices.append(adjoint(below, r - 1) if below else (1, [0] * factorial(r - 1)))
    den = lcm(*(d for d, _ in slices))
    return den, [den // d * x for d, t in slices for x in t]


def times_group_sums(parts: Partition, block: Block, stabilizer: list[tuple[list[int], int]]) -> Block | None:
    """block · Π_B Σ_{g in S_B} χ(g)·g over stabilizer blocks B of 0-based positions.

    On {1..m} the group sum is the chain Π_j (I + χ·D(L_j)) of Jucys-Murphy
    elements, so column T is scaled by Π_{2≤j≤m} (1 + χ·c_T(j)). Any other
    block is S_B = w·S_{1..m}·w⁻¹, w the shortest word sliding position k
    to B[k]: for k = 0..m-1 the generators B[k]-1 down to k, in `right`'s
    0-based indices. So the columns take w's row operations, the scale and
    w's operations in reverse order, and one gcd per block. M·D(w) keeps
    M's zero rows zero, so they are left out of the columns and put back
    after.
    """
    _, right, contents = generators(parts)
    den, rows = block
    kept = [k for k, row in enumerate(rows) if any(row)]
    columns = [list(c) for c in zip(*map(rows.__getitem__, kept))]
    for positions, sign in stabilizer:
        slide = [right[g] for k, b in enumerate(positions) for g in range(b - 1, k - 1, -1)]
        scales = [prod(1 + sign * c[j] for j in range(2, len(positions) + 1)) for c in contents]
        for ops in slide:
            columns = _apply(columns, ops)
        columns = [column if s == 1 else [s * x for x in column] for s, column in zip(scales, columns)]
        for ops in slide[::-1]:
            columns = _apply(columns, ops)
        reduced = _reduced((den * prod(ops[0] for ops in slide) ** 2, columns))
        if reduced is None:
            return None
        den, columns = reduced
    out = [[0] * len(contents) for _ in rows]
    for k, row in zip(kept, zip(*columns)):
        out[k] = list(row)
    return den, out
