"""Shared deterministic generators for randomized (seeded) tests."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from itertools import permutations as _words
from math import factorial, gcd, lcm

from symcurv import (
    BlockMatrixImage,
    DenseTensor,
    GroupRingElement,
    YoungTableau,
    hook_dimension,
    partitions_of,
    standard_tableaux,
    symmetric_group,
    young_symmetrizer,
)
from symcurv import linalg, seminormal
from symcurv.dft import _cells, _checked_shape, _coefficient, _specht_matrix
from symcurv.group_ring import _factored, _inverse_table, _positions, _stabilizer_blocks, _times_block_sum
from symcurv.linalg import RowBasis, matrix, mat_transpose
from symcurv.rationals import as_rational, as_rationals
from symcurv.tensor import _slot_lookup


def random_element(rng, degree: int, span: int = 3) -> GroupRingElement:
    return GroupRingElement(
        degree,
        [Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3]))
         for _ in range(factorial(degree))],
    )


def sparse_element(rng, degree: int, support: int) -> GroupRingElement:
    """At most support terms on seeded permutations, with small seeded coefficients."""
    return GroupRingElement.from_terms(
        degree, [(rng.choice(symmetric_group(degree)),
                  Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
                 for _ in range(support)])


def scanned_stabilizer_symmetrizer(degree: int, fixed, signed: bool = False) -> GroupRingElement:
    """Every permutation of S_degree fixing the listed positions, found by a scan."""
    coeffs = [0] * factorial(degree)
    for i, p in enumerate(symmetric_group(degree)):
        if all(p(j) == j for j in fixed):
            coeffs[i] = p.sign() if signed else 1
    return GroupRingElement(degree, coeffs)


def rank_test_elements(rng, degree: int, full_rank_too: bool = True) -> list[GroupRingElement]:
    """Three-term elements and their products with Young symmetrizers, of varied rank."""
    out = []
    for _ in range(4):
        sparse = GroupRingElement.from_terms(
            degree, [(rng.choice(symmetric_group(degree)), rng.randint(-2, 2)) for _ in range(3)])
        y = young_symmetrizer(rng.choice(standard_tableaux(rng.choice(partitions_of(degree)))))
        out += ([sparse] if full_rank_too else []) + [sparse * y, y * sparse + y]
    return out


def random_tensor(rng, order: int, dim: int, span: int = 3) -> DenseTensor:
    return DenseTensor(order, dim, [rng.randint(-span, span) for _ in range(dim ** order)])


def direct_apply(a: GroupRingElement, t: DenseTensor) -> DenseTensor:
    """a acting on T by scattering every nonzero of T through each term's slot table.

    The unfactored, unmerged action that apply_operator's stabilizer chains
    and merged patterns replaced, kept as their oracle.
    """
    out = [0] * len(t.coords)
    support = [(j, v) for j, v in enumerate(t.coords) if v]
    for p, c in a.terms():
        lookup = _slot_lookup(p.images, t.order, t.dim)
        for j, v in support:
            out[lookup[j]] += c * v
    return DenseTensor(t.order, t.dim, out)


def direct_tensor_product(left: DenseTensor, right: DenseTensor) -> DenseTensor:
    """L⊗R by a pass over every coordinate of L, each scaling the whole of R.

    The dense loop that tensor_product's pass over nonzeros replaced, kept as its oracle.
    """
    coords = []
    for a in left.coords:
        if a == 0:
            coords.extend([0] * len(right.coords))
        else:
            coords.extend(a * bcoord for bcoord in right.coords)
    return DenseTensor(left.order + right.order, left.dim, coords)


def random_symmetric2(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            v = rng.randint(-span, span)
            entries[(i, j)] = v
            entries[(j, i)] = v
    return DenseTensor.from_entries(2, dim, entries)


def random_alternating2(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            v = rng.randint(-span, span)
            entries[(i, j)] = v
            entries[(j, i)] = -v
    return DenseTensor.from_entries(2, dim, entries)


def random_symmetric3(rng, dim: int, span: int = 4) -> DenseTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            for k in range(j, dim + 1):
                v = rng.randint(-span, span)
                for word in set(_words((i, j, k))):
                    entries[word] = v
    return DenseTensor.from_entries(3, dim, entries)


def random_frame(rng, order: int, dim: int, span: int = 3) -> list[list[int]]:
    return [[rng.randint(-span, span) for _ in range(dim)] for _ in range(order)]


def solve_columns(a_rows, b_rows):
    """Solve A X = B exactly by Fraction Gauss-Jordan; A must have full column rank.

    Returns X as a list of rows. Raises ValueError on an inconsistent or
    rank-deficient system.
    """
    n_rows = len(a_rows)
    n_cols = len(a_rows[0]) if n_rows else 0
    n_rhs = len(b_rows[0]) if b_rows else 0
    aug = [
        [Fraction(x) for x in a_rows[i]] + [Fraction(y) for y in b_rows[i]]
        for i in range(n_rows)
    ]
    pivot_rows = []
    row_at = 0
    for col in range(n_cols):
        src = next((i for i in range(row_at, n_rows) if aug[i][col] != 0), None)
        if src is None:
            raise ValueError("matrix does not have full column rank")
        aug[row_at], aug[src] = aug[src], aug[row_at]
        inv = 1 / aug[row_at][col]
        aug[row_at] = [x * inv for x in aug[row_at]]
        for i in range(n_rows):
            if i != row_at and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row_at])]
        pivot_rows.append(row_at)
        row_at += 1
    for i in range(row_at, n_rows):
        if any(x != 0 for x in aug[i][n_cols:]):
            raise ValueError("inconsistent linear system")
    return [
        [as_rational(aug[r][n_cols + k]) for k in range(n_rhs)]
        for r in pivot_rows
    ]


class DenseRowBasis:
    """The dense-row elimination that linalg.RowBasis replaced, kept as its oracle.

    Rows are full-width sequences; each is scaled to integers, reduced against
    the basis in insertion order and divided by its gcd, with its pivot the
    lowest nonzero column.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []
        self._pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, row):
        if len(row) != self.width:
            raise ValueError(f"row length {len(row)} != width {self.width}")
        scale = 1
        for x in row:
            scale = lcm(scale, x.denominator)
        v = [int(x * scale) for x in row]
        for pivot, basis_row in zip(self._pivots, self.rows):
            if v[pivot]:
                a, b = basis_row[pivot], v[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                v = [ma * x - mb * y for x, y in zip(v, basis_row)]
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 0:
            return None
        return [x // g for x in v]

    def add(self, row):
        v = self.residual(row)
        if v is None:
            return False
        pivot = next(i for i, x in enumerate(v) if x)
        if v[pivot] < 0:
            v = [-x for x in v]
        self.rows.append(v)
        self._pivots.append(pivot)
        return True


def _rescaled_primitive(entries):
    """The nonzero entries as coprime integers, every row rescaled through its denominators.

    linalg._primitive before its all-int fast path, kept as its oracle.
    """
    row = {i: x for i, x in entries if x}
    scale = lcm(*(x.denominator for x in row.values()))
    row = {i: int(x * scale) for i, x in row.items()}
    g = gcd(*row.values())
    if g > 1:
        row = {i: x // g for i, x in row.items()}
    return row


class RescaledRowBasis(RowBasis):
    """RowBasis whose residual rescales every row and makes every residual primitive again.

    The residual that the all-int fast path and the skip of an untouched
    row's closing rescale replaced, kept as their oracle.
    """

    def residual(self, entries):
        v = _rescaled_primitive(entries)
        for pivot, basis_row in zip(self._pivots, self._rows):
            b = v.get(pivot)
            if b:
                a = basis_row[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                v = {i: ma * x for i, x in v.items()}
                for i, y in basis_row.items():
                    x = v.get(i, 0) - mb * y
                    if x:
                        v[i] = x
                    else:
                        del v[i]
        return _rescaled_primitive(v.items()) or None


def _polytabloid(t, index):
    """The polytabloid of t on every tabloid of its shape."""
    vec = [0] * len(index)
    for q in t.vertical_group():
        vec[index[tuple(tuple(sorted(row)) for row in t.apply(q).rows)]] += q.sign()
    return vec


@lru_cache(maxsize=None)
def _tabloid_basis(parts):
    """Every tabloid of the shape numbered, and the standard polytabloids as rows over them."""
    def split(rest, sizes):
        if not sizes:
            yield ()
            return
        for first in combinations(rest, sizes[0]):
            remaining = tuple(v for v in rest if v not in first)
            for tail in split(remaining, sizes[1:]):
                yield (first, *tail)

    index = {tab: i for i, tab in enumerate(split(tuple(range(1, sum(parts) + 1)), parts))}
    columns = [_polytabloid(t, index) for t in standard_tableaux(parts)]
    return index, [list(row) for row in zip(*columns)]


def tabloid_solve_rep(parts, p):
    """Young's natural representation by a solve over every tabloid.

    The images under p^{-1} of the standard polytabloids are expanded on
    all tabloids and solved for in the standard basis; D(p) is the
    transpose of that matrix.
    """
    parts = tuple(parts)
    index, basis_rows = _tabloid_basis(parts)
    q = p.inverse()
    images = [_polytabloid(t.apply(q), index) for t in standard_tableaux(parts)]
    return mat_transpose(matrix(solve_columns(basis_rows, [list(row) for row in zip(*images)])))


def sorted_on(word, blocks):
    """Whether the word is weakly increasing along every block, pair by pair.

    The per-word test that _factored's C-speed filter replaced, kept as its oracle.
    """
    return all(word[i] <= word[j] for block, _ in blocks for i, j in zip(block, block[1:]))


def scatter_times_block_sum(coeffs, block, sign, swap):
    """Σ_{g in S_block} χ(g)·g on coeffs as the chain Π_j (1 + sign·L_j), every step a scatter.

    Each step scatters the step's nonzeros through the scatter table
    swap(i, j) of each transposition (i+1 j+1), i < j in block. The kernel
    that group_ring._times_block_sum's gathers replaced, first on vectors at
    least half nonzero and then on every vector, kept as its oracle.
    """
    for n, j in enumerate(block[1:], start=1):
        support = [(k, c if sign > 0 else -c) for k, c in enumerate(coeffs) if c]
        out = list(coeffs)
        for i in block[:n]:
            table = swap(i, j)
            for k, c in support:
                out[table[k]] += c
        coeffs = out
    return coeffs


def kernel_vectors(rng, size: int) -> list[tuple[list, bool]]:
    """(vector, canonical) pairs for the block-sum kernel, sparse through dense.

    Int vectors with one nonzero, a twentieth, a tenth, just under half,
    exactly half (when size is even) and all nonzero; an all-Fraction
    vector with some Fraction zeros; and a canonical mixed int/Fraction
    vector (canonical True), as the package's constructors leave them.
    """
    def ints(count):
        kept = set(rng.sample(range(size), count))
        return [rng.choice((-3, -2, -1, 1, 2, 3)) if k in kept else 0 for k in range(size)]

    counts = {1, max(1, size // 20), max(1, size // 10), max(1, (size - 1) // 2), size}
    if size % 2 == 0:
        counts.add(size // 2)
    fractions = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(size)]
    return ([(ints(count), False) for count in sorted(counts)]
            + [(fractions, False), (list(map(as_rational, fractions)), True)])


def assert_block_sum_matches_scatter(coeffs, block, sign, swap, canonical):
    """The gather kernel against the scatter oracle, value for value and type for type.

    On a mixed int/Fraction vector a gather adds a step's Fraction zeros,
    which the scatter skips, so an int entry can come out as Fraction(k);
    there the two are compared as the constructors store them (as_rationals).
    """
    got = _times_block_sum(coeffs, block, sign, swap)
    want = scatter_times_block_sum(coeffs, block, sign, swap)
    if canonical:
        got, want = as_rationals(got), as_rationals(want)
    assert [(type(c), c) for c in got] == [(type(c), c) for c in want]


def scatter_star(a: GroupRingElement) -> GroupRingElement:
    """p -> p^{-1} by scattering each nonzero through the inverse table; star()'s oracle."""
    inv = _inverse_table(a.degree)
    out = [0] * len(a.coeffs)
    for i, c in enumerate(a.coeffs):
        if c:
            out[inv[i]] = c
    return GroupRingElement(a.degree, out)


def module_rank(a, content):
    """Rank of a on the span of the words with content[v] copies of letter v.

    The weight-space elimination that Fourier block ranks replaced, kept as
    their oracle. p moves letter w[k] to position p(k), as slot permutations
    move the indices of a basis tensor; each distinct image a.e_w is
    eliminated once, and of the words only those sorted on every stabilizer
    block of a need a row (a(i j) = ±a makes the other images repeat up to sign).
    """
    if any(c < 0 for c in content) or sum(content) != a.degree:
        raise ValueError(f"content {list(content)} is not a content of degree {a.degree}")
    words = sorted(set(_words([v for v, c in enumerate(content) for _ in range(c)])))
    index = {w: i for i, w in enumerate(words)}
    terms = {p.images: c for p, c in a.terms()}
    blocks = _stabilizer_blocks(terms)
    words = [w for w in words if sorted_on(w, blocks)]
    rows = [{} for _ in words]
    for images, c in terms.items():
        # p.w holds w[k] at position p(k)
        move = _positions(sorted(range(a.degree), key=images.__getitem__))
        for row, target in zip(rows, map(index.__getitem__, map(move, words))):
            row[target] = row.get(target, 0) + c
    basis = RowBasis()
    for entries in dict.fromkeys(frozenset((i, c) for i, c in r.items() if c) for r in rows):
        basis.add(entries)
    return basis.rank


@lru_cache(maxsize=None)
def _generators(parts):
    """Natural D(s_i) for i = 1..r-1, each as its sparse integer columns (column a lists (row, entry)).

    Polytabloid straightening, which the intertwiner built from the
    seminormal generators replaced, kept as the natural-generator oracle:
    column t of the polytabloid matrix of s_i is -e_t when i and i+1 share
    a column of t, e_{s_i t} when they share neither a row nor a column,
    and otherwise the polytabloid of s_i t on the standard tabloids solved
    against the standard polytabloids; D(s_i) is its transpose.
    """
    parts = _checked_shape(parts)
    r = sum(parts)
    tableaux = standard_tableaux(parts)
    index = {t.rows: k for k, t in enumerate(tableaux)}
    cells = [_cells(t) for t in tableaux]
    rows_of = [[row for row, _ in cell] for cell in cells]
    gens = []
    for i in range(1, r):
        # expansion of the polytabloid of s_i t_b in the standard polytabloids, by b
        expansions = []
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
        columns = [[] for _ in tableaux]
        for b, expansion in enumerate(expansions):
            for a, c in expansion:
                columns[a].append((b, c))
        gens.append(tuple(tuple(column) for column in columns))
    return tuple(gens)


def generator_intertwiner(parts):
    """(P, p, Q, q) of dft._intertwiner by two recursions on the natural generators.

    The build that the walk on seminormal generators and the back
    substitution replaced, kept as their oracle. Columns of P: p_0 = e_0,
    and p_u = D_nat(s_i)·p_t - p_t/d_t for t before u = s_i t. Rows of its
    inverse: q_{f-1} = e_{f-1}, and q_t = q_u·D_nat(s_i) - q_u/d_u for
    u = s_i t after t.
    """
    gens = _generators(parts)
    left, _, contents = seminormal.generators(parts)
    f = len(contents)

    def vectors(later, times):
        # each vector from the one at its s_i-neighbour s, built before it
        order = range(f - 2, -1, -1) if later else range(1, f)
        start = f - 1 if later else 0
        out = {start: ([int(j == start) for j in range(f)], 1)}
        for n in order:
            i, s = next((i, u) for i, (_, ops) in enumerate(left)
                        if (u := ops[n][0]) >= 0 and (u > n) == later)
            x, e = out[s]
            d = contents[s][i + 2] - contents[s][i + 1]
            num, den = [d * y - z for y, z in zip(times(gens[i], x), x)], d * e
            g = gcd(den, *num) * (1 if den > 0 else -1)
            out[n] = [v // g for v in num], den // g
        den = lcm(*(e for _, e in out.values()))
        return [[v * (den // e) for v in x] for x, e in map(out.__getitem__, range(f))], den

    def image(gen, x):
        out = [0] * f
        for a, column in enumerate(gen):
            for b, c in column:
                out[b] += c * x[a]
        return out

    columns, p = vectors(False, image)
    q_rows, q = vectors(True, lambda gen, y: [sum(c * y[b] for b, c in column) for column in gen])
    return [list(row) for row in zip(*columns)], p, q_rows, q


def _times_generator(m, gen):
    """m . D(s_i) for a natural generator, column by column."""
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


def _descent_tree(words):
    """Every word's first-descent chain down to the identity, as child lists.

    The parent of a word w with first descent i (w[i] > w[i+1], 0-based) is
    w with those two entries swapped, that is w s_{i+1}, one inversion shorter.
    """
    seen = set()
    children = {}
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


def _walk(parts, f, children):
    """(word, columns of the natural D(word)) over the identity and a descent tree, depth first.

    A child's matrix is its parent's times one natural generator, so only the
    matrices on the current path are alive.
    """
    gens = _generators(parts)
    identity = tuple(tuple(int(i == j) for i in range(f)) for j in range(f))
    stack = [(tuple(range(1, sum(parts) + 1)), identity, None)]
    while stack:
        w, m, i = stack.pop()
        if i is not None:
            m = _times_generator(m, gens[i])
        yield w, m
        stack.extend((child, m, j) for j, child in children.get(w, ()))


def _tree_sum(shape, numerators, tree):
    """Σ_w numerators[w]·D(w) over the walk of a descent tree, as natural integer columns."""
    f = hook_dimension(shape)
    acc = [[0] * f for _ in range(f)]
    for w, m in _walk(shape, f, tree):
        n = numerators.get(w)
        if n:
            for j, column in enumerate(m):
                acc[j] = [u + n * v for u, v in zip(acc[j], column)]
    return acc


def descent_transform(a):
    """The Fourier transform summed over the whole support's descent tree, unfactored."""
    den = lcm(*(c.denominator for _, c in a.terms()))
    numerators = {p.images: int(c * den) for p, c in a.terms()}
    tree = _descent_tree(numerators)
    sums = [_tree_sum(shape, numerators, tree) for shape in partitions_of(a.degree)]
    blocks = [[[as_rational(Fraction(x, den)) for x in row] for row in zip(*acc)] for acc in sums]
    return BlockMatrixImage(a.degree, blocks)


def block_columns(a, shapes):
    """Natural D_λ(a) per shape as integer columns over one common denominator.

    The descent-tree walk that Clausen's recursion replaced, kept as its
    oracle: a = a0 * Π_B Σ_{S_B} χ(g)·g over a's right stabilizer blocks, the
    tree covers a0's support, and each group sum is the chain
    Π_j (I + χ·Σ_{i<j} D((i j))), D((i j)) the palindrome s_{j-1}···s_i···s_{j-1}.
    """
    den, blocks, numerators = _factored(a)
    tree = _descent_tree(numerators)
    out = []
    for shape in shapes:
        acc = _tree_sum(shape, numerators, tree)
        for block, sign in blocks if any(map(any, acc)) else ():
            for k, j in enumerate(block[1:], start=1):
                total = acc
                for i in block[:k]:
                    word = (*range(j - 1, i, -1), *range(i, j))
                    m = reduce(_times_generator, map(_generators(shape).__getitem__, word), acc)
                    total = [[u + sign * v for u, v in zip(x, y)] for x, y in zip(total, m)]
                acc = total
        out.append(acc)
    return out, den


def unit_vector_table(parts):
    """(den, f, forward, adjoint) of a shape, by one _cosets transform per unit vector.

    The table build that the grown tables replaced: forward[i] lists entry i
    of D(w) row by row over the words w in recursion order, adjoint[j] lists
    D(w^{-1}) column by column for the j-th word w, both over den. Run it
    with seminormal.TABLE_DEGREE at 1 to keep the grown tables out of it.
    """
    r = sum(parts)
    if r == 1:
        return 1, 1, ((1,),), ((1,),)
    size = factorial(r)
    blocks = [seminormal._cosets([int(i == j) for i in range(size)], r, [parts])[parts] for j in range(size)]
    den = lcm(*(d for d, _ in blocks))
    flats = [[x * (den // d) for row in rows for x in row] for d, rows in blocks]
    order = seminormal.recursion_order(r)
    position = {k: j for j, k in enumerate(order)}
    inverse = _inverse_table(r)
    transposes = [[x * (den // d) for column in zip(*rows) for x in column] for d, rows in blocks]
    return den, len(blocks[0][1]), tuple(zip(*flats)), tuple(transposes[position[inverse[k]]] for k in order)


def backtrack_lr_coefficient(left, right, target):
    """Multiplicity of target in left x right, by backtracking over skew fillings.

    Every cell of target/left is tried with every letter, column-strict and
    within right's content, and each complete filling is kept when its
    reverse reading word is a lattice word. The per-target search that
    lr_product's strip growth replaced, kept as its oracle.
    """
    if len(left) > len(target) or any(o < i for o, i in zip(target, left)):
        return 0
    outer = list(target)
    inner = [left[i] if i < len(left) else 0 for i in range(len(outer))]
    cells = [(i, j) for i in range(len(outer)) for j in range(inner[i], outer[i])]
    n_values = len(right)
    filling = {}
    counts = [0] * n_values

    def lattice_word():
        seen = [0] * n_values
        for i in range(len(outer)):
            for j in range(outer[i] - 1, inner[i] - 1, -1):
                v = filling[(i, j)]
                seen[v] += 1
                if v > 0 and seen[v] > seen[v - 1]:
                    return False
        return True

    def place(k):
        if k == len(cells):
            return 1 if lattice_word() else 0
        i, j = cells[k]
        total = 0
        for v in range(n_values):
            if counts[v] >= right[v]:
                continue
            if filling.get((i, j - 1), -1) <= v and filling.get((i - 1, j), -1) < v:
                filling[(i, j)] = v
                counts[v] += 1
                total += place(k + 1)
                counts[v] -= 1
                del filling[(i, j)]
        return total

    return place(0)


def sorted_standard_tableaux(parts):
    """Standard tableaux placed entry by entry in any order, then sorted into last-letter order.

    The enumeration that the corner recursion replaced, kept as its oracle:
    the tableau whose largest differing entry sits in the lower row comes first.
    """
    r = sum(parts)
    results = []

    def place(entry, rows):
        if entry > r:
            results.append(YoungTableau(rows))
            return
        for i in range(len(parts)):
            if len(rows[i]) >= parts[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(rows[i]):
                continue
            rows[i].append(entry)
            place(entry + 1, rows)
            rows[i].pop()

    place(1, [[] for _ in parts])
    return tuple(sorted(results, key=lambda t: tuple(-t.row_of(k) for k in range(r, 0, -1))))


def fraction_mat_mul(a, b):
    """a @ b one entry at a time in Fractions, each entry normalized on its own.

    The product that integer-numerator mat_mul replaced, kept as its oracle.
    """
    bt = list(zip(*b))
    return tuple(
        tuple(as_rational(sum(x * y for x, y in zip(row, col))) for col in bt)
        for row in a
    )
