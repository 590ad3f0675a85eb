"""Seeded inputs, operations and oracles for the benchmark workloads.

Each workload builder takes the imported package (a namespace holding its
modules) and a seeded ``random.Random``, builds every input up front and
returns the operations of one pass plus a description of the inputs.

An operation's ``run`` holds only calls into the package and is what gets
timed. Its ``check`` compares the result against ``expected``, which comes
from a route independent of the code under test: a closed form computed
here (hook lengths, content over hook), a second algorithm in the package
(combinatorial LR against Fourier traces, a transform against its
inverse), or a fixed list written out here (check names).

Costs do not depend on the seed beyond noise: the seed picks permutations,
coefficients, tensor entries and shape pairs, never support sizes, degrees
or grid points, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool]


# -- closed forms, written independently of the package -----------------------


def partitions(r: int, bound: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of r in reverse-lexicographic order, (r) first."""
    bound = r if bound is None else bound
    if r == 0:
        return [()]
    return [(first, *rest)
            for first in range(min(r, bound), 0, -1)
            for rest in partitions(r - first, first)]


def _hooks(shape: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(row, column, hook length) for every cell."""
    conj = [sum(1 for v in shape if v > j) for j in range(shape[0])]
    return [(i, j, shape[i] - j + conj[j] - i - 1)
            for i in range(len(shape)) for j in range(shape[i])]


def hook_dim(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux, by the hook length formula."""
    product = 1
    for _, _, h in _hooks(shape):
        product *= h
    return factorial(sum(shape)) // product


def weyl_dim(shape: tuple[int, ...], n: int) -> int:
    """Dimension of the GL(n) module of the shape, content over hook."""
    value = Fraction(1)
    for i, j, h in _hooks(shape):
        value *= Fraction(n + j - i, h)
    return int(value)


def _sign(word: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                     if word[i] > word[j])
    return -1 if inversions % 2 else 1


def curvature_shape(u: int) -> tuple[int, int]:
    return (u + 2, 2)


def _interleave(first: list, second: list) -> list:
    """first[0], second[0], first[1], second[1], ...; leftovers at the end.

    Spreading the many short operations between the long ones makes the
    median latency sample the whole pass, not one stretch of it.
    """
    out = []
    for k in range(max(len(first), len(second))):
        out += first[k:k + 1] + second[k:k + 1]
    return out


# -- verify: the claim suite as a user runs it --------------------------------

_NU_CASES: tuple[tuple[str, Fraction | None], ...] = (
    ("nu=0", Fraction(0)), ("nu=1", Fraction(1)), ("nu=-1", Fraction(-1)),
    ("nu=2", Fraction(2)), ("nu=1/2", Fraction(1, 2)), ("eta", None),
)
_PRODUCT_TYPES = ((1, False, "SxU"), (1, True, "UxS"), (-1, False, "AxU"), (-1, True, "UxA"))

CHECK_NAMES: tuple[str, ...] = (
    "xi_half_idempotent",
    "admissible_pairs",
    "sigma_nonzero",
    "dichotomy[order2-first]",
    "dichotomy[order3-first]",
    "gamma_hat_generators",
    *(f"mixed_class_generators[{label},{kind}]"
      for label, _ in _NU_CASES for _, _, kind in _PRODUCT_TYPES),
)

# Prefixes for `verify-paper --only`. Each pass makes two CLI calls, one
# with a seeded full check name and one with a seeded prefix; two calls
# also keep op_tail_ms (p90) inside one operation kind instead of on the
# border between two.
ONLY_PREFIXES: tuple[str, ...] = (
    "xi_half", "sigma", "gamma_hat", "dichotomy", "mixed_class_generators[eta",
    "mixed_class_generators[nu=2", "mixed_class_generators[nu=1/2",
)

_SPAN_RANK = re.compile(r"span rank (\d+)")


def _reports_ok(reports, expected: tuple[tuple[str, int | None, bool], ...]) -> bool:
    """Names in order, all passed, and any reported span rank as expected.

    expected holds (name, rank, excluded): rank None skips the rank test;
    an excluded class must stay below the full rank.
    """
    if len(reports) != len(expected):
        return False
    for report, (name, rank, excluded) in zip(reports, expected):
        if report.name != name or report.passed is not True:
            return False
        found = _SPAN_RANK.search(report.details)
        if rank is not None and found:
            got = int(found.group(1))
            if (got >= rank) if excluded else (got != rank):
                return False
    return True


def _cli_ok(result, expected_names: list[str]) -> bool:
    code, text = result
    if code != 0:
        return False
    rows = json.loads(text)
    return [row["name"] for row in rows] == expected_names and all(
        row["passed"] is True for row in rows)


def verify_workload(sc, rng):
    verify, cli = sc.verify, sc.cli
    full_rank = weyl_dim(curvature_shape(1), 3)
    ops = [
        Op("verify.xi_half", lambda: [verify.check_xi_half_is_f()],
           ((CHECK_NAMES[0], None, False),), _reports_ok),
        Op("verify.admissible_pairs", lambda: [verify.check_admissible_pairs()],
           ((CHECK_NAMES[1], None, False),), _reports_ok),
        Op("verify.sigma_nonzero", lambda: [verify.check_sigma_nonzero()],
           ((CHECK_NAMES[2], None, False),), _reports_ok),
        Op("verify.dichotomy", lambda: verify.check_dichotomy(),
           ((CHECK_NAMES[3], None, False), (CHECK_NAMES[4], None, False)), _reports_ok),
        Op("verify.gamma_hat_generators", lambda: [verify.check_gamma_hat_generators()],
           ((CHECK_NAMES[5], full_rank, False),), _reports_ok),
    ]
    for label, nu in _NU_CASES:
        for epsilon, u_first, kind in _PRODUCT_TYPES:
            ops.append(Op(
                "verify.mixed_class_generators",
                lambda nu=nu, e=epsilon, f=u_first: [verify.check_mixed_class_generators(nu, e, f)],
                ((f"mixed_class_generators[{label},{kind}]", full_rank, nu == Fraction(1, 2)),),
                _reports_ok,
            ))
    check_calls = len(ops)

    def run_cli(only):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-paper", "--only", only, "--json"])
        return code, out.getvalue()

    only = [rng.choice(CHECK_NAMES), rng.choice(ONLY_PREFIXES)]
    matches = [[n for n in CHECK_NAMES if n == o or n.startswith(o)] for o in only]
    ops += [Op("cli.verify_only", lambda o=o: run_cli(o), m, _cli_ok) for o, m in zip(only, matches)]
    inputs = {"checks": len(CHECK_NAMES), "check_calls": check_calls,
              "only": only, "only_matches": [len(m) for m in matches]}
    return ops, inputs


# -- fourier: the transform, its inverse and the LR cross-check ---------------

FOURIER_PAIRS_5 = 8      # (a, b) pairs in Q[S_5]
FOURIER_SUPPORT_5 = 6
FOURIER_ELEMENTS_6 = 3   # elements of Q[S_6]
FOURIER_SUPPORT_6 = 4
LR_PAIRS_5 = 6


def _supp(shape: tuple[int, ...]) -> int:
    """Support of a Young symmetrizer: |row group| * |column group|."""
    conj = [sum(1 for v in shape if v > j) for j in range(shape[0])]
    size = 1
    for v in (*shape, *conj):
        size *= factorial(v)
    return size


def _lr_pairs(weight: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(left, right)
            for w in range(1, weight)
            for left in partitions(w)
            for right in partitions(weight - w)]


# Weight-6 pairs whose embedded product idempotent has 24 terms, so the
# Fourier cross-check costs the same whichever pair the seed picks.
LR_PAIRS_6 = [p for p in _lr_pairs(6) if _supp(p[0]) * _supp(p[1]) == 24]


@lru_cache(maxsize=None)
def _words(degree: int) -> tuple[tuple[int, ...], ...]:
    """S_degree in lexicographic one-line order."""
    return tuple(permutations(range(1, degree + 1)))


def _random_element(sc, rng, degree: int, support: int):
    coeffs = [0] * factorial(degree)
    for i in rng.sample(range(len(coeffs)), support):
        coeffs[i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return sc.group_ring.GroupRingElement(degree, coeffs)


def _forward_expectation(element) -> tuple:
    """Block sizes, the regular character at the identity, and the two
    one-dimensional blocks, all from the coefficients alone."""
    degree = element.degree
    words = _words(degree)
    coeffs = [Fraction(c) for c in element.coeffs]
    shapes = partitions(degree)
    return (
        [hook_dim(s) for s in shapes],
        factorial(degree) * coeffs[0],
        sum(coeffs),
        sum(_sign(w) * c for w, c in zip(words, coeffs)),
    )


def _forward_ok(image, expected) -> bool:
    sizes, regular_at_id, trivial, sign = expected
    blocks = image.blocks
    if [len(b) for b in blocks] != sizes or any(len(row) != len(b) for b in blocks for row in b):
        return False
    weighted = sum(d * sum(Fraction(b[i][i]) for i in range(d)) for d, b in zip(sizes, blocks))
    return (weighted == regular_at_id
            and Fraction(blocks[0][0][0]) == trivial
            and Fraction(blocks[-1][0][0]) == sign)


def _equal_pair(result, _expected) -> bool:
    first, second = result
    return first == second


def _lr_ok(result, expected) -> bool:
    decomposition, induced = result
    left_dim, right_dim, weight, left_weight = expected
    total = sum(c * hook_dim(shape) for shape, c in decomposition.terms.items())
    return (dict(decomposition.terms) == induced
            and total == left_dim * right_dim * comb(weight, left_weight))


def fourier_workload(sc, rng):
    dft, lr = sc.dft, sc.littlewood_richardson
    pairs5 = [(_random_element(sc, rng, 5, FOURIER_SUPPORT_5),
               _random_element(sc, rng, 5, FOURIER_SUPPORT_5)) for _ in range(FOURIER_PAIRS_5)]
    elements6 = [_random_element(sc, rng, 6, FOURIER_SUPPORT_6) for _ in range(FOURIER_ELEMENTS_6)]
    weight5 = _lr_pairs(5)
    lr_cases = [weight5[i] for i in rng.sample(range(len(weight5)), LR_PAIRS_5)]
    lr_cases.append(rng.choice(LR_PAIRS_6))
    images: dict[int, Any] = {}

    def forward(k, a):
        images[k] = dft.fourier_transform(a)
        return images[k]

    # The first round trip fills every degree-5 matrix, so every later
    # degree-5 operation runs warm and costs the same whatever the seed.
    ops = []
    for k, (a, _) in enumerate(pairs5):
        ops.append(Op("dft.forward5", lambda k=k, a=a: forward(k, a), _forward_expectation(a), _forward_ok))
        ops.append(Op("dft.round_trip5", lambda k=k: dft.inverse_fourier(images[k]), a, lambda x, y: x == y))
    homomorphisms = [Op("dft.homomorphism5",
                        lambda a=a, b=b: (dft.fourier_transform(a * b),
                                          dft.fourier_transform(a) @ dft.fourier_transform(b)),
                        None, _equal_pair)
                     for a, b in pairs5]
    forwards6 = [Op("dft.forward6", lambda c=c: dft.fourier_transform(c), _forward_expectation(c), _forward_ok)
                 for c in elements6]
    cross_checks = [Op(f"lr.cross_check{sum(l) + sum(r)}",
                       lambda l=l, r=r: (lr.lr_product(l, r), lr.induced_ideal_multiplicities(l, r)),
                       (hook_dim(l), hook_dim(r), sum(l) + sum(r), sum(l)), _lr_ok)
                    for l, r in lr_cases]
    ops += _interleave(_interleave(forwards6, cross_checks[:-1]) + cross_checks[-1:], homomorphisms)
    inputs = {
        "degree5": {"pairs": FOURIER_PAIRS_5, "support": FOURIER_SUPPORT_5},
        "degree6": {"elements": FOURIER_ELEMENTS_6, "support": FOURIER_SUPPORT_6},
        "lr_pairs": [[list(left), list(right)] for left, right in lr_cases],
    }
    return ops, inputs


# -- classes: curvature symmetry classes for u = 0..3 -------------------------

CLASS_US = (0, 1, 2, 3)
RIGHT_IDEAL_US = (0, 1, 2)
# Every (u, n) with n**(u+4) <= 1024, plus one operator matrix of 2401 rows.
RANK_GRID = tuple((u, n) for u in CLASS_US for n in range(2, 5) if n ** (u + 4) <= 1024) + ((0, 7),)
DENSE_TENSORS = 17
DENSE_ORDER, DENSE_DIM = 5, 4


def _symmetrizer_ok(result, expected) -> bool:
    y, c = result
    support, scalar = expected
    return y.support_size() == support and c == scalar


def _dense_ok(result, expected) -> bool:
    s, squared_t, twice_applied, report = result
    scaled = [expected * x for x in s.coords]
    return (any(s.coords) and report.ok is True
            and list(squared_t.coords) == scaled and list(twice_applied.coords) == scaled)


def classes_workload(sc, rng):
    tableaux, tensor = sc.tableaux, sc.tensor
    size = DENSE_DIM ** DENSE_ORDER
    values = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    dense = [tensor.DenseTensor(DENSE_ORDER, DENSE_DIM, [rng.choice(values) for _ in range(size)])
             for _ in range(DENSE_TENSORS)]
    ystar: dict[int, Any] = {}

    def symmetrizer(u):
        y = tableaux.young_symmetrizer(tableaux.curvature_tableau(u)).star()
        ystar[u] = y
        return y, y.is_essentially_idempotent()

    def dense_op(t):
        y = ystar[1]
        s = tensor.apply_operator(y, t)
        return s, tensor.apply_operator(y * y, t), tensor.apply_operator(y, s), tensor.is_acdc(s)

    ops = [Op("classes.symmetrizer", lambda u=u: symmetrizer(u),
              (_supp(curvature_shape(u)),
               factorial(u + 4) // hook_dim(curvature_shape(u))), _symmetrizer_ok)
           for u in CLASS_US]
    ops += [Op("classes.right_ideal_rank", lambda u=u: ystar[u].right_ideal_rank(),
               hook_dim(curvature_shape(u)), lambda x, y: x == y)
            for u in RIGHT_IDEAL_US]
    ops += [Op("classes.projector_rank", lambda u=u, n=n: tensor.projector_rank(ystar[u], n),
               weyl_dim(curvature_shape(u), n), lambda x, y: x == y)
            for u, n in RANK_GRID]
    order5_scalar = factorial(5) // hook_dim(curvature_shape(1))
    dense_ops = [Op("classes.dense_acdc", lambda t=t: dense_op(t), order5_scalar, _dense_ok)
                 for t in dense]
    # Dense operations need the u = 1 symmetrizer, built by the second operation.
    ops = ops[:2] + _interleave(dense_ops, ops[2:])
    inputs = {
        "u": list(CLASS_US),
        "right_ideal_u": list(RIGHT_IDEAL_US),
        "rank_grid": [list(p) for p in RANK_GRID],
        "dense_tensors": {"count": DENSE_TENSORS, "order": DENSE_ORDER, "dim": DENSE_DIM},
    }
    return ops, inputs


WORKLOADS = {
    "verify": verify_workload,
    "fourier": fourier_workload,
    "classes": classes_workload,
}
