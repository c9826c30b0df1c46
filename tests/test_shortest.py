import math
from decimal import Decimal

import numpy as np
import pytest

from edo.shortest import FIXED2_LIMIT, csv_blocks, polylines


def formatted(values):
    """The CSV lines of ``values`` as one column, in the blocks ``edo`` writes, one string per value."""
    values = np.asarray(values, dtype=np.float64)
    return b"".join(csv_blocks([values])).decode("ascii").split("\n")[:-1]


def mismatches(values):
    values = np.asarray(values, dtype=np.float64)
    got = formatted(values)
    assert len(got) == values.size
    return [(g, repr(v)) for g, v in zip(got, values.tolist()) if g != repr(v)]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    both = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    both = both[np.isfinite(both)]
    return np.concatenate([both, -both])


def test_random_bit_patterns_match_repr():
    # every exponent, subnormals and both signs included
    bits = np.random.default_rng(20201113).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    subnormal = np.random.default_rng(5).integers(1, 2**52, size=20_000, dtype=np.uint64).view(np.float64)
    assert mismatches(np.concatenate([values, subnormal, -subnormal])) == []


def test_boundaries_match_repr():
    smallest_normal = 2.2250738585072014e-308
    special = [0.0, -0.0, 5e-324, np.nextafter(smallest_normal, 0.0), smallest_normal, 1.7976931348623157e308]
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    near_2_53 = 2.0**53 + np.arange(-20.0, 21.0)
    switch_points = [1e-4, 1e-5, 1e16, 9999999999999998.0, 0.00010000000000000002]
    assert mismatches(np.concatenate([special, with_neighbours(powers), near_2_53, -near_2_53,
                                      with_neighbours(switch_points)])) == []


def digits_and_exponent(value):
    """Significant digit count and decimal exponent ``X`` of ``repr(value)``."""
    exact = Decimal(repr(value))
    return len(exact.normalize().as_tuple().digits), exact.adjusted()


def with_digits(n, X):
    """A positive double whose ``repr`` has ``n`` significant digits and exponent ``X``."""
    if n <= 15:  # up to 15 digits read back as themselves
        return float(f"{'1' + '7' * (n - 1)}e{X - n + 1}")
    value = float(f"1.234567890123456e{X}")
    while digits_and_exponent(value) != (n, X):
        value = math.nextafter(value, math.inf)
    return value


def test_every_layout_row_matches_repr():
    # one value per (sign, digit count, form): X = -4..15, e+XX, e+XXX, e-XX, e-XXX
    exponents = list(range(-4, 16)) + [20, 300, -20, -300]
    values = [sign * with_digits(n, X) for sign in (1.0, -1.0) for n in range(1, 18) for X in exponents]
    assert len({(math.copysign(1.0, v), *digits_and_exponent(v)) for v in values}) == 2 * 17 * 24
    assert mismatches(values) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_refused(bad):
    with pytest.raises(ValueError, match="not finite"):
        csv_blocks([np.array([[1.0, bad]])])


def test_rows_without_values_refused():
    with pytest.raises(ValueError, match="without values"):
        csv_blocks([np.zeros((2, 0))])


def test_points_match_format_over_the_exponent_range():
    # random bit patterns reach every exponent, NaN and inf; the pairs in the
    # domain [0, FIXED2_LIMIT) are written as format() writes them, and a set
    # with any coordinate outside it is refused
    rng = np.random.default_rng(253)
    size = 100_000
    patterns = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    scaled = np.ldexp(rng.random(size) + 1.0, rng.integers(-60, 50, size)) * rng.choice([-1.0, 1.0], size)
    limit = FIXED2_LIMIT
    below = np.nextafter(limit, 0.0)
    edges = [limit, -limit, below, 5e-324, -below, -5e-324, 0.005, 0.015]
    values = np.concatenate([patterns, scaled, edges])
    px, py = values[0::2], values[1::2]
    in_domain = ~np.signbit(px) & ~np.signbit(py) & (px < limit) & (py < limit)  # NaN is not below it
    assert 0 < in_domain.sum() < in_domain.size
    x, y = px[in_domain], py[in_domain]
    assert polylines(x[None], y[None]) == [" ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x.tolist(), y.tolist()))]
    with pytest.raises(ValueError, match="outside"):
        polylines(px[None], py[None])


def test_points_at_every_digit_count_match_format():
    # 1-4 integer digits, each power of ten that the rounding to two places
    # carries over (0.995, 9.995, 99.995, 999.995), just below and at it, and
    # the largest values of the domain
    powers = 10.0 ** np.arange(-2, 4)
    values = np.concatenate([[0.0, 0.001], powers, powers - 0.005, np.nextafter(powers - 0.005, 0.0), powers - 0.001,
                             np.nextafter(np.full(3, FIXED2_LIMIT), 0.0) - [0.0, 0.005, 1.0]])
    assert polylines(values[None], values[::-1][None]) == [
        " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(values.tolist(), values[::-1].tolist()))
    ]


@pytest.mark.parametrize(
    "bad",
    [-0.0, -5e-324, -1e-300, -0.001, -0.004, -0.995, -999.995, -np.nextafter(FIXED2_LIMIT, 0.0), FIXED2_LIMIT,
     9999.995, 1e4, 1e10, 2.0**36, np.inf, -np.inf, np.nan],
)
def test_points_outside_the_domain_are_refused(bad):
    # one coordinate outside [0, FIXED2_LIMIT), as x or as y, refuses the
    # figure; format() would write the tiny negatives as "-0.00"
    good, spoiled = np.array([0.0, 1.5, 8191.5]), np.array([0.0, bad, 8191.5])
    for px, py in ((spoiled, good), (good, spoiled)):
        with pytest.raises(ValueError, match="outside"):
            polylines(px, py[None])


def test_each_row_is_one_polyline():
    # px is broadcast over the rows of py; the text is split back per row
    rng = np.random.default_rng(31)
    px = rng.uniform(0.0, 1260.0, 7)
    py = rng.uniform(0.0, 300.0, (4, 7))
    py[2, 3] = 0.0
    want = [" ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px.tolist(), row.tolist())) for row in py]
    assert polylines(px, py) == want
    assert polylines(px[:1], py[:, :1]) == [f"{px[0]:.2f},{y:.2f}" for y in py[:, 0].tolist()]
