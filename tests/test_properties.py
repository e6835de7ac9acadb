"""Property tests of the exponent-array layer: for random admissible fields,
parameters a and integer exponent arrays, every closed form returns the
broadcast shape of its exponent arguments, does not change when an
exponent moves by q-1, and agrees with the scalar oracles.  The
all-character Jacobi sums and 2F1 table are checked the same way over
their (slope, offset) parameters, the cyclic convolution over the log
index against its literal double sum, the in-place DFT against the DFT
into a new array, the character evaluator MultChar against the scalar
chi_val, and a checker that shares its Checks collection with another
checker in use against fresh checkers."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import oracles  # noqa: E402
from mixedsums import MultChar, build_field, make_context  # noqa: E402
from mixedsums import mellin as ml  # noqa: E402
from mixedsums.chars import convolver, dft  # noqa: E402
from mixedsums.harness import Checker, Checks  # noqa: E402
from mixedsums.mellin import FourthPowerTrivial  # noqa: E402
from mixedsums.sums import hyp2f1_many, jacobi  # noqa: E402

FIELDS = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1)]  # every q = 1 mod 4 up to 29
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def contexts(draw):
    f = build_field(*draw(st.sampled_from(FIELDS)))
    a = draw(st.integers(1, f.q - 1))
    return make_context(f, a, conjugate_quartic=draw(st.booleans()))


def exponents(draw, qm1, shape):
    """An integer exponent array with entries in [-3(q-1), 3(q-1)]."""
    return draw(hnp.arrays(np.int64, shape, elements=st.integers(-3 * qm1, 3 * qm1)))


def shifts(draw, qm1, shape):
    """A multiple of q-1 for every entry of an exponent array."""
    return qm1 * draw(hnp.arrays(np.int64, shape, elements=st.integers(-2, 2)))


def check(fn, exps, oracle, shape, qm1, draw):
    """fn(*exps) has the given shape, is unchanged by shifting each exponent
    array by multiples of q-1, and matches oracle at every broadcast entry."""
    got = fn(*exps)
    assert got.shape == shape
    moved = [x + shifts(draw, qm1, x.shape) for x in exps]
    assert np.array_equal(fn(*moved), got)
    bcast = np.broadcast_arrays(*exps)
    for idx in np.ndindex(bcast[0].shape):
        expect = np.asarray(oracle(*(int(x[idx]) for x in bcast)), dtype=complex)
        assert np.all(np.abs(got[idx] - expect) <= 1e-9 * (1 + np.abs(expect)))


ONE_EXPONENT = {
    "mellin_v_closed": (ml.mellin_v_closed, oracles.naive_v_closed, ()),
    "mellin_v_closed_root": (ml.mellin_v_closed_root, oracles.naive_v_closed_root, ()),
    "mellin_p0_closed": (ml.mellin_p0_closed, oracles.naive_p0_closed, ()),
    "mellin_p0_closed_root": (ml.mellin_p0_closed_root, oracles.naive_p0_closed_root, ()),
    "null_locus_closed": (ml.null_locus_closed, oracles.naive_null_locus_closed, ()),
    "pair_coeffs": (ml.pair_coeffs, oracles.naive_pair_coeffs, (4,)),
    "pair_coeffs_gauss": (ml.pair_coeffs_gauss, oracles.naive_pair_coeffs_gauss, (4,)),
}


@pytest.mark.parametrize("name", ONE_EXPONENT)
@PROPERTY
@given(data=st.data())
def test_one_exponent_closed_forms(name, data):
    fn, oracle, tail = ONE_EXPONENT[name]
    ctx = data.draw(contexts())
    qm1 = ctx.field.q - 1
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    m = exponents(data.draw, qm1, shape)
    check(lambda nu: fn(ctx, nu), [m], lambda nu: oracle(ctx, nu), shape + tail, qm1, data.draw)


@PROPERTY
@given(data=st.data())
def test_kummer_closed_properties(data):
    ctx = data.draw(contexts())
    qm1 = ctx.field.q - 1
    nu = exponents(data.draw, qm1, data.draw(hnp.array_shapes(min_dims=1, max_dims=1,
                                                              max_side=4)))
    trivial = nu * 4 % qm1 == 0
    if trivial.any():
        with pytest.raises(FourthPowerTrivial):
            ml.kummer_closed(ctx, nu)
    nu = nu[~trivial]
    check(lambda m: ml.kummer_closed(ctx, m), [nu],
          lambda m: oracles.naive_kummer_closed(ctx, m), nu.shape, qm1, data.draw)


@PROPERTY
@given(data=st.data())
def test_double_mellin_closed_properties(data):
    ctx = data.draw(contexts())
    qm1 = ctx.field.q - 1
    (s1, s2), shape = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2,
                                                                   max_side=3))
    nu1, nu2 = exponents(data.draw, qm1, s1), exponents(data.draw, qm1, s2)
    check(lambda a, b: ml.double_mellin_closed(ctx, a, b), [nu1, nu2],
          lambda a, b: oracles.naive_double_mellin_closed(ctx, a, b), shape, qm1, data.draw)


@PROPERTY
@given(data=st.data())
def test_jacobi_properties(data):
    f = build_field(*data.draw(st.sampled_from(FIELDS)))
    qm1 = f.q - 1
    sa, sb = (data.draw(st.integers(-2 * qm1, 2 * qm1)) for _ in range(2))
    (s1, s2), shape = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2,
                                                                   max_side=3))
    ta, tb = exponents(data.draw, qm1, s1), exponents(data.draw, qm1, s2)
    m = range(qm1)
    check(lambda a, b: jacobi(f, (sa, a), (sb, b)), [ta, tb],
          lambda a, b: [oracles.naive_jacobi(f, sa * k + a, sb * k + b) for k in m],
          shape + (qm1,), qm1, data.draw)


@PROPERTY
@given(data=st.data())
def test_hyp2f1_many_properties(data):
    f = build_field(*data.draw(st.sampled_from(FIELDS)))
    qm1 = f.q - 1
    params = [tuple(int(v) for v in exponents(data.draw, qm1, (2,))) for _ in range(3)]
    xs = data.draw(hnp.arrays(np.int64, st.integers(1, 5), elements=st.integers(0, f.q - 1)))
    got = hyp2f1_many(f, *params, xs)
    assert got.shape == (len(xs), qm1)
    for i in range(3):
        moved = list(params)
        moved[i] = tuple(v + qm1 * data.draw(st.integers(-2, 2)) for v in params[i])
        assert np.array_equal(hyp2f1_many(f, *moved, xs), got)
    m = data.draw(st.integers(0, qm1 - 1))
    ma, mb, mc = (s * m + t for s, t in params)
    for x, value in zip(xs, got[:, m]):
        expect = oracles.naive_hyp2f1(f, ma, mb, mc, int(x))
        assert abs(value - expect) <= 1e-9 * (1 + abs(expect))


@PROPERTY
@given(data=st.data())
def test_convolve_is_the_literal_cyclic_sum(data):
    f = build_field(*data.draw(st.sampled_from(FIELDS)))
    n = f.q - 1
    rows = data.draw(st.integers(1, 3))
    hshape, kshape = data.draw(st.sampled_from([((n,), (n,)), ((rows, n), (n,)),
                                                ((n,), (rows, n)), ((rows, n), (rows, n))]))
    values = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    h = data.draw(hnp.arrays(np.complex128, hshape, elements=values))
    k = data.draw(hnp.arrays(np.complex128, kshape, elements=values))
    got = convolver(f, k)(h)
    hb, kb = np.broadcast_arrays(h, k)
    assert got.shape == hb.shape
    for idx in np.ndindex(hb.shape[:-1]):
        expect = np.array(oracles.naive_convolve(list(hb[idx]), list(kb[idx])))
        scale = 1 + np.abs(hb[idx]).sum() * np.abs(kb[idx]).max()
        assert np.all(np.abs(got[idx] - expect) <= 1e-12 * scale)
    with pytest.raises(ValueError, match="kernel"):
        convolver(f, k[..., 1:])
    with pytest.raises(ValueError, match="operand"):
        convolver(f, k)(h[..., 1:])


@PROPERTY
@given(data=st.data())
def test_dft_out_is_the_dft_in_place(data):
    f = build_field(*data.draw(st.sampled_from(FIELDS)))
    n = f.q - 1
    rows = data.draw(st.integers(1, 3))
    shape, axes = data.draw(st.sampled_from([((n,), (-1,)), ((rows, n), (-1,)),
                                             ((n, rows), (0,)), ((n, n), (0, 1))]))
    values = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    h = data.draw(hnp.arrays(np.complex128, shape, elements=values))
    expect = dft(f, h.copy(), axes)
    assert dft(f, h, axes, out=h) is h
    assert np.array_equal(h, expect)


@PROPERTY
@given(data=st.data())
def test_multchar_evaluates_chi_m(data):
    f = build_field(*data.draw(st.sampled_from(FIELDS)))
    qm1 = f.q - 1
    m = data.draw(st.integers(-3 * qm1, 3 * qm1))
    xs = data.draw(hnp.arrays(np.int64, st.integers(1, 5), elements=st.integers(0, f.q - 1)))
    chi = MultChar(f, m)
    assert chi.m == m % qm1
    got = chi(xs)
    assert got.shape == xs.shape
    assert np.array_equal(chi.values()[xs], got)
    assert all(abs(v - oracles.chi_val(f, m, int(x))) <= 1e-12 for x, v in zip(xs, got))
    assert chi(0) == 0


@st.composite
def comparison_sequences(draw):
    """(lhs, rhs) pairs in the forms the suites compare: a full row block,
    then a shorter one, then any of another block, a float view (P.imag), a
    transposed view and a scalar rhs; any pair may hold a NaN or inf."""
    rows, width = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    values = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)

    def block(r, c):
        return draw(hnp.arrays(np.complex128, (r, c), elements=values))

    def near(x):  # equal, off by about the tolerance of 1e-8, or far off
        return x + draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3])) * block(*x.shape)

    def full(r=rows):
        x = block(r, width)
        return x, near(x)

    def short():
        return full(draw(st.integers(1, rows - 1)))

    def imag():
        return block(rows, width).imag, 0.0

    def transposed():
        y = block(width, rows)
        return near(y.T), y.T

    def scalar():
        return block(1, width)[0], draw(values)

    kinds = [full, short] + draw(st.lists(st.sampled_from([full, short, imag, transposed,
                                                            scalar]), max_size=4))
    pairs = []
    for kind in kinds:
        lhs, rhs = kind()
        bad = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
        if bad is not None:
            side = rhs if np.ndim(rhs) and draw(st.booleans()) else lhs
            side[np.unravel_index(draw(st.integers(0, side.size - 1)), side.shape)] = bad
        pairs.append((lhs, rhs))
    return pairs


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@PROPERTY
@given(pairs=comparison_sequences())
def test_compare_arrays_reuses_its_scratch(pairs):
    # one checker of a Checks collection, whose other checker compares
    # arrays of other sizes between its calls, reports what fresh checkers
    # of each comparison report together
    f = build_field(5, 1)
    checks = Checks(f, 1, 1e-8)
    shared = checks["shared"]
    fresh = []
    with np.errstate(invalid="ignore"):  # inf - inf
        for i, (lhs, rhs) in enumerate(pairs):
            shared.compare_arrays(lhs, rhs)
            checks["other"].compare_arrays(np.ones(5 * i + 1), 1.0)
            c = Checker("fresh", f, 1, 1e-8)
            c.compare_arrays(lhs, rhs)
            r = c.report()
            err = np.abs(np.asarray(lhs, dtype=complex) - np.asarray(rhs, dtype=complex))
            bound = 1e-8 * (1 + np.maximum(np.abs(lhs), np.abs(rhs)))
            assert r.instances == err.size
            assert same_float(r.max_abs_err, float(err.max()))
            assert r.passed == bool(np.isfinite(err).all() and (err <= bound).all())
            if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
                assert not r.passed
            fresh.append(r)
    got = shared.report()
    errs = [r.max_abs_err for r in fresh]
    assert got.instances == sum(r.instances for r in fresh)
    assert same_float(got.max_abs_err, math.nan if any(map(math.isnan, errs)) else max(errs))
    assert got.passed == all(r.passed for r in fresh)
    assert checks["other"].report().passed
