"""Property tests of the exponent-array layer: for random admissible fields,
parameters a and integer exponent arrays, every closed form and the Jacobi
sum return the broadcast shape of their exponent arguments, do not change
when an exponent moves by q-1, and agree with the scalar oracles.  The
all-character 2F1 table is checked the same way over its (slope, offset)
parameters, the cyclic convolution over the log index against its
literal double sum, and the in-place DFT against the DFT into a new array."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import oracles  # noqa: E402
from mixedsums import build_field, make_context  # noqa: E402
from mixedsums import mellin as ml  # noqa: E402
from mixedsums.chars import convolve, dft  # noqa: E402
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
    (s1, s2), shape = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2,
                                                                   max_side=3))
    ma, mb = exponents(data.draw, qm1, s1), exponents(data.draw, qm1, s2)
    check(lambda a, b: jacobi(f, a, b), [ma, mb],
          lambda a, b: oracles.naive_jacobi(f, a, b), shape, qm1, data.draw)


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
    got = convolve(f, h, k)
    hb, kb = np.broadcast_arrays(h, k)
    assert got.shape == hb.shape
    for idx in np.ndindex(hb.shape[:-1]):
        expect = np.array(oracles.naive_convolve(list(hb[idx]), list(kb[idx])))
        scale = 1 + np.abs(hb[idx]).sum() * np.abs(kb[idx]).max()
        assert np.all(np.abs(got[idx] - expect) <= 1e-12 * scale)
    with pytest.raises(ValueError):
        convolve(f, h[..., 1:], k[..., 1:])


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
