"""A batch of values of a, a context made as make_context(field, [a, ...]),
gives what each a gives alone: bit for bit, row by row, with a fault in one
a's row kept out of the others."""

import dataclasses

import numpy as np
import pytest

from mixedsums import SuiteConfig, build_field, harness, make_context, run, state_vector
from mixedsums import mellin as ml
from mixedsums.harness import Checker
from mixedsums.mixed import ParameterOutOfRange, mixed_table, square_rows

FIELDS = [(13, 1), (5, 2), (7, 2)]


def batch_of(f):
    """1, g, g^2 and -1: -a is a square for three of them, and not for g."""
    return np.array([1, f.g, int(f.mul(f.g, f.g)), int(f.neg_table[1])])


def assert_rows_alone(f, batch, fn):
    """Row i of fn(batch context) has the bytes of fn(context of a[i])."""
    got = fn(make_context(f, batch))
    assert got.shape[0] == len(batch)
    for i, a in enumerate(batch):
        alone = np.asarray(fn(make_context(f, int(a))))
        assert got[i].shape == alone.shape
        assert got[i].tobytes() == alone.tobytes(), (fn, int(a))


def streamed(ctx):
    """Both routes of every square_rows block, copied out of its buffers."""
    return np.concatenate([np.stack([b, c], axis=-3).copy()
                           for _, b, c in square_rows(ctx, columns=True)], axis=-2)


@pytest.mark.parametrize("pn", FIELDS)
def test_batch_rows_are_the_single_calls_bit_for_bit(pn):
    f = build_field(*pn)
    batch = batch_of(f)
    m = np.arange(f.q - 1)
    chi1 = (2 * m + (f.q - 1) // 2) % (f.q - 1)
    for conjugate in (False, True):
        assert_rows_alone(f, batch, lambda ctx: state_vector(
            make_context(f, ctx.a, conjugate_quartic=conjugate)))
    for fn in (streamed, mixed_table, ml.mellin_v_all,
               lambda ctx: ml.mellin_v_closed(ctx, m),
               lambda ctx: ml.mellin_p0_closed(ctx, m),
               lambda ctx: ml.null_locus_sum(ctx, m),
               lambda ctx: ml.null_locus_closed(ctx, chi1 // 4),
               lambda ctx: ml.double_mellin_matrix(f, mixed_table(ctx)),
               lambda ctx: ml.double_mellin_closed(ctx, m[:, None] // 4, m // 4)):
        assert_rows_alone(f, batch, fn)


def test_batch_rejects_a_bad_value(f13):
    with pytest.raises(ParameterOutOfRange, match="a = 13 "):
        make_context(f13, [1, 13])
    with pytest.raises(ValueError, match="nonzero"):
        make_context(f13, np.array([2, 0]))


def row_bits(reports):
    return [dataclasses.astuple(r)[:4] + (repr(r.max_abs_err),) + dataclasses.astuple(r)[5:]
            for r in reports]


@pytest.mark.parametrize("pn", FIELDS)
def test_run_over_all_a_is_each_a_alone(pn):
    # every a of the field runs in one batch (q = 49: batches of 6), and the
    # rows of each a come in the order and with the bits of one run per a
    f = build_field(*pn)
    suites = ("main", "mellin")
    batched = run(SuiteConfig(fields=[pn], a_policy="all", suites=suites))
    alone = [r for a in f.units() for r in run(SuiteConfig(fields=[pn], a_policy=[int(a)],
                                                           suites=suites)) if r.a is not None]
    assert row_bits(r for r in batched if r.a is not None) == row_bits(alone)


def test_batches_are_cut_by_field_blocks(monkeypatch):
    sizes = []
    make = harness.make_context
    monkeypatch.setattr(harness, "make_context",
                        lambda f, a, **kw: sizes.append(np.size(a)) or make(f, a, **kw))
    run(SuiteConfig(fields=[(7, 2), (3, 4)], a_policy="all", suites=("main",)))
    # q = 49: 2**14 // 49 // 49 = 6 values a batch; q = 81: 2; W's contexts
    # come in the same batches
    assert sizes == [6, 6] * 8 + [2, 2] * 40


READS_V = {"main_identity", "zero_row_factorization", "tau_branch", "quarter_turn",
           "mellin_v", "product_assembly", "inverse_mellin"}


@pytest.mark.parametrize("pn", [(13, 1), (5, 2), (17, 1)])
@pytest.mark.parametrize("fault", ["nan", "relative"])
def test_a_fault_in_one_a_stays_in_its_rows(pn, fault, monkeypatch):
    # V(g) of the context's own quartic character is made NaN, or moved by
    # a relative 1e-6, for a = g only: exactly g's rows that read V fail,
    # and every other a reports as it does with no fault
    f = build_field(*pn)
    config = SuiteConfig(fields=[pn], a_policy="all", suites=("main", "mellin"))
    clean = run(config)
    build = harness.state_vector

    def faulty(ctx):
        V = build(ctx)
        if ctx.A4.m != (f.q - 1) // 4:  # W, of the conjugate character
            return V
        V, row = V.copy(), np.ravel(ctx.a) == f.g
        V[row, f.g] = np.nan if fault == "nan" else V[row, f.g] * (1 + 1e-6)
        return V
    for module in (harness, ml):
        monkeypatch.setattr(module, "state_vector", faulty)
    faulted = run(config)
    expect = READS_V | ({"mellin_v_octic"} if (f.q - 1) % 8 == 0 else set())
    assert {r.check_id for r in faulted if not r.passed} == expect
    assert all(r.a == f.g for r in faulted if not r.passed)
    assert row_bits(r for r in faulted if r.a != f.g) == row_bits(
        r for r in clean if r.a != f.g)


def test_checker_keeps_each_a_to_its_row(f5):
    # a NaN in leading row 1 fails row 1 alone, and the other rows keep
    # their own worst errors, through the fast path and the bound pass
    lhs = np.arange(12.0).reshape(3, 4) + 0j
    rhs = lhs + np.array([1e-12, 0.0, 2e-9])[:, None]
    lhs[1, 2] = np.nan
    c = Checker("demo", f5, np.array([1, 2, 3]), 1e-8)
    c.compare_arrays(lhs, rhs)
    c.compare_arrays(lhs[:, :2], rhs[:, :2] * (1 + np.array([0.0, 0.0, 1e-6]))[:, None])
    reports = [c.report(i) for i in range(3)]
    assert [r.a for r in reports] == [1, 2, 3]
    assert [r.instances for r in reports] == [6, 6, 6]
    assert [r.passed for r in reports] == [True, False, False]
    assert repr(reports[1].max_abs_err) == "nan"
    assert reports[0].max_abs_err == pytest.approx(1e-12, rel=1e-2)
    assert reports[2].max_abs_err == pytest.approx(9e-6, rel=1e-3)
