import csv
import dataclasses
import itertools
import json
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mixedsums import (CheckReport, ConfigError, SuiteConfig, build_field, emit_report,
                       make_context, quartic_char, run, state_vector)
from mixedsums import harness, mixed
from mixedsums import mellin as ml
from mixedsums import sums
from mixedsums.chars import psi_table, unit_roots
from mixedsums.gf import FieldTable
from mixedsums.harness import (SUITES, Checker, _factor_prime_power, _json_line, _json_row,
                               resolve_a_values, run_classical, run_main, run_mellin,
                               run_mellin_field, run_transforms)
from mixedsums.mellin import mellin_v_closed, null_locus_sum
from mixedsums.mixed import cell_logs, element_order, mixed_table
from mixedsums.sums import gauss_table, jacobi
import oracles


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(fields=[(5, 1)], tol=0.0)
    with pytest.raises(ConfigError):
        SuiteConfig(fields=[(5, 1)], suites=("bogus",))
    with pytest.raises(ConfigError):
        SuiteConfig(fields=[(5, 1)], format="xml")
    for bad_tol in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            SuiteConfig(fields=[(5, 1)], tol=bad_tol)
    with pytest.raises(ConfigError, match="unknown a policy 'bogus'"):
        SuiteConfig(fields=[(5, 1)], a_policy="bogus")
    # every explicit a is checked against every field when the config is made
    for a, q in ((0, "7\\^4"), (-1, "7\\^4"), (5, "5"), (100, "5")):
        with pytest.raises(ConfigError, match=f"a = {a} .* q = {q} "):
            SuiteConfig(fields=[(7, 4), (5, 1)], a_policy=[1, a])
    with pytest.raises(ConfigError, match="a = 2401 .* q = 7\\^4 "):
        SuiteConfig(fields=[(7, 4)], a_policy=[2401])
    assert SuiteConfig(fields=[(7, 4), (5, 1)], a_policy=[4, 1]).a_policy == [4, 1]
    cfg = SuiteConfig(fields=[(5, 1)], suites=("all",))
    assert set(cfg.suites) == {"classical", "transforms", "main", "mellin"}
    assert SuiteConfig(fields=[(13, 1), (5, 1), (13, 1), (3, 2), (5, 1)]).fields == [
        (13, 1), (5, 1), (3, 2)]


def test_report_layout_matches_manifest():
    # The benchmark's frozen manifests fix each row's check id, q, a,
    # instance count and tol, in run order.
    manifests = Path(__file__).resolve().parents[1] / "perfbench/manifests"
    qs = (5, 9, 13)
    rows = json.loads((manifests / "acceptance_sweep.json").read_text())
    expected = [tuple(row) for row in rows if row[1] in qs]
    reports = run(SuiteConfig(fields=[(5, 1), (3, 2), (13, 1)], a_policy="sample"))
    assert [(r.check_id, r.q, r.a, r.instances, r.tol) for r in reports] == expected
    # one mid-size field at one a, which stands for the manifest's "seeded" a
    a = 3
    rows = json.loads((manifests / "mellin_q257.json").read_text())
    expected = [(cid, q, a if ra == "seeded" else ra, n, tol) for cid, q, ra, n, tol in rows]
    reports = run(SuiteConfig(fields=[(257, 1)], a_policy=[a],
                              suites=("classical", "transforms", "mellin")))
    assert [(r.check_id, r.q, r.a, r.instances, r.tol) for r in reports] == expected
    rows = json.loads((manifests / "main_q625.json").read_text())
    expected = [(cid, q, a if ra == "seeded" else ra, n, tol) for cid, q, ra, n, tol in rows]
    reports = run(SuiteConfig(fields=[(5, 4)], a_policy=[a], suites=("main",)))
    assert [(r.check_id, r.q, r.a, r.instances, r.tol) for r in reports] == expected
    assert all(r.passed for r in reports)


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_main_suite_holds_no_q_by_q_array():
    # S is streamed in row blocks, each compared once and dropped: on a
    # cold context (V, W and the squares table not built) run_main
    # allocates less than S alone, and leaves no squares table behind.
    f = build_field(5, 4)
    ctx = make_context(f, 3)
    peak, reports = traced_peak(lambda: run_main(ctx))
    assert all(r.passed for r in reports)
    assert peak < 16 * ((f.q + 1) // 2) ** 2
    assert "squares" not in ctx._cache


def test_squares_table_build_holds_no_factor_matrix():
    # Each row block of S is one cyclic convolution over log x, so the build
    # holds little besides S itself.
    peak, S = traced_peak(lambda: oracles.squares_table(make_context(build_field(5, 4), 3)))
    assert peak < 2 * S.nbytes


def test_state_vector_build_is_linear_in_q():
    # V is one length-(q-1) convolution, so its build holds O(q) memory.
    f = build_field(5, 4)
    peak, _ = traced_peak(lambda: state_vector(make_context(f, 3)))
    assert peak < 256 * f.q


def test_mellin_suite_holds_p_or_t():
    # P is built once, P(j, 0) is read from it, and P is turned into T in
    # its own buffer, transformed in place and checked in row blocks, so
    # with the field tables warm and a cold context run_mellin holds one
    # q x q array, P and then T, and little else.
    f = build_field(5, 4)
    run_mellin(make_context(f, 1))  # builds the per-field tables
    peak, reports = traced_peak(lambda: run_mellin(make_context(f, 3)))
    assert all(r.passed for r in reports)
    assert peak < 1.25 * 16 * f.q**2


def warm_field(p, n):
    """A field with its Gauss sums, unit roots and additive character built."""
    f = build_field(p, n)
    gauss_table(f)
    unit_roots(f)
    psi_table(f)
    return f


def test_mellin_field_suite_holds_no_jacobi_table():
    # the Jacobi sums J(chi_m, phi) are one sweep of length q-1, so the
    # suite holds nothing of size (q-1)^2
    f = warm_field(5, 4)
    peak, reports = traced_peak(lambda: run_mellin_field(f))
    assert all(r.passed for r in reports)
    assert peak < 16 * f.q**2


def test_orbit_sweeps_keep_their_block_budget():
    # transforms and mellin_field hand each block of whole fourth-power
    # classes to one sweep of at most max(16, 2**14 // q) rows, so their
    # tracemalloc peaks stay below 5.5 MiB at q = 7^4 (5.08 and 4.60 MiB
    # when each z and j was read in index-order blocks of that size)
    f = warm_field(7, 4)
    for suite in (run_transforms, run_mellin_field):
        peak, reports = traced_peak(lambda: suite(f))
        assert all(r.passed for r in reports)
        assert peak < 5.5 * 2**20, suite.__name__


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (17, 1), (29, 1), (7, 2), (3, 4),
                                (257, 1), (5, 4)])
def test_orbit_walk_reports_as_the_per_element_oracle(pn):
    # the suites sum each 2F1 row of the closed sides once per class of z^4
    # (or j^4) and once per pair {z, 1/z}; the oracle sums it once per
    # element.  (q-1)/4 is odd and even here, so the classes 0 and (q-1)/8
    # pair with themselves.  A 2F1 row summed in a block of another size
    # may round apart in its last bits, so max_abs_err may move a little.
    f = build_field(*pn)
    for got, expect in ((run_transforms(f), oracles.per_z_quad_transform(f)),
                        (run_mellin_field(f), oracles.per_j_hyper_kernel(f))):
        r, = (r for r in got if r.check_id == expect.check_id)
        assert (r.check_id, r.q, r.a, r.instances, r.tol, r.passed) == (
            expect.check_id, expect.q, expect.a, expect.instances, expect.tol, True)
        assert expect.max_abs_err / 2 <= r.max_abs_err <= 2 * expect.max_abs_err


@pytest.mark.parametrize("pn", [(13, 1), (17, 1), (5, 2), (257, 1), (5, 4)])
def test_closed_sides_sum_each_2f1_row_once_per_orbit(pn, monkeypatch):
    # every z outside {0, 1, -1} and every j != 0 is read once, in blocks of
    # at most max(16, 2**14 // q) elements; the 2F1 rows summed are one per
    # class of z^4 plus one per pair {z, 1/z} (and the row at 1 of
    # gauss_summation_at_one), and one per class of j^4 (and kummer_value's
    # row and the J(chi_m, phi) sweep of a fresh field)
    f = build_field(*pn)
    q, e = f.q, (f.q - 1) // 4
    step = max(16, 2**14 // q)
    rows, zs, js = [], [], []
    sweep, quad, kernel = sums.exponent_sweep, harness.quad_transform, ml.hyper_kernel_row
    monkeypatch.setattr(sums, "exponent_sweep",
                        lambda f, k, w: rows.append(np.prod(np.shape(k)[:-1])) or sweep(f, k, w))
    monkeypatch.setattr(harness, "quad_transform", lambda f, z: zs.append(z) or quad(f, z))
    monkeypatch.setattr(ml, "hyper_kernel_row", lambda ctx, j: js.append(j) or kernel(ctx, j))
    assert all(r.passed for r in run_transforms(f))
    assert sum(rows) == e + (q - 3) // 2 + 1
    rows.clear()
    assert all(r.passed for r in run_mellin_field(f))
    assert sum(rows) == e + 2
    for xs, expect in ((zs, np.arange(2, q)[np.arange(2, q) != f.neg_table[1]]),
                       (js, f.units())):
        assert max(map(len, xs)) <= step
        assert np.array_equal(np.sort(np.concatenate(xs)), expect)


def test_classical_suite_streams_the_jacobi_sums():
    # jacobi_gauss_ratio sweeps one row block of Jacobi sums at a time;
    # what remains is the (q-1) x (q-1) char_matrix of char_orthogonality
    f = warm_field(5, 4)
    peak, reports = traced_peak(lambda: run_classical(f))
    assert all(r.passed for r in reports)
    assert peak < 2 * 16 * f.q**2


def test_mellin_suite_passes_over_several_row_blocks():
    # at q = 169, T and its closed form are compared in several row blocks
    f = build_field(13, 2)
    for a in (1, f.g):
        reports = {r.check_id: r for r in run_mellin(make_context(f, a))}
        assert all(r.passed for r in reports.values())
        assert reports["double_mellin"].instances == (f.q - 1) ** 2
        assert reports["product_assembly"].instances == (f.q - 1) ** 2


def test_main_suite_passes_over_two_row_blocks():
    # at q = 241 S comes in a full row block and a shorter last one, both
    # computed in the same buffers
    f = build_field(241, 1)
    assert len(list(f.blocks(np.arange((f.q + 1) // 2)))) == 2
    for a in (1, f.g):
        reports = {r.check_id: r for r in run_main(make_context(f, a))}
        assert all(r.passed for r in reports.values())
        for cid in ("main_identity", "mixed_symmetry", "negation_symmetry", "imaginary_drift"):
            assert reports[cid].instances == f.q**2
        assert reports["zero_row_factorization"].instances == f.q
        assert reports["tau_branch"].instances == f.q**2 + f.q


def test_main_compares_each_row_block_six_times(monkeypatch):
    # negation, symmetry, drift, the zero row, V(j)V(k) and W(j)W(k), once
    # each per block of S; the corner in the first block, and W^2 = V^2 and
    # quarter_turn once a run
    f = build_field(241, 1)
    calls = []
    compare = Checker.compare_arrays
    monkeypatch.setattr(Checker, "compare_arrays",
                        lambda self, *args: calls.append(self.check_id) or compare(self, *args))
    run_main(make_context(f, f.g))
    blocks = len(list(f.blocks(np.arange((f.q + 1) // 2))))
    assert blocks == 2 and len(calls) == 6 * blocks + 3
    assert calls.count("main_identity") == blocks
    assert calls.count("tau_branch") == blocks + 1


@pytest.mark.parametrize("pn", [(5, 1), (13, 1), (5, 2), (29, 1), (13, 2), (257, 1), (5, 4)])
def test_main_stream_reports_as_the_p_order_suite(pn):
    # each cell of S counted with its multiplicity gives the report of the
    # suite that read all q^2 entries of P: the same rows in the same order
    # with the same instances and verdicts, and max_abs_err equivalent up
    # to rounding (oracles.equivalent_reports) but negation_symmetry's,
    # whose second side is now S(v, u) by the second route.  The stream
    # compares all pairs of a cell with X(j)X(k), and the oracle compares
    # P(k, j) with X(k)X(j), which rounds apart in its last bit: at q = 29
    # and a = 10 that moves tau_branch's worst error by one ulp.  The small
    # fields take every a.
    f = build_field(*pn)
    sample = (1, f.g, int(f.mul(f.g, f.g)), int(f.neg_table[1]))
    for a in f.units() if f.q < 30 else dict.fromkeys(sample):
        got, expect = run_main(make_context(f, a)), oracles.p_order_main(make_context(f, a))
        assert [(r.check_id, r.q, r.a, r.instances, r.tol, r.passed) for r in got] == [
            (r.check_id, r.q, r.a, r.instances, r.tol, r.passed) for r in expect]
        assert oracles.equivalent_reports(
            *([r for r in rs if r.check_id != "negation_symmetry"] for rs in (got, expect)))


def test_equivalent_reports_allow_rounding_only():
    # max_abs_err may move within 2x, or anywhere at or below 1e-14, and a
    # NaN matches only a NaN; every other field, and the order of the rows,
    # must stay
    rows = [CheckReport("mellin_v", 13, 2, 12, 3e-13, 1e-8, True),
            CheckReport("mellin_p0", 13, 2, 12, 1e-15, 1e-8, True)]

    def moved(i, **change):
        return [dataclasses.replace(r, **change) if k == i else r for k, r in enumerate(rows)]
    assert oracles.equivalent_reports(rows, rows)
    assert oracles.equivalent_reports(rows, moved(0, max_abs_err=6e-13))
    assert oracles.equivalent_reports(moved(0, max_abs_err=1.5e-13), rows)
    assert oracles.equivalent_reports(rows, moved(1, max_abs_err=1e-14))
    assert oracles.equivalent_reports(rows, moved(1, max_abs_err=0.0))
    nan = moved(0, max_abs_err=math.nan, passed=False)
    assert oracles.equivalent_reports(nan, nan)
    for other in (moved(0, max_abs_err=9e-13), moved(0, max_abs_err=1e-13),
                  moved(1, max_abs_err=3e-14), moved(1, max_abs_err=math.nan),
                  moved(0, instances=13), moved(0, tol=1e-9), moved(0, passed=False),
                  rows[::-1], rows[:1]):
        assert not oracles.equivalent_reports(rows, other), other
        assert not oracles.equivalent_reports(other, rows), other


def test_suites_build_p_once_and_hold_no_squares_table(monkeypatch):
    # main and mellin each stream S, and no context keeps it; run_mellin
    # builds P once per context (mixed_table), reads P(j, 0) from it and
    # turns it into T, and nothing else builds P, for every choice of
    # suites that includes main, mellin or both.  Each field's two values
    # of a run as one batch, in one context
    contexts, mellin_runs, built = [], [], []

    def keep(seen, x):
        seen.append(x)
        return x
    make, suite, table = harness.make_context, harness.run_mellin, harness.mixed_table
    monkeypatch.setattr(harness, "make_context",
                        lambda *args, **kw: keep(contexts, make(*args, **kw)))
    monkeypatch.setattr(harness, "run_mellin", lambda ctx, tol: suite(keep(mellin_runs, ctx), tol))
    monkeypatch.setattr(harness, "mixed_table", lambda ctx: table(keep(built, ctx)))
    for picked in itertools.product((False, True), repeat=len(SUITES)):
        suites = tuple(itertools.compress(SUITES, picked))
        if "main" not in suites and "mellin" not in suites:
            continue
        for seen in (contexts, mellin_runs, built):
            seen.clear()
        reports = run(SuiteConfig(fields=[(5, 1), (13, 1)], a_policy=[1, 2], suites=suites))
        assert all(r.passed for r in reports), suites
        assert contexts and not any("squares" in ctx._cache for ctx in contexts), suites
        assert len(mellin_runs) == (2 if "mellin" in suites else 0), suites
        assert all(list(ctx.a) == [1, 2] for ctx in mellin_runs), suites
        assert list(map(id, built)) == list(map(id, mellin_runs)), suites


def test_tau_branch_fails_with_the_other_characters_tau(monkeypatch):
    # Built from the conjugate quartic character but with A4's tau, W is
    # off by t = (its own tau) / (A4's tau), t^2 = conj(A4(-a)) / A4(-a),
    # which is -1 when A4(-a) = +-i: then outer(W, W) = -P and W^2 = -V^2,
    # and only tau_branch can see it.
    f = build_field(13, 1)
    A4 = quartic_char(f)
    a = next(a for a in range(1, f.q) if abs(A4(f.neg(a)).imag) > 0.5)
    make = harness.make_context

    def wrong_tau(field, a, conjugate_quartic=False):
        ctx = make(field, a, conjugate_quartic)
        return dataclasses.replace(ctx, tau=make(field, a).tau)

    assert all(r.passed for r in run_main(make(f, a)))
    monkeypatch.setattr(harness, "make_context", wrong_tau)
    reports = {r.check_id: r for r in run_main(make(f, a))}
    assert not reports["tau_branch"].passed
    assert reports["tau_branch"].max_abs_err > 1
    assert all(r.passed for cid, r in reports.items() if cid != "tau_branch")


def shift_zech_entry(f, m):
    """log j at d = 1 in every window of the cached cell_logs table (window
    t + 1 at position t + 1), read by every row of S but the last."""
    half = (f.q - 1) // 2
    cell_logs(f, np.arange(1), np.empty((2, 1, half + 1), dtype=np.int64))
    shifted = f._cache["cell_logs"].copy()
    shifted[0, np.arange(half), np.arange(half)] += 1
    m.setitem(f._cache, "cell_logs", shifted)


def shift_zech_table(f, m):
    """The field's Zech table with its entry t = 1, log(1 + g), one too large."""
    zech = f.zech.copy()
    zech[1] += 1
    m.setattr(f, "zech", zech)


def late_window(route):
    """Each row of the given route of square_rows reads its window of psi
    one row late."""
    def fault(f, m):
        build = mixed.square_routes

        def late(ctx, i):
            r = build(ctx, i)
            return r._replace(shift=r.shift + 2) if i == route else r
        m.setattr(mixed, "square_routes", late)
    return fault


def move_stream_entry(f, m):
    """One real off-diagonal cell, S(1, 2), of route 0's stream moved by
    1e-3, for main and for P alike."""
    stream = mixed.square_rows

    def moved(ctx, columns=False):
        for rows, block, cols in stream(ctx, columns):
            if rows[0] <= 1 < rows[0] + len(rows):
                block[1 - rows[0], 2] += 1e-3
            yield rows, block, cols
    m.setattr(mixed, "square_rows", moved)
    m.setattr(harness, "square_rows", moved)


def move_p_entry_after_p0(f, m):
    """One entry of P, P(1, 2), moved by 1e-3 once mellin_p0_all has read
    P, so only T, which is made from P afterwards, sees it."""
    p0 = ml.mellin_p0_all

    def then_perturb(field, P):
        out = p0(field, P)
        i = element_order(field)
        P[..., i[1], i[2]] += 1e-3
        return out
    m.setattr(ml, "mellin_p0_all", then_perturb)


def wrong_kernel_row(f, m):
    """The direct kernel row of j = g^(1 + (q-1)/2), of the class of g but
    not g itself, moved by 1e-3."""
    j0 = f.exp_table[1 + (f.q - 1) // 2]
    direct = ml.hyper_kernel_row

    def wrong(ctx, js):
        out = direct(ctx, js)
        out[js == j0] += 1e-3
        return out
    m.setattr(ml, "hyper_kernel_row", wrong)


def wrong_partner_rhs(f, m):
    """quad_transform's right side at z = g^((q-1)/4 - 1) moved by 1e-3:
    the walk reaches the class of z only as the partner of the class of
    1/z = g^(1 + 3(q-1)/4), and the two share one 2F1 row."""
    z0 = f.exp_table[(f.q - 1) // 4 - 1]
    both = harness.quad_transform

    def wrong(field, z):
        lhs, rhs = both(field, z)
        rhs[z == z0] += 1e-3
        return lhs, rhs
    m.setattr(harness, "quad_transform", wrong)


def move_gauss_pair(f, m):
    """One entry of the cached Gauss-sum pairs of the quartic character,
    G(nu) G(nu A4) (row k = 1) at nu = 1, times 1 + 1e-3."""
    e = (f.q - 1) // 4
    ml._gauss_pairs(make_context(f, 1), 0)
    pairs = f._cache["gauss_pairs", e].copy()
    pairs[1, 1] *= 1 + 1e-3
    m.setitem(f._cache, ("gauss_pairs", e), pairs)


def invert_mellin_index(f, m):
    """inverse_mellin reads each j as 1/j: the sign of the log index."""
    inverse = ml.inverse_mellin
    m.setattr(ml, "inverse_mellin", lambda field, spec, j: inverse(field, spec, f.inv_table[j]))


def rotate_psi_value(f, m):
    """One value of the cached additive character, psi(1), times e^(0.1i)."""
    psi = psi_table(f).copy()
    psi[1] *= np.exp(0.1j)
    m.setitem(f._cache, "psi", psi)


def conjugate_psi(f, m):
    m.setitem(f._cache, "psi", psi_table(f).conj())


MELLIN_P = {"double_mellin", "pair_coeffs", "product_assembly"}  # read T, made from P
PSI = {"gauss_trivial", "gauss_norm", "jacobi_gauss_ratio", "hasse_davenport",
       "gauss_summation_at_one", "kummer_value", "hyper_kernel", "main_identity",
       "corner_value", "zero_row_factorization", "imaginary_drift", "tau_branch",
       "mellin_p0"} | MELLIN_P
ZECH = {"jacobi_conjugate", "jacobi_with_trivial", "jacobi_gauss_ratio", "quad_transform",
        "gauss_summation_at_one", "kummer_value", "hyper_kernel", "main_identity",
        "tau_branch"} | MELLIN_P
# each targeted fault and the exact set of checks, over every suite, that
# it fails, or a set for each a of the test, keyed 1 and "g"
FAULTS = {
    # V(j)V(k) is read at the wrong j, and mellin's P is scattered to it
    "zech_entry": (shift_zech_entry, {"main_identity", "tau_branch"} | MELLIN_P),
    # every sum in log coordinates reads 1 + g wrong: Jacobi sums, the 2F1,
    # the kernel h, and the pairs that cell_logs gives for V(j)V(k) and P;
    # at a = g the square weight phi(a/x - x), read from the table at
    # log a - 2s + (q-1)/2, reads the wrong entry too, so S is wrong and its
    # two routes disagree; at a = 1 that index is even and never 1
    "zech_table": (shift_zech_table, {
        1: ZECH,
        "g": ZECH | {"corner_value", "zero_row_factorization", "negation_symmetry",
                     "mellin_p0"}}),
    # S itself is wrong, so the routes disagree and P(j, 0) is wrong too
    "late_row_window": (late_window(0), {"main_identity", "zero_row_factorization",
                                         "negation_symmetry", "tau_branch", "mellin_p0"}
                        | MELLIN_P),
    # only the second route is wrong, and only negation_symmetry reads it
    "late_column_window": (late_window(1), {"negation_symmetry"}),
    # the second route computes the moved cell afresh, and P(j, 0), the
    # diagonal of S, does not read it
    "stream_entry": (move_stream_entry,
                     {"main_identity", "negation_symmetry", "tau_branch"} | MELLIN_P),
    # T is made from P after mellin_p0 read it
    "p_entry_after_p0": (move_p_entry_after_p0, MELLIN_P),
    # every sum over psi; both routes of S take the same psi, and the
    # substitution x -> a/x holds for any additive character, so
    # negation_symmetry cannot see it
    "psi_value": (rotate_psi_value, PSI),
    # every member of an orbit is compared, not only the class's first
    "kernel_orbit_member": (wrong_kernel_row, {"hyper_kernel"}),
    "quad_partner_rhs": (wrong_partner_rhs, {"quad_transform"}),
    # every closed form built of the pairs: S's (mellin_v, and
    # inverse_mellin and double_mellin, which read it), T(nu^4)'s, and
    # pair_coeffs_gauss
    "gauss_pairs_entry": (move_gauss_pair, {"double_mellin", "inverse_mellin", "mellin_p0",
                                            "mellin_v", "pair_coeffs",
                                            "root_shift_invariance"}),
    "inverse_mellin_sign": (invert_mellin_index, {"inverse_mellin"}),
}
STRUCTURAL = {"mixed_symmetry", "quarter_turn"}


def failed_under(fault, pn, a_policy):
    """The check ids that fail when run, with every suite, meets the fault
    on a fresh field."""
    f = build_field(*pn)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "build_field", lambda p, n: f)
        fault(f, m)
        reports = run(SuiteConfig(fields=[pn], a_policy=a_policy))
    return f, {r.check_id for r in reports if not r.passed}


def test_targeted_faults_fail_exactly_their_checks():
    # Each fault fails exactly its set of checks, or its set for that a, at
    # q = 13 and a in {1, g}; a fault that changes S fails main_identity
    # and mellin's P checks, and no fault can fail the structural rows
    # mixed_symmetry and quarter_turn (ROADMAP item 5).  The
    # mutation-adequacy criterion of DeMillo, Lipton and Sayward (1978).
    g = build_field(13, 1).g
    for name, (fault, failing) in FAULTS.items():
        for a, key in ((1, 1), (g, "g")):
            want = failing[key] if isinstance(failing, dict) else failing
            assert failed_under(fault, (13, 1), [a])[1] == want, (name, a)
            assert not want & STRUCTURAL
    # psi-bar(y) = psi(-y) is another nontrivial additive character, so
    # conjugating psi is a symmetry of every identity, not a fault: it
    # moves the Gauss sums, G(chi) -> chi(-1) G(chi), and every check passes
    for pn in ((5, 1), (5, 2), (29, 1), (3, 4), (13, 2)):
        f, failed = failed_under(conjugate_psi, pn, "sample")
        assert failed == set()
        assert not np.array_equal(gauss_table(f), gauss_table(build_field(*pn)))


def test_real_comparison_reports_as_the_complex_one(f5):
    # real lhs and rhs are compared in the float scratch; the report is the
    # one the same values give as complex arrays, bit for bit, through the
    # fast path, the bound pass and a non-finite error
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 9))
    cases = [(x, x + 1e-9 * rng.normal(size=x.shape)), (x[:, 0], 0.0),
             ([1e6, 0.0], [1e6 + 1e-3, 0.0]), ([0.0, 2.0], [0.0, 2.0 + 4e-8]),
             (np.arange(6), np.arange(6) + 1), ([np.inf, 1.0], [1.0, 1.0])]
    for lhs, rhs in cases:
        real, cplx = (Checker("demo", f5, None, 1e-8) for _ in range(2))
        real.compare_arrays(lhs, rhs)
        cplx.compare_arrays(np.asarray(lhs, dtype=complex), rhs)
        r, c = real.report(), cplx.report()
        assert (r.instances, r.passed) == (c.instances, c.passed)
        assert repr(r.max_abs_err) == repr(c.max_abs_err)


def test_null_locus_is_found_in_row_blocks():
    # the cross form is tested on row blocks of j, with no (q-1)^2 digit arrays
    f = build_field(5, 4)
    ctx = make_context(f, 3)
    peak, _ = traced_peak(lambda: null_locus_sum(ctx, np.arange(f.q - 1)))
    assert peak < 16 * f.q**2


@pytest.mark.parametrize("p, n", [(5, 4), (7, 4)])
def test_null_locus_sum_memory_is_linear_in_q(p, n):
    # the locus is solved, so nothing of the size of F_q* x F_q*, or of a
    # row block of it, is made; at a = 1 the locus is not empty
    f = build_field(p, n)
    ctx = make_context(f, 1)
    peak, _ = traced_peak(lambda: null_locus_sum(ctx, np.arange(f.q - 1)))
    assert peak < 1024 * f.q


def test_tables_free_of_a_are_read_only_and_keyed_by_quartic_exponent():
    f = build_field(13, 1)
    m = np.arange(f.q - 1)
    e, e_bar = (f.q - 1) // 4, 3 * (f.q - 1) // 4
    for conj in (False, True):
        for a in (2, 5):
            ctx = make_context(f, a, conjugate_quartic=conj)
            state_vector(ctx)
            mellin_v_closed(ctx, m)
            assert all(not t.flags.writeable for t in ctx._cache.values())
    jacobi(f, (1, 0), (0, 0))
    assert all(not t.flags.writeable for t in f._cache.values())
    for t in (f.exp_table, f.log_table, f.neg_table, f.inv_table, f.trace_table, f.digits,
              f.zech):
        with pytest.raises(ValueError):
            t[0] = 0
    # one table per quartic exponent, shared by every a, not the same for A4 and conj(A4)
    for name in ("state_kernel", "gauss_pairs"):
        assert {k for k in f._cache if k[0] == name} == {(name, e), (name, e_bar)}
        assert not np.allclose(f._cache[(name, e)], f._cache[(name, e_bar)])


def test_no_suite_calls_field_arithmetic_on_a_block(monkeypatch):
    # sums add in log coordinates through FieldTable.zech, so add, sub and
    # mul only build O(q) tables: no call returns more than 2q elements
    sizes = []
    for name in ("add", "sub", "mul"):
        def traced(self, x, y, op=getattr(FieldTable, name)):
            out = op(self, x, y)
            sizes.append(np.size(out) / self.q)
            return out
        monkeypatch.setattr(FieldTable, name, traced)
    run(SuiteConfig(fields=[(3, 4), (13, 2), (257, 1)], a_policy="sample"))
    assert 0 < max(sizes) <= 2
    # and in batches of a: every a of q = 49 runs main and mellin six at a time
    sizes.clear()
    run(SuiteConfig(fields=[(7, 2)], a_policy="all"))
    assert 0 < max(sizes) <= 2


def test_main_calls_no_field_arithmetic(monkeypatch):
    # run_main reads V, S's cells and the quarter turn from log-order
    # tables, so it calls no FieldTable arithmetic at all, for one a or a batch
    f = build_field(5, 4)
    for name in ("add", "sub", "mul", "pow", "neg", "inv"):
        def refuse(self, *args, name=name):
            raise AssertionError(f"run_main called FieldTable.{name}")
        monkeypatch.setattr(FieldTable, name, refuse)
    for a in (3, [2, 3, 7]):
        assert all(r.passed for r in run_main(make_context(f, a)))


def test_mixed_table_is_filled_in_row_blocks():
    # on a cold context, P is scattered from S's row blocks as they are
    # streamed: the build holds no q x q index array and leaves no S behind
    ctx = make_context(build_field(5, 4), 3)
    peak, P = traced_peak(lambda: mixed_table(ctx))
    assert peak < 1.25 * P.nbytes
    assert "squares" not in ctx._cache


def test_instances_are_counted_after_broadcasting(f5):
    c = Checker("demo", f5, None, 1e-8)
    c.compare_arrays(np.zeros((3, 4)), 0.0)
    c.compare_arrays(1.0, [1.0, 1.0])
    c.compare_arrays([], [])
    assert c.report().instances == 14
    assert Checker.compare is Checker.compare_arrays


def test_error_above_tol_is_judged_by_the_bound(f5):
    # tol < err: the worst error alone cannot pass the comparison, so the
    # bound tol * (1 + max(|lhs|, |rhs|)) decides
    c = Checker("demo", f5, None, 1e-8)
    c.compare_arrays([1e6, 0.0], [1e6 + 1e-3, 0.0])  # err 1e-3, bound 1e-2
    assert c.passed and c.max_abs_err > c.tol
    c.compare_arrays([0.0, 2.0], [0.0, 2.0 + 4e-8])  # err 4e-8, bound 3e-8
    assert not c.passed
    assert c.report().instances == 4


def test_factor_prime_power():
    assert _factor_prime_power(9) == (3, 2)
    assert _factor_prime_power(13) == (13, 1)
    with pytest.raises(ConfigError):
        _factor_prime_power(15)
    with pytest.raises(ConfigError):
        _factor_prime_power(1)


def test_resolve_a_values():
    f = build_field(13, 1)
    assert resolve_a_values(f, "all") == list(range(1, 13))
    sample = resolve_a_values(f, "sample")
    assert set(sample) == {1, f.g, int(f.mul(f.g, f.g)), int(f.neg(1))}
    assert resolve_a_values(f, [3, 7]) == [3, 7]
    assert resolve_a_values(f, [7, 3, 7, 3]) == [7, 3]


def test_full_run_small_field_passes():
    cfg = SuiteConfig(fields=[(5, 1)], a_policy="all", suites=("all",))
    reports = run(cfg)
    assert reports
    assert all(r.passed for r in reports)
    assert all(r.max_abs_err <= 1e-10 for r in reports)


def test_run_is_deterministic():
    cfg = SuiteConfig(fields=[(13, 1)], a_policy=[1, 2], suites=("main", "classical"))
    first = run(cfg)
    second = run(cfg)
    assert first == second


def test_main_suite_runs_without_mellin():
    cfg = SuiteConfig(fields=[(13, 1)], a_policy=[1], suites=("main",))
    reports = run(cfg)
    assert {r.check_id for r in reports} >= {"main_identity", "zero_row_factorization"}
    assert all(r.passed for r in reports)


def test_emit_json(tmp_path):
    cfg = SuiteConfig(fields=[(5, 1)], a_policy=[1], suites=("main",),
                      out_path=str(tmp_path / "report.json"), format="json")
    reports = run(cfg)
    data = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(data, list) and len(data) == 1
    header = data[0]["field"]
    assert header == {"p": 5, "n": 1, "q": 5, "modulus": [0, 1], "generator": 2}
    runs = data[0]["runs"]
    assert len(runs) == len(reports)
    assert runs[0]["check_id"] == reports[0].check_id
    assert isinstance(runs[0]["passed"], bool)


def test_emit_csv(tmp_path):
    path = tmp_path / "report.csv"
    reports = [
        CheckReport("demo", 5, 1, 10, 1.2345678901234567e-11, 1e-8, True),
        CheckReport("demo2", 5, None, 3, 0.0, 1e-8, False),
    ]
    emit_report(reports, "csv", str(path), [(5, 1)])
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["check_id", "q", "a", "instances", "max_abs_err", "tol", "pass"]
    assert len(rows) == 3
    # >= 15 significant digits survive the round trip
    assert float(rows[1][4]) == 1.2345678901234567e-11
    assert rows[2][6] == "false"


def test_json_row_is_asdict():
    finite = CheckReport("demo", 5, 1, 10, 1.25e-11, 1e-8, True)
    assert _json_row(finite) == asdict(finite)
    assert list(_json_row(finite)) == list(asdict(finite))
    nan = CheckReport("demo", 5, None, 3, math.nan, 1e-8, False)
    assert _json_row(nan) == {**asdict(nan), "max_abs_err": "nan"}
    assert list(_json_row(nan)) == list(asdict(nan))


@pytest.mark.parametrize("err", [1.25e-11, 0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("a, instances", [(3, 10), (None, 1), (7, 2**31 + 5)])
def test_json_line_is_the_encoders_row(err, a, instances):
    # the row writer gives the bytes the standard encoder gives for
    # _json_row, through encode_basestring_ascii for the strings
    encode = json.JSONEncoder(allow_nan=False).encode
    for check_id, passed in (("double_mellin", True), ("\u00e9t\u00e9 \"q\"\n", False)):
        r = CheckReport(check_id, 49, a, instances, err, 1e-8, passed)
        assert _json_line(r) == encode(_json_row(r))
        assert _json_line(r).isascii()


def test_json_and_csv_rows_of_one_run_agree(tmp_path):
    fields = [(5, 1), (3, 2)]
    reports = run(SuiteConfig(fields=fields, a_policy="sample"))
    emit_report(reports, "json", str(tmp_path / "r.json"), fields)
    emit_report(reports, "csv", str(tmp_path / "r.csv"), fields)
    text = (tmp_path / "r.json").read_text()
    json_rows = [r for g in json.loads(text) for r in g["runs"]]
    csv_rows = list(csv.DictReader((tmp_path / "r.csv").open()))
    assert len(json_rows) == len(csv_rows) == len(reports)
    for j, c in zip(json_rows, csv_rows):
        a = "" if j["a"] is None else str(j["a"])
        assert (j["check_id"], str(j["q"]), a, str(j["instances"])) == (
            c["check_id"], c["q"], c["a"], c["instances"])
        assert (j["max_abs_err"], j["tol"]) == (float(c["max_abs_err"]), float(c["tol"]))
        assert str(j["passed"]).lower() == c["pass"]
    # one run per line
    assert sum(line.startswith('{"check_id": ') for line in text.splitlines()) == len(reports)


def test_emit_rejects_an_unknown_format(tmp_path):
    # as SuiteConfig does, before anything is written
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        emit_report([CheckReport("demo", 5, 1, 1, 0.0, 1e-8, True)], "xml",
                    str(tmp_path / "report.xml"), [(5, 1)])
    assert list(tmp_path.iterdir()) == []


def test_emit_empty_report(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", str(path), [])
    rows = list(csv.reader(path.open()))
    assert rows == [["check_id", "q", "a", "instances", "max_abs_err", "tol", "pass"]]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("lhs, rhs, shown", [
    (np.full(4, np.nan), np.zeros(4), "nan"),
    (np.array([1.0, np.nan]), np.array([1.0, 2.0]), "nan"),
    (np.array([np.inf, 1.0]), np.array([1.0, 1.0]), "inf"),
    (np.array([np.inf]), np.array([np.inf]), "nan"),
], ids=["all-nan", "one-nan", "inf", "inf-minus-inf"])
def test_non_finite_error_fails_and_is_reported(tmp_path, f5, lhs, rhs, shown):
    path = tmp_path / "report.json"
    for how in ("arrays", "scalars"):
        c = Checker("nan_demo", f5, 1, 1e-8)
        c.compare_arrays(np.zeros(3), np.zeros(3))
        if how == "arrays":
            c.compare_arrays(lhs, rhs)
        else:
            for x, y in zip(lhs, rhs):
                c.compare(complex(x), complex(y))
        c.compare_arrays(np.ones(2), np.ones(2))  # a later finite error keeps the NaN
        r = c.report()
        assert not r.passed
        assert repr(r.max_abs_err) == shown
        emit_report([r], "json", str(path), [(5, 1)])
        row = json.loads(path.read_text(), parse_constant=_reject_constant)[0]["runs"][0]
        assert row["max_abs_err"] == shown
        assert row["passed"] is False
