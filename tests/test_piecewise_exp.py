"""The piecewise-exponential law, read as a log-linear ``Tabulated`` curve.

A ``piecewise_exp`` document becomes a log-linear curve with a knot at
each segment start, given twice where the tail jumps, and the last
segment's rate as the terminal rate. The folded law must match the
formulas of the class it replaced (``piecewise_exp_reference``) on
pe_mean_only, plateau, the bimodal law of the optimizer tests and random
segments: tail, log tail, the integral of the tail, atoms, density,
inverse tail and, on the fixtures, the cdf.
"""
import numpy as np
import pytest
from hypothesis import given, settings

from resetkit import distributions as d

import piecewise_exp_reference as ref
from fixture_laws import pe_law
from law_strategies import pe_segments

# a fixed, derandomized budget: the whole file runs in a few seconds
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=80)

# Relative agreement. A tail exp(-x) carries the rounding of x whichever
# formula computes it, so the bound on tails grows with |log tail|. The
# curve holds knot values, not offsets and rates: bimodal's first cell
# falls by 0.00095 in log to the knot exp(-0.00095), which rounds by
# 1.1e-16 and so moves that cell's log slope, and with it the density,
# the cdf near 0 and the inverse tail there, by 1.7e-14 relative.
RTOL = 2e-14

SEGMENTS = {
    "pe_mean_only": ((0.0, 0.1, 1.0), (1.0, 1.25, 1.0)),
    "plateau": ((0.0, 0.0, 1.0), (1.0, 2.0, 0.0), (2.0, 2.0, 1.0)),
    "bimodal": ((0.0, 0.0, 0.001), (0.95, 0.00095, 1.05),
                (1.05, 0.10595, 0.0), (90.0, 0.10595, 0.2)),
}
LEVELS = np.concatenate([np.linspace(0.0, 1.0, 1001),
                         np.geomspace(1e-300, 1.0, 100)])


def probe_times(segments) -> np.ndarray:
    """A grid over the segments, each start and its neighbouring floats, a
    time near 0 and two far out."""
    starts = np.array([s[0] for s in segments])
    return np.unique(np.concatenate([
        np.linspace(0.0, starts[-1] + 5.0, 1001), starts,
        np.nextafter(starts, np.inf), np.nextafter(starts[1:], -np.inf),
        [1e-8, 800.0, 1157.0]]))


def assert_close(got, want, scale):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):  # equal infinities
        ok = (got == want) | (np.abs(got - want) <= RTOL * scale)
    assert np.all(ok), (got[~ok], want[~ok])


def assert_matches_reference(segments):
    spec = pe_law(segments, check_standing=False)
    t = probe_times(segments)
    log_t = ref.log_tail(segments, t)
    stretch = np.maximum(1.0, np.abs(log_t))
    want = ref.tail(segments, t)
    assert_close(spec.tail(t), want, want * stretch)
    assert_close(spec.log_tail(t), log_t, stretch)
    want = ref.tail_rest(segments, t)
    assert_close(d.mean_upper_rest(spec, t), want, want * stretch)
    want = ref.density(segments, t)
    assert_close(spec.density(t), want, want * stretch)
    got, want = spec.jumps(), ref.jumps(segments)
    assert [b for b, _ in got] == [b for b, _ in want]
    assert_close([w for _, w in got], [w for _, w in want],
                 np.array([w for _, w in want]))
    want = np.array([ref.isf(segments, float(u)) for u in LEVELS])
    assert_close(spec.isf(LEVELS), want, np.maximum(1.0, np.abs(want)))
    return spec, t


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_fixture_matches_the_segment_formulas(name):
    spec, t = assert_matches_reference(SEGMENTS[name])
    want = -np.expm1(ref.log_tail(SEGMENTS[name], t))
    assert_close(d.cdf(spec, t), want, want)


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_log_tail_where_the_tail_underflows(name):
    # pe_mean_only's restart-condition margins are read at t = 1157
    spec = pe_law(SEGMENTS[name])
    t = np.array([800.0, 1157.0, 5000.0])
    assert spec.tail(5000.0) == 0.0
    want = ref.log_tail(SEGMENTS[name], t)
    assert_close(spec.log_tail(t), want, np.abs(want))


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_cdf_near_zero(name):
    # 1 - tail(1e-8) is 1e-11 for bimodal; through log(tail) it was 1e-7 off
    spec = pe_law(SEGMENTS[name])
    want = -np.expm1(ref.log_tail(SEGMENTS[name], 1e-8))
    assert_close(d.cdf(spec, 1e-8), want, want)


@PROPERTY
@given(segments=pe_segments())
def test_random_segments_match_the_segment_formulas(segments):
    # no cdf here: an offset of 1e-24 is a jump at 0 that no knot value
    # next to 1 can hold
    assert_matches_reference(segments)
