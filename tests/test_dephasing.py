import json
import math
import time

import mpmath
import numpy as np
import pytest

from expsums import (
    InvalidInputError,
    PrecisionError,
    PulseSequence,
    SpectralDensity,
    decay_factor,
    evaluate,
    filter_expsum,
    filter_function,
    load_pulse_sequence,
    load_spectral_density,
    sequence_to_json,
    uhrig_filter_magnitude,
    uhrig_pulse_times,
    vanishing_order_filter,
)
from expsums import dephasing
from expsums.quadrature import adaptive_gauss_legendre

ECHO = PulseSequence(times=(0.0, 0.5, 1.0))
FREE = PulseSequence(times=(0.0, 1.0))


def uniform_sequence(n, T=1.0):
    return PulseSequence.from_pulses([j * T / (n + 1) for j in range(1, n + 1)], T)


# ---------------------------------------------------------------------------
# sequences

def test_sequence_validation():
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.5, 1.0))
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0,))
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0, 0.5, 0.5, 1.0))
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0, 0.7, 0.3, 1.0))


def test_sequence_rejects_nan_time():
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0, math.nan, 1.0))


def test_sequence_accessors():
    seq = uhrig_pulse_times(2, 1.0)
    assert seq.n_pulses == 2
    assert seq.total_time == 1.0
    assert seq.min_separation == pytest.approx(0.25, abs=1e-15)


def test_from_pulses():
    seq = PulseSequence.from_pulses([0.25, 0.75], 1.0)
    assert seq.times == (0.0, 0.25, 0.75, 1.0)


def test_min_separation_includes_boundaries():
    assert PulseSequence(times=(0.0, 0.9, 1.0)).min_separation == pytest.approx(0.1)
    assert uhrig_pulse_times(1, 2.0).min_separation == pytest.approx(1.0)


def test_min_separation_edge_gaps_smallest_for_uhrig():
    # sin^2 symmetry makes the first and last gaps equal and minimal; roundoff
    # decides which one the scan lands on
    for n in range(1, 41):
        seq = uhrig_pulse_times(n, 1.0)
        gaps = [b - a for a, b in zip(seq.times, seq.times[1:])]
        assert min(range(len(gaps)), key=gaps.__getitem__) in (0, len(gaps) - 1)
        assert seq.min_separation == pytest.approx(
            math.sin(math.pi / (2 * n + 2)) ** 2, rel=1e-14
        )


# ---------------------------------------------------------------------------
# filter function

def test_filter_vanishes_at_zero_frequency():
    for seq in [FREE, ECHO, uhrig_pulse_times(4, 2.0), uniform_sequence(3)]:
        assert filter_function(seq, 0.0) == 0


def test_filter_no_pulses_closed_form():
    for w in np.linspace(-8.0, 8.0, 33):
        value = filter_function(FREE, w)
        assert value == pytest.approx(1 - np.exp(1j * w), abs=1e-14)
        assert abs(value) == pytest.approx(2 * abs(math.sin(w / 2)), abs=1e-14)


def test_filter_matches_expsum_route():
    rng = np.random.default_rng(11)
    sequences = [FREE, ECHO, uhrig_pulse_times(3, 1.0), uhrig_pulse_times(6, 0.7)]
    pulses = np.sort(rng.uniform(0.05, 0.95, size=5))
    sequences.append(PulseSequence.from_pulses(pulses, 1.0))
    for seq in sequences:
        g = filter_expsum(seq)
        for w in np.linspace(-20.0, 20.0, 41):
            direct = filter_function(seq, w)
            via_sum = evaluate(g, w)
            assert abs(direct - via_sum) <= 1e-13 * max(1.0, abs(direct))


def test_filter_expsum_coefficient_pattern():
    g = filter_expsum(uhrig_pulse_times(4, 1.0))
    assert g.coefficients == (1, -2, 2, -2, 2, -1)
    g = filter_expsum(uhrig_pulse_times(3, 1.0))
    assert g.coefficients == (1, -2, 2, -2, 1)
    assert filter_expsum(FREE).coefficients == (1, -1)


def test_filter_triangle_bound():
    for n in [0, 2, 5]:
        seq = uhrig_pulse_times(n, 1.0) if n else FREE
        bound = 2 * (seq.n_pulses + 1)
        ws = np.linspace(-100.0, 100.0, 501)
        assert all(abs(filter_function(seq, w)) <= bound + 1e-12 for w in ws)


def test_filter_time_scaling_covariance():
    base = uhrig_pulse_times(3, 1.0)
    s = 2.5
    stretched = PulseSequence(times=tuple(s * t for t in base.times))
    for w in np.linspace(0.1, 30.0, 25):
        assert abs(filter_function(stretched, w / s)) == pytest.approx(
            abs(filter_function(base, w)), abs=1e-13
        )


def test_filter_rejects_nonfinite_frequency():
    with pytest.raises(InvalidInputError):
        filter_function(FREE, math.inf)


def test_filter_array_matches_scalar_calls():
    rng = np.random.default_rng(3)
    sequences = [FREE, ECHO, uhrig_pulse_times(9, 2.0)]
    sequences.append(PulseSequence.from_pulses(np.sort(rng.uniform(0.0, 3.0, 6)), 3.0))
    ws = rng.uniform(-500.0, 500.0, 300)
    for seq in sequences:
        values = filter_function(seq, ws)
        assert values.shape == ws.shape
        assert isinstance(filter_function(seq, 1.5), complex)
        assert values.tolist() == [filter_function(seq, w) for w in ws]
    with pytest.raises(InvalidInputError):
        filter_function(FREE, np.array([0.0, math.nan]))


# ---------------------------------------------------------------------------
# vanishing order of the filter

def test_filter_order_uhrig():
    for n in [1, 2, 3, 4]:
        assert vanishing_order_filter(uhrig_pulse_times(n, 1.0)) == n + 1


def test_filter_order_no_pulses():
    assert vanishing_order_filter(FREE) == 1


def test_filter_order_uniform_spacing_is_lower():
    # evenly spaced pulses stop cancelling beyond first order
    assert vanishing_order_filter(uniform_sequence(2)) == 1
    assert vanishing_order_filter(uhrig_pulse_times(2, 1.0)) == 3


def test_uhrig_filter_magnitude_agrees_at_moderate_frequency():
    for n, T in [(2, 1.0), (3, 0.5)]:
        seq = uhrig_pulse_times(n, T)
        for w in [0.7, 3.0, 11.0]:
            direct = abs(filter_function(seq, w))
            precise = uhrig_filter_magnitude(n, T, w)
            assert direct == pytest.approx(precise, rel=1e-12, abs=1e-13)


def test_uhrig_filter_magnitude_resolves_tiny_values():
    # at omega*T = 1e-3 the n=4 filter is ~1e-19, far below double noise
    value = uhrig_filter_magnitude(4, 1.0, 1e-3)
    assert 0.0 < value < 1e-17
    ratio = uhrig_filter_magnitude(4, 1.0, 2e-3) / value
    assert ratio == pytest.approx(2.0 ** 5, rel=1e-3)


def test_uhrig_filter_magnitude_validation():
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(2, 0.0, 1.0)


@pytest.mark.parametrize(
    "total_time, omega", [(1.0, math.inf), (1.0, math.nan), (math.inf, 1.0)]
)
def test_uhrig_filter_magnitude_rejects_nonfinite(total_time, omega):
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(4, total_time, omega)


def test_uhrig_filter_magnitude_rejects_nonpositive_digits():
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(4, 1.0, 1.0, dps=0)


# ---------------------------------------------------------------------------
# spectral densities

def test_density_validation():
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="pink")
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="hard-cutoff-flat", amplitude=-1.0, cutoff=1.0)
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0)
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=0.0)
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="tabulated", table=())
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="tabulated", table=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="tabulated", table=((0.0, 1.0), (1.0, -2.0)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="hard-cutoff-flat", cutoff=math.nan),
        dict(kind="ohmic-exponential", cutoff=math.inf),
        dict(kind="hard-cutoff-flat", amplitude=math.nan, cutoff=1.0),
        dict(kind="tabulated", table=((0.0, 1.0), (math.nan, 2.0))),
        dict(kind="tabulated", table=((0.0, math.nan), (1.0, 2.0))),
        dict(kind="hard-cutoff-flat", cutoff=10**400),
        dict(kind="hard-cutoff-flat", amplitude=10**400, cutoff=1.0),
    ],
    ids=["nan-cutoff", "inf-cutoff", "nan-amplitude", "nan-table-frequency", "nan-table-value",
         "huge-int-cutoff", "huge-int-amplitude"],
)
def test_density_rejects_nonfinite(kwargs):
    with pytest.raises(InvalidInputError):
        SpectralDensity(**kwargs)


def test_flat_density_values():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=2.0, cutoff=1.5)
    assert dens(0.0) == 2.0
    assert dens(1.5) == 2.0
    assert dens(1.6) == 0.0


def test_ohmic_density_values():
    dens = SpectralDensity(kind="ohmic-exponential", amplitude=3.0, cutoff=2.0)
    w = 0.7
    assert dens(w) == pytest.approx(3.0 * w * math.exp(-w / 2.0), rel=1e-15)


def test_tabulated_density_interpolation():
    dens = SpectralDensity(
        kind="tabulated", table=((0.0, 0.0), (1.0, 2.0), (2.0, 0.0))
    )
    assert dens(0.5) == pytest.approx(1.0)
    assert dens(1.5) == pytest.approx(1.0)
    assert dens(2.5) == 0.0


def test_density_vectorized_call():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    out = dens(np.array([0.5, 2.0]))
    assert out.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# decay factor

def test_decay_zero_density():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=0.0, cutoff=1.0)
    assert decay_factor(FREE, dens) == 0.0


@pytest.mark.parametrize("cutoff,T", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
def test_decay_no_pulses_closed_form(cutoff, T):
    # integral of 4*sin^2(T*w/2) over [0, cutoff]
    seq = PulseSequence(times=(0.0, T))
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=cutoff)
    closed = 2.0 * cutoff - (2.0 / T) * math.sin(cutoff * T)
    assert decay_factor(seq, dens, abs_tol=1e-12) == pytest.approx(closed, abs=1e-10)


def test_decay_more_pulses_suppress_low_frequency_noise():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    chi2 = decay_factor(uhrig_pulse_times(2, 1.0), dens)
    chi4 = decay_factor(uhrig_pulse_times(4, 1.0), dens)
    assert 0.0 < chi4 < chi2


def test_decay_linear_in_amplitude():
    seq = uhrig_pulse_times(2, 1.0)
    one = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=2.0)
    five = SpectralDensity(kind="hard-cutoff-flat", amplitude=5.0, cutoff=2.0)
    assert decay_factor(seq, five) == pytest.approx(5 * decay_factor(seq, one), rel=1e-9)


def test_decay_ohmic_tail_truncation():
    seq = uhrig_pulse_times(2, 1.0)
    dens = SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=1.0)
    loose = decay_factor(seq, dens, abs_tol=1e-8)
    tight = decay_factor(seq, dens, abs_tol=1e-12)
    assert loose == pytest.approx(tight, abs=2e-8)
    assert tight > 0.0


def test_decay_tabulated_matches_flat():
    seq = uhrig_pulse_times(2, 1.0)
    flat = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    table = SpectralDensity(kind="tabulated", table=((0.0, 1.0), (1.0, 1.0)))
    assert decay_factor(seq, table) == pytest.approx(decay_factor(seq, flat), abs=1e-10)


def test_decay_validation():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    with pytest.raises(InvalidInputError):
        decay_factor(FREE, dens, abs_tol=0.0)
    with pytest.raises(InvalidInputError):
        decay_factor(FREE, dens, abs_tol=math.nan)


def test_decay_overflow_is_a_precision_error():
    dens = SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=1e200)
    with pytest.raises(PrecisionError):
        decay_factor(ECHO, dens)


# Lambda(omega) = 1 / (1 + omega) and omega * exp(-omega/10) sampled on a few
# points, plus a table that steps up from 0 at its first point
TABLES = {
    "decaying": tuple((w, 1.0 / (1.0 + w)) for w in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)),
    "ohmic-like": tuple((w, w * math.exp(-w / 10.0)) for w in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)),
    "left-step": ((0.5, 2.0), (1.5, 1.0), (3.0, 0.0)),
}
ORACLE_DENSITIES = {
    "flat": SpectralDensity(kind="hard-cutoff-flat", amplitude=1.3, cutoff=7.5),
    "ohmic": SpectralDensity(kind="ohmic-exponential", amplitude=0.7, cutoff=2.0),
    **{name: SpectralDensity(kind="tabulated", amplitude=0.9, table=t) for name, t in TABLES.items()},
}


def quadrature_chi(seq, density):
    """chi by adaptive quadrature of Lambda*|f|^2, piecewise between kinks."""
    coeffs = np.array([c.real for c in filter_expsum(seq).coefficients])
    times = np.array(seq.times)

    def integrand(ws):
        return density(ws) * np.abs(np.exp(1j * np.outer(ws, times)) @ coeffs) ** 2

    if density.kind == "tabulated":
        ws = [w for w, _ in density.table]
        pieces = list(zip(ws, ws[1:]))
    elif density.kind == "ohmic-exponential":
        # the tail beyond 40 cutoffs weighs below 1e-15
        pieces = [(k * density.cutoff, (k + 1) * density.cutoff) for k in range(40)]
    else:
        pieces = [(0.0, density.cutoff)]
    return math.fsum(adaptive_gauss_legendre(integrand, lo, hi, 1e-12)[0] for lo, hi in pieces)


@pytest.mark.parametrize("name", sorted(ORACLE_DENSITIES))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_decay_matches_quadrature_oracle(name, n):
    seq = PulseSequence(times=(0.0, 1.3)) if n == 0 else uhrig_pulse_times(n, 1.3)
    density = ORACLE_DENSITIES[name]
    oracle = quadrature_chi(seq, density)
    assert decay_factor(seq, density, abs_tol=1e-12) == pytest.approx(oracle, abs=1e-10)


def test_decay_one_point_table_is_zero():
    density = SpectralDensity(kind="tabulated", table=((1.0, 3.0),))
    for seq in [FREE, ECHO, uhrig_pulse_times(8, 1.0)]:
        assert decay_factor(seq, density) == 0.0


def kernel_sum_mp(seq, density, dps=60):
    """amplitude * sum_jk c_j c_k K(t_j - t_k) at ``dps`` digits on the stored
    times; tabulated kernels integrate (p + q*omega)*cos(D*omega) per segment."""
    coeffs = [c.real for c in filter_expsum(seq).coefficients]
    with mpmath.mp.workdps(dps):
        times = [mpmath.mpf(t) for t in seq.times]
        if density.kind == "hard-cutoff-flat":
            wc = mpmath.mpf(density.cutoff)

            def kernel(d):
                return wc if d == 0 else mpmath.sin(d * wc) / d
        elif density.kind == "ohmic-exponential":
            s = 1 / mpmath.mpf(density.cutoff) ** 2

            def kernel(d):
                return (s - d * d) / (s + d * d) ** 2
        else:
            table = [tuple(map(mpmath.mpf, p)) for p in density.table]

            def kernel(d):
                total = mpmath.mpf(0)
                for (w0, v0), (w1, v1) in zip(table, table[1:]):
                    q = (v1 - v0) / (w1 - w0)
                    p = v0 - q * w0
                    if d == 0:
                        total += p * (w1 - w0) + q * (w1 ** 2 - w0 ** 2) / 2
                        continue

                    def primitive(w):
                        return (p + q * w) * mpmath.sin(d * w) / d + q * mpmath.cos(d * w) / d ** 2
                    total += primitive(w1) - primitive(w0)
                return total

        value = mpmath.fsum(
            cj * ck * kernel(tj - tk)
            for cj, tj in zip(coeffs, times)
            for ck, tk in zip(coeffs, times)
        )
        return float(density.amplitude * value)


def scaled_table(name, total_time):
    """TABLES[name] stretched to a sequence of length ``total_time``: chi then
    scales by 1/total_time, the pulse times keep their shape."""
    return tuple((w / total_time, v) for w, v in TABLES[name])


def with_close_pair(n, gap):
    """The sin^2 sequence of n pulses plus one more pulse ``gap`` after its
    middle pulse."""
    pulses = list(uhrig_pulse_times(n, 1.0).times[1:-1])
    return PulseSequence.from_pulses(sorted(pulses + [pulses[n // 2] + gap]), 1.0)


# chi cases that quadrature missed (n=8, cutoff 10.0879), took a second or
# more (n=4, cutoff 50) or ground to its subdivision cap (n=32), and sums
# whose double-precision bound exceeds abs_tol, so they take the integer rung:
# 32-pulse tables, ohmic 32 at cutoff 20 (bound 2e-10), an amplitude that is
# not a power of two, total times whose pulse times sit on dyadic scales far
# from 1, and two pulses 1e-9 apart, where the 1/D^2 of tabulated kernels
# drives up the precision of the cos/sin table
@pytest.mark.parametrize(
    "seq,density,abs_tol",
    [
        (uhrig_pulse_times(8, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=10.0879), 1e-10),
        (uhrig_pulse_times(4, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=50.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=50.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="hard-cutoff-flat", cutoff=1000.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="hard-cutoff-flat", cutoff=300.0), 1e-13),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="tabulated", table=TABLES["decaying"]), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="tabulated", table=TABLES["ohmic-like"]), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=20.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="tabulated", table=TABLES["left-step"]), 1e-13),
        (uhrig_pulse_times(32, 1.0),
         SpectralDensity(kind="tabulated", amplitude=0.7, table=TABLES["ohmic-like"]), 1e-10),
        (uhrig_pulse_times(32, 1e-3),
         SpectralDensity(kind="tabulated", table=scaled_table("ohmic-like", 1e-3)), 1e-10),
        (uhrig_pulse_times(32, 1e3),
         SpectralDensity(kind="tabulated", table=scaled_table("ohmic-like", 1e3)), 1e-13),
        (with_close_pair(8, 1e-9), SpectralDensity(kind="tabulated", table=TABLES["decaying"]), 1e-13),
    ],
    ids=["ohmic-8-10.0879", "ohmic-4-50", "ohmic-32-50", "flat-32-1000", "flat-32-300-tight",
         "decaying-table-32", "ohmic-like-table-32", "ohmic-32-20", "left-step-table-32-tight",
         "ohmic-like-table-32-amplitude-0.7", "ohmic-like-table-32-T-1e-3",
         "ohmic-like-table-32-T-1e3-tight", "decaying-table-close-pair-tight"],
)
def test_decay_matches_kernel_sum(seq, density, abs_tol):
    start = time.perf_counter()
    value = decay_factor(seq, density, abs_tol=abs_tol)
    assert time.perf_counter() - start < 0.5
    exact = kernel_sum_mp(seq, density)
    assert abs(value - exact) <= min(1e-10, abs_tol + math.ulp(exact))


def test_decay_escalates_to_mpmath(monkeypatch):
    # the double-precision bound for 32 pulses under a flat cutoff of 300 is
    # about 1e-10, so a 1e-13 tolerance needs the mpmath recomputation
    seq = uhrig_pulse_times(32, 1.0)
    density = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=300.0)
    workdps = mpmath.mp.workdps
    digits = []
    monkeypatch.setattr(mpmath.mp, "workdps", lambda dps: digits.append(dps) or workdps(dps))
    value = decay_factor(seq, density, abs_tol=1e-13)
    monkeypatch.undo()
    assert len(digits) == 1 and digits[0] > 20
    exact = kernel_sum_mp(seq, density)
    assert abs(value - exact) <= 1e-13 + math.ulp(exact)


@pytest.mark.parametrize(
    "density,abs_tol,limit",
    [
        (SpectralDensity(kind="tabulated", table=TABLES["ohmic-like"]), 1e-10, 34 * 7),
        (SpectralDensity(kind="hard-cutoff-flat", cutoff=300.0), 1e-13, 34),
        (SpectralDensity(kind="ohmic-exponential", cutoff=20.0), 1e-10, 0),
    ],
    ids=["tabulated-7-breakpoints", "flat", "ohmic"],
)
def test_decay_rung_trig_calls(monkeypatch, density, abs_tol, limit):
    # the rung takes cos and sin of t_j*w once per stored time and breakpoint
    # (n + 2 times, 7 breakpoints here, the cutoff for flat densities), and
    # none at all for the rational ohmic kernel
    seq = uhrig_pulse_times(32, 1.0)
    calls = []
    for name in ("sin", "cos", "cos_sin"):
        original = getattr(mpmath, name)
        monkeypatch.setattr(mpmath, name, lambda *args, f=original: calls.append(f) or f(*args))
    rung = dephasing._exact_kernel_sum
    monkeypatch.setattr(dephasing, "_exact_kernel_sum", lambda *args: calls.append(rung) or rung(*args))
    decay_factor(seq, density, abs_tol=abs_tol)
    assert calls.count(rung) == 1
    assert len(calls) - 1 <= limit


def test_decay_random_inputs_meet_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(1, 13))
        total = float(rng.uniform(0.5, 2.0))
        seq = PulseSequence.from_pulses(np.sort(rng.uniform(0.0, total, n)), total)
        ws = np.cumsum(rng.uniform(0.2, 5.0, 5)) - float(rng.uniform(0.0, 0.2))
        for density in [
            SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=float(rng.uniform(1, 300))),
            SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=float(rng.uniform(0.1, 50))),
            SpectralDensity(kind="tabulated", amplitude=1.0,
                            table=tuple(zip(ws, rng.uniform(0.0, 3.0, 5)))),
        ]:
            exact = kernel_sum_mp(seq, density)
            for abs_tol in (1e-10, 1e-12, 1e-13):
                value = decay_factor(seq, density, abs_tol=abs_tol)
                assert abs(value - exact) <= abs_tol + math.ulp(exact)


# the true values are far below 1e-10; the double-precision sums of the last
# two cancel to about -1e-15
@pytest.mark.parametrize(
    "kind,n,cutoff",
    [
        ("ohmic-exponential", 32, 0.1),
        ("hard-cutoff-flat", 8, 1.0),
        ("ohmic-exponential", 16, 0.3),
    ],
)
def test_decay_suppressed_regime_within_tolerance(kind, n, cutoff):
    seq = uhrig_pulse_times(n, 1.0)
    density = SpectralDensity(kind=kind, amplitude=1.0, cutoff=cutoff)
    assert 0.0 <= decay_factor(seq, density) <= 1e-10


# ---------------------------------------------------------------------------
# file formats

def test_sequence_json_round_trip(tmp_path):
    seq = uhrig_pulse_times(3, 2.0)
    path = tmp_path / "seq.json"
    path.write_text(sequence_to_json(seq))
    assert load_pulse_sequence(path) == seq


def test_sequence_json_mismatched_total(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"times": [0.0, 0.5, 1.0], "T": 2.0}')
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(path)


def test_sequence_json_malformed(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text("{nope")
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(path)
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(tmp_path / "missing.json")
    path.write_text('{"T": 1.0}')
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(path)


def test_density_json_round_trip(tmp_path):
    path = tmp_path / "dens.json"
    path.write_text(
        json.dumps({"kind": "ohmic-exponential", "amplitude": 2.0, "cutoff": 1.5})
    )
    dens = load_spectral_density(path)
    assert dens.kind == "ohmic-exponential"
    assert dens.amplitude == 2.0 and dens.cutoff == 1.5


def test_density_json_tabulated():
    dens = load_spectral_density(
        {"kind": "tabulated", "table": [[0.0, 1.0], [2.0, 3.0]]}
    )
    assert dens.table == ((0.0, 1.0), (2.0, 3.0))


def test_density_json_rejects_nan(tmp_path):
    path = tmp_path / "dens.json"
    path.write_text('{"kind": "ohmic-exponential", "amplitude": 1.0, "cutoff": NaN}')
    with pytest.raises(InvalidInputError):
        load_spectral_density(path)


def test_density_json_invalid():
    with pytest.raises(InvalidInputError):
        load_spectral_density({"kind": "nope"})
    with pytest.raises(InvalidInputError):
        load_spectral_density({"amplitude": 1.0})
