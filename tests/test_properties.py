"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import Scheduler
from repro.core.ecf import EcfInputs, EcfScheduler
from repro.core.minrtt import MinRttScheduler
from repro.metrics.stats import ccdf, cdf, mean, percentile, stdev
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.receiver import MptcpReceiver
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.path import Path
from repro.sim import probe
from repro.sim.engine import Simulator
from repro.tcp.cc.base import CongestionController
from repro.tcp.cc.coupled import DEFAULT_RTT, CoupledController
from repro.tcp.cc.cubic import BETA_CUBIC, C, CubicController, _CubicState
from repro.tcp.cc.olia import _EPS, OliaController
from repro.tcp.cc.reno import RenoController
from repro.tcp.rtt import ALPHA, BETA, MAX_RTT_SAMPLE, SIGMA_BOUND, RttEstimator
from tests.conftest import MidpointScheduler, build_connection

finite_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_cdf_is_monotone_and_ends_at_one(self, samples):
        points = cdf(samples)
        probs = [p for _, p in points]
        xs = [x for x, _ in points]
        assert xs == sorted(xs)
        assert probs == sorted(probs)
        assert abs(probs[-1] - 1.0) < 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_ccdf_complements(self, samples):
        for (x1, p), (x2, q) in zip(cdf(samples), ccdf(samples)):
            assert x1 == x2
            assert abs(p + q - 1.0) < 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_percentiles_bounded_by_extremes(self, samples):
        for q in (0, 25, 50, 75, 100):
            value = percentile(samples, q)
            assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_mean_between_extremes(self, samples):
        assert min(samples) - 1e-9 <= mean(samples) <= max(samples) + 1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_stdev_nonnegative(self, samples):
        assert stdev(samples) >= 0.0


class TestRttEstimatorProperties:
    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=100))
    def test_srtt_stays_within_sample_range(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.add_sample(sample)
        assert min(samples) - 1e-9 <= est.srtt <= max(samples) + 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=100))
    def test_rto_at_least_srtt_plus_floor(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.add_sample(sample)
        assert est.rto >= min(est.srtt + est.min_rto_var, est.max_rto) - 1e-9

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=100))
    def test_sigma_nonnegative_and_bounded(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.add_sample(sample)
        assert 0.0 <= est.sigma <= (max(samples) - min(samples)) + 1e-9


    @given(
        st.lists(st.floats(min_value=0.001, max_value=100.0), max_size=60),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=60.0),
    )
    def test_stored_rto_and_memoised_sigma_equal_their_formulas(
        self, samples, min_rto_var, max_rto
    ):
        """``rto`` is computed when a sample lands and ``sigma`` once per
        sample; both must read as the on-demand properties they replace."""
        est = RttEstimator(min_rto_var=min_rto_var, max_rto=max_rto)
        assert est.rto == 1.0 and est.sigma == 0.0
        for sample in samples:
            est.add_sample(sample)
            assert est.rto == min(max_rto, est.srtt + max(min_rto_var, 4.0 * est.rttvar))
            window = est._window
            n = len(window)
            expected = 0.0
            if n >= 2:
                mean = sum(window) / n
                expected = math.sqrt(sum((x - mean) ** 2 for x in window) / (n - 1))
            first = est.sigma
            assert first == expected
            assert est.sigma is first  # no recomputation without a new sample

    @settings(max_examples=100)
    @given(st.lists(
        st.floats(min_value=1e-150, max_value=MAX_RTT_SAMPLE, exclude_max=True),
        min_size=2, max_size=16,
    ))
    @example([1e-150, math.nextafter(MAX_RTT_SAMPLE, 0.0)])
    @example([1e-12, 1.0])
    @example([0.05] * 16)
    def test_sigma_is_within_its_bound(self, samples):
        """ECF decides on ``SIGMA_BOUND * max(window)`` in place of sigma.
        Samples span 1e-150 s up to ``MAX_RTT_SAMPLE``, which
        ``add_sample`` refuses: beyond that a square under- or overflows
        and the bound's float margin no longer covers it."""
        est = RttEstimator(sigma_window=len(samples))
        for sample in samples:
            est.add_sample(sample)
        assert est.sigma <= SIGMA_BOUND * max(est._window)


# ----------------------------------------------------------------------
# The single-pass subflow ranking against its list-based specification
# ----------------------------------------------------------------------


def spec_can_send(sf):
    return sf.established and not sf._retx_queue and sf.has_window_space()


def spec_fastest(subflows):
    usable = [sf for sf in subflows if math.isfinite(sf.srtt_or_default())]
    if not usable:
        return None
    return min(usable, key=lambda sf: (sf.srtt_or_default(), sf.sf_id))


def spec_fastest_and_sendable(conn):
    """ECF's and BLEST's two-stage pick as they spelled it out before."""
    established = [sf for sf in conn.subflows if sf.established]
    fastest = spec_fastest(established)
    if fastest is None:
        return None, None
    if spec_can_send(fastest):
        return fastest, fastest
    candidates = [sf for sf in established if sf is not fastest and spec_can_send(sf)]
    return fastest, spec_fastest(candidates)


#: None (no sample yet), finite values with equal pairs, and the two
#: non-finite estimates a path in an outage can produce.
rtt_values = st.sampled_from([None, 0.01, 0.01, 0.05, 0.05, 0.2, 3.0, math.inf, math.nan])

subflow_states = st.lists(
    st.tuples(
        rtt_values,  # srtt
        rtt_values.filter(lambda v: v is not None),  # pre-handshake default
        st.booleans(),  # established
        st.booleans(),  # window full
        st.booleans(),  # retransmissions queued
    ),
    min_size=1,
    max_size=8,
)


def ranked_world(states):
    sim = Simulator()
    conn = build_connection(sim, path_specs=[(10.0, 0.01)] * len(states))
    sim.now = 1.0
    for sf, (srtt, default, established, full, retx) in zip(conn.subflows, states):
        sf.rtt.srtt = srtt
        sf._default_rtt = default
        sf.established_at = 0.5 if established else 2.0
        if full:
            sf._in_flight = int(sf.cwnd)
        if retx:
            sf._retx_queue.append(object())
    return conn


#: RTT windows of 0-16 samples: arbitrary ones, and equal or near-equal
#: ones (a few ulps apart), whose sigma is zero or close to it.
rtt_windows = st.lists(
    st.sampled_from([0.01, 0.0125, 0.02, 0.05, 0.1]), max_size=16
) | st.builds(
    lambda base, steps: [base + step * math.ulp(base) for step in steps],
    st.sampled_from([0.01, 0.02, 0.05]),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=16),
)

#: Congestion windows; under one segment only for the full fast subflow.
fast_cwnds = (0.5, 1.0, 2.0, 4.0, 10.0)
slow_cwnds = (1.0, 2.0, 4.0, 10.0)


class _ExactEcf(EcfScheduler):
    """Stock Algorithm 1, overridden, so ``select`` always takes the exact path."""

    def _evaluate(self, inputs: EcfInputs) -> bool:
        return super()._evaluate(inputs)


def ecf_world(windows, cwnds, k_segments):
    """Two established subflows fed ``windows``; the faster one's window
    (``cwnds[0]``) full and the other's (``cwnds[1]``) free,
    ``k_segments`` segments unassigned."""
    sim = Simulator()
    conn = build_connection(sim, path_specs=[(10.0, 0.01), (10.0, 0.05)])
    sim.now = 1.0
    for sf, samples in zip(conn.subflows, windows):
        sf.established_at = 0.5
        for sample in samples:
            sf.rtt.add_sample(sample)
    fastest, _ = Scheduler.fastest_and_sendable(conn)
    (slow,) = [sf for sf in conn.subflows if sf is not fastest]
    fastest.cwnd, slow.cwnd = cwnds
    fastest._in_flight = int(fastest.cwnd) + 1
    conn.unassigned_bytes = k_segments * conn.mss
    return conn


class TestRankingProperties:
    @given(subflow_states)
    def test_can_send_is_its_three_conditions(self, states):
        for sf in ranked_world(states).subflows:
            assert sf.can_send() == spec_can_send(sf)

    @given(subflow_states, st.sampled_from([0.5, 0.999, 1.0, 1.0 + 1e-12, 10.0, math.nan]))
    def test_send_segment_refuses_exactly_what_can_send_refuses(self, states, cwnd):
        """``send_segment`` spells ``can_send()`` on attributes."""
        for sf in ranked_world(states).subflows:
            sf.cwnd = cwnd if sf._in_flight == 0 else sf.cwnd
            if sf.can_send():
                sf.send_segment(0, 1)
            else:
                with pytest.raises(RuntimeError, match="without window space"):
                    sf.send_segment(0, 1)

    @given(subflow_states)
    def test_fastest_and_sendable_matches_the_two_stage_pick(self, states):
        conn = ranked_world(states)
        fastest, sendable = Scheduler.fastest_and_sendable(conn)
        spec_first, spec_second = spec_fastest_and_sendable(conn)
        assert fastest is spec_first
        assert sendable is spec_second
        # minRTT's answer: the fastest of the subflows that can send.
        sendable_list = [sf for sf in conn.subflows if spec_can_send(sf)]
        assert MinRttScheduler().select(conn) is spec_fastest(sendable_list)

    @given(
        subflow_states,
        st.lists(st.sampled_from([0.25, 0.999, 1.0, 1.0, 2.5, 10.0]), min_size=8, max_size=8),
        st.lists(st.sampled_from([0.0, 0.0, 0.003, 0.003, 0.04]), min_size=8, max_size=8),
        st.integers(min_value=0, max_value=200_000),
        st.booleans(),
    )
    def test_ecf_decision_inputs_match_the_definition(
        self, states, cwnds, sigmas, unassigned, waiting
    ):
        """``_decision_inputs`` reads its fields on locals; each must equal,
        bit for bit, the value its definition gives: ``srtt_or_default()``
        (no sample yet included), ``max(cwnd, 1.0)`` (windows under one
        segment included), ``max(sigma_f, sigma_s)`` (equal sigmas
        included) and ``conn.mss``."""

        def same(got, want):
            return type(got) is type(want) and (
                got == want or (math.isnan(got) and math.isnan(want))
            )

        conn = ranked_world(states)
        conn.unassigned_bytes = unassigned
        for sf, cwnd, sigma in zip(conn.subflows, cwnds, sigmas):
            sf.cwnd = cwnd
            sf.rtt._sigma = sigma
        scheduler = EcfScheduler(beta=0.25)
        scheduler.waiting = waiting
        for fast in conn.subflows:
            for slow in conn.subflows:
                if slow is fast:
                    continue
                inputs = scheduler._decision_inputs(conn, fast, slow)
                k_segments = conn.unassigned_bytes / conn.mss
                rtt_f, rtt_s = fast.srtt_or_default(), slow.srtt_or_default()
                cwnd_f, cwnd_s = max(fast.cwnd, 1.0), max(slow.cwnd, 1.0)
                delta = max(fast.rtt.sigma, slow.rtt.sigma)
                expected = EcfInputs(
                    k_segments=k_segments,
                    rtt_f=rtt_f,
                    rtt_s=rtt_s,
                    cwnd_f=cwnd_f,
                    cwnd_s=cwnd_s,
                    delta=delta,
                    n_rounds=1.0 + math.ceil(k_segments / cwnd_f),
                    threshold=(1.0 + (0.25 if waiting else 0.0)) * (rtt_s + delta),
                )
                for field, got, want in zip(EcfInputs._fields, inputs, expected):
                    assert same(got, want), (field, got, want)

    @settings(max_examples=200)
    @given(
        st.tuples(rtt_windows, rtt_windows),
        st.tuples(st.sampled_from(fast_cwnds), st.sampled_from(slow_cwnds)),
        st.integers(min_value=0, max_value=4) | st.integers(min_value=0, max_value=40),
        st.booleans(),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.booleans(),
    )
    # Inequality 2 holds at delta = 0 and fails at the exact delta (~ 0.035).
    @example(([0.02, 0.02], [0.05, 0.1]), (10.0, 10.0), 1, False, 0.25, True)
    def test_ecf_bounded_verdict_is_algorithm_1(
        self, windows, cwnds, k_segments, waiting, beta, second_inequality
    ):
        """``select`` decides on a bound for delta unless a probe is armed
        or Algorithm 1 is overridden: its answer, hysteresis state and
        decision count must equal the exact path's on every input."""
        conn = ecf_world(windows, cwnds, k_segments)
        bounded = EcfScheduler(beta=beta, use_second_inequality=second_inequality)
        exact = _ExactEcf(beta=beta, use_second_inequality=second_inequality)
        assert bounded._stock_algorithm and not exact._stock_algorithm
        bounded.waiting = exact.waiting = waiting
        assert bounded.select(conn) is exact.select(conn)
        assert bounded.waiting == exact.waiting
        assert bounded.ecf_decisions == exact.ecf_decisions == 1

    def test_ecf_reads_sigma_only_for_close_calls(self):
        """A clear-cut send leaves both sigmas unread; a decision the bound
        leaves open reads them."""
        if probe.ACTIVE is not None:
            pytest.skip("a tool is armed (REPRO_SANITIZE, ...): every decision is exact")
        windows = ([0.01, 0.012], [0.2, 0.25])  # SRTT ~ 0.0103 and ~ 0.206
        # 101 fast rounds of ~ 0.0103 s outlast RTT_s plus the bound (0.1875).
        conn = ecf_world(windows, (10.0, 10.0), k_segments=1000)
        fast, slow = conn.subflows
        assert EcfScheduler().select(conn) is slow
        assert fast.rtt._sigma is None and slow.rtt._sigma is None
        # k = 1: inequality 2 reads 0.206 >= 2 * 0.0103 + delta, which
        # the bound cannot settle; the exact delta (~ 0.035) says wait.
        conn = ecf_world(windows, (10.0, 10.0), k_segments=1)
        fast, slow = conn.subflows
        assert EcfScheduler().select(conn) is None
        assert fast.rtt._sigma is not None and slow.rtt._sigma is not None

    @given(subflow_states)
    def test_minrtt_picks_the_fastest_available(self, states):
        conn = ranked_world(states)
        available = [sf for sf in conn.subflows if spec_can_send(sf)]
        assert conn.scheduler.select(conn) is spec_fastest(available)


# ----------------------------------------------------------------------
# Two-number min / max / abs, spelled as comparisons on the hot path
# ----------------------------------------------------------------------

#: Every float, with the values a comparison can get wrong drawn often:
#: NaN, both zeros, both infinities and the bounds the code clamps to.
any_float = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 1e-300]
)


def same(got, want) -> bool:
    """Bit for bit, via ``struct.pack``, so the sign of zero counts.  A
    NaN matches any NaN: Python leaves a NaN's sign bit unspecified
    (``abs`` clears it, and x86 sets it on ``inf - inf``).  An exception
    type matches only itself."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        return struct.pack("<d", got) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


def outcome(function, *args):
    """``function(*args)``, or the type of the arithmetic error it raised
    (a division by zero, a float overflow): both spellings must fail alike."""
    try:
        return function(*args)
    except ArithmeticError as exc:
        return type(exc)


class _Stub:
    """Attribute bag standing in for a subflow (hashable, unlike a
    ``SimpleNamespace``: CUBIC keys its state by the subflow)."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


class _Drawn(CongestionController):
    """A controller whose congestion-avoidance increase is drawn."""

    __slots__ = ("increase",)

    def ca_increase(self, subflow):
        return self.increase


class _DrawnCoupled(CoupledController):
    __slots__ = ("drawn",)

    def _alpha_and_total(self):
        return self.drawn


class _DrawnOlia(OliaController):
    __slots__ = ("drawn",)

    def _denom_and_alpha(self, subflow):
        return self.drawn


def reference_add_sample(state, rtt, min_rto_var, max_rto):
    """``RttEstimator.add_sample`` spelled with ``abs``, ``min`` and
    ``max``; ``state`` is ``[srtt, rttvar, rto]``."""
    srtt, rttvar, _ = state
    if srtt is None:
        srtt, rttvar = rtt, rtt / 2.0
    else:
        rttvar = (1.0 - BETA) * rttvar + BETA * abs(srtt - rtt)
        srtt = (1.0 - ALPHA) * srtt + ALPHA * rtt
    state[:] = [srtt, rttvar, min(max_rto, srtt + max(min_rto_var, 4.0 * rttvar))]


def reference_cubic(state, now, rtt, cwnd):
    """``CubicController.ca_increase`` with its ``min`` / ``max`` calls."""
    if state.epoch_start < 0:
        state.epoch_start = now
        if state.w_max < cwnd:
            state.w_max = cwnd
        state.k = ((state.w_max * (1.0 - BETA_CUBIC)) / C) ** (1.0 / 3.0)
        state.reno_cwnd = cwnd
    t = now - state.epoch_start + rtt
    target = C * (t - state.k) ** 3 + state.w_max
    state.reno_cwnd += 3.0 * (1.0 - BETA_CUBIC) / (1.0 + BETA_CUBIC) / max(cwnd, 1.0)
    target = max(target, state.reno_cwnd)
    if target <= cwnd:
        return 0.01 / max(cwnd, 1.0)
    return min(1.0, (target - cwnd) / max(cwnd, 1.0))


def reference_olia(cwnd, srtt, denom, alpha):
    """``OliaController.ca_increase`` past its coupling term."""
    denom = max(denom, _EPS)
    rtt_i = srtt or DEFAULT_RTT
    increase = (cwnd / (rtt_i * rtt_i)) / (denom * denom)
    total = increase + alpha / max(cwnd, 1.0)
    return max(-1.0, min(1.0, total))


class TestComparisonProperties:
    """Each two-number ``min`` / ``max`` / ``abs`` the per-segment path
    respells as a comparison on locals keeps the builtin's result, bit for
    bit, on any float."""

    @given(any_float, any_float)
    @example(0.0, -0.0)
    @example(-0.0, 0.0)
    @example(math.nan, 1.0)
    @example(1.0, math.nan)
    @example(math.inf, math.inf)
    def test_spellings_match_the_builtins(self, a, b):
        # min / max hand back one of their arguments: the very same object.
        assert (b if b < a else a) is min(a, b)
        assert (b if b > a else a) is max(a, b)
        assert same(1.0 if a < 1.0 else a, max(a, 1.0))
        clamped = a if a < 1.0 else 1.0
        assert same(clamped if clamped > -1.0 else -1.0, max(-1.0, min(1.0, a)))
        # abs(a - b) as RttEstimator spells it; ``a - b if a > b else b - a``
        # would give -0.0 for (+0.0, -0.0).
        diff = a - b
        assert same(diff if diff > 0.0 else 0.0 - diff, abs(a - b))

    @given(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True)
            | st.sampled_from([5e-324, 0.05, 0.05, MAX_RTT_SAMPLE, math.inf, math.nan]),
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=60.0),
    )
    def test_rtt_estimator_matches_the_abs_reference(self, samples, min_rto_var, max_rto):
        est = RttEstimator(min_rto_var=min_rto_var, max_rto=max_rto)
        state = [None, None, 1.0]
        for sample in samples:
            if sample < MAX_RTT_SAMPLE:
                est.add_sample(sample)
                reference_add_sample(state, sample, min_rto_var, max_rto)
            else:  # refused (NaN too), and the state stays the reference's
                with pytest.raises(ValueError):
                    est.add_sample(sample)
            for got, want in zip((est.srtt, est.rttvar, est.rto), state):
                assert same(got, want), (samples, got, want)

    @given(any_float, any_float, any_float, any_float)
    def test_on_ack_caps_as_min_did(self, cwnd, ssthresh, max_cwnd, increase):
        if probe.ACTIVE is not None:
            pytest.skip("a tool is armed: its cwnd audit refuses drawn windows")
        controller = _Drawn()
        controller.increase = increase
        subflow = _Stub(cwnd=cwnd, ssthresh=ssthresh, max_cwnd=max_cwnd)
        controller.on_ack(subflow)
        grown = cwnd + 1.0 if cwnd < ssthresh else cwnd + increase
        assert same(subflow.cwnd, min(grown, max_cwnd))

    @given(any_float, any_float, any_float)
    def test_reno_and_coupled_increase_as_min_max_did(self, cwnd, alpha, total):
        subflow = _Stub(cwnd=cwnd)
        reno = outcome(RenoController().ca_increase, subflow)
        assert same(reno, outcome(lambda: 1.0 / max(cwnd, 1.0)))
        coupled = _DrawnCoupled()
        coupled.drawn = (alpha, total)

        def reference():
            uncoupled = 1.0 / max(cwnd, 1.0)
            return uncoupled if total <= 0 else min(alpha / total, uncoupled)

        assert same(outcome(coupled.ca_increase, subflow), outcome(reference))

    @given(any_float, any_float, any_float, any_float)
    def test_olia_increase_as_min_max_did(self, cwnd, srtt, denom, alpha):
        olia = _DrawnOlia()
        olia.drawn = (denom, alpha)
        subflow = _Stub(cwnd=cwnd, rtt=_Stub(srtt=srtt))
        got = outcome(olia.ca_increase, subflow)
        assert same(got, outcome(reference_olia, cwnd, srtt, denom, alpha))

    @given(
        st.floats(min_value=0.0) | st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan]),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.0, max_value=1e3),
        st.sampled_from([-1.0, 0.0, 5.0]),
        st.floats(min_value=0.0, max_value=1e3) | st.sampled_from([-0.0, math.inf, math.nan]),
    )
    def test_cubic_increase_as_min_max_did(self, cwnd, now, rtt, w_max, epoch, reno_cwnd):
        cubic = CubicController()
        subflow = _Stub(cwnd=cwnd, sim=_Stub(now=now), srtt_or_default=lambda: rtt)
        state, expected_state = cubic._state_for(subflow), _CubicState()
        for each in (state, expected_state):
            each.w_max, each.epoch_start, each.reno_cwnd = w_max, epoch, reno_cwnd
        got = outcome(cubic.ca_increase, subflow)
        assert same(got, outcome(reference_cubic, expected_state, now, rtt, cwnd))
        for field in _CubicState.STATE_FIELDS:
            assert same(getattr(state, field), getattr(expected_state, field)), field


@st.composite
def dsn_stream(draw):
    """A randomly ordered segmentation of a contiguous byte range, with
    duplicates sprinkled in."""
    n_segments = draw(st.integers(min_value=1, max_value=40))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=1448),
            min_size=n_segments, max_size=n_segments,
        )
    )
    segments = []
    dsn = 0
    for size in sizes:
        segments.append((dsn, size))
        dsn += size
    order = draw(st.permutations(segments))
    duplicates = draw(st.lists(st.sampled_from(segments), max_size=10))
    return list(order) + duplicates, dsn


class TestReceiverProperties:
    @given(dsn_stream())
    @settings(max_examples=200)
    def test_any_arrival_order_reassembles_exactly(self, case):
        arrivals, total = case
        sim = Simulator()
        rx = MptcpReceiver(sim, recv_buffer_bytes=10_000_000)
        delivered = []
        rx.on_deliver = delivered.append
        for dsn, size in arrivals:
            rx.on_data(Packet(size=size + 60, payload=size, dsn=dsn))
        assert rx.expected_dsn == total
        assert sum(delivered) == total
        assert rx.buffered_bytes == 0
        assert all(d >= 0.0 for d in rx.ooo_delays)

    @given(dsn_stream())
    @settings(max_examples=100)
    def test_delivery_count_matches_unique_segments(self, case):
        arrivals, total = case
        sim = Simulator()
        rx = MptcpReceiver(sim)
        rx.on_data  # appease linters
        unique = len({dsn for dsn, _ in arrivals})
        for dsn, size in arrivals:
            rx.on_data(Packet(size=size + 60, payload=size, dsn=dsn))
        assert len(rx.ooo_delays) == unique
        assert rx.duplicate_packets == len(arrivals) - unique


class TestLinkProperties:
    @given(
        st.lists(st.integers(min_value=40, max_value=1508), min_size=1, max_size=60),
        st.integers(min_value=1500, max_value=50_000),
        st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=100)
    def test_conservation_under_arbitrary_traffic(self, sizes, queue_bytes, loss):
        sim = Simulator()
        link = Link(
            sim, 1e6, 0.005, queue_bytes,
            loss_rate=loss, rng=random.Random(0),
        )
        delivered = []
        for size in sizes:
            link.send(Packet(size=size), lambda p: delivered.append(p.size))
        sim.run()
        stats = link.stats
        assert stats.packets_in == len(sizes)
        assert stats.packets_delivered + stats.packets_dropped == len(sizes)
        assert len(delivered) == stats.packets_delivered

    @given(st.lists(st.integers(min_value=40, max_value=1508), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_fifo_order_preserved(self, sizes):
        sim = Simulator()
        link = Link(sim, 1e6, 0.01, 10_000_000)
        order = []
        for index, size in enumerate(sizes):
            link.send(Packet(size=size, seq=index), lambda p: order.append(p.seq))
        sim.run()
        assert order == sorted(order)


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100))
    def test_events_execute_in_nondecreasing_time(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


def assert_ledger_partitions(conn):
    """Each byte of [conn_una, total_written) is in exactly one ledger
    range, and the queued ranges are exactly the live queue."""
    ranges = sorted(
        [(dsn, dsn + entry[0]) for dsn, entry in conn.assigned.items()]
        + [(start, end) for start, end in conn.unassigned_runs]
    )
    position = conn.conn_una
    for start, end in ranges:
        assert start == position < end, (ranges, conn.conn_una)
        position = end
    assert position == conn.total_written
    assert conn.unassigned_bytes == sum(end - start for start, end in conn.unassigned_runs)
    queued = [dsn for dsn in conn.reinject_queue if dsn >= conn.conn_una]
    flagged = [dsn for dsn, entry in conn.assigned.items() if entry[2] is not None]
    assert sorted(queued) == sorted(flagged)


@st.composite
def ledger_worlds(draw):
    """1-3 paths with 0-5 % loss, an optional outage, a few writes."""
    paths = draw(st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=20.0),  # Mbps
            st.floats(min_value=0.002, max_value=0.05),  # one-way delay, s
            st.floats(min_value=0.0, max_value=0.05),  # loss rate
        ),
        min_size=1, max_size=3,
    ))
    outage = draw(st.one_of(st.none(), st.tuples(
        st.integers(min_value=0, max_value=len(paths) - 1),
        st.floats(min_value=0.01, max_value=0.5),  # down at, s
        st.floats(min_value=0.1, max_value=2.0),  # for, s
    )))
    writes = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.5), st.integers(1, 150_000)),
        min_size=1, max_size=4,
    ))
    return paths, outage, writes, draw(st.integers(0, 2**16))


class TestLedgerProperties:
    """The DSN ledger on worlds nobody hand-wrote: at every checkpoint it
    partitions [conn_una, total_written); at the end every written byte
    has been delivered once, in order."""

    @pytest.mark.parametrize("scheduler", [MinRttScheduler, MidpointScheduler])
    @given(world=ledger_worlds())
    @settings(max_examples=25, deadline=None)
    def test_ledger_partitions_and_delivery_is_exact(self, scheduler, world):
        paths, outage, writes, seed = world
        sim = Simulator()
        rng = random.Random(seed)
        links = []
        for index, (mbps, delay, loss) in enumerate(paths):
            forward = Link(sim, mbps * 1e6, delay, 300_000, loss_rate=loss, rng=rng)
            links.append(Path(f"p{index}", forward, Link(sim, mbps * 1e6, delay, 300_000)))
        conn = MptcpConnection(sim, links, scheduler())
        chunks = []
        conn.set_deliver_callback(chunks.append)
        for at, size in writes:
            sim.schedule(at, conn.write, size)
        if outage is not None:
            index, down_at, duration = outage
            sim.schedule(down_at, links[index].forward.set_down)
            sim.schedule(down_at + duration, links[index].forward.set_down, False)
        while sim.run(until=600.0, max_events=50):
            assert_ledger_partitions(conn)
        total = sum(size for _, size in writes)
        assert conn.total_written == total
        assert sum(chunks) == conn.delivered_bytes == conn.receiver.expected_dsn == total
        assert conn.conn_una == total and not conn.assigned and not conn.unassigned_runs
