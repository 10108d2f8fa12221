"""Unit tests for signal traces and trace sets."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.errors import TraceMismatchError
from repro.simulation.traces import SignalTrace, TraceSet


def naive_first_divergence(a: SignalTrace, b: SignalTrace) -> int | None:
    """The obvious per-element scan the byte bisection must match."""
    for index in range(len(a)):
        if a.samples[index] != b.samples[index]:
            return index
    return None


class TestSignalTrace:
    def test_append_and_index(self):
        trace = SignalTrace("s")
        trace.append(1)
        trace.append(2)
        assert len(trace) == 2
        assert trace[1] == 2

    def test_first_divergence_none_when_equal(self):
        a = SignalTrace("s", [1, 2, 3])
        b = SignalTrace("s", [1, 2, 3])
        assert a.first_divergence(b) is None
        assert not a.differs_from(b)

    def test_first_divergence_index(self):
        a = SignalTrace("s", [1, 2, 3, 4])
        b = SignalTrace("s", [1, 2, 9, 9])
        assert a.first_divergence(b) == 2
        assert a.differs_from(b)

    def test_divergence_at_first_sample(self):
        a = SignalTrace("s", [5])
        b = SignalTrace("s", [6])
        assert a.first_divergence(b) == 0

    def test_signal_mismatch_rejected(self):
        with pytest.raises(TraceMismatchError):
            SignalTrace("a", [1]).first_divergence(SignalTrace("b", [1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceMismatchError):
            SignalTrace("s", [1]).first_divergence(SignalTrace("s", [1, 2]))

    def test_values_between(self):
        trace = SignalTrace("s", list(range(10)))
        assert list(trace.values_between(3, 6)) == [3, 4, 5]


class TestChunkedDivergenceScan:
    """The byte-bisection scan is pinned to the naive per-element scan.

    The flip positions straddle 4096-sample boundaries, where an earlier
    chunked scan split its work, and odd bisection midpoints.
    """

    @pytest.mark.parametrize(
        "flip_at", [0, 1, 4095, 4096, 4097, 8191, 8209]
    )
    def test_single_flip_positions(self, flip_at):
        length = 8292
        reference = SignalTrace("s", array("q", [7] * length))
        samples = array("q", [7] * length)
        samples[flip_at] ^= 1
        trace = SignalTrace("s", samples)
        assert trace.first_divergence(reference) == flip_at
        assert naive_first_divergence(trace, reference) == flip_at

    def test_equal_beyond_one_chunk(self):
        length = 3 * 4096 + 5
        reference = SignalTrace("s", array("q", range(length)))
        trace = SignalTrace("s", array("q", range(length)))
        assert trace.first_divergence(reference) is None
        assert naive_first_divergence(trace, reference) is None

    def test_reports_first_of_many_divergences(self):
        samples = array("q", [0] * 4146)
        samples[4093] = 1
        samples[4116] = 2
        trace = SignalTrace("s", samples)
        reference = SignalTrace("s", array("q", [0] * len(samples)))
        assert trace.first_divergence(reference) == 4093

    def test_high_byte_difference_maps_to_its_sample(self):
        """A difference in a sample's last byte is not blamed on the next."""
        reference = SignalTrace("s", array("q", [0] * 9))
        trace = SignalTrace("s", array("q", [0] * 4 + [-(2**63)] + [0] * 4))
        assert trace.first_divergence(reference) == 4

    def test_negative_values_compare_correctly(self):
        """Byte-level comparison must agree with value-level comparison."""
        reference = SignalTrace("s", array("q", [-1, -2, 3]))
        trace = SignalTrace("s", array("q", [-1, -2, -3]))
        assert trace.first_divergence(reference) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=300
        ),
        flips=st.lists(st.integers(0, 10_000), max_size=4),
    )
    def test_property_matches_naive_scan(self, samples, flips):
        reference = SignalTrace("s", array("q", samples))
        mutated = array("q", samples)
        for flip in flips:
            index = flip % len(mutated)
            # XOR in the unsigned domain, then re-sign to stay in 'q'.
            flipped = (mutated[index] ^ (1 << (flip % 64))) & (2**64 - 1)
            mutated[index] = flipped - 2**64 if flipped >= 2**63 else flipped
        trace = SignalTrace("s", mutated)
        assert trace.first_divergence(reference) == naive_first_divergence(
            trace, reference
        )

    def test_shared_memory_backed_reference(self):
        """A reference read zero-copy from a read-only shared buffer."""
        flat = array("q", range(5000))
        flat.extend([3] * 5000)
        view = memoryview(flat.tobytes()).cast("q")
        assert view.readonly
        reference = {"a": SignalTrace("a", view[:5000]),
                     "b": SignalTrace("b", view[5000:])}
        assert all(trace.samples.obj is view.obj for trace in reference.values())
        samples = array("q", range(5000))
        samples[4321] = -1
        assert SignalTrace("a", samples).first_divergence(
            reference["a"]
        ) == 4321
        assert SignalTrace("b", [3] * 5000).first_divergence(
            reference["b"]
        ) is None
        with pytest.raises((BufferError, TypeError, AttributeError)):
            reference["a"].append(5)

    def test_memoryview_backed_trace_compares(self):
        """View-backed traces (batched lane rows) use the same scan."""
        backing = array("q", [1, 2, 3, 4])
        view = memoryview(backing)
        trace = SignalTrace("s", view)
        assert trace.samples is view  # zero-copy, not re-packed
        reference = SignalTrace("s", array("q", [1, 2, 9, 4]))
        assert trace.first_divergence(reference) == 2
        with pytest.raises((BufferError, TypeError, AttributeError)):
            trace.append(5)


class TestTraceSet:
    def make(self) -> TraceSet:
        return TraceSet(
            [SignalTrace("a", [1, 2, 3]), SignalTrace("b", [4, 5, 6])]
        )

    def test_membership_and_lookup(self):
        traces = self.make()
        assert "a" in traces
        assert "ghost" not in traces
        assert traces["b"][0] == 4

    def test_missing_lookup_raises(self):
        with pytest.raises(TraceMismatchError):
            self.make()["ghost"]

    def test_duplicate_rejected(self):
        traces = self.make()
        with pytest.raises(TraceMismatchError):
            traces.add(SignalTrace("a", []))

    def test_signals_and_len(self):
        traces = self.make()
        assert traces.signals == ("a", "b")
        assert len(traces) == 2

    def test_duration(self):
        assert self.make().duration_ms == 3
        assert TraceSet().duration_ms == 0

    def test_check_rectangular(self):
        traces = self.make()
        traces.check_rectangular()
        traces.add(SignalTrace("c", [1]))
        with pytest.raises(TraceMismatchError):
            traces.check_rectangular()

    def test_first_divergences(self):
        reference = self.make()
        other = TraceSet(
            [SignalTrace("a", [1, 2, 3]), SignalTrace("b", [4, 9, 6])]
        )
        divergences = other.first_divergences(reference)
        assert divergences == {"a": None, "b": 1}

    def test_first_divergences_signal_mismatch(self):
        reference = self.make()
        other = TraceSet([SignalTrace("a", [1, 2, 3])])
        with pytest.raises(TraceMismatchError):
            other.first_divergences(reference)

    def test_to_mapping_copies(self):
        traces = self.make()
        mapping = traces.to_mapping()
        mapping["a"].append(99)
        assert len(traces["a"]) == 3

    def test_iteration(self):
        assert [trace.signal for trace in self.make()] == ["a", "b"]
