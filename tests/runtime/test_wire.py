"""Property tests for the cluster wire protocol.

The codecs are pure functions over dicts, so their tests run without a
socket; the framing tests read through :func:`recv_frame` over a
``socket.socketpair()``, the reader the cluster uses.  Frames
round-trip or raise :class:`FrameError` — they never silently truncate
— and a :class:`RunSpec` that crosses the wire is *equal* to the one
that was sent, off-schema fields included.  That identity is the
foundation of the serial ≡ pool ≡ cluster guarantee.
"""

import json
import socket
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.spec import RunSpec, execute_run
from repro.runtime.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameError,
    decode_key,
    encode_frame,
    encode_key,
    encode_task,
    execute_task,
    outcome_from_wire,
    outcome_to_wire,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.corpus import list_corpus
from repro.service.registry import BLOCK_KINDS, SpiceDeck

# JSON-plain payloads (what frames carry).
json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)

# Hashable spec-key trees (strings/numbers/None and tuples thereof).
key_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=8,
)

# SPICE-deck circuits: the bundled corpus decks, and inline decks with
# arbitrary text, names, nets and JSON-plain suite parameters.
net_names = st.lists(st.text(max_size=6), max_size=3).map(tuple)
decks = st.sampled_from([entry.deck() for entry in list_corpus()]) | st.builds(
    SpiceDeck,
    text=st.text(),
    kind=st.sampled_from(BLOCK_KINDS),
    name=st.text(max_size=12),
    canvas=st.none() | st.tuples(st.integers(1, 64), st.integers(1, 64)),
    params=st.dictionaries(st.text(max_size=8), json_values, max_size=4),
    input_nets=net_names,
    output_nets=net_names,
)


# Request-shaped RunSpecs over both circuit forms, including every
# off-schema extra the wire form must carry verbatim (initial_tables is
# exercised separately — table snapshots do not define ``==``).
@st.composite
def specs(draw):
    placer = draw(st.sampled_from(["ql", "sa"]))
    builder = draw(
        st.sampled_from(["cm", "comp", "ota", "ota2s", "ota5t"]) | decks
    )
    return RunSpec(
        key=draw(key_values),
        builder=builder,
        placer=placer,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        max_steps=draw(st.integers(min_value=1, max_value=10_000)),
        builder_kwargs=() if isinstance(builder, SpiceDeck) else draw(
            st.sampled_from([(), (("units_per_device", 2),),
                             (("units_per_device", 3),)])
        ),
        target=draw(st.none() | st.floats(min_value=0.0, max_value=1e6,
                                          allow_nan=False)),
        target_from_symmetric=draw(st.booleans()),
        share_target_evaluator=draw(st.booleans()),
        batch=draw(st.integers(min_value=1, max_value=8)),
        epsilon_decay_frac=draw(st.floats(min_value=0.1, max_value=1.0,
                                          allow_nan=False)),
        variation_kind=draw(st.sampled_from([None, "mc"])),
        variation_with_lde=draw(st.booleans()),
        evaluate_best=draw(st.booleans()),
        stop_at_target=draw(st.booleans()),
        # SA has no tables to ship; the constructor enforces it.
        return_tables=draw(st.booleans()) if placer == "ql" else False,
    )


@contextmanager
def stream(data: bytes):
    """A socket that reads ``data`` and then a clean EOF.

    A thread writes the bytes: a payload larger than the socket buffer
    would block ``sendall`` until the reader drains it.
    """
    writer, reader = socket.socketpair()

    def feed():
        try:
            writer.sendall(data)
            writer.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the reader closed early; the test reports why

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        yield reader
    finally:
        reader.close()
        thread.join(timeout=10)
        writer.close()
    assert not thread.is_alive()


class TestFraming:
    @given(json_values)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, payload):
        with stream(encode_frame(payload)) as sock:
            assert recv_frame(sock) == payload
            assert recv_frame(sock) is None

    @given(json_values, st.data())
    @settings(max_examples=60, deadline=None)
    def test_torn_frame_rejected(self, payload, data):
        frame = encode_frame(payload)
        # An empty stream is a clean EOF, not a torn frame.
        cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
        with stream(frame[:cut]) as sock:
            with pytest.raises(FrameError, match="mid-frame|between"):
                recv_frame(sock)

    @given(json_values)
    @settings(max_examples=30, deadline=None)
    def test_trailing_bytes_rejected(self, payload):
        # A stray byte after a frame starts a next frame that never ends.
        with stream(encode_frame(payload) + b"x") as sock:
            assert recv_frame(sock) == payload
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(sock)

    def test_oversized_body_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.wire.MAX_FRAME_BYTES", 16)
        with pytest.raises(FrameError, match="limit"):
            encode_frame({"pad": "x" * 64})

    def test_non_json_body_rejected(self):
        body = b"\xff\xfe not json"
        frame = len(body).to_bytes(HEADER_BYTES, "big") + body
        with stream(frame) as sock:
            with pytest.raises(FrameError, match="JSON"):
                recv_frame(sock)


class TestStreamFraming:
    def test_socket_round_trip_and_clean_eof(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"n": 1})
            send_frame(a, [1, 2, 3])
            a.close()
            assert recv_frame(b) == {"n": 1}
            assert recv_frame(b) == [1, 2, 3]
            assert recv_frame(b) is None  # clean EOF between frames

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        with a, b:
            frame = encode_frame({"big": "x" * 100})
            a.sendall(frame[: len(frame) // 2])
            a.close()
            with pytest.raises(FrameError, match="mid-frame|between"):
                recv_frame(b)

    def test_oversized_declaration_raises_before_alloc(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(HEADER_BYTES, "big"))
            with pytest.raises(FrameError, match="limit"):
                recv_frame(b)


class TestKeyCodec:
    @given(key_values)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity(self, key):
        encoded = encode_key(key)
        json.dumps(encoded)  # must be JSON-plain
        assert decode_key(encoded) == key

    @given(key_values.filter(lambda k: isinstance(k, tuple)))
    @settings(max_examples=30, deadline=None)
    def test_tuples_stay_tuples(self, key):
        decoded = decode_key(json.loads(json.dumps(encode_key(key))))
        assert decoded == key
        assert isinstance(decoded, tuple)

    def test_unsupported_key_rejected(self):
        with pytest.raises(FrameError, match="no wire form"):
            encode_key(object())


class TestSpecCodec:
    @given(specs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, spec):
        payload = spec_to_wire(spec)
        json.dumps(payload)  # must survive an actual JSON hop
        restored = spec_from_wire(json.loads(json.dumps(payload)))
        assert restored == spec

    def test_initial_tables_round_trip(self):
        trained = execute_run(RunSpec(
            key="t", builder="cm", placer="ql", seed=1, max_steps=15,
            evaluate_best=False, return_tables=True))
        spec = RunSpec(key="w", builder="cm", placer="ql", seed=2,
                       max_steps=5, evaluate_best=False,
                       initial_tables=trained.tables)
        restored = spec_from_wire(
            json.loads(json.dumps(spec_to_wire(spec))))
        from repro.core.persistence import tables_to_payload
        assert (tables_to_payload(restored.initial_tables)
                == tables_to_payload(trained.tables))


class TestOutcomeAndTaskCodecs:
    def test_outcome_bit_identical_through_json(self):
        spec = RunSpec(key=("QL", 3), builder="cm", placer="ql", seed=7,
                       max_steps=25, target_from_symmetric=True)
        outcome = execute_run(spec)
        payload = json.loads(json.dumps(outcome_to_wire(outcome)))
        restored = outcome_from_wire(payload)
        assert restored.key == outcome.key
        assert restored.result.best_cost == outcome.result.best_cost
        assert restored.result.history == outcome.result.history
        assert restored.target == outcome.target
        # The decisive check: re-encoding is byte-identical.
        assert (json.dumps(outcome_to_wire(restored), sort_keys=True)
                == json.dumps(outcome_to_wire(outcome), sort_keys=True))

    def test_spec_task_executes_identically(self):
        spec = RunSpec(key=("QL", 1), builder="cm", placer="ql", seed=3,
                       max_steps=20, target_from_symmetric=True)
        local = execute_run(spec)
        task = encode_task(execute_run, spec)
        assert task["codec"] == "spec"
        result = execute_task(json.loads(json.dumps(task)))
        assert result["status"] == "ok"
        remote = outcome_from_wire(result["value"])
        assert (json.dumps(outcome_to_wire(remote), sort_keys=True)
                == json.dumps(outcome_to_wire(local), sort_keys=True))

    def test_task_error_settles_not_raises(self):
        # The library builder refuses the keyword inside the worker.
        spec = RunSpec(key=1, builder="cm", builder_kwargs=(("boom", 1),))
        result = execute_task(encode_task(execute_run, spec))
        assert result["status"] == "error"
        assert result["error_type"] == "TypeError"
        assert "boom" in result["error"]

    def test_lambda_refused(self):
        """Only execute_run over specs (and the attempt runner over
        envelopes) encode; any other work is refused before sending."""
        spec = RunSpec(key=1, builder="cm")
        for fn, item in ((lambda x: x, spec), (json.dumps, spec),
                         (execute_run, "cm")):
            with pytest.raises(TypeError, match="cluster workers run only"):
                encode_task(fn, item)

    def test_unknown_codec_runs_nothing(self):
        result = execute_task({"codec": "pickle",
                               "task": {"fn": "os:system", "item": "eA=="}})
        assert result["status"] == "error"
        assert "unknown task codec" in result["error"]
