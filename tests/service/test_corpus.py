"""The bundled corpus: headers, bulk checking, registration, end-to-end.

The acceptance claim lives here: every bundled deck flows through
parse → hierarchy → extraction → validation with zero errors, and places
end-to-end through the service, the CLI and HTTP ``/place``.
"""

import json
import pickle
import urllib.request

import pytest

from repro.runtime.spec import RunSpec
from repro.service import PlacementRequest
from repro.service.corpus import (
    CorpusFormatError,
    build_entry,
    check_corpus,
    corpus_registry,
    list_corpus,
    load_entry,
)
from repro.service.http import make_server, server_thread
from repro.service.registry import default_registry
from repro.service.service import PlacementService

ENTRIES = list_corpus()
NAMES = [e.name for e in ENTRIES]


class TestHeaders:
    def test_bundled_corpus_has_at_least_eight_decks(self):
        assert len(ENTRIES) >= 8

    def test_entries_are_sorted_and_typed(self):
        assert NAMES == sorted(NAMES)
        assert {e.kind for e in ENTRIES} <= {"cm", "comp", "ota"}

    def test_every_deck_declares_labels_and_canvas(self):
        for e in ENTRIES:
            assert e.labels, e.name
            assert e.canvas is not None, e.name
            assert e.input_nets and e.output_nets, e.name

    def test_header_fields_parse(self, tmp_path):
        deck = tmp_path / "toy.sp"
        deck.write_text(
            "* toy\n"
            "*# kind: ota\n"
            "*# inputs: vip vin\n"
            "*# outputs: outp\n"
            "*# canvas: 4x5\n"
            '*# params: {"vdd": 1.1}\n'
            "*# groups: pair:m1,m2 tail:mt\n"
            "mm1 a vip t gnd nmos40 w=1e-06 l=2e-07 m=1\n"
        )
        entry = load_entry(deck)
        assert entry.kind == "ota"
        assert entry.canvas == (4, 5)
        assert entry.params == {"vdd": 1.1}
        assert entry.labels == (("pair", ("m1", "m2")), ("tail", ("mt",)))

    @pytest.mark.parametrize("line", [
        "*# canvas: 4by5",
        "*# params: {not json}",
        "*# groups: nocolon",
        "*# frobnicate: 3",
        "*# keyonly",
    ])
    def test_bad_header_lines_are_rejected(self, tmp_path, line):
        deck = tmp_path / "bad.sp"
        deck.write_text(f"* bad\n{line}\nmm1 a b c gnd nmos40 w=1e-06 l=1e-07 m=1\n")
        with pytest.raises(CorpusFormatError):
            load_entry(deck)


class TestCheck:
    def test_every_bundled_deck_is_clean(self):
        checks = check_corpus()
        assert checks, "bundled corpus is missing"
        for chk in checks:
            assert chk.ok, f"{chk.entry.name}: {chk.report.summary()} " \
                           f"{chk.build_error or ''}"
            assert chk.report.n_groups > 0

    def test_hand_labels_name_real_devices(self):
        for entry in ENTRIES:
            block = build_entry(entry)
            placeable = {d.name for d in block.circuit.placeable()}
            labelled = {d for _, devs in entry.labels for d in devs}
            assert labelled == placeable, entry.name


class TestRegistry:
    def test_corpus_registry_extends_but_never_mutates_default(self):
        registry = corpus_registry()
        assert set(default_registry().keys()) == {
            "cm", "comp", "ota", "ota5t", "ota2s"}
        assert set(NAMES) <= set(registry.keys())
        assert set(default_registry().keys()) <= set(registry.keys())

    def test_builders_are_picklable(self):
        """A registered deck is plain data: it survives a process-pool
        pickle and a JSON request hop, and builds the entry's block."""
        deck = corpus_registry()[NAMES[0]]
        assert deck == ENTRIES[0].deck()
        assert pickle.loads(pickle.dumps(deck)) == deck
        spec = RunSpec(key="x", builder=deck)
        hop = PlacementRequest.from_json_dict(
            json.loads(json.dumps(spec.to_request().to_json_dict())))
        assert RunSpec.from_request(hop).builder == deck
        assert deck.build().name == NAMES[0]

    def test_builder_reports_its_name(self):
        assert corpus_registry()["mirror_wide"].name == "mirror_wide"


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def service(self):
        service = PlacementService(registry=corpus_registry())
        yield service
        service.close()

    @pytest.mark.parametrize("name", NAMES)
    def test_every_deck_places_through_the_service(self, service, name):
        result = service.place(PlacementRequest(circuit=name, steps=6, seed=1))
        placement = result.placement_object()
        block = build_entry(next(e for e in ENTRIES if e.name == name))
        assert len(placement._cells) == block.circuit.total_units()
        assert result.sims_used > 0

    def test_http_place_accepts_corpus_circuits(self, tmp_path):
        service = PlacementService(registry=corpus_registry(),
                                   policies=tmp_path / "policies")
        server = make_server(service)
        server_thread(server)
        try:
            with urllib.request.urlopen(server.url + "/circuits") as resp:
                circuits = json.loads(resp.read())["circuits"]
            assert set(NAMES) <= set(circuits)
            request = urllib.request.Request(
                server.url + "/place?wait=1",
                data=json.dumps({"circuit": "mirror_cascode", "steps": 6,
                                 "seed": 1}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as resp:
                payload = json.loads(resp.read())
            assert payload["result"]["placement"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestCli:
    def test_corpus_check_exits_clean(self, capsys):
        from repro.cli import main

        assert main(["corpus", "check"]) == 0
        out = capsys.readouterr().out
        assert "deck(s) clean" in out

    def test_corpus_list_shows_every_deck(self, capsys):
        from repro.cli import main

        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for name in NAMES:
            assert name in out

    def test_corpus_import_registers_everything(self, capsys):
        from repro.cli import main

        assert main(["corpus", "import"]) == 0
        assert f"registered {len(NAMES)} corpus circuit(s)" \
            in capsys.readouterr().out

    def test_cli_place_accepts_a_corpus_circuit(self, capsys):
        from repro.cli import main

        assert main(["place", "--circuit", "mirror_wide", "--steps", "5"]) == 0
        assert "target" in capsys.readouterr().out
