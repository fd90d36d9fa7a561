"""Primitive signatures: rename-stable, serializable, visit-aware."""

import pytest

from repro.core.qlearning import QTable
from repro.service import default_registry
from repro.service.corpus import build_entry, list_corpus
from repro.zoo import (
    GroupSignature,
    block_signatures,
    circuit_signature,
    signature_meta,
)

CORPUS = {entry.name: entry for entry in list_corpus()}


def _corpus_block(name):
    return build_entry(CORPUS[name])


class TestGroupSignature:
    def test_key_roundtrip(self):
        sig = GroupSignature(kind="diff_pair", members=((1, 3), (1, 3)),
                             internal_pairs=1)
        assert sig.key() == "diff_pair|+1x3,+1x3|p1"
        assert GroupSignature.from_key(sig.key()) == sig

    def test_key_roundtrip_pmos(self):
        sig = GroupSignature(kind="current_mirror",
                             members=((-1, 2), (-1, 4)), internal_pairs=0)
        assert GroupSignature.from_key(sig.key()) == sig

    def test_bad_keys_rejected(self):
        for bad in ("", "diff_pair", "diff_pair|+1x3", "diff_pair|+1x3|q1",
                    "diff_pair|+1xx3|p1"):
            with pytest.raises(ValueError):
                GroupSignature.from_key(bad)

    def test_coarse_drops_unit_counts_keeps_polarity(self):
        a = GroupSignature("diff_pair", ((1, 3), (1, 3)), 1)
        b = GroupSignature("diff_pair", ((1, 5), (1, 5)), 1)
        c = GroupSignature("diff_pair", ((-1, 3), (-1, 3)), 1)
        assert a.coarse_key() == b.coarse_key() == "diff_pair|+1,+1"
        assert a.coarse_key() != c.coarse_key()


class TestBlockSignatures:
    def test_members_sorted_and_named_by_group(self):
        block = default_registry().build("ota5t")
        sigs = block_signatures(block)
        assert set(sigs) == {g.name for g in block.groups}
        for sig in sigs.values():
            assert sig.members == tuple(sorted(sig.members))

    def test_rename_stability_across_decks(self):
        """The whole point: identical primitives in different decks (with
        different device and group names) produce equal signatures."""
        wide = block_signatures(_corpus_block("mirror_wide"))
        degen = block_signatures(_corpus_block("mirror_degen"))
        # mirror_degen is mirror_wide's nmirror with degeneration
        # resistors under every leg — same 4-member matched nmos mirror.
        assert degen["cm0"].key() in {sig.key() for sig in wide.values()}

    def test_internal_pairs_distinguish_matched_from_ratioed(self):
        ratioed = block_signatures(_corpus_block("bias_ratioed"))
        wide = block_signatures(_corpus_block("mirror_wide"))
        ratioed_keys = {sig.key() for sig in ratioed.values()}
        wide_keys = {sig.key() for sig in wide.values()}
        assert not ratioed_keys & wide_keys

    def test_circuit_signature_is_sorted_multiset(self):
        block = _corpus_block("mirror_wide")
        sig = circuit_signature(block)
        parts = sig.split(";")
        assert parts == sorted(parts)
        assert set(parts) == {
            s.key() for s in block_signatures(block).values()
        }


class TestSignatureMeta:
    def test_meta_without_tables(self):
        block = default_registry().build("cm")
        meta = signature_meta(block)
        assert meta["circuit_signature"] == circuit_signature(block)
        assert set(meta["groups"]) == {g.name for g in block.groups}
        assert "group_visits" not in meta

    def test_meta_with_tables_counts_visits(self):
        block = default_registry().build("cm")
        group = block.groups[0].name
        bottom, top = QTable(), QTable()
        bottom.set("s", 0, 1.0, visits=7)
        bottom.set("s", 1, 2.0, visits=3)
        top.set("g", 0, 0.5, visits=4)
        meta = signature_meta(block, {("top",): top,
                                      ("bottom", group): bottom})
        assert meta["group_visits"][group] == 10
        assert meta["top_visits"] == 4

    def test_meta_is_json_plain(self):
        import json

        block = _corpus_block("sf_resistive")
        meta = signature_meta(block, {})
        assert json.loads(json.dumps(meta)) == meta
