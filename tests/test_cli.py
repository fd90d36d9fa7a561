"""CLI tests — every subcommand exercised through main()."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestStyles:
    def test_styles_cm(self, capsys):
        assert main(["styles", "--circuit", "cm"]) == 0
        out = capsys.readouterr().out
        assert "common_centroid" in out
        assert "mismatch_pct" in out

    def test_styles_default_circuit(self, capsys):
        assert main(["styles"]) == 0
        assert "sequential" in capsys.readouterr().out


class TestSpice:
    def test_spice_deck_printed(self, capsys):
        assert main(["spice", "--circuit", "ota5t"]) == 0
        out = capsys.readouterr().out
        assert ".model nmos40" in out
        assert out.rstrip().endswith(".end")

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            main(["spice", "--circuit", "dac"])


class TestPlace:
    def test_place_quick_run(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code = main(["place", "--circuit", "ota5t", "--steps", "60",
                     "--seed", "1", "--svg", str(svg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "target" in out
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_place_jobs_flag_accepted(self, capsys):
        code = main(["place", "--circuit", "ota5t", "--steps", "30",
                     "--seed", "1", "--jobs", "2"])
        assert code == 0
        assert "target" in capsys.readouterr().out


class TestFig3:
    def test_fig3_positional_circuit_with_jobs(self, capsys):
        code = main(["fig3", "cm", "--scale", "0.1", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q-learning" in out
        assert "claims:" in out

    def test_fig3_flag_and_positional_agree(self, capsys):
        assert main(["fig3", "--circuit", "cm", "--scale", "0.05"]) == 0
        flagged = capsys.readouterr().out
        assert main(["fig3", "cm", "--scale", "0.05"]) == 0
        positional = capsys.readouterr().out
        assert flagged == positional


class TestAblation:
    def test_linearity_via_cli(self, capsys):
        code = main(["ablation", "linearity", "--circuit", "ota5t",
                     "--steps", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nonlinear" in out

    def test_hierarchy_via_cli(self, capsys):
        code = main(["ablation", "hierarchy", "--circuit", "ota5t",
                     "--steps", "80"])
        assert code == 0
        assert "multi-level" in capsys.readouterr().out

    def test_jobs_flag_fans_out(self, capsys):
        code = main(["ablation", "hierarchy", "--circuit", "ota5t",
                     "--steps", "40", "--jobs", "2"])
        assert code == 0
        assert "multi-level" in capsys.readouterr().out

    def test_requires_which(self):
        with pytest.raises(SystemExit):
            main(["ablation"])


class TestFig3:
    def test_fig3_scaled_down(self, capsys):
        # 5 % of the committed budget: seconds, still exercises the whole
        # three-way comparison path end to end.
        code = main(["fig3", "--circuit", "cm", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q-learning" in out
        assert "Symmetric (SOTA)" in out
        assert "claims:" in out

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--circuit", "cm", "--scale", "0"])
        assert exc.value.code == 2


class TestTrain:
    def test_train_quick_campaign(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        svg = tmp_path / "best.svg"
        code = main(["train", "ota5t", "--workers", "2", "--rounds", "2",
                     "--steps", "25", "--run-to-budget",
                     "--checkpoint-dir", str(ckpt), "--svg", str(svg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "island campaign" in out
        assert "2 workers x 2/2 rounds" in out
        assert "merged +new/~upd/=kept" in out
        assert len(list(ckpt.glob("round_*.json"))) == 2
        assert svg.read_text().startswith("<svg")

    def test_train_jobs_flag_accepted(self, capsys):
        code = main(["train", "ota5t", "--workers", "2", "--rounds", "1",
                     "--steps", "20", "--jobs", "2"])
        assert code == 0
        assert "island campaign" in capsys.readouterr().out

    def test_train_merge_how_validated(self):
        with pytest.raises(SystemExit):
            main(["train", "ota5t", "--merge-how", "average"])

    def test_train_requires_circuit(self):
        with pytest.raises(SystemExit):
            main(["train"])

    def test_train_rejects_bad_workers(self):
        with pytest.raises(SystemExit, match="workers"):
            main(["train", "ota5t", "--workers", "0"])


class TestProfile:
    def test_profile_default_engine(self, capsys):
        assert main(["profile", "ota5t", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        for stage in ("context", "parasitics", "dc", "ac", "measures"):
            assert stage in out

    def test_profile_requires_circuit(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_profile_rejects_bad_repeats(self):
        with pytest.raises(SystemExit, match="repeats"):
            main(["profile", "cm", "--repeats", "0"])

    def test_profile_reports_scalar_factorizations(self, capsys):
        assert main(["profile", "ota5t", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "factor/reuse" in l)
        factors = int(line.split()[2].split("/")[0])
        assert factors > 0

    @pytest.mark.parametrize("circuit", ["comp", "ota5t"])
    def test_profile_stages_time_what_evaluations_run(
        self, circuit, monkeypatch, capsys
    ):
        # No evaluation annotates a circuit, so no stage row may; and the
        # parasitics row prices a fresh placement on every repeat, so each
        # extra repeat computes its HPWLs exactly once more (every other
        # row reads placements whose HPWLs are already memoised).
        from repro import cli
        from repro.route import estimator, parasitics

        def refuse(*args, **kwargs):
            raise AssertionError("annotate_parasitics called")

        monkeypatch.setattr(parasitics, "annotate_parasitics", refuse)
        monkeypatch.setattr(cli, "annotate_parasitics", refuse, raising=False)
        calls = [0]
        hpwls = estimator.NetPinPlan.hpwls

        def counted(self, *args):
            calls[0] += 1
            return hpwls(self, *args)

        monkeypatch.setattr(estimator.NetPinPlan, "hpwls", counted)
        counts = []
        for repeats in (2, 3):
            calls[0] = 0
            assert main(["profile", circuit, "--repeats", str(repeats),
                         "--batch", "2"]) == 0
            counts.append(calls[0])
        assert counts[1] - counts[0] == 1
        rows = [line.split()[0] for line in capsys.readouterr().out
                .splitlines()[1:4]]
        assert rows == ["contexts+deltas", "parasitics", "dc"]

    @pytest.mark.parametrize("circuit", ["comp", "ota2s"])
    def test_profile_full_suite_repeats_simulate(
        self, circuit, monkeypatch, capsys
    ):
        # Each timed full-suite repeat must solve, not read a stored
        # result: it runs Newton, and an OTA evaluates its MOSFET bank
        # once more to linearize at the operating point for AC.  Bank
        # evaluations are counted in devices: a stacked kernel call
        # evaluates the bank once per row.
        from repro.service.registry import BUILDERS
        from repro.eval.evaluator import PlacementEvaluator
        from repro.layout.generators import banded_placement
        from repro.sim import compiled, solver_stats

        block = BUILDERS[circuit]()
        n_mos = len(block.circuit.mosfets())
        profiled = banded_placement(block, "ysym").signature()
        bank_evals = [0]
        original_kernel = compiled.terminal_currents_array

        def kernel(arrays, v):
            bank_evals[0] += v.shape[-1] // n_mos
            return original_kernel(arrays, v)

        counts = []
        original = PlacementEvaluator.evaluate

        def evaluate(self, placement):
            newton = solver_stats().newton_iterations
            evals = bank_evals[0]
            metrics = original(self, placement)
            if placement.signature() == profiled:
                counts.append((solver_stats().newton_iterations - newton,
                               bank_evals[0] - evals))
            return metrics

        monkeypatch.setattr(compiled, "terminal_currents_array", kernel)
        monkeypatch.setattr(PlacementEvaluator, "evaluate", evaluate)
        assert main(["profile", circuit, "--repeats", "3", "--batch", "2"]) == 0
        assert len(counts) >= 3
        ac_linearizations = 1 if circuit == "ota2s" else 0
        for newton, evals in counts:
            assert newton >= 1
            assert evals == newton + ac_linearizations


#: Stacks a cold ``repro place`` never needs: they load only in the
#: commands that use them.
UNUSED_ON_IMPORT = (
    "scipy", "networkx", "repro.experiments", "repro.runtime.cluster",
    "repro.service.http", "repro.zoo",
)

#: Modules a builtin-circuit ``repro place`` at batch 1 never runs: deck
#: ingestion, the SVG writer, simulated annealing, the policy-file codec,
#: the placement-batched solvers and suites, the retry and fault layers,
#: the async job manager and its journal, and the process pool.
UNUSED_BY_PLACE = (
    "repro.netlist.constraints", "repro.netlist.spice",
    "repro.netlist.hierarchy", "repro.layout.svg", "repro.core.annealing",
    "repro.core.persistence", "repro.sim.batch", "repro.eval.batch_suites",
    "repro.runtime.resilience", "repro.runtime.faults",
    "repro.service.jobs", "repro.service.journal",
    "concurrent.futures.process", "multiprocessing",
)


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": src}


def test_cli_import_does_not_load_scipy():
    code = (
        "import sys, repro.cli; "
        f"print([m for m in {UNUSED_ON_IMPORT + UNUSED_BY_PLACE!r} "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_src_env(), check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_place_loads_only_what_it_runs():
    code = (
        "import contextlib, io, sys; from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['place', '--circuit', 'cm', '--steps', '20'])\n"
        f"print([m for m in {UNUSED_BY_PLACE!r} "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_src_env(), check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_place_runs_without_networkx():
    # ``sys.modules[name] = None`` makes any ``import networkx`` fail.
    code = (
        "import sys; sys.modules['networkx'] = None; "
        "from repro.cli import main; "
        "sys.exit(main(['place', '--circuit', 'cm', '--steps', '20']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_src_env(), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "reached after" in out.stdout


def test_place_never_loads_the_reference_assembler():
    # ``sys.modules[name] = None`` makes any ``import repro.sim.mna`` fail:
    # placement runs on the compiled engine alone.
    code = (
        "import sys; sys.modules['repro.sim.mna'] = None; "
        "from repro.cli import main; "
        "sys.exit(main(['place', '--circuit', 'cm', '--steps', '20']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_src_env(), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "reached after" in out.stdout


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["fig3", "cm", "--scale", "0"],
        ["fig3", "cm", "--scale", "-1"],
        ["ablation", "hierarchy", "--steps", "0"],
        ["zoo", "match", "--max-sources", "0"],
        ["zoo", "train-all", "--workers", "0"],
        ["zoo", "train-all", "--rounds", "0"],
        ["zoo", "train-all", "--steps", "0"],
        ["place", "--batch", "0"],
    ], ids=" ".join)
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {argv[-2]}: must be" in err

    def test_parser_reads_the_corpus_once(self, monkeypatch):
        from repro import cli
        from repro.service import corpus

        calls = []
        real = corpus.list_corpus

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(corpus, "list_corpus", counting)
        parser = cli._build_parser()
        assert len(calls) == 1
        # ``place`` and ``train`` share the one list of choices.
        args = parser.parse_args(["train", "mirror_tree"])
        assert args.circuit == "mirror_tree"


class TestTrainServiceFlags:
    def test_train_visits_merge_scale_and_policy_store(self, capsys, tmp_path):
        code = main([
            "train", "ota5t", "--workers", "2", "--rounds", "1",
            "--steps", "15", "--merge-how", "visits",
            "--target-scale", "0.9", "--run-to-budget",
            "--save-policy", "ota5t-cli", "--policy-dir", str(tmp_path),
            "--prune-min-visits", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "merge=visits" in out
        assert "stored policy ota5t-cli@1" in out
        assert (tmp_path / "ota5t-cli" / "v0001.json").exists()

    def test_place_warm_policy_round_trip(self, capsys, tmp_path):
        assert main([
            "train", "ota5t", "--workers", "2", "--rounds", "1",
            "--steps", "15", "--run-to-budget",
            "--save-policy", "warm", "--policy-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "place", "--circuit", "ota5t", "--steps", "20",
            "--warm-policy", "warm", "--policy-dir", str(tmp_path),
        ]) == 0
        assert "target" in capsys.readouterr().out

    def test_place_missing_policy_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no stored policy"):
            main(["place", "--circuit", "ota5t", "--steps", "10",
                  "--warm-policy", "ghost", "--policy-dir", str(tmp_path)])
