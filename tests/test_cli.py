"""End-to-end command line runs: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import related_wordlist_rows, wordlist_text
import relate.lrt
from relate.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from relate.errors import NumericalUnderflowError
from relate.msa import CharacterMatrix


@pytest.fixture
def wordlist_path(tmp_path):
    rows = related_wordlist_rows(4, 12, seed=21, mutation=0.3)
    path = tmp_path / "words.tsv"
    path.write_text(wordlist_text(rows), encoding="utf-8")
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def rerun_and_read(argv, out_path):
    """Run the same command twice into the same path; return both texts
    with the timestamp line dropped."""
    texts = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        lines = out_path.read_text(encoding="utf-8").splitlines(keepends=True)
        texts.append("".join(l for l in lines if '"created_utc"' not in l))
    return texts


class TestLrtCommand:
    def test_end_to_end(self, tmp_path, wordlist_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["lrt", "--wordlist", wordlist_path, "--k", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        payload = read_json(out)
        assert payload["schema"] == "relate/lrt/1"
        assert payload["report"]["decision"] in ("RELATED", "NOT_SUPPORTED")
        assert len(payload["report"]["runs"]) == 2
        manifest = payload["manifest"]
        assert manifest["command"] == "lrt"
        assert manifest["seed"] == 42
        assert wordlist_path in manifest["inputs"]
        assert len(manifest["inputs"][wordlist_path]) == 64
        assert "created_utc" in manifest
        assert "threads" not in manifest["config"]
        stdout = capsys.readouterr().out
        assert payload["report"]["decision"] in stdout
        assert "p=" in stdout

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path, wordlist_path):
        out = tmp_path / "r.json"
        argv = ["lrt", "--wordlist", wordlist_path, "--k", "2", "--out", str(out)]
        one, two = rerun_and_read(argv, out)
        assert one == two

    def test_misordered_proportions_exit_1(self, tmp_path, wordlist_path, capsys):
        rc = main(["lrt", "--wordlist", wordlist_path, "--p0", "0.06",
                   "--pa", "0.01", "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_missing_wordlist_exits_1(self, tmp_path, capsys):
        rc = main(["lrt", "--wordlist", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_underflow_in_a_run_exits_2(self, tmp_path, wordlist_path, monkeypatch, capsys):
        def underflow(*args, **kwargs):
            raise NumericalUnderflowError("site 3 has zero likelihood")

        monkeypatch.setattr(relate.lrt, "ml_tree", underflow)
        rc = main(["lrt", "--wordlist", wordlist_path, "--k", "2",
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_NUMERIC
        assert "error: site 3 has zero likelihood" in capsys.readouterr().err


class TestPermtestCommand:
    def test_end_to_end_with_pairwise(self, tmp_path, wordlist_path, capsys):
        out = tmp_path / "p.json"
        pairwise = tmp_path / "pairs.tsv"
        rc = main(["permtest", "--wordlist", wordlist_path, "--n-perm", "50",
                   "--out", str(out), "--pairwise", str(pairwise)])
        assert rc == EXIT_OK
        payload = read_json(out)
        assert payload["schema"] == "relate/permtest/1"
        assert payload["result"]["verdict"] in ("RELATED", "NOT_SUPPORTED")
        assert len(payload["result"]["merges"]) == 3

        lines = pairwise.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# manifest: ")
        assert "created_utc" not in lines[0]
        assert lines[1] == "LANG_A\tLANG_B\tDIST\tS_HAT\tP"
        assert len(lines) == 2 + 6
        stdout = capsys.readouterr().out
        assert "root_p=" in stdout

    def test_pairwise_file_is_byte_identical_across_runs(
            self, tmp_path, wordlist_path):
        pairwise = tmp_path / "pairs.tsv"
        argv = ["permtest", "--wordlist", wordlist_path, "--n-perm", "30",
                "--out", str(tmp_path / "p.json"), "--pairwise", str(pairwise)]
        assert main(argv) == EXIT_OK
        first = pairwise.read_bytes()
        assert main(argv) == EXIT_OK
        assert pairwise.read_bytes() == first

    def test_unknown_metric_exits_1_with_usage(self, tmp_path, wordlist_path, capsys):
        rc = main(["permtest", "--wordlist", wordlist_path,
                   "--metric", "levenshtein", "--out", str(tmp_path / "p.json")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "usage" in err
        assert "levenshtein" in err

    def test_external_metric_requires_a_table(self, tmp_path, wordlist_path, capsys):
        rc = main(["permtest", "--wordlist", wordlist_path,
                   "--metric", "external", "--out", str(tmp_path / "p.json")])
        assert rc == EXIT_INPUT
        assert "external-table" in capsys.readouterr().err


class TestMltreeCommand:
    def test_fit_from_wordlist(self, tmp_path, wordlist_path, capsys):
        out = tmp_path / "fit.json"
        saved = tmp_path / "matrix.txt"
        rc = main(["mltree", "--wordlist", wordlist_path, "--p-inv", "0.05",
                   "--out", str(out), "--save-matrix", str(saved)])
        assert rc == EXIT_OK
        payload = read_json(out)
        assert payload["schema"] == "relate/mltree/1"
        fit = payload["fit"]
        assert fit["tree"].endswith(";")
        assert fit["model"]["p_inv"] == 0.05
        assert fit["log_likelihood"] < 0
        matrix = CharacterMatrix.from_alignment_text(
            saved.read_text(encoding="utf-8"))
        assert len(matrix.taxa) == 4
        assert "logL=" in capsys.readouterr().out

    def test_estimated_p_inv_lands_in_range(self, tmp_path, wordlist_path):
        out = tmp_path / "fit.json"
        rc = main(["mltree", "--wordlist", wordlist_path, "--out", str(out)])
        assert rc == EXIT_OK
        assert 0.0 <= read_json(out)["fit"]["model"]["p_inv"] <= 0.5

    def test_fit_from_matrix_file_matches_wordlist_route(
            self, tmp_path, wordlist_path):
        # The wordlist route passes the class alphabet in canonical order,
        # the matrix route infers it sorted; the permuted frequency vector
        # shifts float summation by an ulp, so compare up to tolerance.
        from relate.phylik import parse_newick
        from relate.treecmp import gqd

        saved = tmp_path / "matrix.txt"
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mltree", "--wordlist", wordlist_path, "--p-inv", "0.05",
                     "--out", str(out_a), "--save-matrix", str(saved)]) == EXIT_OK
        assert main(["mltree", "--matrix", str(saved), "--p-inv", "0.05",
                     "--out", str(out_b)]) == EXIT_OK
        one, two = read_json(out_a), read_json(out_b)
        score = gqd(parse_newick(one["fit"]["tree"]),
                    parse_newick(two["fit"]["tree"]))
        assert score.gqd == 0.0
        assert one["fit"]["log_likelihood"] == pytest.approx(
            two["fit"]["log_likelihood"], abs=1e-6)

    def test_wordlist_and_matrix_are_mutually_exclusive(
            self, tmp_path, wordlist_path, capsys):
        rc = main(["mltree", "--wordlist", wordlist_path,
                   "--matrix", wordlist_path, "--out", str(tmp_path / "f.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        rc = main(["mltree", "--out", str(tmp_path / "f.json")])
        assert rc == EXIT_INPUT


class TestSimulateCommand:
    def fit_and_template(self, tmp_path, wordlist_path):
        fit = tmp_path / "fit.json"
        template = tmp_path / "matrix.txt"
        assert main(["mltree", "--wordlist", wordlist_path, "--p-inv", "0.05",
                     "--out", str(fit), "--save-matrix", str(template)]) == EXIT_OK
        return str(fit), str(template)

    def test_same_seed_twice_is_identical(self, tmp_path, wordlist_path):
        fit, template = self.fit_and_template(tmp_path, wordlist_path)
        out = tmp_path / "rep.json"
        argv = ["simulate", "--fit", fit, "--template", template,
                "--seed", "7", "--out", str(out)]
        one, two = rerun_and_read(argv, out)
        assert one == two

    def test_replicate_keeps_template_shape(self, tmp_path, wordlist_path, capsys):
        fit, template = self.fit_and_template(tmp_path, wordlist_path)
        out = tmp_path / "rep.json"
        rc = main(["simulate", "--fit", fit, "--template", template,
                   "--out", str(out)])
        assert rc == EXIT_OK
        replicate = CharacterMatrix.from_dict(read_json(out)["matrix"])
        original = CharacterMatrix.from_alignment_text(
            open(template, encoding="utf-8").read())
        assert replicate.taxa == original.taxa
        assert replicate.sites == original.sites
        assert (replicate.gap_mask() == original.gap_mask()).all()
        assert "simulated" in capsys.readouterr().out

    def test_replicate_feeds_back_into_mltree(self, tmp_path, wordlist_path):
        fit, template = self.fit_and_template(tmp_path, wordlist_path)
        rep = tmp_path / "rep.json"
        assert main(["simulate", "--fit", fit, "--template", template,
                     "--out", str(rep)]) == EXIT_OK
        rc = main(["mltree", "--matrix", str(rep), "--p-inv", "0.05",
                   "--out", str(tmp_path / "refit.json")])
        assert rc == EXIT_OK

    def test_resizing_with_gap_mask_exits_1(self, tmp_path, wordlist_path, capsys):
        fit, template = self.fit_and_template(tmp_path, wordlist_path)
        rc = main(["simulate", "--fit", fit, "--template", template,
                   "--sites", "99", "--out", str(tmp_path / "rep.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class TestGqdCommand:
    def test_identical_trees_print_zero(self, tmp_path, capsys):
        tree = tmp_path / "t.nwk"
        tree.write_text("((A:1,B:1):1,(C:1,D:1):1);", encoding="utf-8")
        rc = main(["gqd", "--predicted", str(tree), "--gold", str(tree)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("gqd=0 ")

    def test_score_payload(self, tmp_path):
        pred = tmp_path / "p.nwk"
        gold = tmp_path / "g.nwk"
        pred.write_text("((A:1,C:1):1,(B:1,D:1):1);", encoding="utf-8")
        gold.write_text("((A,B),(C,D));", encoding="utf-8")
        out = tmp_path / "score.json"
        rc = main(["gqd", "--predicted", str(pred), "--gold", str(gold),
                   "--out", str(out)])
        assert rc == EXIT_OK
        payload = read_json(out)
        assert payload["schema"] == "relate/gqd/1"
        assert payload["score"] == {
            "resolved_gold": 1, "differing": 1, "gqd": 1.0, "degenerate": False}

    def test_leaf_mismatch_exits_1(self, tmp_path, capsys):
        pred = tmp_path / "p.nwk"
        gold = tmp_path / "g.nwk"
        pred.write_text("((A:1,B:1):1,(C:1,D:1):1);", encoding="utf-8")
        gold.write_text("((A,B),(C,X));", encoding="utf-8")
        rc = main(["gqd", "--predicted", str(pred), "--gold", str(gold)])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class TestTopLevel:
    def test_no_command_prints_help_and_exits_1(self, capsys):
        assert main([]) == EXIT_INPUT
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        assert "usage" in capsys.readouterr().err

    def test_import_leaves_scipy_stats_unloaded(self):
        # Every command pays for the import; scipy.stats alone would take
        # longer than the rest of it.
        import relate

        src = str(Path(relate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, relate, relate.cli; "
                "assert relate.__file__.startswith(sys.argv[1]), relate.__file__; "
                "sys.exit('scipy.stats' in sys.modules)")
        subprocess.run([sys.executable, "-c", code, src], env=env, check=True)
