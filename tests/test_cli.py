"""End-to-end command line runs: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import CONSONANTS, VOWELS, related_wordlist_rows, wordlist_text
import relate.lrt
from relate.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, build_parser, main
from relate.errors import NumericalUnderflowError, SchemaError
from relate.lexdata import filter_forms, parse_wordlist, select_core_form
from relate.mlsearch import SearchConfig, ml_tree
from relate.msa import CharacterMatrix, build_character_matrix
from relate.permtest import DRAW_STREAM, WordMetric, pairwise_significance, run_permtest
from relate.phylik import write_newick
from relate.soundclass import load_alphabet


@pytest.fixture
def wordlist_path(tmp_path):
    rows = related_wordlist_rows(4, 12, seed=21, mutation=0.3)
    path = tmp_path / "words.tsv"
    path.write_text(wordlist_text(rows), encoding="utf-8")
    return str(path)


#: The directory the tested package is imported from.
SRC = str(Path(relate.__file__).resolve().parents[1])


def package_env():
    """The environment with ``SRC`` first on PYTHONPATH, for running the
    tested package in a subprocess."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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
        # Both manifests name the permutation draw stream; it is no option.
        slim = json.loads(lines[0].removeprefix("# manifest: "))
        assert payload["manifest"]["draw_stream"] == slim["draw_stream"] == DRAW_STREAM == 4
        assert "draw_stream" not in slim["config"]
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

    def test_unwritable_pairwise_path_leaves_no_report(
            self, tmp_path, wordlist_path, capsys):
        out = tmp_path / "p.json"
        rc = main(["permtest", "--wordlist", wordlist_path, "--n-perm", "5",
                   "--out", str(out), "--pairwise", str(tmp_path / "missing" / "pairs.tsv")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("metric", ["p1dolgo", "turchin"])
    def test_named_metric_refuses_an_external_table(
            self, tmp_path, wordlist_path, metric, capsys):
        table = tmp_path / "table.tsv"
        table.write_text("LANG_A\tWORD_A\tLANG_B\tWORD_B\tDIST\n", encoding="utf-8")
        out = tmp_path / "p.json"
        argv = ["permtest", "--wordlist", wordlist_path, "--metric", metric,
                "--external-table", str(table), "--out", str(out)]
        args = build_parser().parse_args(argv)
        with pytest.raises(SchemaError, match="does not take --external-table"):
            args.func(args)
        assert main(argv) == EXIT_INPUT
        assert "does not take --external-table" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_min_classes_exits_1(self, tmp_path, wordlist_path, capsys):
        out = tmp_path / "p.json"
        rc = main(["permtest", "--wordlist", wordlist_path, "--min-classes", "-5",
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert "min_classes" in capsys.readouterr().err
        assert not out.exists()


#: A table over the helpers' segments that merges the S class into T.
MERGED_TABLE = "SEGMENT\tCLASS\n" + "".join(
    f"{seg}\t{cls}\n"
    for segs, cls in (("pbf", "P"), ("tdsz", "T"), ("kg", "K"), ("m", "M"), ("n", "N"),
                      ("rl", "R"), ("w", "W"), ("j", "J"), ("h", "H"), (VOWELS, "V"))
    for seg in segs
)


class TestMappingOption:
    """``--mapping`` is the one alphabet setting; it reaches filtering,
    alignment and permutation scoring."""

    @pytest.fixture
    def mapping_path(self, tmp_path):
        assert sorted(c for c in MERGED_TABLE if c in CONSONANTS) == sorted(CONSONANTS)
        path = tmp_path / "merged.tsv"
        path.write_text(MERGED_TABLE, encoding="utf-8")
        return str(path)

    @staticmethod
    def library_wordlist(path, alphabet=None):
        with open(path, "rb") as fh:
            wl = parse_wordlist(fh, alphabet)
        return select_core_form(filter_forms(wl), rng_seed=42)

    @staticmethod
    def pairwise_lines(rows):
        return [f"{r['LANG_A']}\t{r['LANG_B']}\t{r['DIST']:.10g}\t{r['S_HAT']:.10g}\t{r['P']:.10g}"
                for r in rows]

    def test_permtest_uses_the_mapping(self, tmp_path, wordlist_path, mapping_path):
        out, pairwise = tmp_path / "p.json", tmp_path / "pairs.tsv"
        assert main(["permtest", "--wordlist", wordlist_path, "--mapping", mapping_path,
                     "--n-perm", "40", "--out", str(out),
                     "--pairwise", str(pairwise)]) == EXIT_OK
        got_tree = read_json(out)["result"]
        got_rows = pairwise.read_text(encoding="utf-8").splitlines()[2:]
        assert mapping_path in read_json(out)["manifest"]["inputs"]

        metric = WordMetric.p1_dolgo()
        merged = self.library_wordlist(wordlist_path, load_alphabet(MERGED_TABLE))
        assert got_tree == run_permtest(metric, merged, n_perm=40, seed=42).to_dict()
        assert got_rows == self.pairwise_lines(
            pairwise_significance(metric, merged, n_perm=40, seed=42))

        packaged = self.library_wordlist(wordlist_path)
        assert got_tree != run_permtest(metric, packaged, n_perm=40, seed=42).to_dict()
        assert got_rows != self.pairwise_lines(
            pairwise_significance(metric, packaged, n_perm=40, seed=42))

    def test_mltree_uses_the_mapping(self, tmp_path, wordlist_path, mapping_path):
        out, saved = tmp_path / "fit.json", tmp_path / "matrix.txt"
        assert main(["mltree", "--wordlist", wordlist_path, "--mapping", mapping_path,
                     "--p-inv", "0.05", "--out", str(out),
                     "--save-matrix", str(saved)]) == EXIT_OK
        got = read_json(out)["fit"]

        merged = self.library_wordlist(wordlist_path, load_alphabet(MERGED_TABLE))
        matrix = build_character_matrix(merged)
        assert saved.read_text(encoding="utf-8") == matrix.to_alignment_text()
        fit = ml_tree(matrix, 0.05, SearchConfig(seed=42),
                      alphabet=merged.alphabet.classes)
        assert got["tree"] == write_newick(fit.tree)
        assert got["log_likelihood"] == fit.log_likelihood
        assert got["model"]["alphabet"] == list(merged.alphabet.classes)
        assert "S" not in got["model"]["alphabet"]

        packaged = build_character_matrix(self.library_wordlist(wordlist_path))
        assert saved.read_text(encoding="utf-8") != packaged.to_alignment_text()

    def test_mapping_with_cr_line_endings_runs(self, tmp_path, wordlist_path, mapping_path):
        cr_path = tmp_path / "merged-cr.tsv"
        cr_path.write_bytes(MERGED_TABLE.replace("\n", "\r").encode("utf-8"))
        results = []
        for path in (mapping_path, str(cr_path)):
            out = tmp_path / "p.json"
            assert main(["permtest", "--wordlist", wordlist_path, "--mapping", path,
                         "--n-perm", "20", "--out", str(out)]) == EXIT_OK
            results.append(read_json(out)["result"])
        assert results[0] == results[1]

    def test_ragged_mapping_exits_1_without_traceback(self, tmp_path, wordlist_path):
        ragged = tmp_path / "ragged.tsv"
        ragged.write_bytes(b"SEGMENT\tCLASS\rk\tK\rt\r")
        out = tmp_path / "p.json"
        done = subprocess.run(
            [sys.executable, "-m", "relate.cli", "permtest", "--wordlist", wordlist_path,
             "--mapping", str(ragged), "--out", str(out)],
            env=package_env(), capture_output=True, text=True)
        assert done.returncode == EXIT_INPUT
        assert done.stderr.startswith("error: ")
        assert "(line 3)" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()


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
        assert fit["converged"] is True
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

    def test_saved_matrix_with_spaced_taxon_reads_back(self, tmp_path):
        rows = [("Old English" if lang == "L00" else lang, concept, form)
                for lang, concept, form in related_wordlist_rows(4, 12, seed=21)]
        words, saved = tmp_path / "words.tsv", tmp_path / "matrix.txt"
        words.write_text(wordlist_text(rows), encoding="utf-8")
        assert main(["mltree", "--wordlist", str(words), "--p-inv", "0.05",
                     "--out", str(tmp_path / "a.json"),
                     "--save-matrix", str(saved)]) == EXIT_OK
        assert main(["mltree", "--matrix", str(saved), "--p-inv", "0.05",
                     "--out", str(tmp_path / "b.json")]) == EXIT_OK
        matrix = CharacterMatrix.from_alignment_text(
            saved.read_text(encoding="utf-8"))
        assert matrix.taxa[0] == "Old English"

    def test_wordlist_and_matrix_are_mutually_exclusive(
            self, tmp_path, wordlist_path, capsys):
        rc = main(["mltree", "--wordlist", wordlist_path,
                   "--matrix", wordlist_path, "--out", str(tmp_path / "f.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        rc = main(["mltree", "--out", str(tmp_path / "f.json")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", ["mltree", "lrt"])
    def test_restarts_option_is_a_usage_error(self, tmp_path, wordlist_path, capsys, command):
        out = tmp_path / "f.json"
        rc = main([command, "--wordlist", wordlist_path, "--restarts", "2", "--out", str(out)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "usage" in err
        assert "--restarts" in err
        assert not out.exists()


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

    def test_template_with_spaced_taxon_keeps_the_name(self, tmp_path):
        rows = [("Old English" if lang == "L00" else lang, concept, form)
                for lang, concept, form in related_wordlist_rows(4, 12, seed=21)]
        words = tmp_path / "words.tsv"
        words.write_text(wordlist_text(rows), encoding="utf-8")
        fit, template = self.fit_and_template(tmp_path, str(words))
        out = tmp_path / "rep.json"
        assert main(["simulate", "--fit", fit, "--template", template,
                     "--out", str(out)]) == EXIT_OK
        replicate = CharacterMatrix.from_dict(read_json(out)["matrix"])
        assert replicate.taxa[0] == "Old English"

    def test_fit_whose_mu_disagrees_exits_1(self, tmp_path, wordlist_path, capsys):
        fit, template = self.fit_and_template(tmp_path, wordlist_path)
        payload = read_json(fit)
        payload["fit"]["model"]["mu"] *= 1.5
        Path(fit).write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["simulate", "--fit", fit, "--template", template,
                   "--out", str(tmp_path / "rep.json")])
        assert rc == EXIT_INPUT
        assert "mu must be" in capsys.readouterr().err

    def test_resizing_with_gap_mask_exits_1(self, tmp_path, wordlist_path, capsys):
        fit, template = self.fit_and_template(tmp_path, wordlist_path)
        rc = main(["simulate", "--fit", fit, "--template", template,
                   "--sites", "99", "--out", str(tmp_path / "rep.json")])
        assert rc == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


#: JSON inputs of the wrong shape or type: the subcommand, the option
#: that reads the file, and its content.
MALFORMED_JSON = {
    "fit-not-an-object": ("simulate", "--fit", [1]),
    "fit-tree-not-a-string": (
        "simulate", "--fit", {"fit": {"tree": 5, "model": {}, "log_likelihood": -1.0}}),
    "matrix-taxa-not-a-list": (
        "mltree", "--matrix", {"matrix": {"taxa": 5, "rows": ["KP", "KT"]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_input_exits_1_without_traceback(tmp_path, case):
    command, option, payload = MALFORMED_JSON[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    template = tmp_path / "m.txt"
    template.write_text("2 2\nA\tKP\nB\tKT\n", encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [command, option, str(bad), "--out", str(out)]
    if command == "simulate":
        argv += ["--template", str(template)]
    done = subprocess.run([sys.executable, "-m", "relate.cli", *argv],
                          env=package_env(), capture_output=True, text=True)
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


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

    def test_import_leaves_scipy_stats_optimize_and_special_unloaded(self):
        # Every command pays for the import. No command needs scipy.stats
        # or scipy.optimize, and scipy.special (about a third of a second)
        # is imported only by gamma models and the t-test, when they run.
        code = ("import sys, relate, relate.cli; "
                "assert relate.__file__.startswith(sys.argv[1]), relate.__file__; "
                "loaded = [m for m in ('scipy.stats', 'scipy.optimize', 'scipy.special') if m in sys.modules]; "
                "sys.exit(' and '.join(loaded) + ' loaded' if loaded else 0)")
        subprocess.run([sys.executable, "-c", code, SRC], env=package_env(), check=True)
