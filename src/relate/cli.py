"""Command line interface.

Five subcommands: ``lrt`` (the relatedness test), ``permtest`` (the
permutation baseline), ``mltree`` (tree inference), ``simulate``
(parametric replicates from a fit), and ``gqd`` (quartet comparison).
Every output file embeds a run manifest (command, configuration, SHA-256
digests of the inputs, seed, package version, timestamp); outputs are
byte-identical across repeated runs except for the timestamp. Input
problems exit 1, numerical failures exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import NumericalUnderflowError, RelateError, SchemaError
from .lexdata import FilterPolicy, filter_forms, parse_wordlist, select_core_form
from .lrt import LrtConfig, run_lrt
from .mlsearch import MlFit, SearchConfig, ml_tree, ml_tree_estimated
from .msa import CharacterMatrix, build_character_matrix
from .permtest import (
    DRAW_STREAM,
    WordMetric,
    load_external_table,
    pairwise_significance,
    run_permtest,
)
from .phylik import parse_newick, write_newick
from .bootsim import SimConfig, simulate_matrix
from .soundclass import load_alphabet
from .submodel import SubstitutionModel
from .treecmp import gqd as quartet_distance
from .treecmp import parse_gold_tree

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for
    numerical failures, so usage problems are rerouted to exit 1."""

    def error(self, message):
        raise _UsageError(self, message)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str], with_timestamp: bool = True) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command")
        and isinstance(value, (str, int, float, bool, type(None)))
    }
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": {path: _sha256(path) for path in inputs},
    }
    if with_timestamp:
        manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    return manifest


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_wordlist(args):
    inputs = [args.wordlist]
    alphabet = None
    if args.mapping:
        with open(args.mapping, "rb") as fh:
            alphabet = load_alphabet(fh)
        inputs.append(args.mapping)
    with open(args.wordlist, "rb") as fh:
        wl = parse_wordlist(fh, alphabet)
    policy = FilterPolicy(
        drop_loans=not args.keep_loans,
        drop_flags=frozenset() if args.keep_flags else FilterPolicy().drop_flags,
        min_classes=args.min_classes,
    )
    wl = filter_forms(wl, policy)
    wl = select_core_form(wl, rng_seed=args.seed)
    return wl, inputs


def _load_matrix_file(path: str) -> CharacterMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head = text.lstrip()[:1]
    if head == ">":
        return CharacterMatrix.from_fasta(text)
    if head == "{":
        payload = json.loads(text)
        return CharacterMatrix.from_dict(payload.get("matrix", payload))
    return CharacterMatrix.from_alignment_text(text)


def _load_fit_file(path: str) -> MlFit:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("fit", payload)
    if not isinstance(payload, dict):
        raise SchemaError("fit file must hold a JSON object")
    try:
        if not isinstance(payload["tree"], str):
            raise SchemaError("fit tree must be a Newick string")
        tree = parse_newick(payload["tree"])
        model = SubstitutionModel.from_dict(payload["model"])
        ll = float(payload["log_likelihood"])
        trace = tuple((int(r), float(v)) for r, v in payload.get("search_trace", []))
    except KeyError as exc:
        raise SchemaError(f"fit file lacks {exc}") from exc
    except TypeError as exc:
        raise SchemaError(f"bad fit file: {exc}") from exc
    return MlFit(tree=tree, model=model, log_likelihood=ll, search_trace=trace)


def _add_wordlist_options(parser: argparse.ArgumentParser, required: bool = True):
    parser.add_argument("--wordlist", required=required, help="TSV wordlist")
    parser.add_argument("--mapping", help="segment-to-class TSV (default: packaged table)")
    parser.add_argument("--keep-loans", action="store_true", help="keep flagged loanwords")
    parser.add_argument(
        "--keep-flags", action="store_true",
        help="keep onomatopoeic, nursery and short-flagged forms",
    )
    parser.add_argument(
        "--min-classes", type=int, default=2,
        help="drop forms with fewer consonant classes (default 2)",
    )


def cmd_lrt(args) -> int:
    wl, inputs = _load_wordlist(args)
    matrix = build_character_matrix(wl)
    config = LrtConfig(
        p_inv_null=args.p0,
        p_inv_alt=args.pa,
        k=args.k,
        alpha=args.alpha,
        seed=args.seed,
    )
    report = run_lrt(matrix, config, alphabet=wl.alphabet.classes)
    payload = {
        "schema": "relate/lrt/1",
        "manifest": _manifest(args, inputs),
        "report": report.to_dict(),
    }
    _write_json(args.out, payload)
    print(
        f"{report.decision} p={report.p_value:.6g} t={report.t_statistic:.6g} "
        f"mean_delta_obs={report.mean_delta_observed:.6g}"
    )
    return EXIT_OK


def cmd_permtest(args) -> int:
    if args.metric == "external" and not args.external_table:
        raise SchemaError("--metric external requires --external-table")
    if args.metric != "external" and args.external_table:
        raise SchemaError(f"--metric {args.metric} does not take --external-table")
    wl, inputs = _load_wordlist(args)
    if args.metric == "external":
        with open(args.external_table, "rb") as fh:
            metric = WordMetric.external(load_external_table(fh))
        inputs = inputs + [args.external_table]
    elif args.metric == "p1dolgo":
        metric = WordMetric.p1_dolgo()
    else:
        metric = WordMetric.turchin()

    tree = run_permtest(metric, wl, n_perm=args.n_perm, seed=args.seed)
    # Both results are computed, and the table written, before the report,
    # so a failure on either leaves no report behind.
    if args.pairwise:
        rows = pairwise_significance(metric, wl, n_perm=args.n_perm, seed=args.seed)
        slim = json.dumps(
            {**_manifest(args, inputs, with_timestamp=False), "draw_stream": DRAW_STREAM},
            sort_keys=True,
        )
        with open(args.pairwise, "w", encoding="utf-8") as fh:
            fh.write(f"# manifest: {slim}\n")
            fh.write("LANG_A\tLANG_B\tDIST\tS_HAT\tP\n")
            for row in rows:
                fh.write(
                    f"{row['LANG_A']}\t{row['LANG_B']}\t{row['DIST']:.10g}"
                    f"\t{row['S_HAT']:.10g}\t{row['P']:.10g}\n"
                )
    payload = {
        "schema": "relate/permtest/1",
        "manifest": {**_manifest(args, inputs), "draw_stream": DRAW_STREAM},
        "result": tree.to_dict(),
    }
    _write_json(args.out, payload)
    root = tree.root
    print(f"{tree.verdict()} root_p={root.p_value:.6g} root_s_hat={root.s_hat:.6g}")
    return EXIT_OK


def cmd_mltree(args) -> int:
    if bool(args.wordlist) == bool(args.matrix):
        raise SchemaError("supply exactly one of --wordlist or --matrix")
    if args.wordlist:
        wl, inputs = _load_wordlist(args)
        matrix = build_character_matrix(wl)
        states = wl.alphabet.classes
    else:
        matrix = _load_matrix_file(args.matrix)
        inputs = [args.matrix]
        states = None
    config = SearchConfig(seed=args.seed)
    if args.p_inv is not None:
        fit = ml_tree(
            matrix, args.p_inv, config,
            gamma_shape=1.0 if args.gamma2 else None,
            n_rate_cats=2 if args.gamma2 else 1,
            alphabet=states,
        )
    else:
        fit = ml_tree_estimated(matrix, config, use_gamma=args.gamma2, alphabet=states)
    payload = {
        "schema": "relate/mltree/1",
        "manifest": _manifest(args, inputs),
        "fit": {
            "tree": write_newick(fit.tree),
            "log_likelihood": fit.log_likelihood,
            "model": fit.model.to_dict(),
            "search_trace": [list(step) for step in fit.search_trace],
            "converged": fit.converged,
        },
    }
    _write_json(args.out, payload)
    if args.save_matrix:
        with open(args.save_matrix, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_alignment_text())
    print(
        f"logL={fit.log_likelihood:.6g} p_inv={fit.model.p_inv:.6g} "
        f"taxa={fit.tree.n_leaves} sites={matrix.sites}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    fit = _load_fit_file(args.fit)
    template = _load_matrix_file(args.template)
    config = SimConfig(
        seed=args.seed,
        retain_gap_mask=not args.no_gap_mask,
        n_sites=args.sites,
    )
    replicate = simulate_matrix(fit, template, config)
    payload = {
        "schema": "relate/simulate/1",
        "manifest": _manifest(args, [args.fit, args.template]),
        "matrix": replicate.to_dict(),
    }
    _write_json(args.out, payload)
    print(f"simulated {len(replicate.taxa)} taxa x {replicate.sites} sites")
    return EXIT_OK


def cmd_gqd(args) -> int:
    with open(args.predicted, "r", encoding="utf-8") as fh:
        predicted = parse_gold_tree(fh.read())
    with open(args.gold, "r", encoding="utf-8") as fh:
        gold = parse_gold_tree(fh.read())
    score = quartet_distance(predicted, gold)
    if args.out:
        payload = {
            "schema": "relate/gqd/1",
            "manifest": _manifest(args, [args.predicted, args.gold]),
            "score": score.to_dict(),
        }
        _write_json(args.out, payload)
    print(
        f"gqd={score.gqd:.10g} resolved_gold={score.resolved_gold} "
        f"differing={score.differing}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="relate",
        description="Statistical tests of language-group relatedness.",
    )
    parser.add_argument("--version", action="version", version=f"relate {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")

    p = sub.add_parser("lrt", help="likelihood-ratio relatedness test")
    _add_wordlist_options(p)
    p.add_argument("--p0", type=float, default=0.01, help="null invariant proportion")
    p.add_argument("--pa", type=float, default=0.06, help="alternative invariant proportion")
    p.add_argument("--k", type=int, default=15, help="paired search runs (default 15)")
    p.add_argument("--alpha", type=float, default=0.05, help="rejection level")
    p.add_argument("--out", required=True, help="output JSON path")
    common(p)
    p.set_defaults(func=cmd_lrt)

    p = sub.add_parser("permtest", help="multilateral permutation test")
    _add_wordlist_options(p)
    p.add_argument(
        "--metric", choices=("p1dolgo", "turchin", "external"), default="p1dolgo",
    )
    p.add_argument("--external-table", help="TSV word-distance table for --metric external")
    p.add_argument("--n-perm", type=int, default=1000, help="permutations per merge")
    p.add_argument("--pairwise", help="also write per-pair statistics to this TSV")
    p.add_argument("--out", required=True, help="output JSON path")
    common(p)
    p.set_defaults(func=cmd_permtest)

    p = sub.add_parser("mltree", help="maximum-likelihood tree inference")
    _add_wordlist_options(p, required=False)
    p.add_argument("--matrix", help="alignment, FASTA or matrix JSON instead of a wordlist")
    p.add_argument(
        "--p-inv", type=float, default=None,
        help="fix the invariant proportion (default: estimate it)",
    )
    p.add_argument(
        "--gamma2", action="store_true",
        help="add two discretized gamma rate categories",
    )
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--save-matrix", help="also write the character matrix as alignment text")
    common(p)
    p.set_defaults(func=cmd_mltree)

    p = sub.add_parser("simulate", help="parametric replicate from a fit")
    p.add_argument("--fit", required=True, help="fit JSON from mltree")
    p.add_argument("--template", required=True, help="matrix supplying shape and gaps")
    p.add_argument("--sites", type=int, default=None, help="override the site count")
    p.add_argument(
        "--no-gap-mask", action="store_true",
        help="do not copy the template's gap pattern",
    )
    p.add_argument("--out", required=True, help="output JSON path")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gqd", help="generalized quartet distance between two trees")
    p.add_argument("--predicted", required=True, help="inferred tree (Newick)")
    p.add_argument("--gold", required=True, help="reference tree (Newick)")
    p.add_argument("--out", help="optional output JSON path")
    common(p)
    p.set_defaults(func=cmd_gqd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except NumericalUnderflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RelateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
