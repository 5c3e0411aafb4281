"""Command-line front end.

Subcommands: roots, bruhat, lp, minor, dd-run, verify (main1b | main2 |
main2-ind | poset | gk | normality), campaign.  Exit codes: 0 when every
requested check passes, 1 on a verification failure, 2 on precondition
violations such as a non-reduced word, an unsupported type or a bound,
budget or length cap below 1.

Campaign configs are flat `key = value` text; repeated `case` keys, at least
one, list the work items as `TYPE : word : checks`, where word is comma-separated letters
or the token all<=N for every reduced word of length at most N.  Reports are
canonically sorted JSON, so re-running a campaign reproduces them bit for bit.
"""

import argparse
import json
import os
import sys

from .qscalar import render_scalar
from .weyl import ReducedWord, root_datum, default_weight_sweep
from .subwords import lp_table_json, combinatorial_poset
from .pbw import Presentation, EngineError
from .schubert import schubert_cell
from .cauchon import verify_main1b
from .ideals import IdealLab, UnsaturatedError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2

CHECKS = ("main1b", "main2", "main2-ind", "poset", "gk", "normality")
_INT_KEYS = ("bound", "gk_bound", "normality_bound", "lambda_budget", "length_cap")


class PreconditionError(Exception):
    pass


def _parse_word(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise PreconditionError(f"word needs comma-separated letters, got {text!r}") from None


def _word(label, letters):
    try:
        datum = root_datum(label)
        return ReducedWord(datum, letters)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


def _require_output_path(what, path):
    # an output path must name a file in an existing directory; checked
    # before any work, so a bad path does not waste a finished run
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise PreconditionError(f"{what}: {path!r} is not a file in an existing directory")


def _emit(payload, path=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommands ----------------------------------------------------------------

def cmd_roots(args):
    word = _word(args.type, _parse_word(args.word))
    datum = word.datum
    payload = {
        "type": datum.label,
        "word": list(word.letters),
        "betas": [list(b) for b in word.beta_sequence()],
        "positive_roots": [list(r) for r in datum.positive_roots],
        "cartan": [list(r) for r in datum.cartan],
        "element": word.element.render(),
        "length": word.element.length,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_bruhat(args):
    w = _word(args.type, _parse_word(args.w)).element
    try:
        y = w.datum.from_word(_parse_word(args.y))  # need not be reduced
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    leq = w.datum.bruhat_leq(y, w)
    print(f"{y.render()} <= {w.render()}: {str(leq).lower()}")
    return EXIT_OK


def cmd_lp(args):
    word = _word(args.type, _parse_word(args.word))
    table = lp_table_json(word)
    if args.json or args.out:
        _emit(table, args.out)
    else:
        for pair in table["pairs"]:
            print(f"{pair['y']:<16} {pair['lp']}")
    if args.poset:
        _emit(combinatorial_poset(word), args.poset)
    return EXIT_OK


def cmd_minor(args):
    word = _word(args.type, _parse_word(args.word))
    cell = schubert_cell(args.type, word.letters)
    j = args.j
    if j < 1 or j > len(word.letters):
        raise PreconditionError(f"j = {j} out of range [1, {len(word.letters)}]")
    minor = cell.quantum_minor(j)
    for mono, coeff in sorted(minor.items()):
        print(f"{','.join(map(str, mono))}  {render_scalar(coeff)}")
    if args.out:
        _emit({"type": args.type, "word": list(word.letters), "j": j,
               "element": Presentation.element_to_json(minor)}, args.out)
    return EXIT_OK


def cmd_dd_run(args):
    word = _word(args.type, _parse_word(args.word))
    cell = schubert_cell(args.type, word.letters)
    chain = cell.chain()
    chain.run({})  # certifies every stage, the top one against theta too
    stages = [chain.stage_json(j) for j in range(cell.l, 1, -1)]
    payload = {
        "type": args.type, "word": list(word.letters),
        "relation_table": cell.presentation().table_text(),
        "stages": stages,
    }
    if args.emit:
        _emit(payload, args.emit)
    for s in stages:
        print(f"stage {s['stage']}: certified={s['certified']}")
    return EXIT_OK


def _verify_one(kind, label, letters, bound, lambda_budget, labs=None):
    """Run one check.  labs maps a bound to the IdealLab of this word, so the
    ideal checks of one word share their slices; a missing lab is built here."""
    cell = schubert_cell(label, letters)
    if kind == "main1b":
        rep = verify_main1b(cell)
        return rep, rep["ok"]
    if kind not in CHECKS:
        raise PreconditionError(f"unknown verification {kind!r}")
    labs = {} if labs is None else labs
    if bound not in labs:
        labs[bound] = IdealLab(cell, bound, lambda_budget)
    lab = labs[bound]
    if kind == "main2":
        rep = lab.verify_main2_all()
        return rep, rep["ok"]
    if kind == "main2-ind":
        rep = lab.verify_main2_ind_all()
        return rep, rep["ok"]
    if kind == "poset":
        rep = lab.ideal_poset()
        combo = combinatorial_poset(cell.word)  # also certifies the LP bijection
        rep["lp_poset"] = combo
        rep["ok"] = bool(rep["ok"]) and [n["y"] for n in combo["nodes"]] == rep["nodes"]
        return rep, rep["ok"]
    if kind == "gk":
        datum = cell.datum
        cases = []
        ok = True
        for y in datum.ordered_interval(cell.word.element):
            fit = lab.gk_exponent_fit(y.reduced_word())
            want = cell.l - y.length
            cases.append({"y": y.render(), "fit": fit, "expected": want,
                          "dims": lab.quotient_cumulative_dims(y.reduced_word())})
            ok &= fit == want
        return {"cases": cases, "ok": ok}, ok
    # normality
    datum = cell.datum
    cases = []
    ok = True
    for y in datum.ordered_interval(cell.word.element):
        for lam in default_weight_sweep(datum.rank, datum.rank):  # the fundamentals
            rep = lab.verify_normality(y.reduced_word(), lam)
            cases.append(rep)
            ok &= rep["ok"]
    return {"cases": cases, "ok": ok}, ok


def cmd_verify(args):
    _require_positive("--bound", args.bound)
    _require_positive("--lambda-budget", args.lambda_budget)
    letters = _parse_word(args.word)
    _word(args.type, letters)
    try:
        rep, ok = _verify_one(args.kind, args.type, letters, args.bound,
                              args.lambda_budget)
    except UnsaturatedError as exc:
        print(f"FAIL {args.kind} {args.type} {letters}: {exc}")
        return EXIT_VERIFY
    if args.out:
        _emit(rep, args.out)
    print(f"{'PASS' if ok else 'FAIL'} {args.kind} {args.type} "
          f"{','.join(map(str, letters))}")
    return EXIT_OK if ok else EXIT_VERIFY


# -- campaign ----------------------------------------------------------------------

def parse_config(text):
    """Parse a campaign config, validating every line before any check runs.

    Values stay text; a PreconditionError names the first bad line, or the
    missing `case` line of a config that would run nothing."""
    cfg = {"cases": []}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if not key or not value:
                raise PreconditionError(f"bad config line: {raw.strip()!r}")
            if key == "case":
                cfg["cases"].append(_parse_case(value))
                continue
            if key in _INT_KEYS:
                _require_positive(key, _check_int(key, value))
            elif key != "out":
                raise PreconditionError(f"unknown key {key!r}")
            cfg[key] = value
        except PreconditionError as exc:
            raise PreconditionError(f"line {n}: {exc}") from None
    if not cfg["cases"]:
        raise PreconditionError("no case line: a campaign needs at least one "
                                "'case = TYPE : word : checks'")
    return cfg


def _check_int(what, text):
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"{what} needs an integer, got {text!r}") from None


def _require_positive(what, n):
    if n < 1:
        raise PreconditionError(f"{what} must be at least 1, got {n}")


def _parse_case(value):
    parts = [p.strip() for p in value.split(":")]
    if len(parts) != 3:
        raise PreconditionError(f"case needs TYPE : word : checks, got {value!r}")
    label, word, checks = parts
    checks = [c.strip() for c in checks.split(",")]
    for check in checks:
        if check not in CHECKS:
            raise PreconditionError(f"unknown check {check!r} (known: {', '.join(CHECKS)})")
    if word.startswith("all<="):
        _require_positive("all<=", _check_int("all<=", word[5:]))
        _word(label, ())
    else:
        _word(label, _parse_word(word))
    return {"type": label, "word": word, "checks": checks}


def _expand_words(label, word_field, length_cap):
    datum = root_datum(label)
    if word_field.startswith("all<="):
        cap = min(int(word_field[5:]), length_cap)
        out = []
        for w in datum.ordered_interval(datum.longest_element()):
            if 0 < w.length <= cap:
                out.extend(sorted(datum.all_reduced_words(w)))
        return out
    return [_parse_word(word_field)]


def cmd_campaign(args):
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise PreconditionError(f"--config: {exc}") from None
    bound = int(cfg.get("bound", 6))
    gk_bound = int(cfg.get("gk_bound", 8))
    normality_bound = int(cfg.get("normality_bound", 4))
    lambda_budget = int(cfg.get("lambda_budget", 12))
    length_cap = int(cfg.get("length_cap", 8))
    out_path = args.out or cfg.get("out")
    _require_output_path("out", out_path)
    results = []
    all_ok = True
    for case in cfg["cases"]:
        for letters in _expand_words(case["type"], case["word"], length_cap):
            labs = {}  # bound -> IdealLab, shared by this word's checks
            for check in case["checks"]:
                cb = {"gk": gk_bound, "normality": normality_bound}.get(check, bound)
                # an engine failure is recorded against its own check only
                table = error = None
                try:
                    rep, ok = _verify_one(check, case["type"], tuple(letters),
                                          cb, lambda_budget, labs)
                    cell = schubert_cell(case["type"], tuple(letters))
                    table = cell.presentation().table_text()
                except EngineError as exc:
                    error = str(exc)
                    rep, ok = {"error": error}, False
                results.append({
                    "type": case["type"], "word": list(letters), "check": check,
                    "bound": cb, "ok": ok, "report": rep, "relation_table": table,
                })
                all_ok &= ok
                print(f"{'PASS' if ok else 'FAIL'} {check} {case['type']} "
                      f"{','.join(map(str, letters))}" + (f": {error}" if error else ""))
    results.sort(key=lambda r: (r["type"], r["word"], r["check"]))
    payload = {"ok": all_ok, "bound": bound, "results": results}
    if out_path:
        _emit(payload, out_path)
    print(f"campaign: {'PASS' if all_ok else 'FAIL'} ({len(results)} checks)")
    return EXIT_OK if all_ok else EXIT_VERIFY


# -- entry point ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="qschub",
                                 description="Exact quantum Schubert cell toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root data and the beta sequence of a word")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("bruhat", help="compare two elements in Bruhat order")
    p.add_argument("--type", required=True)
    p.add_argument("--y", required=True, help="reduced word for y (may be empty)")
    p.add_argument("--w", required=True, help="reduced word for w")
    p.set_defaults(func=cmd_bruhat)

    p = sub.add_parser("lp", help="left positive index sets over the interval")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.add_argument("--poset", help="also write the labelled Bruhat poset JSON here")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("minor", help="PBW expansion of a quantum minor")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("dd-run", help="run the deleting-derivations chain")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--emit", help="write stage dumps to this JSON file")
    p.set_defaults(func=cmd_dd_run)

    p = sub.add_parser("verify", help="run one verification")
    p.add_argument("kind", choices=CHECKS)
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--bound", type=int, default=6)
    p.add_argument("--lambda-budget", type=int, default=12, dest="lambda_budget")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("campaign", help="run a configured batch of checks")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_campaign)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out", "emit", "poset"):
            _require_output_path(f"--{flag}", getattr(args, flag, None))
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EngineError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
