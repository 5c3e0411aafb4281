"""Run one qschub campaign in this (fresh) interpreter and record its timings.

    python3 perfbench/child.py CONFIG REPORT RESULT LAUNCH [--trace] [--setup-only]
    python3 perfbench/child.py --count CONFIG

LAUNCH is the parent's `time.monotonic()` just before it started this
process; set-up runs from there to the moment the first check is reached.
The campaign goes through `qschub.cli.main`, exactly as from the command
line; only `cli._verify_one`, which the campaign calls once per check, is
wrapped to time each check.  RESULT receives a JSON object with the set-up
end, the start and end of each check, the exit code, the directory qschub
was imported from and, with --trace, the per-layer metrics (spans go to
RESULT with the suffix .spans.jsonl).  --setup-only stops when the first
check is reached.  --count prints how many checks CONFIG expands to.
"""

import json
import os
import sys
import time


class _SetupDone(BaseException):
    """Raised at the first check of a --setup-only run; not an Exception, so
    no handler inside qschub can swallow it."""


def count_checks(config):
    from qschub import cli
    with open(config) as fh:
        cfg = cli.parse_config(fh.read())
    length_cap = int(cfg.get("length_cap", 8))
    return sum(len(case["checks"])
               for case in cfg["cases"]
               for _ in cli._expand_words(case["type"], case["word"], length_cap))


def run(config, report, result_path, launch, trace, setup_only):
    from qschub import cli, modules

    tracer = None
    if trace:
        import layertrace
        tracer = layertrace.install()
    verify_one = cli._verify_one
    checks = []
    setup = {"setup_end": None}

    def timed_check(*args, **kwargs):
        t0 = time.monotonic()
        if not checks:
            if modules.built_modules():
                raise RuntimeError("module cache is not empty before the first check")
            setup["setup_end"] = t0
            if setup_only:
                raise _SetupDone
        try:
            return verify_one(*args, **kwargs)
        finally:
            checks.append((t0, time.monotonic()))

    cli._verify_one = timed_check
    try:
        code = cli.main(["campaign", "--config", config, "--out", report])
    except _SetupDone:
        code = 0
    out = {"launch": launch, "exit": code, "checks": checks, **setup,
           "package": os.path.dirname(os.path.abspath(cli.__file__))}
    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(tracer)
        out["shares"] = layertrace.layer_self_shares(tracer)
        tracer.write_spans(result_path + ".spans.jsonl")
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return code


def main(argv):
    if argv[:1] == ["--count"]:
        print(count_checks(argv[1]))
        return 0
    config, report, result_path, launch = argv[:4]
    flags = set(argv[4:])
    return run(config, report, result_path, float(launch),
               "--trace" in flags, "--setup-only" in flags)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
