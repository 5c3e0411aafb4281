"""Cold-process campaign benchmark for qschub.

    python3 perfbench/run.py --workload desk|dd-chain|ideal-slices|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured campaign runs in a fresh
interpreter (`perfbench/child.py`), because every qschub command line starts
with empty module, LP-table, cell and root-datum caches; repeating a
campaign inside one process would measure warm caches no user gets.

Campaigns repeat until the next one would end after --seconds; at least one
always runs.  Five extra processes stop at the first check, so set-up time
has enough samples even when one campaign fills the run.  Every report is
graded against `pinned.json`: a check fails when its result is missing, not
ok, or differs from the pinned result, and every check of a run fails on a
nonzero exit, an aborted campaign or a report whose hash differs from the
pinned one.

The host's speed changes by half within seconds and drifts over minutes.
So with --trace 0 every campaign is interleaved with the same campaign on
`reference/`, a frozen copy of qschub as of the commit that introduced the
benchmark: the parent stops and continues the two processes so that they
run in turns of SLICE_S seconds, one at a time, and each is timed only over
its own turns.  Both see nearly the same machine speed.  A time metric is
the median over the run of the campaign's figure divided by the
reference's, times the reference's figure in `reference/speed.json`: that
is, the figure at the machine speed where the reference takes that long.
The raw medians go to the summary line.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 each campaign is followed by a traced
one instead, and it holds the per-layer metrics.  These two run one after
the other, not interleaved, because the spans inside a child count wall
time.  All files go to
`perfbench/out/`.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINNED = HERE / "pinned.json"
REFERENCE = HERE / "reference"
SPEED = REFERENCE / "speed.json"

SETUP_PROBES = 5
RUN_LIMIT_S = 170      # a child still running this long after the run began is killed
SLICE_S = 0.05         # how long one child of a pair runs before the other gets a turn

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "check_p50_s": "s", "check_p80_s": "s",
    "peak_rss_mb": "MB", "pass_ratio": "ratio",
}


def layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def result_key(result):
    return f"{result['type']} {','.join(map(str, result['word']))} {result['check']}"


def result_hash(result):
    text = json.dumps(result, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Launcher:
    """Starts child campaigns of one config on one copy of qschub.

    `root` holds the qschub sources (`root/src/qschub`) the children import;
    `tag` prefixes the names of their output files."""

    def __init__(self, outdir, config, root, tag, deadline):
        self.outdir = outdir
        self.config = config
        self.package = str((root / "src" / "qschub").resolve())
        self.tag = tag
        self.n = 0
        self.deadline = deadline
        # compiled bytecode is cached under out/, as an installed package's is
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def expected_checks(self):
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--count", str(self.config)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=RUN_LIMIT_S)
        if out.returncode != 0:
            raise RuntimeError(f"cannot expand {self.config}:\n{out.stderr}")
        return int(out.stdout)

    def start(self, trace=False, setup_only=False):
        self.n += 1
        return Child(self, self.outdir / f"{self.tag}{self.n:03d}", trace, setup_only)


class Child:
    """One child campaign, let run only in the time slices the parent gives it.

    `running` lists the [start, end] intervals in which it was not stopped;
    its times are measured within them, so they leave out the slices of the
    process it alternates with."""

    def __init__(self, launcher, stem, trace, setup_only):
        self.launcher = launcher
        self.stem = stem
        self.trace = trace
        self.alive = True
        self.stopped = False
        self.status, self.usage = None, None
        flags = (["--trace"] if trace else []) + (["--setup-only"] if setup_only else [])
        with open(f"{stem}.log", "w") as log:
            self.launch = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(launcher.config),
                 f"{stem}.report.json", f"{stem}.result.json", repr(self.launch)] + flags,
                cwd=ROOT, env=launcher.env, stdout=log, stderr=subprocess.STDOUT)
        self.running = [[self.launch, None]]
        self.pidfd = os.pidfd_open(self.proc.pid)

    def run_for(self, seconds, stop):
        """Let the child run for `seconds`, then stop it if `stop`; reap it
        if it exits."""
        if self.stopped:
            self.stopped = False
            self.running.append([time.monotonic(), None])
            os.kill(self.proc.pid, signal.SIGCONT)
        left = min(seconds, self.launcher.deadline - time.monotonic())
        if left > 0 and select.select([self.pidfd], [], [], left)[0]:
            self.running[-1][1] = time.monotonic()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
            self.close()
        elif left < seconds:
            self.kill()
        elif stop:
            os.kill(self.proc.pid, signal.SIGSTOP)
            self.running[-1][1] = time.monotonic()
            self.stopped = True

    def kill(self):
        self.proc.kill()
        os.wait4(self.proc.pid, 0)
        self.running[-1][1] = time.monotonic()
        self.status = -9
        self.close()

    def close(self):
        self.alive = False
        os.close(self.pidfd)

    def ran(self, start, end):
        """How long the child ran between two of its own timestamps."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.running)

    def outcome(self):
        report, result = Path(f"{self.stem}.report.json"), Path(f"{self.stem}.result.json")
        run = {"exit": self.status, "trace": self.trace, "cpu": None, "rss_mb": None,
               "report": report if report.exists() else None, "checks": None,
               "running": self.running}
        if self.usage is not None:
            run["cpu"] = self.usage.ru_utime + self.usage.ru_stime
            run["rss_mb"] = self.usage.ru_maxrss / 1024.0
        if result.exists():
            data = json.loads(result.read_text())
            if data["package"] != self.launcher.package:
                raise RuntimeError(f"{self.stem} imported qschub from {data['package']}, "
                                   f"not {self.launcher.package}")
            run["checks"] = [self.ran(start, end) for start, end in data["checks"]]
            if data["setup_end"] is not None:
                run["setup"] = self.ran(self.launch, data["setup_end"])
            if data["checks"]:
                run["wall"] = self.ran(data["checks"][0][0], data["checks"][-1][1])
            run["layers"] = data.get("layers")
            run["shares"] = data.get("shares")
        return run


def interleave(*starts):
    """Run child campaigns in turns of SLICE_S seconds, one process at a time.

    Each start is (launcher, keyword arguments of Launcher.start); the
    children start one after another, each in its own first turn.  Once only
    one is left, it runs on without stops.  Returns each child's outcome
    once all have exited."""
    children = []
    try:
        for launcher, kwargs in starts:
            children.append(launcher.start(**kwargs))
            children[-1].run_for(SLICE_S, stop=True)
        while any(c.alive for c in children):
            live = [c for c in children if c.alive]
            for c in live:
                c.run_for(SLICE_S, stop=len(live) > 1)
    finally:
        for c in children:
            if c.alive:
                c.kill()
    return [c.outcome() for c in children]


def grade(run, expected, pinned_report, pinned_results):
    """Failed checks of one campaign, and its report hash (None if absent)."""
    if run["report"] is None:
        return expected, None
    data = run["report"].read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    good = sum(1 for r in json.loads(data).get("results", ())
               if r.get("ok") is True
               and pinned_results.get(result_key(r)) == result_hash(r))
    failed = max(expected - good, 0)
    if failed == 0 and (run["exit"] != 0 or sha != pinned_report):
        failed = expected
    return failed, sha


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def figures(run):
    """The time figures of one campaign (set-up only, for a probe)."""
    out = {"setup_s": run["setup"]}
    if "wall" in run:
        out.update(wall_s=run["wall"], cpu_s=run["cpu"],
                   check_p50_s=percentile(run["checks"], 50),
                   check_p80_s=percentile(run["checks"], 80))
    return out


def medians(rows):
    """Per metric, the median over the rows that have it."""
    names = dict.fromkeys(name for row in rows for name in row)
    return {name: statistics.median(row[name] for row in rows if name in row)
            for name in names}


def measure(workload, seed, seconds, trace):
    outdir = OUT / f"{workload}-{seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    config = outdir / "campaign.cfg"
    config.write_text(workloads.config_text(workload, seed, ROOT))
    ref_config = outdir / "reference.cfg"
    ref_config.write_text(workloads.config_text(workload, seed, REFERENCE))
    pins = json.loads(PINNED.read_text())
    key = workloads.pin_key(workload, None if workload == "desk"
                            else workloads.draw_word(workload, seed))
    pinned_report = pins["reports"][key]
    pinned_results = pins["results"]

    deadline = time.monotonic() + RUN_LIMIT_S
    launcher = Launcher(outdir, config, ROOT, "run", deadline)
    ref = Launcher(outdir, ref_config, REFERENCE, "ref", deadline)
    expected = launcher.expected_checks()
    sides = [launcher] if trace else [launcher, ref]

    start = time.monotonic()
    probe = {"setup_only": True}
    probes = [interleave(*[(side, probe) for side in sides])
              for _ in range(SETUP_PROBES + 1)][1:]   # the first fills the caches
    if any(run["exit"] != 0 or "setup" not in run for pair in probes for run in pair):
        raise RuntimeError(f"set-up probe failed; see {outdir}")
    pairs, durations = [], []
    while True:
        t0 = time.monotonic()
        if trace:
            # one after the other: the spans inside a child count wall time
            pairs.append(interleave((launcher, {})) + interleave((launcher, {"trace": True})))
        else:
            pairs.append(interleave((launcher, {}), (ref, {})))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break

    runs = [run for pair in pairs for run in pair] if trace else [p[0] for p in pairs]
    attempted = failed = 0
    hashes = set()
    for run in runs:
        bad, sha = grade(run, expected, pinned_report, pinned_results)
        attempted += expected
        failed += bad
        hashes.add(sha)
    if not trace:
        ref_expected = ref.expected_checks()
        for _, run in pairs:
            # the reference is the seed commit's code: any failure voids the run
            if grade(run, ref_expected, pinned_report, pinned_results)[0] \
                    or "wall" not in run:
                raise RuntimeError(f"the reference build failed {ref_config}; see {outdir}")
    summary = {"workload": workload, "seed": seed, "campaigns": len(runs),
               "checks_per_campaign": expected, "report_sha256": sorted(map(str, hashes)),
               "pinned_sha256": pinned_report}
    good = [(a, b) for a, b in pairs if "wall" in a and "wall" in b]
    if not good:
        return summary, attempted, failed, {}

    if trace:
        traced = [b for _, b in good]
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = statistics.median(b["wall"] / a["wall"]
                                                           for a, b in good)
        summary["layer_self_shares"] = {
            layer: round(statistics.median(r["shares"].get(layer, 0.0) for r in traced), 4)
            for layer in traced[0]["shares"]}
        return summary, attempted, failed, {k: (v, layer_unit(k)) for k, v in layers.items()}

    speed = json.loads(SPEED.read_text())[workload]
    rows = [(figures(a), figures(b)) for a, b in probes + good]
    ratios = medians([{name: a[name] / b[name] for name in a} for a, b in rows])
    summary.update(raw=medians([a for a, _ in rows]), reference_raw=medians([b for _, b in rows]),
                   ratio_to_reference=ratios)
    metrics = {name: ratio * speed[name] for name, ratio in ratios.items()}
    metrics["peak_rss_mb"] = statistics.median(a["rss_mb"] for a, _ in good)
    metrics["pass_ratio"] = (attempted - failed) / attempted
    return summary, attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def result_line(attempted, failed, metrics):
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(summary, attempted, failed, metrics):
    print(json.dumps(summary, sort_keys=True))
    ratio = failed / attempted if attempted else 1.0
    print(f"{summary['workload']}: fail_ratio {ratio:g} ({failed}/{attempted} checks), "
          f"pinned report hash {'matches' if summary['report_sha256'] == [summary['pinned_sha256']] else 'DIFFERS'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through the finally blocks, which kill the children, some stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "qschub").is_dir():
        print(f"error: no qschub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        summary, attempted, failed, metrics = measure(name, args.seed, args.seconds,
                                                      bool(args.trace))
        report(summary, attempted, failed, metrics)
        lines[name] = result_line(attempted, failed, metrics)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
