"""Write pinned.json: the canonical report hash of every config the workloads
can generate, and the hash of every result in those reports.

    python3 perfbench/pin.py

Run it only at a commit whose reports are known to be right, and only when
the benchmark's inputs change (a new workload or pool word).  Re-pinning to
make a changed report pass would defeat the correctness gate.
"""

import hashlib
import json
import os
import subprocess
import sys

import run
import workloads


def configs():
    """(pin key, config text) for desk and every pool word."""
    yield "desk", workloads.config_text("desk", 0, run.ROOT)
    for name, (_, _, pool) in workloads.POOLS.items():
        for word in pool:
            yield workloads.pin_key(name, word), workloads.word_config(name, word)


def main():
    outdir = run.OUT / "pin"
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    pins = {"reports": {}, "results": {}}
    for key, text in configs():
        stem = outdir / key.replace(":", "_").replace(",", "")
        cfg, rep = stem.with_suffix(".cfg"), stem.with_suffix(".json")
        cfg.write_text(text)
        subprocess.run([sys.executable, "-m", "qschub.cli", "campaign", "--config",
                        str(cfg), "--out", str(rep)], cwd=run.ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        data = rep.read_bytes()
        pins["reports"][key] = hashlib.sha256(data).hexdigest()
        for r in json.loads(data)["results"]:
            pins["results"][run.result_key(r)] = run.result_hash(r)
        print(key, pins["reports"][key], flush=True)
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
