"""Seeded campaign configs for the benchmark workloads.

`config_text(workload, seed, root)` is a pure function of its arguments (and,
for `desk`, of `configs/desk.cfg` under the checkout root): the same seed
always gives the same config, and seed 0 gives the reference inputs.

* desk: seed 0 is `configs/desk.cfg` verbatim; any other seed shuffles the
  order of its `case` lines in place.  The canonical report is sorted, so
  every seed must reproduce the same report.
* dd-chain: `main1b` on one reduced word of the B3 longest element.  Seed 0
  uses `3,2,1,3,2,1,3,2,1`, the reverse of the `1,2,3,1,2,3,1,2,3` frontier
  case: the same gcd-bound re-expression at about half the time, so that a
  run holds several campaigns and its median is steadier.
* ideal-slices: `main2` and `main2-ind` at bound 6 on one reduced word of the
  A3 longest element.

For dd-chain and ideal-slices, a nonzero seed draws one word from a pool.
The reduced words of one element do very different amounts of work (B3
main1b takes from 5 s to 61 s), so a draw from every word would make a run's
time depend mostly on which word the seed picked.  Each pool holds the words
that do nearly the same work as the seed-0 word: a traced run at the commit
that introduced the benchmark counted, for each word, Scalar multiplications
within 2% of the seed-0 word's (and, for B3, where gcd sizes dominate,
Scalar constructions within 3%).  `perfbench/README.md` lists the survey.
"""

import random
from pathlib import Path

WORKLOADS = ("desk", "dd-chain", "ideal-slices")

# per single-word workload: Cartan type, checks, and the word pool; seed 0
# runs the first word of the pool
POOLS = {
    "dd-chain": ("B3", "main1b", (
        (3, 2, 1, 3, 2, 1, 3, 2, 1),
        (3, 2, 1, 3, 2, 3, 1, 2, 1),
        (3, 2, 3, 1, 2, 1, 3, 2, 1),
        (3, 2, 3, 1, 2, 3, 1, 2, 1),
    )),
    "ideal-slices": ("A3", "main2,main2-ind", (
        (1, 2, 1, 3, 2, 1),
        (1, 2, 3, 1, 2, 1),
        (1, 2, 3, 2, 1, 2),
        (2, 1, 2, 3, 2, 1),
    )),
}

# the settings desk.cfg uses for these check kinds
SINGLE_WORD_SETTINGS = "bound = 6\nlambda_budget = 12\nlength_cap = 8\n"


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def draw_word(workload, seed):
    """The reduced word a single-word workload runs for this seed."""
    pool = POOLS[workload][2]
    return pool[0] if seed == 0 else _rng(workload, seed).choice(pool)


def shuffle_cases(text, seed):
    """Permute the `case` lines of a campaign config among their positions."""
    lines = text.splitlines(keepends=True)
    slots = [i for i, line in enumerate(lines)
             if line.split("#", 1)[0].strip().startswith("case")]
    cases = [lines[i] for i in slots]
    _rng("desk", seed).shuffle(cases)
    for i, line in zip(slots, cases):
        lines[i] = line
    return "".join(lines)


def word_config(workload, word):
    """The campaign config of a single-word workload for one word."""
    label, checks, _ = POOLS[workload]
    return (f"# {workload} workload\n{SINGLE_WORD_SETTINGS}"
            f"case = {label} : {','.join(map(str, word))} : {checks}\n")


def config_text(workload, seed, root):
    """The campaign config for one workload and seed."""
    if workload == "desk":
        text = (Path(root) / "configs" / "desk.cfg").read_text()
        return text if seed == 0 else shuffle_cases(text, seed)
    return word_config(workload, draw_word(workload, seed))


def pin_key(workload, word=None):
    """The key of a config's canonical report in pinned.json."""
    if workload == "desk":
        return "desk"
    return f"{workload}:{','.join(map(str, word))}"
