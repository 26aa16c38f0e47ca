"""Seeded command lists for the three benchmark workloads.

A workload is a fixed list of slots.  Each slot fixes what a command does
and how much work it is (subcommand, size, mode, expected exit); the seed
draws the numbers the cost hardly depends on (p and d within a range,
simulation seeds, output formats) and the order of the slots.  That keeps
the total work of a list the same for every seed, so run-to-run spread
comes from the machine and the program, not from the draw.

Workloads and why they were chosen:

* ``exact``: large series (both counting modes) and long-horizon DP calls,
  some with MB-sized ``--distribution`` output.  Big-int path counts, term
  probabilities and the DP step loop take nearly all the time; Monte Carlo
  does no work.
* ``mc_survive``: Monte Carlo where most trials survive, so both the
  binomial block phase and the straggler-bound step phase run.  Every
  ``--workers 2`` command has a ``--workers 1`` twin with the same seed.
  The series and the DP do no work in the timed commands.
* ``session``: an analyst's interactive mix of cheap commands in all three
  formats, including illegal inputs.  Interpreter start-up, argument
  parsing and emission dominate; its Monte Carlo is quick-ruin, so only the
  step phase runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

FORMATS = ("human", "json", "csv")

# Trials per Monte Carlo command in ``mc_survive``: four full batches of
# 8192, so a two-worker run splits the batches evenly, and small enough
# that more than 20 commands fit in one run (a tail needs 10 beyond it).
MC_TRIALS = 4 * 8192


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct run of it looks like.

    ``params`` holds the parsed values the checks need.  ``expect_exit`` is
    the exit code a correct program gives; for an illegal input
    ``expect_text`` must appear in its stderr.  Commands sharing a ``twin``
    id differ only in ``--workers`` and must print the same result.
    """

    kind: str
    fmt: str
    params: dict
    argv: tuple[str, ...]
    expect_exit: int = 0
    expect_text: str = ""
    twin: int | None = None
    tags: tuple[str, ...] = field(default=())


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def make_command(kind: str, fmt: str, params: dict, *, raw: dict | None = None,
                 expect_exit: int = 0, expect_text: str = "",
                 twin: int | None = None, tags: tuple[str, ...] = ()) -> Command:
    """Build a command from its parameters.

    ``raw`` gives flag texts that are passed as typed (illegal inputs);
    boolean parameters become bare flags.
    """
    argv: list[str] = [kind]
    for key, value in {**params, **(raw or {})}.items():
        if value is True:
            argv.append(_flag(key))
        elif value is not False and value is not None:
            argv += [_flag(key), value if isinstance(value, str) else repr(value)]
    argv += ["--format", fmt]
    return Command(kind, fmt, params, tuple(argv), expect_exit, expect_text, twin, tags)


class _Draw:
    """Seeded draws: probabilities, distances, seeds and formats."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def p(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 3)

    def d(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def fmt(self) -> str:
        return self.rng.choice(FORMATS)

    def seed(self) -> int:
        return self.rng.randrange(2**32)


def exact_workload(seed: int, toy: bool = False) -> list[Command]:
    draw = _Draw(seed)
    cmds: list[Command] = []
    # (mode, max_gains, slots).  The series command fails at this
    # commit once max_gains passes ~515 (its human lines call float() on
    # counts beyond 1.8e308); those slots are kept and counted as failures.
    series_tiers = [
        ("exact", 200, 2), ("paper", 200, 2),
        ("exact", 420, 3), ("paper", 420, 3),
        ("exact", 650, 1), ("paper", 650, 1),
        ("exact", 1200, 2), ("paper", 1000, 2),
        ("exact", 2400, 2), ("paper", 1400, 1),
    ]
    # (horizon, slots, distribution formats by slot)
    dp_tiers = [
        (10_000, 5, ("csv", "json")),
        (30_000, 3, ("csv", "json")),
        (100_000, 3, ("json", "csv")),
        (200_000, 1, ("json",)),
        (300_000, 1, ()),
    ]
    if toy:
        series_tiers = [("exact", 40, 1), ("paper", 40, 1), ("exact", 600, 1)]
        dp_tiers = [(300, 2, ("json",)), (1000, 1, ("csv",))]
    for mode, max_gains, slots in series_tiers:
        for _ in range(slots):
            params = {"p": draw.p(0.45, 0.65), "distance": draw.d(1, 8),
                      "max_gains": max_gains, "mode": mode}
            # the series fails (exit 2) once max_gains passes ~515
            cmds.append(make_command("series", draw.fmt(), params,
                                     tags=("overflow_defect",) if params["max_gains"] > 515 else ()))
    for horizon, slots, dist_formats in dp_tiers:
        for i in range(slots):
            if i < len(dist_formats):
                # near p = 1/2 every step of the horizon keeps ruin mass, so
                # the distribution size (and peak memory) is the same each seed
                params = {"p": draw.p(0.49, 0.51), "distance": draw.d(1, 8),
                          "horizon": horizon, "distribution": True}
                fmt = dist_formats[i]
            else:
                params = {"p": draw.p(0.45, 0.65), "distance": draw.d(1, 8),
                          "horizon": horizon}
                fmt = draw.fmt()
            cmds.append(make_command("exact", fmt, params))
    return _shuffled(cmds, draw)


def mc_survive_workload(seed: int, toy: bool = False) -> list[Command]:
    draw = _Draw(seed)
    trials = 3000 if toy else MC_TRIALS
    cmds: list[Command] = []
    # (p centre, d, max_steps, twin pair?); cost rises steeply as p nears
    # 1/2, so p moves only +/-0.005 around each centre
    lattice = [
        (0.51, 2, 10_000, True), (0.55, 4, 20_000, True),
        (0.60, 3, 100_000, True), (0.64, 6, 50_000, True),
        (0.58, 2, 20_000, True), (0.51, 4, 10_000, False),
        (0.60, 5, 30_000, False), (0.60, 2, 100_000, False),
        (0.64, 3, 20_000, False), (0.64, 4, 100_000, False),
        (0.55, 2, 30_000, False), (0.64, 2, 50_000, False),
        (0.58, 6, 20_000, False),
    ]
    # (p centre, loss factor, loss level, max_steps, twin pair?):
    # non-halving legs, calibrated to distances 3..5
    loss_level = [
        (0.57, -0.3, 0.2, 20_000, True),    # d = 5
        (0.58, -0.35, 0.3, 20_000, True),   # d = 3
        (0.62, -0.4, 0.12, 50_000, False),  # d = 5
        (0.60, -0.6, 0.05, 10_000, False),  # d = 4
        (0.56, -0.25, 0.4, 30_000, False),  # d = 4
    ]
    if toy:
        lattice = [(0.58, 3, 2000, True)]
        loss_level = [(0.58, -0.3, 0.2, 2000, False)]
    twin = 0
    for p, d, steps, pair in lattice:
        params = {"p": draw.p(p - 0.005, p + 0.005), "distance": d, "trials": trials,
                  "max_steps": steps, "seed": draw.seed()}
        twin = _add_simulate(cmds, draw.fmt(), params, pair, twin)
    for p, factor, level, steps, pair in loss_level:
        params = {"p": draw.p(p - 0.005, p + 0.005), "loss_level": level, "loss_factor": factor,
                  "trials": trials, "max_steps": steps, "seed": draw.seed()}
        twin = _add_simulate(cmds, draw.fmt(), params, pair, twin)
    return _shuffled(cmds, draw)


def _add_simulate(cmds: list[Command], fmt: str, params: dict, pair: bool, twin: int) -> int:
    if not pair:
        cmds.append(make_command("simulate", fmt, {**params, "workers": 1}))
        return twin
    for workers in (1, 2):
        cmds.append(make_command("simulate", fmt, {**params, "workers": workers}, twin=twin))
    return twin + 1


def session_workload(seed: int, toy: bool = False) -> list[Command]:
    draw = _Draw(seed)
    scale = 1 if toy else 3
    cmds: list[Command] = []
    for _ in range(2 * scale):
        factor = draw.rng.choice((-0.5, -0.25, -0.75))
        steps = draw.d(1, 6)
        # an exact power of (1 + loss_factor) must calibrate to its exponent
        cmds.append(make_command("calibrate", draw.fmt(), {
            "loss_level": (1.0 + factor) ** steps, "loss_factor": factor}))
        cmds.append(make_command("calibrate", draw.fmt(), {
            "loss_level": draw.p(0.05, 0.9), "loss_factor": draw.p(-0.7, -0.1)}))
    for i in range(4 * scale):
        gain = draw.p(0.2, 1.0)
        loss = -draw.p(0.2, 0.8)
        p = draw.p(0.4, 0.7)
        mean = p * gain + (1 - p) * loss
        params = {"p": p, "gain_factor": gain, "loss_factor": loss,
                  "target_gain_factor": round(max(mean, 0.0) + draw.p(0.1, 1.0), 3),
                  "target_loss_factor": round(min(mean, 0.0) - draw.p(0.1, 0.5), 3)}
        if i % 2:
            params["loss_level"] = draw.p(0.1, 0.6)
        cmds.append(make_command("transform", draw.fmt(), params))
    for _ in range(2 * scale):
        cmds.append(make_command("demo", draw.fmt(), {}))
    for i in range(4 * scale):
        cmds.append(make_command("series", draw.fmt(), {
            "p": draw.p(0.35, 0.7), "distance": draw.d(1, 8),
            "mode": ("exact", "paper")[i % 2]}))
    for _ in range(4 * scale):
        cmds.append(make_command("exact", draw.fmt(), {
            "p": draw.p(0.35, 0.6), "distance": draw.d(1, 8),
            "horizon": 2000 if toy else 5000}))
    trials = 2000 if toy else 15_000
    # quick-ruin Monte Carlo: each slot has its own (p, d), spread over
    # p in [0.35, 0.48] and d in 1..4, because the cost depends on both
    for i in range(2 * scale):
        p = 0.35 + 0.13 * i / max(1, 2 * scale - 1)
        d = 1 + i % 4
        params = {"p": draw.p(p - 0.005, p + 0.005), "distance": d, "trials": trials,
                  "max_steps": 10_000, "seed": draw.seed()}
        _add_simulate(cmds, draw.fmt(), params, pair=(i == 0), twin=0)
        cmds.append(make_command("compare", draw.fmt(), {
            "p": draw.p(p - 0.005, p + 0.005), "distance": 4 - i % 4, "trials": trials,
            "max_steps": 10_000, "seed": draw.seed()}))
    # q*p*d >= 1 is not an error at this commit: compare flags the
    # arithmetic-geometric row invalid and exits 0
    cmds.append(make_command("compare", draw.fmt(), {
        "p": draw.p(0.35, 0.45), "distance": draw.d(5, 8), "trials": trials,
        "max_steps": 5000, "seed": draw.seed()}, tags=("approx_invalid",)))
    cmds += _illegal_inputs(draw, scale)
    return _shuffled(cmds, draw)


def _illegal_inputs(draw: _Draw, scale: int) -> list[Command]:
    cmds = []
    for _ in range(scale):
        pct = draw.d(51, 99)
        cmds += [
            make_command("series", draw.fmt(), {"distance": 3}, raw={"p": f"{pct}%"},
                         expect_exit=2, expect_text="argument --p"),
            make_command("exact", draw.fmt(), {"distance": 2}, raw={"p": str(pct)},
                         expect_exit=2, expect_text="argument --p"),
            make_command("transform", draw.fmt(), {
                "p": 0.5, "gain_factor": 0.75, "loss_factor": -0.75,
                "target_gain_factor": 0.75, "target_loss_factor": draw.p(0.1, 0.5)},
                expect_exit=3, expect_text="target legs"),
            make_command("calibrate", draw.fmt(), {}, raw={"loss_level": f"{pct}%"},
                         expect_exit=2, expect_text="argument --loss-level"),
        ]
    return cmds


def _shuffled(cmds: list[Command], draw: _Draw) -> list[Command]:
    """Interleave the slots in a seeded order (a user's script does not run
    all commands of one kind back to back)."""
    order = list(range(len(cmds)))
    draw.rng.shuffle(order)
    return [cmds[i] for i in order]


WORKLOADS = {
    "exact": exact_workload,
    "mc_survive": mc_survive_workload,
    "session": session_workload,
}
