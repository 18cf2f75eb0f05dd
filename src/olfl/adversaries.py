"""Cost-sequence sources: adversarial, synthetic, and replayed.

The killer construction (unit cost ranges) defeats every deterministic
learner: opening costs sit at 1/sqrt(N) everywhere, and whenever the
learner's known action X is small (|X| <= sqrt(N)) the connection costs are
1 exactly on X and 0 elsewhere, so the learner pays at least 1 per trial
while some fixed singleton averages at most 2/sqrt(N). Against a randomized
learner the action cannot be known in advance; the source then adapts to the
realized previous action instead.

Synthetic kinds: "iid" (uniform costs each trial) and "drift" (sites on the
unit square with a random-walking user; connection cost is the scaled
distance, opening costs follow per-site clamped random walks). Replay reads
a trace CSV with header t,c_1..c_N,d_1..d_N.
"""
from __future__ import annotations

import csv
import math
import re

import numpy as np

from .errors import ConfigError, TraceFormatError
from .game import ActionRows, CostRows, GameConfig, _unchecked

SCENARIO_KINDS = ("killer", "iid", "drift", "replay")
# lines joined into one write: a trial CSV's (`experiment.emit_results`), or
# a trace's rows of at most this many sites in all (`save_trace`)
EMIT_LINES = 4096


def _opening_block(rows: int, n_sites: int) -> np.ndarray:
    """The killer's opening costs 1/sqrt(N) for `rows` rows, as one
    read-only block that any number of trials' CostRows may share."""
    if n_sites < 1:
        raise ConfigError(f"n_sites must be >= 1, got {n_sites!r}")
    opening = np.full((rows, n_sites), 1.0 / math.sqrt(n_sites))
    opening.flags.writeable = False
    return opening


def _connection_rows(n_sites: int, known: ActionRows) -> np.ndarray:
    """The killer's (rows, N) connection costs: row r is 1 exactly on the
    sites of known[r] when that action is small (|X| <= sqrt(N)), else 0.
    The one check here is that every such site lies in 1..N."""
    ptr = known.ptr
    rows = ptr.size - 1
    connection = np.zeros((rows, n_sites))
    lengths = ptr[1:] - ptr[:-1]
    marked = (lengths <= math.sqrt(n_sites)).repeat(lengths)  # the sites of the small actions
    sites = known.sites[marked]
    if sites.size:
        last = np.maximum.reduce(sites)
        if last > n_sites:
            raise ConfigError(f"action site {last} outside 1..{n_sites}")
        flat = np.arange(-1, rows * n_sites - 1, n_sites).repeat(lengths)[marked] + sites
        connection.ravel()[flat] = 1.0
    return connection


def killer_rows(n_sites: int, known: ActionRows) -> CostRows:
    """One adaptive trial per row against unit cost ranges (C = D = 1): row r
    knows the action known[r], where an empty row is the unknown action
    (before any action is known). The opening costs are one new read-only
    block. The costs are made here from the construction's own constants,
    finite and >= 0 by construction, so the CostRows is not checked again."""
    opening = _opening_block(known.ptr.size - 1, n_sites)
    return _unchecked(CostRows, opening, _connection_rows(n_sites, known))


class KillerSource:
    """Adaptive source. With use_current_action=True (deterministic learners
    only) each trial's costs are built from the action just played, i.e. the
    adversary moves second; otherwise from the realized previous action.

    One source serves a whole learner batch: given one action per learner
    row as ActionRows, `costs_for` returns the trial's CostRows and keeps
    each row's action for the next trial. Every trial of one row count
    shares one read-only opening block, which the source keeps. Like
    killer_rows, it makes its costs from its own constants and does not
    check them again; what it checks is what comes in: the site count,
    once, and each trial's action count and action sites. It is a cost
    source of `experiment.trial_loop`, as a scenario's CostRows is:
    `source(t, actions)` gives trial t's costs (0-based), pricing only the
    first generator's action when it moves second, since a deterministic
    learner's one row plays one action for every generator, and `realized`
    rebuilds a row's whole history from its actions."""

    def __init__(self, n_sites: int, use_current_action: bool):
        # the opening block of the last call; built empty here, which checks the site count
        self._opening = _opening_block(0, n_sites)
        self.n_sites = n_sites
        self.use_current_action = use_current_action
        self._prev = None  # the last call's actions

    def costs_for(self, trial: int, actions: ActionRows) -> CostRows:
        count = actions.ptr.size - 1
        if self.use_current_action:
            known = actions
        else:
            known = self._prev
            if known is None:  # nothing realized yet: every row empty
                known = ActionRows(np.zeros(count + 1, dtype=np.intp), np.empty(0, dtype=np.int64))
            if known.ptr.size != count + 1:
                raise ConfigError(f"{count} actions for a source of {len(known)} rows")
        self._prev = actions
        if self._opening.shape[0] != count:
            self._opening = _opening_block(count, self.n_sites)
        return _unchecked(CostRows, self._opening, _connection_rows(self.n_sites, known))

    def __call__(self, trial: int, actions: ActionRows) -> CostRows:
        if self.use_current_action:
            actions = ActionRows(actions.ptr[:2], actions.sites[: actions.ptr[1]])
        return self.costs_for(trial + 1, actions)

    def realized(self, actions: ActionRows) -> CostRows:
        """The costs this source priced for one row's actions, given as
        ActionRows with one row per trial, rebuilt from the actions alone:
        the actions themselves when the adversary moves second, else the
        actions shifted by one trial, with nothing known at the first."""
        if not self.use_current_action:
            ptr = actions.ptr
            actions = ActionRows(np.append(0, ptr[:-1]), actions.sites[: ptr[-2]])
        return killer_rows(self.n_sites, actions)


def generate_scenario(kind: str, cfg: GameConfig, seed: int, drift_step: float = 0.05) -> CostRows:
    """Materialize a full cost sequence for a non-adaptive scenario kind,
    one row per trial."""
    rng = np.random.default_rng(seed)
    n, t = cfg.n_sites, cfg.horizon
    if kind == "iid":
        # one draw of every trial's c then d, in the order per-trial draws take
        draws = rng.uniform(0.0, np.repeat([cfg.opening_max, cfg.connection_max], n), (t, 2 * n))
        # contiguous halves, which the loss pricing ravels without a copy
        return CostRows(draws[:, :n].copy(), draws[:, n:].copy())
    if kind == "drift":
        if not 0 <= drift_step < math.inf:  # false for NaN as well
            raise ConfigError(f"drift step must be finite and >= 0, got {drift_step!r}")
        sites = rng.uniform(0.0, 1.0, (n, 2))
        user = rng.uniform(0.0, 1.0, 2)
        opening = rng.uniform(0.0, cfg.opening_max, n)
        openings, connections = np.empty((t, n)), np.empty((t, n))
        for step in range(t):
            dist = np.hypot(sites[:, 0] - user[0], sites[:, 1] - user[1])
            np.clip(cfg.connection_max * dist / math.sqrt(2.0), 0.0, cfg.connection_max, out=connections[step])
            openings[step] = opening
            user = np.clip(user + rng.normal(0.0, drift_step, 2), 0.0, 1.0)
            opening = np.clip(
                opening + rng.normal(0.0, drift_step * cfg.opening_max, n), 0.0, cfg.opening_max
            )
        return CostRows(openings, connections)
    if kind == "killer":
        raise ConfigError("killer is adaptive; build a KillerSource instead")
    raise ConfigError(f"unknown scenario kind {kind!r}; known: {', '.join(SCENARIO_KINDS)}")


_HEADER_RE = re.compile(r"^(c|d)_(\d+)$")


def _parse_header(fields: list[str], path: str) -> int:
    bad = TraceFormatError(
        f"{path}, line 1: header must be t,c_1..c_N,d_1..d_N, got {','.join(fields)!r}"
    )
    if len(fields) < 3 or len(fields) % 2 == 0 or fields[0] != "t":
        raise bad
    n = (len(fields) - 1) // 2
    for j in range(n):
        if fields[1 + j] != f"c_{j + 1}" or fields[1 + n + j] != f"d_{j + 1}":
            raise bad
    return n


def load_trace(path: str, cfg: GameConfig | None = None) -> CostRows:
    """Read a trace CSV, one row per trial; every complaint names its line
    (and field)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)]
    rows = [row for row in rows if row]  # ignore blank trailing lines
    if not rows:
        raise TraceFormatError(f"{path}: no trials")
    n = _parse_header(rows[0], path)
    if cfg is not None and n != cfg.n_sites:
        raise TraceFormatError(f"{path}: trace has {n} sites, config expects {cfg.n_sites}")
    if len(rows) == 1:
        raise TraceFormatError(f"{path}: no trials")
    names = rows[0]
    values = np.empty((len(rows) - 1, 2 * n))
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2 * n + 1:
            raise TraceFormatError(
                f"{path}, line {line_no}: expected {2 * n + 1} fields, got {len(row)}"
            )
        expected_t = line_no - 1
        if row[0].strip() != str(expected_t):
            raise TraceFormatError(
                f"{path}, line {line_no}: trial index {row[0]!r}, expected {expected_t}"
            )
        trial = values[line_no - 2]
        for j, cell in enumerate(row[1:]):
            try:
                trial[j] = float(cell)
            except ValueError:
                raise TraceFormatError(
                    f"{path}, line {line_no}, field {names[1 + j]}: not a number: {cell!r}"
                ) from None
        opening, connection = trial[:n], trial[n:]
        for vec, bound, prefix in (
            (opening, None if cfg is None else cfg.opening_max, "c"),
            (connection, None if cfg is None else cfg.connection_max, "d"),
        ):
            if not np.all(np.isfinite(vec)):
                j = int(np.argmin(np.isfinite(vec)))
                raise TraceFormatError(
                    f"{path}, line {line_no}, field {prefix}_{j + 1}: not finite"
                )
            if vec.min() < 0:
                j = int(np.argmin(vec))
                raise TraceFormatError(
                    f"{path}, line {line_no}, field {prefix}_{j + 1}: negative cost {vec[j]}"
                )
            if bound is not None and vec.max() > bound:
                j = int(np.argmax(vec))
                raise TraceFormatError(
                    f"{path}, line {line_no}, field {prefix}_{j + 1}: cost {vec[j]} exceeds bound {bound}"
                )
    if cfg is not None and len(values) != cfg.horizon:
        raise TraceFormatError(f"{path}: trace has {len(values)} trials, config expects {cfg.horizon}")
    return CostRows(values[:, :n].copy(), values[:, n:].copy())


def save_trace(path: str, costs: CostRows) -> None:
    """Write the trace CSV format load_trace reads (17 significant digits),
    one row template per trial, in blocks of at most `EMIT_LINES` sites'
    rows, so that the text held at once does not grow with the horizon."""
    n = costs.n_sites
    template = "{}" + ",{:.17g}" * (2 * n) + "\n"
    rows = max(1, EMIT_LINES // n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [f"c_{i + 1}" for i in range(n)] + [f"d_{i + 1}" for i in range(n)]) + "\n")
        for start in range(0, len(costs), rows):
            block = np.hstack([costs.opening[start : start + rows], costs.connection[start : start + rows]])
            fh.write("".join(template.format(t, *trial) for t, trial in enumerate(block.tolist(), start + 1)))
