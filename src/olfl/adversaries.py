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
from .game import ActionRows, CostPair, CostRows, GameConfig, SiteSet

SCENARIO_KINDS = ("killer", "iid", "drift", "replay")


def killer_rows(n_sites: int, known) -> CostRows:
    """One adaptive trial per row against unit cost ranges (C = D = 1): row r
    knows the action known[r], or None before any action is known. `known`
    is a sequence of SiteSets or an ActionRows, where an empty row is the
    unknown action."""
    if n_sites < 1:
        raise ConfigError(f"n_sites must be >= 1, got {n_sites!r}")
    if not isinstance(known, ActionRows):
        known = ActionRows.of([() if action is None else action for action in known])
    ptr, rows = known.ptr, len(known)
    opening = np.full((rows, n_sites), 1.0 / math.sqrt(n_sites))
    connection = np.zeros((rows, n_sites))
    lengths = ptr[1:] - ptr[:-1]
    marked = np.repeat(lengths <= math.sqrt(n_sites), lengths)  # the sites of the small actions
    sites = known.sites[marked]
    if sites.size:
        if sites.max() > n_sites:
            raise ConfigError(f"action site {sites.max()} outside 1..{n_sites}")
        flat = np.repeat(np.arange(-1, rows * n_sites - 1, n_sites), lengths)[marked] + sites
        connection.ravel()[flat] = 1.0
    return CostRows(opening, connection)


def killer_costs(n_sites: int, prev_action: SiteSet | None) -> CostPair:
    """One adaptive trial against unit cost ranges (C = D = 1): the one-row
    call of killer_rows."""
    return killer_rows(n_sites, (prev_action,))[0]


class KillerSource:
    """Adaptive source. With use_current_action=True (deterministic learners
    only) each trial's costs are built from the action just played, i.e. the
    adversary moves second; otherwise from the realized previous action.

    One source serves a whole learner batch: given one action per row, as
    a sequence of SiteSets or as ActionRows, it returns the trial's CostRows
    and keeps each row's action for the next trial; given one SiteSet, a
    CostPair. `realized` rebuilds a row's whole history from its actions,
    so a caller need not keep the costs trial by trial."""

    adaptive = True

    def __init__(self, n_sites: int, use_current_action: bool):
        self.n_sites = n_sites
        self.use_current_action = use_current_action
        self._prev = None  # the last call's actions

    def costs_for(self, trial: int, actions) -> CostPair | CostRows:
        one = isinstance(actions, SiteSet)
        rows = actions if isinstance(actions, ActionRows) else ActionRows.of((actions,) if one else actions)
        if self.use_current_action:
            known = rows
        else:
            known = self._prev
            if known is None:  # nothing realized yet: every row empty
                known = ActionRows(np.zeros(len(rows) + 1, dtype=np.intp), np.empty(0, dtype=np.int64))
            if len(known) != len(rows):
                raise ConfigError(f"{len(rows)} actions for a source of {len(known)} rows")
        self._prev = rows
        costs = killer_rows(self.n_sites, known)
        return costs[0] if one else costs

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
        if drift_step < 0:
            raise ConfigError(f"drift step must be >= 0, got {drift_step!r}")
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
    one row template per trial."""
    n = costs.n_sites
    template = "{}" + ",{:.17g}" * (2 * n) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [f"c_{i + 1}" for i in range(n)] + [f"d_{i + 1}" for i in range(n)]) + "\n")
        for t, trial in enumerate(np.hstack([costs.opening, costs.connection]).tolist(), start=1):
            fh.write(template.format(t, *trial))
