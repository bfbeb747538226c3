"""Benchmark report tables: certified sup gains and error bounds.

Two tables are produced over the bundled benchmarks.  The sup-gain table
has one row per criterion and one column per benchmark, optionally followed
by classification rows giving the Monte Carlo verdict (C bounded, N
diverged, - not applicable) at the per-criterion working gain.  The
error-bound table fixes the working gain from the identity-certificate
criterion and reports the maximal certified rate, the asymptotic bounds of
the three bound-producing criteria, and the simulated terminal error of the
run already made at that gain for the classification rows.

The report's protocol (noise level, true parameter, gain offset, shared
start) comes from ``presets``: a caller chooses only the master seed, the
horizon, the replication count and the certificate mode.  The error-bound
table alone also takes a gain offset, noise level or fixed working gain,
which the ``errorbound`` command sets for a single model.  The caller
passes the models and, to the error-bound table, the ``supgain_results``.

Cells are kept as raw values and formatted at serialization time: full
precision (shortest round-trip) in CSV, four decimals in text mode, and
null-with-flag for infinities in JSON lines.  Non-numeric outcomes
(inapplicable criteria, skipped computations) render as annotated text in
the cell rather than being dropped.  Cell notes (tolerance-limited
certificates, inapplicable criteria) stay out of the cells, so numeric
cells parse as plain floats: JSON lines carry them per cell, and CSV and
text end with one ``notes`` row listing ``<row>: <note>`` per column.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from . import presets
from .bounds import (CriterionKind, GainTooLarge, SupGainResult,
                     asymptotic_bound, max_chi_search, protocol_gain, sup_gain)
from .moments import MomentModel
from .simulate import SimConfig, SimResult, run_lms

SKIPPED_NOTE = ("free-matrix certificates need a fourth-moment operator; "
                "this model carries printed matrices only")


@dataclass
class Cell:
    """One table cell: a number, a text annotation, or both (number + note)."""

    value: Optional[float] = None
    text: str = ""
    note: str = ""

    def render(self, precision: Optional[int] = None) -> str:
        if self.text:
            return self.text
        if self.value is None:
            return ""
        if math.isinf(self.value):
            return "Inf" if self.value > 0 else "-Inf"
        if precision is None:
            return repr(float(self.value))
        return f"{self.value:.{precision}f}"

    def to_json(self) -> dict:
        out: dict = {}
        if self.value is None:
            out["value"] = None
            if self.text:
                out["text"] = self.text
        elif math.isinf(self.value):
            out["value"] = None
            out["infinite"] = True
        else:
            out["value"] = float(self.value)
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Table:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple[str, list[Cell]]] = field(default_factory=list)

    def add_row(self, label: str, cells: Sequence[Cell]) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(cells)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append((label, list(cells)))

    def row(self, label: str) -> list[Cell]:
        for row_label, cells in self.rows:
            if row_label == label:
                return cells
        raise KeyError(f"no row {label!r} in table {self.name}")

    def _notes(self) -> Optional[list[str]]:
        """Per column, its cells' notes as '<row>: <note>' entries; None if no notes."""
        notes = ["; ".join(f"{label}: {cells[i].note}"
                           for label, cells in self.rows if cells[i].note)
                 for i in range(len(self.columns))]
        return notes if any(notes) else None

    def _body(self, precision: Optional[int] = None) -> list[list[str]]:
        body = [[label] + [c.render(precision) for c in cells]
                for label, cells in self.rows]
        notes = self._notes()
        if notes is not None:
            body.append(["notes"] + notes)
        return body

    def to_csv(self) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [["row", *self.columns]] + self._body())
        return out.getvalue()

    def to_text(self) -> str:
        header = ["row"] + list(self.columns)
        body = self._body(4)
        widths = [max(len(r[i]) for r in [header] + body)
                  for i in range(len(header))]
        def fmt(row: list[str]) -> str:
            return "  ".join(s.ljust(w) for s, w in zip(row, widths)).rstrip()
        return "\n".join([fmt(header)] + [fmt(r) for r in body]) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for label, cells in self.rows:
            lines.append(json.dumps({
                "table": self.name,
                "row": label,
                "cells": {col: cell.to_json()
                          for col, cell in zip(self.columns, cells)},
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_csv(), newline="\n")


def supgain_results(names: Sequence[str] = presets.BENCHMARK_NAMES,
                    criteria: Sequence[CriterionKind] = tuple(CriterionKind),
                    mode: str = "relaxed", *,
                    models: dict[str, MomentModel],
                    ) -> dict[tuple[str, CriterionKind], Optional[SupGainResult]]:
    """Sup gains for every (benchmark, criterion) pair; None marks a skip.

    A criterion that needs fourth-moment evaluations at general P (the
    free-matrix certificate) is skipped for printed-moments models.
    """
    out: dict[tuple[str, CriterionKind], Optional[SupGainResult]] = {}
    for name in names:
        model = models[name]
        for kind in criteria:
            if kind is CriterionKind.THEOREM1 and not model.supports_general_p:
                out[(name, kind)] = None
                continue
            out[(name, kind)] = sup_gain(model, kind, mode=mode)
    return out


def _supgain_cell(result: Optional[SupGainResult]) -> Cell:
    if result is None:
        return Cell(text="skipped", note=SKIPPED_NOTE)
    note = result.note
    if result.tolerance_limited:
        note = (note + "; " if note else "") + "tolerance-limited"
    return Cell(value=result.sup_gain, note=note)


def build_supgain_table(
        names: Sequence[str] = presets.BENCHMARK_NAMES, *,
        results: dict[tuple[str, CriterionKind], Optional[SupGainResult]],
        annotations: Optional[dict[tuple[str, CriterionKind], str]] = None
        ) -> Table:
    """Criterion-by-benchmark sup-gain table, plus classification rows if given."""
    table = Table("supgain", tuple(names))
    for kind in CriterionKind:
        table.add_row(kind.value,
                      [_supgain_cell(results[(name, kind)]) for name in names])
    if annotations is not None:
        for kind in CriterionKind:
            cells = [Cell(text=annotations.get((name, kind), ""))
                     for name in names]
            table.add_row(kind.value + "_classification", cells)
    return table


_CLASS_LETTER = {"bounded": "C", "diverged": "N", "indeterminate": "?"}


def working_gain_simulations(
        results: dict[tuple[str, CriterionKind], Optional[SupGainResult]],
        names: Sequence[str] = presets.BENCHMARK_NAMES, *,
        models: dict[str, MomentModel],
        k_max: int = presets.K_MAX,
        replications: int = presets.REPLICATIONS,
        master_seed: int = presets.DEFAULT_MASTER_SEED,
        ) -> dict[tuple[str, CriterionKind], Optional[SimResult]]:
    """Monte Carlo run per (benchmark, criterion) at the criterion's working gain.

    Each benchmark's distinct working gains run as one batch on shared
    streams.  None marks a criterion with no positive working gain
    (inapplicable, strictly infeasible, or backed off to zero); skipped
    criteria and unsamplable models get no entry.
    """
    out: dict[tuple[str, CriterionKind], Optional[SimResult]] = {}
    for name in names:
        model = models[name]
        if model.sampling_cov is None:
            continue
        gains: dict[CriterionKind, float] = {}
        for kind in CriterionKind:
            result = results.get((name, kind))
            if result is None:
                continue
            out[(name, kind)] = None
            try:
                gains[kind] = protocol_gain(result.sup_gain)
            except GainTooLarge:
                continue
        # Criteria often share a working gain, bit for bit (round(sup, 4) - xi);
        # each distinct one runs once.
        batch_gains = list(dict.fromkeys(gains.values()))
        if not batch_gains:
            continue
        batch = run_lms(SimConfig(
            model=model, theta_star=presets.protocol_theta_star(model.dim),
            gain=batch_gains[0], sigma_eps=presets.SIGMA_EPS, k_max=k_max,
            replications=replications, master_seed=master_seed,
            init=presets.protocol_init(master_seed, model.dim)),
            gains=batch_gains)
        by_gain = dict(zip(batch_gains, batch))
        for kind, gain in gains.items():
            out[(name, kind)] = by_gain[gain]
    return out


def _letters(simulations: dict[tuple[str, CriterionKind], Optional[SimResult]]
             ) -> dict[tuple[str, CriterionKind], str]:
    return {key: "-" if sim is None else _CLASS_LETTER[sim.classification]
            for key, sim in simulations.items()}


def classification_annotations(
        results: dict[tuple[str, CriterionKind], Optional[SupGainResult]],
        names: Sequence[str] = presets.BENCHMARK_NAMES, *,
        models: dict[str, MomentModel],
        master_seed: int = presets.DEFAULT_MASTER_SEED,
        ) -> dict[tuple[str, CriterionKind], str]:
    """Monte Carlo verdict letter per (benchmark, criterion) working gain.

    C: replication-averaged terminal error below the bounded threshold;
    N: above the diverged threshold; -: no positive working gain; ?: in
    between.  Unsamplable models get no entry.  The simulations are those
    of ``working_gain_simulations`` at the full protocol horizon and
    replication count: one batched run per benchmark.
    """
    return _letters(working_gain_simulations(
        results, names, models=models, master_seed=master_seed))


def build_errorbound_table(
        names: Sequence[str] = ("1A", "1B", "1C", "1D"), *,
        models: dict[str, MomentModel],
        results: dict[tuple[str, CriterionKind], Optional[SupGainResult]],
        mode: str = "relaxed",
        xi: float = presets.XI,
        sigma_eps: float = presets.SIGMA_EPS,
        gain: Optional[float] = None,
        simulations: Optional[dict[str, SimResult]] = None) -> Table:
    """Error-bound table at the identity-certificate working gain per benchmark.

    Rows: the working gain, the maximal certified rates (free-matrix and
    identity certificates), the three asymptotic bounds, the Monte Carlo
    terminal error when ``simulations`` is given, and a flag row marking
    tolerance-limited certificates.  The working gain comes from the
    corollary2 sup in ``results`` (``supgain_results``) unless ``gain`` is
    given.  A benchmark whose sup leaves no positive working gain (e.g. a
    singular law in strict mode) gets "-" cells, with the reason as the gain
    cell's note.  ``simulations`` maps a benchmark to a run already made at
    its working gain (``working_gain_simulations``); the table itself never
    simulates, and a benchmark without a run gets an empty simulation cell.
    """
    rows = ["gain", "chi_theorem1", "chi_corollary2", "theorem1",
            "corollary2", "zhu_criterion"]
    rows += ["flags"] if simulations is None else ["simulation", "flags"]
    columns: list[dict[str, Cell]] = []
    for name in names:
        model = models[name]
        try:
            a = gain if gain is not None else protocol_gain(
                results[(name, CriterionKind.COROLLARY2)].sup_gain, xi)
        except GainTooLarge as exc:
            columns.append({row: Cell(text="-", note=str(exc) if row == "gain" else "")
                            for row in rows})
            continue
        second = model.second_moment
        c2 = max_chi_search(model, CriterionKind.COROLLARY2, a, mode=mode)
        col = {"gain": Cell(value=a), "chi_corollary2": Cell(value=c2.chi),
               "corollary2": Cell(value=asymptotic_bound(
                   CriterionKind.COROLLARY2, a, c2.chi, None, second, sigma_eps))}
        flags = ["corollary2 tolerance-limited"] if c2.tolerance_limited else []

        if model.supports_general_p:
            t1 = max_chi_search(model, CriterionKind.THEOREM1, a, mode=mode)
            col["chi_theorem1"] = Cell(value=t1.chi)
            col["theorem1"] = Cell(value=asymptotic_bound(
                CriterionKind.THEOREM1, a, t1.chi, t1.p_matrix, second, sigma_eps))
            if t1.tolerance_limited:
                flags.append("theorem1 tolerance-limited")
        else:
            col["chi_theorem1"] = Cell(text="skipped")
            col["theorem1"] = Cell(text="skipped", note=SKIPPED_NOTE)

        col["zhu_criterion"] = Cell(value=asymptotic_bound(
            CriterionKind.ZHU, a, None, None, second, sigma_eps))
        sim = (simulations or {}).get(name)
        col["simulation"] = Cell() if sim is None else Cell(value=sim.terminal_mse)
        col["flags"] = Cell(text="; ".join(flags))
        columns.append(col)

    table = Table("errorbound", tuple(names))
    for row in rows:
        table.add_row(row, [col[row] for col in columns])
    return table


def write_benchmark_reports(out_dir: Union[str, Path],
                            mode: str = "relaxed",
                            master_seed: int = presets.DEFAULT_MASTER_SEED,
                            k_max: int = presets.K_MAX,
                            replications: int = presets.REPLICATIONS,
                            simulate: bool = True) -> tuple[Path, Path]:
    """Emit table3.csv (sup gains + classifications) and table4.csv (bounds)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    models = {name: presets.benchmark_model(name) for name in presets.BENCHMARK_NAMES}
    results = supgain_results(mode=mode, models=models)
    annotations = corollary2_runs = None
    if simulate:
        simulations = working_gain_simulations(
            results, models=models, master_seed=master_seed, k_max=k_max,
            replications=replications)
        annotations = _letters(simulations)
        # The error-bound working gain is the corollary2 one, already simulated.
        corollary2_runs = {name: sim for (name, kind), sim in simulations.items()
                           if kind is CriterionKind.COROLLARY2 and sim is not None}
    table3 = build_supgain_table(results=results, annotations=annotations)
    table4 = build_errorbound_table(models=models, results=results, mode=mode,
                                    simulations=corollary2_runs)
    path3 = out_dir / "table3.csv"
    path4 = out_dir / "table4.csv"
    table3.write(path3)
    table4.write(path4)
    return path3, path4
