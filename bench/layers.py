"""Which drawrating attributes are traced, and the per-layer metrics they give.

Each layer is one module of ``src/drawrating``.  ``install`` wraps the
public (and the two private kernel) attributes the per-layer metrics need;
``metrics`` turns one traced pass into the flat ``name -> value`` table the
benchmark reports.  ``cli`` imports ``run_period`` by name, so
``cli.run_period`` is wrapped under the same span name as
``engine.run_period``.
"""

from __future__ import annotations

import os

from drawrating import cli, engine, hyperopt, model, oracle, simulate, store


def _pairs(prefix):
    """Count the (white, black) pairs of a probability result (..., 3)."""
    def count(counts, args, kwargs, result):
        counts[prefix + ".pairs"] += result.size // 3
    return count


def _run_period(counts, args, kwargs, result):
    games = args[1] if len(args) > 1 else kwargs["games"]
    counts["engine.run_period.terms"] += 2 * (len(games) - len(result.rejected))
    counts["engine.run_period.players"] += len(result.updates)


def _delta_arrays(counts, args, kwargs, result):
    counts["engine.delta_arrays.terms"] += result[0].size


def _parse_games(counts, args, kwargs, result):
    counts["store.parse_games.rows"] += len(result[0])
    counts["store.parse_games.rejects"] += len(result[1])


def _file_bytes(name, position):
    def count(counts, args, kwargs, result):
        counts[name + ".bytes"] += os.path.getsize(args[position])
    return count


def _compare_updates(counts, args, kwargs, result):
    counts["oracle.compare_updates.excluded"] += result.excluded


def _optimize(counts, args, kwargs, result):
    counts["hyperopt.optimize.evaluations_reported"] += result.evaluations


#: (module, attribute, span name, count hook)
TRACED = [
    (model, "probability_array", "model.probability_array", _pairs("model.probability_array")),
    (model, "log_probability_array", "model.log_probability_array", None),
    (engine, "run_period", "engine.run_period", _run_period),
    (cli, "run_period", "engine.run_period", _run_period),
    (engine, "_delta_arrays", "engine.delta_arrays", _delta_arrays),
    (engine, "advance_time", "engine.advance_time", None),
    (engine, "game_term", "engine.game_term", None),
    (engine, "period_update", "engine.period_update", None),
    (hyperopt, "evaluate_hyperparameters", "hyperopt.evaluate_hyperparameters", None),
    (hyperopt, "games_by_period", "hyperopt.games_by_period", None),
    (hyperopt, "predictive_probability_array", "hyperopt.predictive_probability_array",
     _pairs("hyperopt.predictive_probability_array")),
    (hyperopt, "optimize", "hyperopt.optimize", _optimize),
    (oracle, "oracle_posterior", "oracle.oracle_posterior", None),
    (oracle, "gh_rule", "oracle.gh_rule", None),
    (oracle, "compare_updates", "oracle.compare_updates", _compare_updates),
    (store, "parse_games", "store.parse_games", _parse_games),
    (store, "read_snapshot_file", "store.read_snapshot_file",
     _file_bytes("store.read_snapshot_file", 0)),
    (store, "write_snapshot_file", "store.write_snapshot_file",
     _file_bytes("store.write_snapshot_file", 1)),
    (cli, "cmd_rate", "cli.cmd_rate", None),
    (cli, "cmd_predict", "cli.cmd_predict", None),
    (cli, "cmd_validate", "cli.cmd_validate", None),
    (simulate, "simulate_league", "simulate.simulate_league", None),
]


def install(tracer) -> None:
    for module, attr, name, count in TRACED:
        tracer.wrap(module, attr, name, count)


def metrics(traced_pass: dict) -> dict:
    """Per-layer metrics of one traced pass (``Tracer.end_pass`` output)."""
    spans, counts = traced_pass["spans"], traced_pass["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out = {}
    for name, fields in [
        ("model.probability_array", ("calls", "ms")),
        ("model.log_probability_array", ("ms",)),
        ("engine.run_period", ("calls", "ms", "self_ms")),
        ("engine.delta_arrays", ("ms",)),
        ("engine.advance_time", ("calls", "ms")),
        ("engine.game_term", ("calls", "ms")),
        ("engine.period_update", ("ms",)),
        ("hyperopt.evaluate_hyperparameters", ("calls", "ms", "self_ms")),
        ("hyperopt.games_by_period", ("ms",)),
        ("hyperopt.predictive_probability_array", ("calls", "ms")),
        ("hyperopt.optimize", ("self_ms",)),
        ("oracle.oracle_posterior", ("calls", "ms")),
        ("oracle.gh_rule", ("calls", "ms")),
        ("oracle.compare_updates", ("self_ms",)),
        ("store.parse_games", ("ms",)),
        ("store.read_snapshot_file", ("ms",)),
        ("store.write_snapshot_file", ("ms",)),
        ("cli.cmd_rate", ("self_ms",)),
        ("cli.cmd_predict", ("self_ms",)),
        ("cli.cmd_validate", ("self_ms",)),
        ("simulate.simulate_league", ("ms",)),
    ]:
        for field in fields:
            out[f"{name}.{field}"] = span(name, field)

    for name in [
        "model.probability_array.pairs",
        "engine.run_period.terms",
        "engine.run_period.players",
        "hyperopt.predictive_probability_array.pairs",
        "hyperopt.optimize.evaluations_reported",
        "oracle.compare_updates.excluded",
        "store.parse_games.rows",
        "store.parse_games.rejects",
        "store.read_snapshot_file.bytes",
        "store.write_snapshot_file.bytes",
    ]:
        out[name] = counts.get(name, 0)

    out["engine.delta_arrays.ns_per_term"] = ratio(
        span("engine.delta_arrays", "ms") * 1e6, counts.get("engine.delta_arrays.terms", 0)
    )
    out["hyperopt.predictive_probability_array.ns_per_pair"] = ratio(
        span("hyperopt.predictive_probability_array", "ms") * 1e6,
        counts.get("hyperopt.predictive_probability_array.pairs", 0),
    )
    # optimize is the only caller of the objective inside a pass
    objective_calls = span("hyperopt.evaluate_hyperparameters", "calls")
    out["hyperopt.optimize.objective_calls"] = objective_calls
    out["hyperopt.optimize.useful_ratio"] = ratio(
        counts.get("hyperopt.optimize.evaluations_reported", 0), objective_calls
    )
    return out
