import copy
import csv
import hashlib
import io
import json
import pickle
import random

import pytest

from circnoc.analysis import ChipProfile, QuadraticCost
from circnoc.cli import main
from circnoc.errors import LivelockError, ValidationError
from circnoc.harness import (
    REFERENCE_FIRST_N_OVER_TWO_CYCLES,
    _below,
    ExperimentConfig,
    ExperimentResult,
    FuzzConfig,
    fuzz_termination,
    run_experiment,
    square_sizes,
)
from circnoc.routing import AS_PRINTED, AdaptiveMode, RouterConfig, route_runs, trace_route
from circnoc.topology import CirculantSpec, GridSpec, circulant_distance_profile, search_best_ring_circulant
from oracles import ref_ring_profile


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_square_sizes():
    assert square_sizes()[0] == 9
    assert square_sizes()[-1] == 529
    assert len(square_sizes()) == 21
    assert square_sizes(4, 6) == (16, 25, 36)


# --- experiment configs ---------------------------------------------------------

def test_config_rejects_unknown_figure():
    with pytest.raises(ValidationError):
        ExperimentConfig(figure="latency", values=(9,))


def test_config_rejects_empty_values():
    with pytest.raises(ValidationError):
        ExperimentConfig(figure="memory", values=())


def test_config_requires_ring_selection_for_routing_figures():
    with pytest.raises(ValidationError):
        ExperimentConfig(figure="efficiency", values=(9,), selection="formula_eq1")
    with pytest.raises(ValidationError):
        ExperimentConfig(figure="cycles", values=(9,), selection="best_general")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"selection": "best_torus"}, "unknown selection rule 'best_torus'"),
        ({"out_format": "xml"}, "unknown output format 'xml'"),
    ],
)
def test_config_rejects_unknown_selection_and_format(fields, message):
    with pytest.raises(ValidationError, match=message):
        ExperimentConfig(figure="memory", values=(9,), **fields)


def test_config_capacity_is_json_only():
    with pytest.raises(ValidationError):
        ExperimentConfig(figure="capacity", out_format="csv")


def test_config_capacity_takes_no_values():
    with pytest.raises(ValidationError, match="takes no values"):
        ExperimentConfig(figure="capacity", values=(5,), out_format="json")


# --- figure datasets --------------------------------------------------------------

def test_topology_metrics_schema_and_rows():
    result = run_experiment(ExperimentConfig(figure="topology_metrics", values=(3, 4, 5)))
    assert result.columns == (
        "n", "selection", "s1", "s2", "circ_D", "circ_Lav", "mesh_D", "mesh_Lav",
        "torus_D", "torus_Lav", "redD_vs_mesh", "redD_vs_torus",
        "redLav_vs_mesh", "redLav_vs_torus",
    )
    parsed = _parse_csv(result.text)
    assert parsed[0] == list(result.columns)
    assert len(parsed) == 1 + 3
    assert [row[0] for row in parsed[1:]] == ["9", "16", "25"]
    assert all(row[1] == "best_ring" for row in parsed[1:])


def test_cycles_figure_rows_and_threshold_meta():
    result = run_experiment(ExperimentConfig(figure="cycles", values=tuple(range(5, 121))))
    rows = {n: (s2, cycles) for n, s2, cycles in result.rows}
    assert rows[100][0] == RouterConfig.from_spec(search_best_ring_circulant(100)).s2
    assert all(cycles >= 0 for _, cycles in rows.values())
    # first best-ring circulant needing more than two wraps under this
    # package's selection rule; the reference sweep reports 174, a gap
    # attributable to the unspecified selection used there
    assert result.meta["first_n_exceeding_two"] == 114
    assert result.meta["reference_first_n"] == REFERENCE_FIRST_N_OVER_TWO_CYCLES == 174
    assert result.meta["matches_reference"] is False


def test_cycles_meta_absent_threshold():
    result = run_experiment(ExperimentConfig(figure="cycles", values=(9, 16, 25)))
    assert result.meta["first_n_exceeding_two"] is None
    assert result.meta["matches_reference"] is False


def test_efficiency_figure_k_one_exactly_where_clockwise_is_shortest():
    ns = (9, 16, 25, 36)
    result = run_experiment(ExperimentConfig(figure="efficiency", values=ns))
    assert result.columns == ("n", "s2", "algorithm", "K")
    by_n = {row[0]: row[3] for row in result.rows if row[2] == "clockwise"}
    for n in ns:
        cfg = RouterConfig.from_spec(search_best_ring_circulant(n))
        profile = ref_ring_profile(cfg.n, cfg.s2)
        optimal_everywhere = all(
            sum(route_runs("clockwise", 0, dst, cfg)[1::2]) == profile[dst] for dst in range(1, n)
        )
        assert by_n[n] >= 1.0
        assert (by_n[n] == 1.0) == optimal_everywhere


def test_memory_figure_monotone_columns():
    result = run_experiment(ExperimentConfig(figure="memory", values=square_sizes()))
    for col in range(1, 5):
        series = [row[col] for row in result.rows]
        assert series == sorted(series)
        assert len(set(series)) > 1


def test_memory_csv_writers_agree(tmp_path, capsys):
    # memory --out and the memory figure render one report through the same CSV writer
    path = tmp_path / "memory.csv"
    for n in (9, 16, 100):
        assert main(["memory", "--n", str(n), "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == run_experiment(ExperimentConfig("memory", (n,))).text


def test_resources_figure_rows():
    result = run_experiment(ExperimentConfig(figure="resources", values=(100, 50)))
    assert [row[:2] for row in result.rows if row[1] != "clockwise"] == [
        (50, "table"), (50, "adaptive"), (100, "table"), (100, "adaptive"),
    ]
    parsed = _parse_csv(result.text)
    assert parsed[0] == ["x", "algorithm", "alm", "registers"]


def test_capacity_figure_json():
    result = run_experiment(ExperimentConfig(figure="capacity", out_format="json"))
    payload = json.loads(result.text)
    assert payload["columns"][0] == "algorithm"
    routers = {row[0]: row[4] for row in payload["rows"]}
    assert routers == {"table": 276, "clockwise": 278, "adaptive": 53}
    assert all(row[5] == "alm" for row in payload["rows"])


# --- determinism -------------------------------------------------------------------

@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(figure="topology_metrics", values=(3, 5)),
        ExperimentConfig(figure="cycles", values=(9, 25, 49)),
        ExperimentConfig(figure="efficiency", values=(9, 16)),
        ExperimentConfig(figure="memory", values=(9, 100), out_format="json"),
        ExperimentConfig(figure="capacity", out_format="json"),
    ],
)
def test_experiments_are_reproducible(config):
    assert run_experiment(config).text == run_experiment(config).text


def test_experiment_writes_artifact(tmp_path, capsys):
    # run_experiment only renders: the result holds the text, and figure --out writes it
    assert ExperimentResult._fields == ("figure", "columns", "rows", "meta", "text")
    path = tmp_path / "memory.csv"
    assert main(["figure", "--id", "memory", "--values", "9,16", "--out", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {path}\n")
    result = run_experiment(ExperimentConfig(figure="memory", values=(9, 16)))
    assert path.read_text(encoding="utf-8") == result.text


# --- value types -------------------------------------------------------------------

def _routed(cfg):
    trace_route("adaptive", 0, 9, cfg)  # fills the route memo, which is not a field
    return cfg


@pytest.mark.parametrize(
    "value",
    [
        CirculantSpec(16, [1, 7]),
        GridSpec("torus", 3, 4),
        _routed(RouterConfig(16, 1, 7)),
        AdaptiveMode("printed", None),
        QuadraticCost(1.0, 2.0, 0.5),
        ChipProfile(budget_fraction=0.5),
        ExperimentConfig("memory", (9, 16)),
        FuzzConfig(seed=3, trials=7),
    ],
    ids=lambda value: type(value).__name__,
)
def test_rebuilt_value_is_equal_and_of_its_type(value):
    # copy and unpickling rebuild the tuple through __new__, which validates
    for rebuilt in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(rebuilt) is type(value)
        assert rebuilt == value


# --- fuzzing -----------------------------------------------------------------------

def test_fuzz_no_livelocks_smoke():
    report = fuzz_termination(FuzzConfig(seed=1, trials=400, n_max=120))
    assert report.livelock_count == 0
    assert report.trials == 400


def test_fuzz_reads_no_distance_profile():
    # table draws route from the candidate scan: no ring's profile is built
    before = circulant_distance_profile.cache_info().misses
    assert fuzz_termination(FuzzConfig(seed=1, trials=2000)).livelock_count == 0
    assert circulant_distance_profile.cache_info().misses == before


def test_fuzz_single_trial():
    report = fuzz_termination(FuzzConfig(seed=9, trials=1))
    assert report.trials == 1
    assert report.livelock_count == 0


def test_fuzz_same_seed_identical_bytes():
    a = fuzz_termination(FuzzConfig(seed=42, trials=250))
    b = fuzz_termination(FuzzConfig(seed=42, trials=250))
    assert a.to_json() == b.to_json()


def test_fuzz_different_seeds_differ():
    a = fuzz_termination(FuzzConfig(seed=1, trials=50))
    b = fuzz_termination(FuzzConfig(seed=2, trials=50))
    assert a.to_json() != b.to_json()  # the seed is part of the report
    assert a.livelock_count == b.livelock_count == 0


def test_fuzz_corrected_report_has_no_mode():
    report = fuzz_termination(FuzzConfig(seed=1, trials=50))
    assert json.loads(report.to_json()) == {
        "seed": 1, "trials": 50, "n_min": 5, "n_max": 300, "livelock_count": 0, "livelocks": [],
    }


def test_fuzz_printed_variant_livelocks_reproduce():
    report = fuzz_termination(FuzzConfig(seed=1, mode=AS_PRINTED))
    # characterization: 457 of the seed's 3,333 adaptive draws livelock
    assert report.livelock_count == 457
    for entry in report.livelocks:
        assert (entry["algorithm"], entry["variant"], entry["max_cycles"]) == ("adaptive", "printed", 2)
        cfg = RouterConfig(entry["n"], 1, entry["s2"])
        mode = AdaptiveMode(entry["variant"], entry["max_cycles"])
        with pytest.raises(LivelockError):
            trace_route(entry["algorithm"], entry["src"], entry["dst"], cfg, mode)


@pytest.mark.parametrize(
    "config, digest",
    [
        (FuzzConfig(seed=1, trials=10_000), "95de05dbc7377f4ae8aae894fa18dfb82e238e25f09b09bc3466a45dd497157f"),
        (FuzzConfig(seed=1, mode=AS_PRINTED), "1fe3b8e1f74fcc45be8f1a1a9dd3bf17c3ddafc5e9c52d9608a990d5ef76f0d9"),
        (
            FuzzConfig(seed=5, trials=500, n_min=5, n_max=5),
            "5721575fc0e6dd1320e319d910d194b3b203141270beb6d19e41a3ed1c72be43",
        ),
    ],
    ids=["corrected", "printed", "one_size"],
)
def test_fuzz_report_bytes_are_pinned(config, digest):
    # digests of the reports drawn with Random.randint and randrange
    assert hashlib.sha256(fuzz_termination(config).to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("k", [1, 2, 3, 296, 2**64 + 1, 10**30])
def test_below_draws_what_randrange_draws(k):
    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        draws = [_below(ours.getrandbits, k) for _ in range(200)]
        assert draws == [theirs.randrange(k) for _ in range(200)], (seed, k)
        assert ours.getstate() == theirs.getstate(), (seed, k)


def test_fuzz_config_validation():
    with pytest.raises(ValidationError):
        FuzzConfig(seed=1, trials=0)
    with pytest.raises(ValidationError):
        FuzzConfig(seed=1, n_min=4)
    with pytest.raises(ValidationError):
        FuzzConfig(seed=1, n_min=50, n_max=20)
