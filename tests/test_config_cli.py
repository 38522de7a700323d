import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpblock.analysis
import fpblock.blocks
import fpblock.cli
import fpblock.errors
from fpblock.config import _KEYS, serialize_config
from fpblock import (
    BlockPartition,
    BlockSolveConfig,
    ConfigurationError,
    DensityField,
    Grid,
    Histogram,
    RunConfig,
    SolveOptions,
    apply_overrides,
    histogram_to_density,
    parse_config,
    read_field,
    read_histogram,
    restrict,
    ring_exact_density,
    ring_model,
    solve_blocks,
    solve_overlapping,
    write_field,
    write_histogram,
)
from fpblock.cli import main


# ------------------------------------------------------------------- config


def test_defaults_round_trip():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration keys", 1)[1]
    block = section.split("```", 2)[1]
    listed = []
    for line in block.splitlines():
        if line.strip() and not line[0].isspace():  # skip continuation lines
            listed += line.split("  ", 1)[0].strip().split(", ")
    assert listed == list(_KEYS)


def test_round_trip_with_overrides():
    cfg = apply_overrides(
        RunConfig(),
        [
            "model=rossler",
            "epsilon=0.05",
            "grid.lo=-15,-15,-15",
            "grid.hi=15,15,15",
            "grid.n=64,64,64",
            "sampler.samples=1000",
            "sampler.initial=0,-5,0",
            "solver.method=shift",
            "solver.schedule=1/3,2/3,0",
            "solver.blocks=4,4,4",
            "sampler.on_escape=restart",
        ],
    )
    assert cfg.model == "rossler"
    assert cfg.epsilon == 0.05
    assert cfg.grid_n == (64, 64, 64)
    assert cfg.sampler.initial == (0.0, -5.0, 0.0)
    assert cfg.schedule == pytest.approx((1 / 3, 2 / 3, 0.0))
    assert cfg.sampler.on_escape == "restart"
    assert parse_config(serialize_config(cfg)) == cfg


# A value unlike the default for every key, so a key whose path names the
# wrong attribute cannot round-trip.
_OTHER_VALUES = {
    "model": "rossler",
    "epsilon": "0.25",
    "grid.lo": "-3,-3,-3",
    "grid.hi": "3,3,3",
    "grid.n": "12,12,12",
    "sampler.dt": "0.005",
    "sampler.samples": "1234",
    "sampler.burn_in": "77",
    "sampler.chains": "3",
    "sampler.seed": "11",
    "sampler.inflate": "2",
    "sampler.initial": "0.5,-1.5,2.5",
    "sampler.on_escape": "restart",
    "solver.blocks": "3,3,3",
    "solver.method": "overlap",
    "solver.iota": "3",
    "solver.schedule": "0.25,0.5",
    "solver.cg_rel_tol": "1e-07",
    "solver.cg_max_iters": "500",
    "solver.renormalize": "true",
}


def test_every_key_round_trips_a_non_default_value():
    assert list(_OTHER_VALUES) == list(_KEYS)
    cfg = apply_overrides(RunConfig(), [f"{k}={v}" for k, v in _OTHER_VALUES.items()])
    assert parse_config(serialize_config(cfg)) == cfg
    assert (cfg.sampler.n_samples, cfg.sampler.n_chains) == (1234, 3)
    assert cfg.solve == SolveOptions(cg_rel_tol=1e-7, cg_max_iters=500)
    # each key moves its own line of the serialized config and no other
    default = serialize_config(RunConfig()).splitlines()
    for j, (key, value) in enumerate(_OTHER_VALUES.items()):
        moved = serialize_config(parse_config(f"{key} = {value}\n")).splitlines()
        changed = [i for i, (a, b) in enumerate(zip(moved, default)) if a != b]
        assert changed == [j], key


def test_parse_accepts_comments_and_blanks():
    text = """
    # a comment
    model = ring

    sampler.seed = 9
    """
    cfg = parse_config(text)
    assert cfg.model == "ring"
    assert cfg.sampler.seed == 9


def test_unknown_key_lists_valid_ones():
    with pytest.raises(ConfigurationError) as err:
        parse_config("solver.blocs=4,4\n")
    msg = str(err.value)
    assert "solver.blocs" in msg
    assert "solver.blocks" in msg


def test_malformed_line_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("just some words\n")


def test_none_sentinel_for_optionals():
    cfg = parse_config("epsilon = none\nsampler.initial = none\n")
    assert cfg.epsilon is None
    assert cfg.sampler.initial is None
    assert "epsilon = none" in serialize_config(cfg)


def test_fraction_values_in_schedule():
    cfg = parse_config("solver.schedule = 1/3, 2/3, 0\n")
    assert cfg.schedule == pytest.approx((1 / 3, 2 / 3, 0.0))


def test_method_validated():
    with pytest.raises(ConfigurationError):
        parse_config("solver.method = magic\n")


def test_escape_policy_validated():
    with pytest.raises(ConfigurationError):
        parse_config("sampler.on_escape = ignore\n")


def test_override_requires_key_value_shape():
    with pytest.raises(ConfigurationError):
        apply_overrides(RunConfig(), ["peanut"])


# ---------------------------------------------------------------------- CLI


def _write_tiny_config(path, **extra):
    lines = {
        "model": "ring",
        "grid.lo": "-2,-2",
        "grid.hi": "2,2",
        "grid.n": "32,32",
        "sampler.samples": "40000",
        "sampler.burn_in": "2000",
        "sampler.chains": "4",
        "sampler.seed": "7",
        "solver.blocks": "2,2",
    }
    lines.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def test_cli_pipeline_sample_solve_errors(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    hist_path = tmp_path / "ring.fphist"
    assert main(["sample", "--config", str(cfg), "--out", str(hist_path)]) == 0
    hist = read_histogram(hist_path)
    assert hist.grid.n == (32, 32)
    assert hist.total_retained == 40_000
    meta = json.loads((tmp_path / "ring.fphist.meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["command"] == "sample"
    # the start point decides the histogram, so the model default is recorded
    assert meta["initial"] == [0.0, 0.0]
    # 2,000 burn-in steps, then 10,000 kept states for each of the 4 chains
    assert meta["steps"] == 12_000

    sol_path = tmp_path / "ring.fpgrid"
    code = main(
        ["solve", "--config", str(cfg), "--hist", str(hist_path),
         "--out", str(sol_path)]
    )
    assert code == 0
    sol = read_field(sol_path)
    assert sol.grid.n == (32, 32)
    meta = json.loads((tmp_path / "ring.fpgrid.meta.json").read_text())
    assert meta["method"] == "plain"
    assert meta["num_block_solves"] == 4
    assert meta["worst_constraint_residual"] < 1e-6
    # 16^2 blocks are factored directly, so no CG iteration is spent
    assert meta["direct_solves"] == 4
    assert meta["total_factor_nnz"] > 0
    assert meta["total_cg_iterations"] == 0
    assert meta["max_cg_iterations"] == 0
    # the grid and the CG cap are recorded, so the sidecar reproduces the run
    assert meta["grid_n"] == [32, 32]
    assert meta["grid_lo"] == [-2.0, -2.0]
    assert meta["grid_hi"] == [2.0, 2.0]
    assert meta["cg_max_iters"] == 0

    code = main(
        ["errors", "--config", str(cfg), "--solution", str(sol_path),
         "--reference", "exact", "--out", str(tmp_path / "err.csv")]
    )
    assert code == 0
    meta = json.loads((tmp_path / "err.csv.meta.json").read_text())
    assert meta["reference"] == "exact"
    assert meta["model"] == "ring"
    assert meta["epsilon"] == ring_model().epsilon
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if "," in ln]
    header, row = lines[-2].split(","), lines[-1].split(",")
    table = dict(zip(header, row))
    assert float(table["l2"]) > 0.0
    assert 0.8 <= float(table["mass"]) <= 1.1


def test_cli_solve_shift_and_overlap_paths(tmp_path):
    cfg = _write_tiny_config(tmp_path / "run.cfg", **{"sampler.inflate": "1"})
    hist_path = tmp_path / "ring.fphist"
    assert main(["sample", "--config", str(cfg), "--out", str(hist_path)]) == 0
    assert read_histogram(hist_path).grid.n == (34, 34)

    # overlap consumes the inflated histogram directly
    lap_path = tmp_path / "lap.fpgrid"
    code = main(
        ["solve", "--config", str(cfg), "--hist", str(hist_path),
         "--method", "overlap", "--iota", "1", "--out", str(lap_path)]
    )
    assert code == 0
    assert read_field(lap_path).grid.n == (32, 32)

    # shift restricts it back to the core and runs the schedule
    shift_path = tmp_path / "shift.fpgrid"
    code = main(
        ["solve", "--config", str(cfg), "--hist", str(hist_path),
         "--method", "shift", "--schedule", "1/2", "--out", str(shift_path)]
    )
    assert code == 0
    assert read_field(shift_path).grid.n == (32, 32)


def test_cli_too_fine_shift_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    cfg = _write_tiny_config(tmp_path / "run.cfg", **{"grid.n": "20,20"})
    hist_path = tmp_path / "ring.fphist"
    assert main(["sample", "--config", str(cfg), "--out", str(hist_path)]) == 0
    calls = []
    solve = fpblock.blocks.solve_least_norm

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fpblock.blocks, "solve_least_norm", counting_solve)
    out = tmp_path / "shift.fpgrid"
    code = main(["solve", "--config", str(cfg), "--hist", str(hist_path),
                 "--method", "shift", "--blocks", "4,4", "--out", str(out)])
    assert code == 2
    assert "2 cells wide" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_cli_plain_and_overlap_match_the_library_solvers(tmp_path):
    cfg = _write_tiny_config(tmp_path / "run.cfg", **{"sampler.inflate": "1"})
    hist_path = tmp_path / "ring.fphist"
    assert main(["sample", "--config", str(cfg), "--out", str(hist_path)]) == 0
    v_ext = histogram_to_density(read_histogram(hist_path))
    core = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    solve_cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    v_core = restrict(v_ext, ((1, 33),) * 2)
    expected = {
        "overlap": solve_overlapping(ring_model(), v_ext, solve_cfg, 1)[0],
        "plain": solve_blocks(ring_model(), v_core, solve_cfg)[0],
    }
    for method, fld in expected.items():
        cli_path = tmp_path / f"{method}.fpgrid"
        lib_path = tmp_path / f"{method}-lib.fpgrid"
        assert main(["solve", "--config", str(cfg), "--hist", str(hist_path),
                     "--method", method, "--out", str(cli_path)]) == 0
        write_field(fld, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes(), method


def test_cli_overlap_on_a_wider_inflation_matches_the_library(tmp_path):
    # a histogram inflated by 2 cells is trimmed to the 1-cell halo overlap reads
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    hist_path = tmp_path / "ring.fphist"
    assert main(["sample", "--config", str(cfg), "--inflate", "2",
                 "--out", str(hist_path)]) == 0
    v_ext = histogram_to_density(read_histogram(hist_path))
    assert v_ext.grid.n == (36, 36)
    core = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    solve_cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    fld, _ = solve_overlapping(ring_model(), restrict(v_ext, ((1, 35),) * 2), solve_cfg, 1)
    cli_path = tmp_path / "lap.fpgrid"
    lib_path = tmp_path / "lap-lib.fpgrid"
    assert main(["solve", "--config", str(cfg), "--hist", str(hist_path),
                 "--method", "overlap", "--iota", "1", "--out", str(cli_path)]) == 0
    write_field(fld, lib_path)
    assert cli_path.read_bytes() == lib_path.read_bytes()


_CORE = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))


@pytest.mark.parametrize(
    "grid, method",
    [
        (Grid((-3.0, -3.0), (3.0, 3.0), (32, 32)), "plain"),
        (_CORE.inflate(1).subgrid(((0, 33), (0, 33))), "plain"),
        (_CORE.inflate(2).subgrid(((0, 35), (0, 35))), "shift"),
        (_CORE.inflate(2).subgrid(((0, 35), (0, 35))), "overlap"),
    ],
    ids=["another-box", "one-cell-more", "three-cells-more", "three-cells-more-overlap"],
)
def test_cli_solve_of_a_histogram_off_the_inflated_core_exits_2(
    tmp_path, capsys, grid, method
):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    hist_path = tmp_path / "h.fphist"
    counts = np.full(grid.num_cells, 10, dtype=np.uint64)
    write_histogram(Histogram(grid, counts, int(counts.sum())), hist_path)
    out = tmp_path / "u.fpgrid"
    code = main(["solve", "--config", str(cfg), "--hist", str(hist_path),
                 "--method", method, "--out", str(out)])
    assert code == 2
    assert "reference grid" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exact_reference_needs_a_2d_solution(tmp_path, capsys):
    g = Grid((-2.0,) * 3, (2.0,) * 3, (5, 5, 5))
    sol = tmp_path / "u3.fpgrid"
    write_field(DensityField(g, np.full(125, 1.0 / 64.0)), sol)
    code = main(["errors", "--solution", str(sol), "--reference", "exact"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "2-d" in err


def test_cli_rossler_runs_under_the_restart_policy(tmp_path, capsys):
    # noise kicks chain 1 of seed 5 over the basin rim, and out of the
    # default safety box, at step 4323
    cfg = _write_tiny_config(
        tmp_path / "run.cfg",
        model="rossler",
        **{
            "grid.lo": "-10,-10,-10",
            "grid.hi": "10,10,10",
            "grid.n": "16,16,16",
            "sampler.samples": "80000",
            "sampler.burn_in": "500",
            "sampler.chains": "16",
            "sampler.seed": "5",
            "solver.blocks": "2,2,2",
        },
    )
    hist_path = tmp_path / "r.fphist"
    argv = ["sample", "--config", str(cfg), "--out", str(hist_path)]
    assert main(argv) == 3
    assert main(argv + ["--set", "sampler.on_escape=restart"]) == 0
    meta = json.loads((tmp_path / "r.fphist.meta.json").read_text())
    assert meta["on_escape"] == "restart"
    assert meta["restarts"] > 0
    assert read_histogram(hist_path).total_retained == 80_000
    sol_path = tmp_path / "r.fpgrid"
    code = main(["solve", "--config", str(cfg), "--hist", str(hist_path),
                 "--out", str(sol_path)])
    assert code == 0
    assert read_field(sol_path).grid.n == (16, 16, 16)
    # 3-D blocks go to CG, so the hardest block solve took iterations
    meta = json.loads((tmp_path / "r.fpgrid.meta.json").read_text())
    assert meta["max_cg_iterations"] > 0
    capsys.readouterr()


def test_cli_single_block_matches_whole_domain(tmp_path):
    cfg = _write_tiny_config(tmp_path / "run.cfg", **{"grid.n": "16,16"})
    hist_path = tmp_path / "h.fphist"
    main(["sample", "--config", str(cfg), "--out", str(hist_path)])
    a = tmp_path / "one.fpgrid"
    b = tmp_path / "four.fpgrid"
    main(["solve", "--config", str(cfg), "--hist", str(hist_path),
          "--blocks", "1x1", "--out", str(a)])
    main(["solve", "--config", str(cfg), "--hist", str(hist_path),
          "--blocks", "2x2", "--out", str(b)])
    one = read_field(a)
    four = read_field(b)
    # a single block is the whole-domain solve; four blocks differ from it
    assert one.grid == four.grid
    assert not np.array_equal(one.values, four.values)


def test_cli_overlap_without_inflation_names_the_flag(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    hist_path = tmp_path / "h.fphist"
    main(["sample", "--config", str(cfg), "--out", str(hist_path)])
    code = main(
        ["solve", "--config", str(cfg), "--hist", str(hist_path),
         "--method", "overlap", "--iota", "1", "--out", str(tmp_path / "o.fpgrid")]
    )
    assert code == 2
    assert "--inflate" in capsys.readouterr().err


def test_cli_identical_inputs_give_zero_errors(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    g = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    from fpblock import DensityField

    fld = DensityField(g, np.full(64, 1.0 / 16.0))
    a, b = tmp_path / "a.fpgrid", tmp_path / "b.fpgrid"
    write_field(fld, a)
    write_field(fld, b)
    code = main(["errors", "--config", str(cfg), "--solution", str(a),
                 "--reference", str(b)])
    assert code == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()[-2:]
    table = dict(zip(header.split(","), row.split(",")))
    assert float(table["l2"]) == 0.0
    assert float(table["h1"]) == 0.0
    # the boundary share of a zero error field is undefined, left blank
    assert table["rho_1"] == ""
    assert table["rho_4"] == ""


def test_cli_exit_codes(tmp_path, capsys):
    # unknown config key -> 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("solver.blocs = 2,2\n")
    assert main(["sample", "--config", str(bad),
                 "--out", str(tmp_path / "x.fphist")]) == 2

    # diverging dynamics -> 3
    cfg = _write_tiny_config(
        tmp_path / "run.cfg",
        model="mmo",
        **{
            "grid.lo": "-2,-2,-2",
            "grid.hi": "2,2,2",
            "grid.n": "16,16,16",
            "sampler.dt": "1.0",
            "sampler.samples": "1000",
            "sampler.burn_in": "100",
            "sampler.initial": "0.5,0,0",
        },
    )
    assert main(["sample", "--config", str(cfg),
                 "--out", str(tmp_path / "y.fphist")]) == 3
    capsys.readouterr()

    # unreadable histogram -> 4
    missing = tmp_path / "nope.fphist"
    ok = _write_tiny_config(tmp_path / "ok.cfg")
    assert main(["solve", "--config", str(ok), "--hist", str(missing),
                 "--out", str(tmp_path / "z.fpgrid")]) == 4
    # malformed payload -> 4
    junk = tmp_path / "junk.fphist"
    junk.write_bytes(b"fphist v1 dim=2 n=4,4 lo=0,0 hi=1,1 total=5\n123")
    assert main(["solve", "--config", str(ok), "--hist", str(junk),
                 "--out", str(tmp_path / "z.fpgrid")]) == 4
    # counts whose uint64 sum wraps below the total -> 4
    wrap = tmp_path / "wrap.fphist"
    counts = np.zeros(32 * 32, dtype="<u8")
    counts[:3] = [2**63, 2**63, 5]
    wrap.write_bytes(b"fphist v1 dim=2 n=32,32 lo=-2,-2 hi=2,2 total=5\n" + counts.tobytes())
    assert main(["solve", "--config", str(ok), "--hist", str(wrap),
                 "--out", str(tmp_path / "w.fpgrid")]) == 4
    assert not (tmp_path / "w.fpgrid").exists()
    capsys.readouterr()


def _raise(exc):
    def command(args):
        raise exc

    return command


_EXIT_OF = {
    "ConfigurationError": (2, "configuration error"),
    "DimensionError": (2, "configuration error"),
    "FormatError": (4, "i/o error"),
    "DivergenceError": (3, "numerical failure"),
    "NonConvergenceError": (3, "numerical failure"),
    "RankDeficiencyError": (3, "numerical failure"),
    "SizeError": (3, "numerical failure"),
    "EmptyHistogramError": (3, "numerical failure"),
    "UndefinedRatioError": (3, "numerical failure"),
    "CollageError": (3, "error"),
}


def test_exit_code_table_covers_every_error_class():
    def subclasses(cls):
        return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]

    raised = {c.__name__ for c in subclasses(fpblock.errors.FpblockError)}
    # NumericalError is only the parent the CLI catches; nothing raises it
    assert raised - {"NumericalError"} == set(_EXIT_OF)


@pytest.mark.parametrize("name", [*_EXIT_OF, "OSError"])
def test_cli_maps_each_error_onto_its_exit_code(name, tmp_path, capsys, monkeypatch):
    if name == "OSError":
        exc, (code, label) = OSError("disk gone"), (4, "i/o error")
    else:
        exc, (code, label) = getattr(fpblock.errors, name)("boom"), _EXIT_OF[name]
    monkeypatch.setattr(fpblock.cli, "cmd_sample", _raise(exc))
    assert main(["sample", "--out", str(tmp_path / "x.fphist")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{label}: ")


def test_cli_sample_sidecar_tells_start_points_apart(tmp_path, capsys):
    settings = {"sampler.samples": "400", "sampler.burn_in": "10"}
    metas = []
    for name, initial in (("a", "none"), ("b", "0.5,-0.5")):
        cfg = _write_tiny_config(
            tmp_path / f"{name}.cfg", **settings, **{"sampler.initial": initial}
        )
        out = tmp_path / f"{name}.fphist"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        metas.append(json.loads((tmp_path / f"{name}.fphist.meta.json").read_text()))
    capsys.readouterr()
    assert [m["initial"] for m in metas] == [[0.0, 0.0], [0.5, -0.5]]
    assert metas[0]["steps"] == metas[1]["steps"] == 10 + 400 // 4


def test_cli_solve_of_an_empty_sample_says_no_state_was_retained(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "run.cfg", **{"sampler.samples": "0"})
    hist_path = tmp_path / "empty.fphist"
    assert main(["sample", "--config", str(cfg), "--out", str(hist_path)]) == 0
    capsys.readouterr()
    code = main(["solve", "--config", str(cfg), "--hist", str(hist_path),
                 "--out", str(tmp_path / "u.fpgrid")])
    assert code == 3
    err = capsys.readouterr().err
    assert "no state was retained" in err
    assert "outside the domain" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--hist", "{tmp}/h.fphist", "--out", "{tmp}/u.fpgrid",
         "--schedule", "1/0"],
        ["solve", "--hist", "{tmp}/h.fphist", "--out", "{tmp}/u.fpgrid",
         "--schedule", "abc"],
        ["analyze", "angles", "--n", "8", "--thickness", "a"],
        ["convergence", "--mesh", "6a", "--out", "{tmp}/c.csv"],
        ["convergence", "--block-cells", "0", "--out", "{tmp}/c.csv"],
        ["convergence", "--block-cells", "-32", "--out", "{tmp}/c.csv"],
        ["solve", "--hist", "{tmp}/h.fphist", "--out", "{tmp}/u.fpgrid",
         "--set", "solver.cg_max_iters=-5"],
        # every sampler and solver setting is checked when it is parsed,
        # also by a command that does not use it
        ["solve", "--hist", "{tmp}/h.fphist", "--out", "{tmp}/u.fpgrid",
         "--set", "sampler.dt=-1"],
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.samples=0",
         "--set", "solver.cg_rel_tol=2"],
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.samples=0",
         "--set", "grid.lo=nan,-2"],
        # and so are the run's own solver fields, each on its own
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.samples=0",
         "--set", "solver.iota=-1"],
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.samples=0",
         "--set", "solver.blocks=0,0"],
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.samples=0",
         "--set", "solver.schedule=2"],
        # a setting that is not finite is a bad setting too
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.dt=inf"],
        ["sample", "--out", "{tmp}/h.fphist", "--set", "sampler.initial=nan,0"],
        ["sample", "--out", "{tmp}/h.fphist", "--set", "epsilon=inf"],
        ["solve", "--hist", "{tmp}/h.fphist", "--out", "{tmp}/u.fpgrid",
         "--set", "epsilon=inf"],
    ],
    ids=["schedule-1/0", "schedule-abc", "thickness-a", "mesh-6a",
         "block-cells-0", "block-cells-negative", "cg-max-iters-negative",
         "solve-sampler-dt", "sample-solver-tolerance", "sample-grid-lo-nan",
         "sample-solver-iota", "sample-solver-blocks", "sample-solver-schedule",
         "sample-dt-inf", "sample-initial-nan", "sample-epsilon-inf",
         "solve-epsilon-inf"],
)
def test_cli_malformed_flag_values_exit_2(tmp_path, capsys, argv):
    # h.fphist does not exist: reading it would exit 4, not 2
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_flags_win_over_set_and_both_block_spellings_agree(tmp_path):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    hist_path = tmp_path / "h.fphist"
    assert main(["sample", "--config", str(cfg), "--out", str(hist_path)]) == 0

    def solve(name, *flags):
        argv = ["solve", "--config", str(cfg), "--hist", str(hist_path), *flags]
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        return meta, (tmp_path / name).read_bytes()

    meta, _ = solve("m.fpgrid", "--set", "solver.method=plain", "--method", "shift")
    assert meta["method"] == "shift"
    comma = solve("c.fpgrid", "--set", "solver.blocks=4,4", "--blocks", "2,2")
    cross = solve("x.fpgrid", "--set", "solver.blocks=4,4", "--blocks", "2x2")
    assert comma[0]["blocks"] == cross[0]["blocks"] == [2, 2]
    assert comma[1] == cross[1]


def test_cli_analyze_kernel(tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    assert main(["analyze", "kernel", "--n", "21", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "80 vectors" in text
    import csv

    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 80
    assert rows[-1]["family"] == "poly"
    assert all(float(r["r_diagonal"]) > 1e-6 for r in rows)


def test_cli_analyze_angles(tmp_path, capsys):
    out = tmp_path / "angles.csv"
    code = main(["analyze", "angles", "--zero-drift", "--n", "20",
                 "--thickness", "2", "--out", str(out)])
    assert code == 0
    assert "mean cosine" in capsys.readouterr().out
    import csv

    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4 * 20 - 4
    assert all(r["thickness"] == "2" for r in rows)


def test_cli_convergence_smoke(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    out = tmp_path / "conv.csv"
    code = main(
        ["convergence", "--config", str(cfg), "--mesh", "32",
         "--methods", "mc,plain", "--samples-per-cell", "20",
         "--block-cells", "16", "--out", str(out)]
    )
    assert code == 0
    import csv

    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["method"] for r in rows] == ["mc", "plain"]
    assert all(float(r["l2"]) > 0 for r in rows)
    meta = json.loads((tmp_path / "conv.csv.meta.json").read_text())
    assert meta["command"] == "convergence"


def test_cli_convergence_sidecar_tells_iota_apart(tmp_path, capsys):
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    metas = []
    for iota in (1, 2):
        out = tmp_path / f"conv{iota}.csv"
        code = main(
            ["convergence", "--config", str(cfg), "--mesh", "32",
             "--methods", "mc,overlap", "--samples-per-cell", "20",
             "--block-cells", "16", "--set", f"solver.iota={iota}",
             "--out", str(out)]
        )
        assert code == 0
        metas.append(json.loads((tmp_path / f"conv{iota}.csv.meta.json").read_text()))
    assert metas[0] != metas[1]
    assert [m["iota"] for m in metas] == [1, 2]
    for key in ("epsilon", "grid_lo", "grid_hi", "schedule", "dt", "burn_in",
                "chains", "cg_rel_tol", "cg_max_iters"):
        assert metas[0][key] == metas[1][key], key
    assert metas[0]["grid_lo"] == [-2.0, -2.0]
    assert metas[0]["burn_in"] == 2000
    assert metas[0]["chains"] == 4


def test_unknown_convergence_method_fails_before_sampling(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(fpblock.analysis, "accumulate_histogram",
                        lambda *a, **k: calls.append(1))
    with pytest.raises(ConfigurationError, match="bogus"):
        fpblock.analysis.convergence_study(
            ring_model(), ring_exact_density(), (-2.0, -2.0), (2.0, 2.0), (32,),
            methods=("mc", "bogus"),
        )
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--config", str(cfg), "--mesh", "32",
                 "--methods", "mc,bogus", "--block-cells", "16", "--out", str(out)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "mesh, block_cells, methods, match",
    [
        ("32,40", 16, "mc,plain", "mesh size 40"),
        ("32", 4, "mc,plain", "block size 4 < 5"),
        ("30", 5, "mc,shift", "only 2 cells wide"),
    ],
    ids=["uneven-second-mesh", "blocks-too-small", "shift-too-fine"],
)
def test_convergence_checks_every_mesh_before_sampling(
    tmp_path, capsys, monkeypatch, mesh, block_cells, methods, match
):
    calls = []
    monkeypatch.setattr(fpblock.analysis, "accumulate_histogram",
                        lambda *a, **k: calls.append(1))
    with pytest.raises(ConfigurationError, match=match):
        fpblock.analysis.convergence_study(
            ring_model(), ring_exact_density(), (-2.0, -2.0), (2.0, 2.0),
            tuple(int(n) for n in mesh.split(",")), methods=tuple(methods.split(",")),
            block_cells=block_cells,
        )
    cfg = _write_tiny_config(tmp_path / "run.cfg")
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--config", str(cfg), "--mesh", mesh,
                 "--methods", methods, "--block-cells", str(block_cells),
                 "--out", str(out)])
    assert code == 2
    assert match in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_console_script_is_installed():
    exe = shutil.which("fpblock")
    if exe is None:
        pytest.skip("entry point not on PATH in this environment")
    proc = subprocess.run(
        [exe, "analyze", "kernel", "--n", "11"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "40 vectors" in proc.stdout


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fpblock.cli", "analyze", "kernel", "--n", "11"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "40 vectors" in proc.stdout
