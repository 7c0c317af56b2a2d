import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from thermohom.cli import main
from thermohom.config import _SECTIONS, ConfigError, RunConfig, TableSource, parse_config


BASE = """\
[run]
dimension = 2
radius = 0.25
cell_resolution = 8
macro_resolution = 4
eps_list = 1/2

[transformation]
family = identity

[material]
dissipation_a = 0.0
dissipation_b = 0.0
surface_tension = 0.0
latent_heat = 0.0

[time]
t_final = 0.05
dt = 0.05

[sources]
theta0 = cosine 1.0 0.5 1 1

[output]
directory = {out}
"""


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def write_cfg(tmp_path, text=None, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text if text is not None else BASE.format(out=tmp_path / "out"))
    return str(path)


class TestParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path))
        assert cfg.dimension == 2
        assert cfg.fixed_point_tol == RunConfig().fixed_point_tol
        assert cfg.eps_list == (0.5,)
        assert cfg.family == "identity"

    def test_negative_radius_named(self, tmp_path):
        text = BASE.format(out=tmp_path).replace("radius = 0.25", "radius = -0.1")
        with pytest.raises(ConfigError, match="radius"):
            parse_config(write_cfg(tmp_path, text))

    def test_unknown_key_named_with_line(self, tmp_path):
        text = BASE.format(out=tmp_path).replace(
            "radius = 0.25", "radius = 0.25\nwibble = 3")
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(write_cfg(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = BASE.format(out=tmp_path) + "\n[nonsense]\nkey = 1\n"
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config(write_cfg(tmp_path, text))

    def test_fractions_accepted(self, tmp_path):
        text = BASE.format(out=tmp_path).replace("eps_list = 1/2",
                                                 "eps_list = 1/2 1/4")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.eps_list == (0.5, 0.25)

    def test_fixed_point_cap_below_one_rejected(self, tmp_path):
        text = BASE.format(out=tmp_path) + "\n[tolerances]\nfixed_point_max_iter = 0\n"
        with pytest.raises(ConfigError, match="fixed_point_max_iter must be at least 1"):
            parse_config(write_cfg(tmp_path, text))

    def test_dt_exceeding_horizon_rejected(self, tmp_path):
        text = BASE.format(out=tmp_path).replace("dt = 0.05", "dt = 0.2")
        with pytest.raises(ConfigError, match="dt"):
            parse_config(write_cfg(tmp_path, text))

    def test_every_key_parses_its_default_text(self, tmp_path):
        default, lines = RunConfig(), []
        for section, keys in _SECTIONS.items():
            lines.append(f"[{section}]")
            for key in keys:
                value = getattr(default, key)
                text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
                lines.append(f"{key} = {text}")
        cfg = parse_config(write_cfg(tmp_path, "\n".join(lines) + "\n"))
        keys = [key for section in _SECTIONS.values() for key in section]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
        for key in keys:
            got, want = getattr(cfg, key), getattr(default, key)
            assert type(got) is type(want) and got == want, key

    @pytest.mark.parametrize("line", ["cell_resolution = 2.5", "radius = wide",
                                      "eps_list = 1/2 x", "radius = 1/0"])
    def test_malformed_value_names_its_line(self, tmp_path, line):
        text = BASE.format(out=tmp_path).replace("[transformation]",
                                                 f"{line}\n\n[transformation]")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"line 8: invalid value for '{key}'"):
            parse_config(write_cfg(tmp_path, text))

    def test_malformed_bool_names_its_line(self, tmp_path):
        text = BASE.format(out=tmp_path) + "\n[flags]\nvtk = maybe\n"
        with pytest.raises(ConfigError, match="invalid value for 'vtk': expected a boolean"):
            parse_config(write_cfg(tmp_path, text))

    def test_canonical_hash_ignores_workers(self, tmp_path):
        cfg1 = parse_config(write_cfg(tmp_path))
        cfg2 = parse_config(write_cfg(tmp_path))
        cfg2.workers = 8
        assert cfg1.config_hash() == cfg2.config_hash()


DET_BOUNDS = "det bounds must satisfy 0 < det_lower <= 1 <= det_upper"


@pytest.mark.parametrize("sub, old, new, message", [
    ("micro", "eps_list = 1/2", "eps_list = 0",
     "eps must be 1/n for an integer n >= 1, got eps = 0.0"),
    ("micro", "eps_list = 1/2", "eps_list = -1/2",
     "eps must be 1/n for an integer n >= 1, got eps = -0.5"),
    ("micro", "eps_list = 1/2", "eps_list = 1/2 0.3",
     "eps must be 1/n for an integer n >= 1, got eps = 0.3"),
    ("micro", "eps_list = 1/2", "eps_list =", "eps_list must not be empty"),
    ("macro", "macro_resolution = 4", "macro_resolution = 0",
     "macro_resolution must be at least 1"),
    ("macro", "t_final = 0.05", "t_final = -1", "t_final must not be negative"),
    ("macro", "radius = 0.25", "radius = wide",
     "line 3: invalid value for 'radius': could not convert string to float: 'wide'"),
    ("checks", "family = identity", "family = identity\nvalidation_grid = 0",
     "validation_grid must be at least 1"),
    ("checks", "family = identity", "family = identity\nboundary_margin = -0.1",
     "boundary_margin must not be negative"),
    ("checks", "family = identity", "family = identity\ndet_lower = 3.0\ndet_upper = 2.0",
     DET_BOUNDS),
    ("checks", "family = identity", "family = identity\ndet_lower = 0", DET_BOUNDS),
    ("macro", "family = identity", "family = identity\ndet_upper = 0.9", DET_BOUNDS),
    ("macro", "family = identity", "family = radial_growth\namplitude_poly = 0 0.1\n"
     "amplitude_x_slope = 0.5 0.25 0.0",
     "amplitude_x_slope needs 0 or dimension = 2 values, got 3"),
    ("macro", "family = identity", "family = radial_growth\namplitude_poly = 0.1 0.1",
     "amplitude_poly needs a constant term of 0, so that the amplitude vanishes at "
     "t = 0, got [0.1, 0.1]"),
    ("checks", "family = identity", "family = radial_growth\namplitude_poly =",
     "amplitude_poly needs a constant term of 0, so that the amplitude vanishes at "
     "t = 0, got []"),
], ids=["eps_zero", "eps_negative", "eps_not_reciprocal", "eps_empty", "resolution_zero",
         "t_final_negative", "malformed_value", "validation_grid_zero",
         "boundary_margin_negative", "det_bounds_inverted", "det_lower_zero",
         "det_upper_below_one", "x_slope_length", "amplitude_poly_constant",
         "amplitude_poly_empty"])
def test_invalid_setting_exits_one_naming_the_file(tmp_path, capsys, sub, old, new, message):
    cfg = write_cfg(tmp_path, BASE.format(out=tmp_path / "out").replace(old, new))
    assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
    err = capsys.readouterr().err
    assert err == f"thermohom: {cfg}: {message}\n"


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_parses_and_validates(path):
    cfg = parse_config(path)                 # validates every value
    assert cfg.material().dim == cfg.transformation().dim == cfg.dimension
    assert len(cfg.sources()(cfg.t_final)) == 4


class TestSubcommands:
    def test_checks_pass_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["checks", "--config", cfg, "--out", str(tmp_path / "chk")]) == 0
        report = (tmp_path / "chk" / "checks.txt").read_text()
        assert "all checks: PASS" in report

    def test_compare_single_row(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "cmp")]) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + one eps row
        assert lines[0].startswith("eps,")

    def test_effective_table_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["effective", "--config", cfg,
                     "--out", str(tmp_path / "eff")]) == 0
        manifest = json.loads((tmp_path / "eff" / "manifest.json").read_text())
        assert manifest["command"] == "effective"
        assert len(manifest["config_hash"]) == 64

    def test_effective_time_levels_are_the_macro_levels(self, tmp_path):
        # 0.5 is no multiple of dt: the last step is shortened to end there
        text = BASE.format(out=tmp_path / "out").replace(
            "t_final = 0.05", "t_final = 0.5").replace("dt = 0.05", "dt = 0.3")
        cfg = write_cfg(tmp_path, text)
        times = {}
        for sub, name in (("effective", "effective.csv"), ("macro", "diagnostics.csv")):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
            rows = (tmp_path / sub / name).read_text().strip().split("\n")[1:]
            times[sub] = sorted({float(r.split(",")[0]) for r in rows})
        assert times["effective"] == times["macro"] == [0.0, 0.3, 0.5]

    def test_macro_diagnostics(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["macro", "--config", cfg,
                     "--out", str(tmp_path / "mac")]) == 0
        lines = (tmp_path / "mac" / "diagnostics.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + initial state + one step

    def test_conservation_mech_residual_at_round_off(self, tmp_path):
        # theta turns uniform, so the reduced load nearly vanishes and the
        # residual must be measured against the thermal stress it balances
        cfg = next(p for p in SHIPPED_CONFIGS if p.name == "conservation.cfg")
        assert main(["macro", "--config", str(cfg), "--out", str(tmp_path / "mac")]) == 0
        header, *rows = (tmp_path / "mac" / "diagnostics.csv").read_text().strip().split("\n")
        col = header.split(",").index("mech_residual")
        assert len(rows) == 101
        assert max(float(r.split(",")[col]) for r in rows) < 1e-9

    @pytest.mark.parametrize("sub", ["macro", "compare"])
    def test_unreachable_corrector_tol_exits_one(self, tmp_path, capsys, sub):
        # both solve the cell correctors to the configured corrector_tol
        standard = next(p for p in SHIPPED_CONFIGS if p.name == "standard.cfg")
        text = standard.read_text().replace(
            "fixed_point_tol = 1e-8", "fixed_point_tol = 1e-8\ncorrector_tol = 1e-20"
        ).replace("eps_list = 1/2 1/4 1/8", "eps_list = 1/2").replace(
            "t_final = 0.5", "t_final = 0.05")
        cfg = write_cfg(tmp_path, text)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"thermohom {sub}: SolverError: cell corrector ")
        assert "exceeds corrector_tol 1e-20" in err

    def test_missing_config_reports_error(self, tmp_path, capsys):
        assert main(["macro", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "thermohom" in capsys.readouterr().err

    # the two-scale step is exact, so only the resolved solver has a loop
    @pytest.mark.parametrize("sub", ["micro"])
    def test_stalled_fixed_point_loop_exits_one(self, tmp_path, capsys, sub):
        text = BASE.format(out=tmp_path / "out") + (
            "\n[tolerances]\nfixed_point_max_iter = 1\nfixed_point_tol = 1e-30\n")
        cfg = write_cfg(tmp_path, text)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
        err = capsys.readouterr().err
        assert f"thermohom {sub}: FixedPointError" in err
        assert "t = 0.05" in err

    def test_micro_norm_bundle_and_identical_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for run in ("a", "b"):
            assert main(["micro", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        lines = (tmp_path / "a" / "norm_bundle.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + the one eps row
        assert lines[0].startswith("eps,linf_theta,")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["command"] == "micro"
        for name in ("norm_bundle.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_micro_inadmissible_growth_exits_one(self, tmp_path, capsys):
        # amplitude -40 t makes det(F) negative at the first step, t = 0.05
        text = BASE.format(out=tmp_path / "out").replace(
            "family = identity", "family = radial_growth\namplitude_poly = 0.0 -40.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["micro", "--config", cfg, "--out", str(tmp_path / "micro")]) == 1
        err = capsys.readouterr().err
        assert "thermohom micro: BundleError: resolved solver" in err
        assert "t = 0.05" in err

    def test_macro_inadmissible_growth_exits_one(self, tmp_path, capsys):
        text = BASE.format(out=tmp_path / "out").replace(
            "family = identity", "family = radial_growth\namplitude_poly = 0.0 -40.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["macro", "--config", cfg, "--out", str(tmp_path / "macro")]) == 1
        err = capsys.readouterr().err
        assert ("thermohom macro: BundleError: two-scale solver: cannot build the "
                "effective coefficients at t = 0.05, x = [") in err
        assert "det(F) = -" in err

    def test_identity_is_radial_growth_of_zero_amplitude(self, tmp_path):
        identity = next(p for p in SHIPPED_CONFIGS if p.name == "decoupled.cfg").read_text()
        growth = identity.replace("family = identity",
                                  "family = radial_growth\namplitude_poly = 0")
        assert growth != identity
        for sub, name in (("macro", "diagnostics.csv"), ("micro", "norm_bundle.csv")):
            written = []
            for tag, text in (("identity", identity), ("growth", growth)):
                cfg = write_cfg(tmp_path, text, name=f"{tag}.cfg")
                assert main([sub, "--config", cfg, "--out", str(tmp_path / tag / sub)]) == 0
                written.append((tmp_path / tag / sub / name).read_bytes())
            assert written[0] == written[1]

    def test_rerun_identical_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["effective", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["effective", "--config", cfg, "--out", str(tmp_path / "b"),
              "--workers", "4"])
        a = (tmp_path / "a" / "effective.csv").read_bytes()
        b = (tmp_path / "b" / "effective.csv").read_bytes()
        assert a == b
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb


class TestTransformationTable:
    def test_roundtrip_through_config(self, tmp_path):
        from thermohom.config import save_transformation_table
        from thermohom.kinematics import PolynomialAmplitude, RadialGrowth

        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.2)))
        table = tmp_path / "motion.tbl"
        save_transformation_table(str(table), tr, np.linspace(0.0, 1.0, 6),
                                  [np.array([0.5, 0.5])], 41)
        text = BASE.format(out=tmp_path).replace(
            "family = identity",
            f"family = tabulated\ntable_path = {table}")
        cfg = parse_config(write_cfg(tmp_path, text, name="tab.cfg"))
        tab = cfg.transformation()
        pts = np.array([[0.6, 0.5], [0.5, 0.72]])
        ref = tr.map_points(0.5, np.array([0.5, 0.5]), pts)
        got = tab.map_points(0.5, np.array([0.5, 0.5]), pts)
        assert np.max(np.abs(ref - got)) < 5e-3

    def test_malformed_table_named(self, tmp_path, capsys):
        from thermohom.config import load_transformation_table, save_transformation_table
        from thermohom.kinematics import PolynomialAmplitude, RadialGrowth

        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.2)))
        table = tmp_path / "motion.tbl"
        save_transformation_table(str(table), tr, np.linspace(0.0, 1.0, 3),
                                  [np.array([0.5, 0.5])], 5)
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(lines[:-5]))
        text = BASE.format(out=tmp_path).replace(
            "family = identity", f"family = tabulated\ntable_path = {table}")
        cfg = write_cfg(tmp_path, text, name="tab.cfg")
        assert main(["macro", "--config", cfg, "--out", str(tmp_path / "macro")]) == 1
        err = capsys.readouterr().err
        assert f"ConfigError: transformation table {table}: too few values after the " \
               f"header 2 3 1 5: 145, expected 155" in err

        table.write_text("".join(lines) + "0.5\n")
        with pytest.raises(ConfigError, match=r"too many values after the header 2 3 1 5: "
                           r"156, expected 155$"):
            load_transformation_table(str(table))
        table.write_text("".join(lines).replace("0.5", "half", 1))
        with pytest.raises(ConfigError, match=rf"^transformation table {table}: could not "
                           r"convert string to float: 'half'$"):
            load_transformation_table(str(table))

    @pytest.mark.parametrize("times, anchors, grid_n, message", [
        ([0.0, 1.0], [[0.5, 0.5]], 1, "grid_n = 1, needs at least 2 lattice points per axis"),
        ([], [[0.5, 0.5]], 5, "table has no times"),
        ([0.0, 1.0], [], 5, "table has no anchors"),
    ], ids=["grid_n_one", "no_times", "no_anchors"])
    def test_empty_table_named(self, tmp_path, capsys, times, anchors, grid_n, message):
        from thermohom.config import save_transformation_table
        from thermohom.kinematics import PolynomialAmplitude, RadialGrowth

        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.2)))
        table = tmp_path / "motion.tbl"
        save_transformation_table(str(table), tr, times, np.array(anchors), grid_n)
        text = BASE.format(out=tmp_path).replace(
            "family = identity", f"family = tabulated\ntable_path = {table}")
        cfg = write_cfg(tmp_path, text, name="tab.cfg")
        assert main(["macro", "--config", cfg, "--out", str(tmp_path / "macro")]) == 1
        assert capsys.readouterr().err == (
            f"thermohom macro: ConfigError: transformation table {table}: {message}\n")

    def test_decreasing_times_named(self, tmp_path):
        from thermohom.config import load_transformation_table, save_transformation_table
        from thermohom.kinematics import PolynomialAmplitude, RadialGrowth

        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.4)))
        table = tmp_path / "motion.tbl"
        save_transformation_table(str(table), tr, [0.5, 0.0], [np.array([0.5, 0.5])], 5)
        with pytest.raises(ConfigError, match=rf"^transformation table {table}: table "
                           r"times must increase strictly$"):
            load_transformation_table(str(table))

    def test_wrong_dimension_named(self, tmp_path, capsys):
        from thermohom.config import save_transformation_table
        from thermohom.kinematics import PolynomialAmplitude, RadialGrowth

        tables = {}
        for d in (2, 3):
            tr = RadialGrowth(dim=d, inclusion_radius=0.25,
                              amplitude=PolynomialAmplitude((0.0, 0.2)))
            tables[d] = tmp_path / f"motion{d}.tbl"
            save_transformation_table(str(tables[d]), tr, [0.0, 1.0], [np.full(d, 0.5)], 5)
        text = BASE.format(out=tmp_path).replace(
            "family = identity", f"family = tabulated\ntable_path = {tables[3]}")
        cfg = write_cfg(tmp_path, text, name="tab.cfg")
        for sub in ("macro", "checks"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
            assert (f"ConfigError: transformation table {tables[3]}: dimension 3 does not "
                    f"match [run] dimension = 2") in capsys.readouterr().err

        text = text.replace(str(tables[3]), str(tables[2])).replace(
            "dimension = 2", "dimension = 3").replace("0.5 1 1", "0.5 1 1 1")
        with pytest.raises(ConfigError, match=rf"^transformation table {tables[2]}: "
                           r"dimension 2 does not match \[run\] dimension = 3$"):
            parse_config(write_cfg(tmp_path, text, name="tab3.cfg")).transformation()

    def test_micro_runs_on_two_anchor_table(self, tmp_path):
        from thermohom.config import save_transformation_table
        from thermohom.kinematics import PolynomialAmplitude, RadialGrowth

        # an x slope gives the two anchors different growth rates
        tr = RadialGrowth(dim=2, inclusion_radius=0.25,
                          amplitude=PolynomialAmplitude((0.0, 0.2), (1.0, 0.0)))
        table = tmp_path / "motion.tbl"
        save_transformation_table(str(table), tr, np.linspace(0.0, 1.0, 6),
                                  [np.array([0.25, 0.5]), np.array([0.75, 0.5])], 41)
        text = BASE.format(out=tmp_path).replace(
            "family = identity", f"family = tabulated\ntable_path = {table}")
        cfg = write_cfg(tmp_path, text, name="tab.cfg")
        assert main(["micro", "--config", cfg, "--out", str(tmp_path / "micro")]) == 0
        lines = (tmp_path / "micro" / "norm_bundle.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert np.all(np.isfinite([float(v) for v in lines[1].split(",")]))


class TestSourceTable:
    @pytest.mark.parametrize("rows, fault", [
        ("0.0 1.0\n0.5 x\n", ": could not convert string to float: 'x'"),
        ("0.0 1.0\n0.5 2.0 3.0\n", " needs 2 columns (t, values) in every row"),
        ("0.5 2.0\n0.0 1.0\n", ": times must increase strictly"),
    ], ids=["bad_token", "unequal_rows", "decreasing_times"])
    def test_malformed_table_named(self, tmp_path, capsys, rows, fault):
        table = tmp_path / "bad.table"
        table.write_text(rows)
        text = BASE.format(out=tmp_path).replace(
            "[sources]\n", f"[sources]\nf_theta_a = table {table}\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["macro", "--config", cfg, "--out", str(tmp_path / "macro")]) == 1
        assert f"ConfigError: source table {table}{fault}" in capsys.readouterr().err

    def test_one_time_level_is_constant(self, tmp_path):
        table = tmp_path / "one.table"
        table.write_text("# t f\n0.2 1.5\n")
        source = TableSource.load(str(table), 1)
        assert [source(t)[0] for t in (0.0, 0.2, 1.0)] == [1.5, 1.5, 1.5]
