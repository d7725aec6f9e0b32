"""CLI orchestration: exit codes, report files, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergman import RadialWeight, config, criteria
from bergman.cli import main
from bergman.config import ExperimentConfig
from bergman.errors import ConfigError, DomainError


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = {
        "schema": 1,
        "seed": 11,
        "p": 2.0,
        "q": 2.0,
        "n": 0,
        "grid_level": 7,
        "lattice_r": 0.3,
        "weight": {"kind": "power", "alpha": 0.0},
    }
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main([str(a) for a in args])


class TestErrors:
    def test_empty_config(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        code = run(["classify-weight", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "config"

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["classify-weight", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "o"])
        assert code == 2

    def test_missing_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run(["criterion", "hinf", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["field"] == "operator"

    def test_bad_schema_version(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "weight": {"kind": "power", "alpha": 0}}))
        assert run(["classify-weight", "--config", path, "--out", tmp_path / "o"]) == 2

    def test_resource_overrun_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid_level": 24,
            "operator": {"phi": {"kind": "scale", "r": 0.5},
                         "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 0},
        })
        code = run(["criterion", "hinf", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 3

    def test_usage_error_without_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code != 0

    def test_grid_level_flag_is_a_usage_error(self, tmp_path, capsys):
        # the grid level comes from the config's grid_level alone
        cfg = write_config(tmp_path, {"function": {"kind": "poly", "coeffs": [[1, 0]]}})
        with pytest.raises(SystemExit) as exc:
            run(["norm", "--config", cfg, "--out", tmp_path / "o", "--grid-level", 7])
        assert exc.value.code == 2
        assert "--grid-level" in capsys.readouterr().err


class TestInputValidation:
    """Malformed values end in exit 2 with a JSON error, never a traceback."""

    FUNCTION = {"kind": "poly", "coeffs": [[1.0, 0.0]]}

    def error_of(self, tmp_path, capsys, extra, argv=("norm",)):
        cfg = write_config(tmp_path, {"function": self.FUNCTION, **extra})
        code = run([*argv, "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        return json.loads(capsys.readouterr().out)["error"]

    def test_nan_exponent(self, tmp_path, capsys):
        err = self.error_of(tmp_path, capsys, {"p": float("nan")})
        assert err["field"] == "p"

    def test_operator_not_an_object(self, tmp_path, capsys):
        err = self.error_of(tmp_path, capsys, {"operator": 5})
        assert err["field"] == "operator"

    def test_non_numeric_exponent(self, tmp_path, capsys):
        err = self.error_of(tmp_path, capsys, {"p": "abc"})
        assert err["field"] == "p"

    @pytest.mark.parametrize("key, value", [
        ("q", float("inf")), ("q", True), ("lattice_r", "x"),
        ("lattice_r", float("nan")), ("gamma", float("nan")), ("gamma", "2"),
        ("seed", "x"), ("seed", 1.5), ("seed", -1), ("grid_level", 7.5),
        ("grid_level", None), ("n", "x"), ("p", 10 ** 400),
        ("carleson_convention", "literal"),
    ], ids=lambda v: repr(v)[:12])
    def test_bad_scalar(self, tmp_path, capsys, key, value):
        err = self.error_of(tmp_path, capsys, {key: value})
        assert err["type"] == "config" and err["field"] == key

    @pytest.mark.parametrize("section, spec, field", [
        ("weight", {"kind": "power", "alpha": "x"}, "weight.alpha"),
        ("weight", {"kind": "log_power", "alpha": 1.0, "b": float("nan")}, "weight.b"),
        ("function", {"kind": "conformal_power", "a": [0.5, 0.0], "gamma": "x"},
         "function.gamma"),
        ("function", {"kind": "poly", "coeffs": [[1.0, float("nan")]]}, "function.coeffs"),
        ("function", {"kind": "conformal_power", "a": [0.5, 0.0], "gamma": 2.0,
                      "scale": "abc"}, "function.scale"),
        ("weight", {"kind": "table", "r": ["a", 1.0], "w": [1.0, 0.0]}, "weight.r"),
        ("weight", {"kind": "table", "r": 0.5, "w": [1.0, 0.0]}, "weight"),
        ("function", {"kind": "poly", "coeffs": None}, "function.coeffs"),
        *[("function", {"kind": "conformal_power", "a": [0.5, 0.0], "gamma": 2.0,
                        "scale": bad}, "function.scale")
          for bad in (float("nan"), float("inf"), True, "3")],
    ])
    def test_bad_spec_number(self, tmp_path, capsys, section, spec, field):
        err = self.error_of(tmp_path, capsys, {section: spec})
        assert err["type"] == "config" and err["field"] == field

    def test_composition_maps_not_a_list(self, tmp_path, capsys):
        err = self.error_of(tmp_path, capsys,
                            {"operator": {"phi": {"kind": "composition", "maps": 5}}},
                            argv=("criterion", "hinf"))
        assert err["type"] == "config" and err["field"] == "phi"

    def test_config_nested_too_deeply_to_decode(self, tmp_path, capsys):
        # json.load raises RecursionError, not JSONDecodeError, on this file
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"schema": 1, "weight": ' + "[" * depth + "]" * depth + "}")
        code = run(["classify-weight", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"

    def test_deeply_nested_composition_runs(self, tmp_path):
        # 250 compositions nested in one another around one map are parsed
        # without a call per level and flattened: the report is the one of
        # the composition of that map alone, values and repr alike
        moebius = {"kind": "moebius", "c": [0.3, 0.1]}
        nested = moebius
        for _ in range(250):
            nested = {"kind": "composition", "maps": [nested]}
        outputs = []
        for name, phi in (("nested", nested),
                          ("flat", {"kind": "composition", "maps": [moebius]})):
            cfg = write_config(tmp_path, {"grid_level": 4, "operator": {"phi": phi}},
                               name=f"{name}.json")
            out = tmp_path / name
            assert run(["criterion", "hinf", "--config", cfg, "--out", out,
                        "--deterministic"]) == 0
            outputs.append((json.loads((out / "report.json").read_text())["result"],
                            (out / "samples.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_nested_compositions_flatten_in_order(self):
        phi = config.parse_selfmap({"kind": "composition", "maps": [
            {"kind": "scale", "r": 0.5},
            {"kind": "composition", "maps": [{"kind": "power", "k": 2},
                                             {"kind": "composition",
                                              "maps": [{"kind": "identity"}]}]},
            {"kind": "moebius", "c": [0.3, 0.0]}]})
        assert repr(phi) == ("MapComposition([Scale(0.5), PowerMap(2), Identity(), "
                             "Moebius((0.3+0j))])")
        with pytest.raises(DomainError, match="at least one map"):
            config.parse_selfmap({"kind": "composition", "maps": [
                {"kind": "identity"}, {"kind": "composition", "maps": []}]})

    def test_bad_operator_order(self, tmp_path, capsys):
        err = self.error_of(tmp_path, capsys, {"operator": {"n": "x"}})
        assert err["field"] == "operator.n"

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["n", "kind"]), inner, max_size=2),
        max_leaves=6,
    )

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["seed", "p", "q", "n", "grid_level", "lattice_r", "gamma",
                         "carleson_convention", "operator"]),
        json_values, max_size=5))
    def test_from_dict_accepts_or_raises_config_error(self, fields):
        try:
            cfg = ExperimentConfig.from_dict({"schema": 1, **fields})
        except ConfigError:
            return
        assert all(math.isfinite(v) for v in (cfg.p, cfg.q, cfg.lattice_r))
        assert cfg.gamma is None or math.isfinite(cfg.gamma)

    def write_atoms(self, tmp_path, lines):
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("\n".join(lines) + "\n")
        return str(atoms)

    def test_atoms_csv_missing_column(self, tmp_path, capsys):
        path = self.write_atoms(tmp_path, ["x,im,mass", "0.1,0.2,1.0"])
        err = self.error_of(tmp_path, capsys,
                            {"measure": {"kind": "atoms_csv", "path": path}},
                            argv=("criterion", "embedding-sup"))
        assert path in err["message"] and "'re'" in err["message"]
        assert "measure spec missing" not in err["message"]

    def test_atoms_csv_non_numeric_cell(self, tmp_path, capsys):
        path = self.write_atoms(tmp_path, ["re,im,mass", "0.1,0.2,1.0", "0.3,0.1,heavy"])
        err = self.error_of(tmp_path, capsys,
                            {"measure": {"kind": "atoms_csv", "path": path}},
                            argv=("criterion", "embedding-sup"))
        assert path in err["message"] and "'mass'" in err["message"]

    @pytest.mark.parametrize("path", [None, ["a"], 987654, "a\0b"],
                             ids=["null", "list", "not-an-fd", "nul-byte"])
    def test_atoms_csv_path_not_a_file_name(self, tmp_path, capsys, path):
        # an int would be opened as a file descriptor; 987654 is never open
        err = self.error_of(tmp_path, capsys,
                            {"measure": {"kind": "atoms_csv", "path": path}},
                            argv=("criterion", "embedding-sup"))
        assert err["type"] == "config" and err["field"] == "measure.path"

    @pytest.mark.parametrize("row, column", [
        ("0.3,0.1", "mass"),  # short row
        ("0.3,zero,1.0", "im"),
        ("0.3,0.1,1_000", "mass"),  # digit groups: float() reads them, loadtxt does not
    ])
    def test_atoms_csv_bad_row_names_line_and_column(self, tmp_path, capsys, row, column):
        path = self.write_atoms(tmp_path, ["re,im,mass", "0.1,0.2,1.0", "", row, "0.2,0.2,1.0"])
        err = self.error_of(tmp_path, capsys,
                            {"measure": {"kind": "atoms_csv", "path": path}},
                            argv=("criterion", "embedding-sup"))
        assert path in err["message"] and "line 4" in err["message"]
        assert repr(column) in err["message"]


class TestCommands:
    def test_classify_weight(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run(["classify-weight", "--config", cfg, "--out", out,
                    "--deterministic", "--mesh", "96"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["doubling"] is True
        assert "timestamp" not in report

    def test_norm(self, tmp_path):
        cfg = write_config(tmp_path, {"function": {"kind": "poly", "coeffs": [[0, 0], [1, 0]]}})
        out = tmp_path / "o"
        assert run(["norm", "--config", cfg, "--out", out, "--deterministic"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["norm"] == pytest.approx(0.5 ** 0.5, rel=1e-9)
        assert report["result"]["stable"]

    @pytest.mark.parametrize("which,extra", [
        ("embedding-sup", {"p": 1.0, "q": 2.0, "n": 1,
                           "measure": {"kind": "power_density", "beta": 4.5}}),
        ("embedding-ls", {"p": 2.0, "q": 1.0, "n": 0,
                          "measure": {"kind": "power_density", "beta": 1.0}}),
        ("carleson", {"p": 2.0, "q": 1.0,
                      "measure": {"kind": "power_density", "beta": 0.5},
                      "operator": {"phi": {"kind": "scale", "r": 0.5},
                                   "u": {"kind": "poly", "coeffs": [[1, 0]]},
                                   "n": 1}}),
        ("berezin", {"p": 2.0, "q": 2.0, "gamma": 3.0,
                     "target_weight": {"kind": "power", "alpha": 1.0},
                     "operator": {"phi": {"kind": "moebius", "c": [0.3, 0.0]},
                                  "u": {"kind": "poly", "coeffs": [[1, 0]]},
                                  "n": 0}}),
        ("hinf", {"operator": {"phi": {"kind": "scale", "r": 0.5},
                               "u": {"kind": "poly", "coeffs": [[1, 0]]},
                               "n": 0}}),
    ])
    def test_criterion_commands(self, tmp_path, which, extra):
        cfg = write_config(tmp_path, extra)
        out = tmp_path / "o"
        assert run(["criterion", which, "--config", cfg, "--out", out,
                    "--deterministic"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["verdict"] in (
            "bounded-consistent", "divergent", "inconclusive")
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"re", "im", "value"}

    def test_hinf_example_is_finite_and_compact(self, tmp_path):
        # contractive symbol, unit weight: finite supremum, compact operator
        cfg = write_config(tmp_path, {
            "operator": {"phi": {"kind": "scale", "r": 0.5},
                         "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 0}})
        out = tmp_path / "o"
        assert run(["criterion", "hinf", "--config", cfg, "--out", out,
                    "--deterministic"]) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        assert result["verdict"] == "bounded-consistent"
        assert result["compact_verdict"] == "vanishing-tail"

    @pytest.mark.parametrize("which", ["pseudodisc", "pushforward", "norm-equiv"])
    def test_verify_commands_pass(self, tmp_path, which):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run(["verify", which, "--config", cfg, "--out", out,
                    "--deterministic"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["passed"] is True

    def test_norm_equiv_builds_one_weight(self, tmp_path, monkeypatch):
        # the tail density is read from the config's weight, not built into
        # a second RadialWeight
        built = []
        init = RadialWeight.__init__
        monkeypatch.setattr(RadialWeight, "__init__",
                            lambda self, *a, **kw: built.append(init(self, *a, **kw)))
        cfg = write_config(tmp_path)
        assert run(["verify", "norm-equiv", "--config", cfg, "--out", tmp_path / "o",
                    "--deterministic"]) == 0
        assert len(built) == 1

    def test_unverified_gamma_is_a_note_not_a_warning(self, tmp_path):
        # at grid 4 no escalation step verifies gamma: the report says so
        # in its notes, and nothing is written to stderr
        cfg = write_config(tmp_path, {
            "grid_level": 4, "carleson_convention": "standard",
            "target_weight": {"kind": "power", "alpha": 1.0},
            "operator": {"phi": {"kind": "moebius", "c": [0.3, 0.1]},
                         "u": {"kind": "poly", "coeffs": [[1.0, 0.0], [0.5, 0.0]]},
                         "n": 0}})
        out = tmp_path / "o"
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "bergman", "criterion", "berezin",
                               "--config", cfg, "--out", str(out), "--deterministic"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        result = json.loads((out / "report.json").read_text())["result"]
        assert "warning: gamma failed the kernel-domination test" in result["notes"]
        assert result["params"]["convention"] == "standard"

    @pytest.mark.parametrize("beta, code", [(-0.9995, 0), (-1.0, 2)])
    def test_power_density_near_minus_one(self, tmp_path, capsys, beta, code):
        # (1-|z|)^beta dA is a finite measure for every beta > -1, however
        # close to -1.  Against power(1) its pseudo-disc masses ~ gap^(beta+2)
        # outgrow omega(S) ~ gap^3, so the embedding A^2 -> L^2(mu) is
        # unbounded; beta = -1 is not a finite measure and is refused
        cfg = write_config(tmp_path, {"grid_level": 8,
                                      "weight": {"kind": "power", "alpha": 1.0},
                                      "measure": {"kind": "power_density", "beta": beta}})
        out = tmp_path / "o"
        assert run(["criterion", "embedding-sup", "--config", cfg, "--out", out,
                    "--deterministic"]) == code
        if code == 0:
            assert json.loads((out / "report.json").read_text())["result"]["verdict"] \
                == "divergent"
        else:
            err = json.loads(capsys.readouterr().out)["error"]
            assert err == {"type": "DomainError", "message": "power density needs beta > -1"}

    def test_verify_gamma_failure_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"gamma": 0.5, "grid_level": 11})
        out = tmp_path / "o"
        assert run(["verify", "gamma", "--config", cfg, "--out", out,
                    "--deterministic"]) == 1

    def test_norm_divergence_diagnostic(self, tmp_path, capsys):
        # mass concentrated far below the grid resolution: successive levels
        # keep growing the value, which the command refuses to report as a norm
        cfg = write_config(tmp_path, {
            "function": {"kind": "conformal_power", "a": [1.0 - 1e-6, 0.0],
                         "gamma": 8.0, "scale": 1.0}})
        code = run(["norm", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "UnboundedNormError"

    def test_verify_lemma21(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run(["verify", "lemma21", "--config", cfg, "--out", out,
                    "--deterministic"]) == 0

    def test_atoms_csv_measure(self, tmp_path):
        atoms = tmp_path / "atoms.csv"
        with open(atoms, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "mass"])
            writer.writerow([0.1, 0.2, 1.0])
            writer.writerow([-0.4, 0.0, 0.5])
        cfg = write_config(tmp_path, {
            "p": 2.0, "q": 1.0,
            "measure": {"kind": "atoms_csv", "path": str(atoms)}})
        out = tmp_path / "o"
        assert run(["criterion", "embedding-ls", "--config", cfg, "--out", out,
                    "--deterministic"]) == 0

    def test_atoms_csv_measure_builds_no_grid(self, tmp_path, monkeypatch):
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("re,im,mass\n0.1,0.2,1.0\n-0.4,0.0,0.5\n")
        cfg = ExperimentConfig.load(write_config(tmp_path, {
            "measure": {"kind": "atoms_csv", "path": str(atoms)}}))
        built = []
        monkeypatch.setattr(config, "QuadratureGrid", lambda *args: built.append(args))
        assert len(cfg.measure().points) == 2
        assert built == []


class TestNonFiniteReports:
    def test_embedding_sup_large_q_over_p_is_finite(self, tmp_path):
        # wS(a)^(q/p) = wS(a)^500 underflows to 0 at basepoints whose bare
        # mass clears the floor: they are truncated, not divided by
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("re,im,mass\n0.5,0.1,1.0\n-0.9,0.2,0.01\n0.0,0.99,1e-4\n")
        cfg = write_config(tmp_path, {
            "p": 2.0, "q": 1000.0, "weight": {"kind": "power", "alpha": 0.5},
            "measure": {"kind": "atoms_csv", "path": str(atoms)}})
        out = tmp_path / "o"
        assert run(["criterion", "embedding-sup", "--config", cfg, "--out", out,
                    "--deterministic"]) == 0
        result = _strict_json((out / "report.json").read_text())["result"]
        assert result["truncated"] > 0
        assert math.isfinite(result["statistic"])

    def test_non_finite_result_exits_2(self, tmp_path, capsys, monkeypatch):
        hinf = criteria.hinf_criterion

        def nan_statistic(*args, **kwargs):
            report = hinf(*args, **kwargs)
            report.statistic = math.nan
            return report

        monkeypatch.setattr(criteria, "hinf_criterion", nan_statistic)
        cfg = write_config(tmp_path, {
            "grid_level": 5,
            "operator": {"phi": {"kind": "scale", "r": 0.5},
                         "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 0}})
        out = tmp_path / "o"
        assert run(["criterion", "hinf", "--config", cfg, "--out", out,
                    "--deterministic"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert "not finite" in err["message"]
        assert not (out / "report.json").exists()


class TestClassifyMesh:
    """classify-weight rejects a mesh whose deepest tail sweeps would leave
    the normal float range, with a JSON DomainError before any mesh-sized
    work: exit 2, nothing on stderr, no report."""

    @staticmethod
    def classify(tmp_path, mesh):
        cfg = write_config(tmp_path, {"weight": {"kind": "power", "alpha": -0.9}})
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def cap_memory():  # 2 GB of address space for the child alone
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))

        return subprocess.run([sys.executable, "-m", "bergman", "classify-weight",
                               "--config", cfg, "--out", str(tmp_path / "o"),
                               "--deterministic", "--mesh", str(mesh)],
                              env=env, capture_output=True, text=True, timeout=300,
                              preexec_fn=cap_memory)

    def assert_rejected(self, tmp_path, proc):
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr == ""
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "DomainError"
        assert "mesh must have at most" in err["message"]
        assert not (tmp_path / "o" / "report.json").exists()

    def test_mesh_whose_tails_reach_subnormal_gaps(self, tmp_path):
        # mesh 8000 reads gaps down to 2^-1004, and their tail sweeps reach
        # subnormal gaps, where the tail of power(-0.9) is infinite
        self.assert_rejected(tmp_path, self.classify(tmp_path, 8000))

    def test_mesh_too_large_to_allocate(self, tmp_path):
        # the mesh's gap array alone would take 7.45 GiB
        self.assert_rejected(tmp_path, self.classify(tmp_path, 1_000_000_000))


class TestExtinctTail:
    """A weight whose tail integral dies within the first mesh octaves has
    no dyadic ratios to classify: every command that reads them exits 2
    with a JSON DomainError naming the first mesh radius whose tail is
    extinct, and writes nothing to stderr."""

    @pytest.mark.parametrize("argv", [["classify-weight"], ["verify", "gamma"],
                                      ["verify", "lemma21"], ["criterion", "berezin"]])
    def test_extinct_tail_is_a_domain_error(self, tmp_path, argv):
        cfg = write_config(tmp_path, {
            "grid_level": 8,
            "weight": {"kind": "table", "r": [0, 0.5, 0.51, 1], "w": [1, 1, 0, 0]},
            "target_weight": {"kind": "power", "alpha": 1.0},
            "operator": {"phi": {"kind": "moebius", "c": [0.3, 0.0]},
                         "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 0}})
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "bergman", *argv, "--config", cfg,
                               "--out", str(tmp_path / "o"), "--deterministic"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr == ""
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "DomainError"
        # the mesh gaps are 2^(-j/8); j = 9 is the first past r = 0.51
        assert f"extinct from r = {1.0 - 2.0 ** (-9 / 8):.6g}" in err["message"]


class TestOverflowingNorms:
    """At p = 2000 |f|^p overflows for every random polynomial of the
    lemma21 family and for the norm's own function, so no norm is finite:
    each command exits 2 with a JSON error and writes nothing to stderr
    (no overflow warning), and lemma21 names the first family member whose
    norm is not finite instead of passing on the five test functions."""

    @pytest.mark.parametrize("argv", [["verify", "lemma21"], ["norm"],
                                      ["verify", "norm-equiv"]])
    def test_overflowing_norm_exits_2_quietly(self, tmp_path, argv):
        cfg = write_config(tmp_path, {
            "p": 2000, "grid_level": 5,
            "function": {"kind": "poly", "coeffs": [[0, 0], [2, 0]]}})
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "bergman", *argv, "--config", cfg,
                               "--out", str(tmp_path / "o"), "--deterministic"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stdout[-2000:]
        assert proc.stderr == ""
        err = json.loads(proc.stdout)["error"]
        assert "not finite" in err["message"]
        if argv == ["verify", "lemma21"]:
            assert err["type"] == "DomainError"
            assert "family member 5 " in err["message"]


_CRITERION_KEYS = {"criterion", "params", "samples", "statistic", "statistic_kind", "tail",
                   "refinement", "verdict", "compact_verdict", "truncated", "notes"}
_OPERATOR = {"phi": {"kind": "scale", "r": 0.5},
             "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 0}


class TestReportKeys:
    """The full key set of each command's report result, on small grids."""

    def test_classify_weight_keys(self, tmp_path):
        out = tmp_path / "o"
        assert run(["classify-weight", "--config", write_config(tmp_path), "--out", out,
                    "--deterministic", "--mesh", "64"]) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        assert set(result) == {
            "weight", "dhat_constant", "dcheck_K", "dcheck_C", "exponent_lower",
            "exponent_upper", "upper_doubling", "lower_doubling", "doubling",
            "moment_class", "mesh_resolution", "sandwich_constant", "fitted_slope",
            "dhat_stability", "dcheck_stability", "truncated_at", "notes"}

    @pytest.mark.parametrize("which,criterion,extra", [
        ("embedding-sup", "EMB_SUP", {"p": 1.0, "q": 2.0,
                                      "measure": {"kind": "power_density", "beta": 4.5}}),
        ("embedding-ls", "EMB_LS", {"p": 2.0, "q": 1.0,
                                    "measure": {"kind": "power_density", "beta": 1.0}}),
        ("carleson", "OP_PUSHFORWARD_LS", {"p": 2.0, "q": 1.0, "operator": _OPERATOR,
                                           "measure": {"kind": "power_density",
                                                       "beta": 0.5}}),
        ("berezin", "BEREZIN_SUP", {"gamma": 3.0, "operator": _OPERATOR,
                                    "target_weight": {"kind": "power", "alpha": 1.0}}),
        ("hinf", "HINF_SUP", {"operator": _OPERATOR}),
    ])
    def test_criterion_keys(self, tmp_path, which, criterion, extra):
        cfg = write_config(tmp_path, {"grid_level": 5, **extra})
        out = tmp_path / "o"
        assert run(["criterion", which, "--config", cfg, "--out", out,
                    "--deterministic"]) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        assert set(result) == _CRITERION_KEYS
        assert result["criterion"] == criterion


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "operator": {"phi": {"kind": "scale", "r": 0.5},
                         "u": {"kind": "poly", "coeffs": [[1, 0]]}, "n": 1}})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["criterion", "hinf", "--config", cfg, "--out", out,
                        "--deterministic"]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_verify_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["verify", "pseudodisc", "--config", cfg, "--out", out,
                        "--deterministic"]) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")

# python -c ENTRY ARGS...: run the CLI entry in this process, as
# tools/job_peaks.py does, and print the process's thread count at exit
_ENTRY = """
import atexit, os, runpy, sys
atexit.register(lambda: print("threads", len(os.listdir("/proc/self/task"))))
sys.argv = ["bergman", *sys.argv[1:]]
runpy.run_module("bergman", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and at least 2 CPUs")
class TestEntry:
    """The process entry runs OpenBLAS on one thread unless the caller set
    one of the BLAS thread variables, and importing the package changes
    nothing; each case runs in a fresh child without those variables."""

    @staticmethod
    def child(argv, **extra):
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        return subprocess.run([sys.executable, *argv], env={**env, **extra},
                              capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("extra,threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                             ids=["default", "caller-set"])
    def test_blas_threads_at_exit(self, tmp_path, extra, threads):
        cfg = write_config(tmp_path)
        proc = self.child(["-c", _ENTRY, "classify-weight", "--config", cfg,
                           "--out", str(tmp_path / "o"), "--deterministic"], **extra)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == f"threads {threads}"

    def test_import_loads_no_numpy_and_keeps_environ(self):
        proc = self.child(["-c", (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import bergman\n"
            "assert 'numpy' not in sys.modules\n"
            "import bergman.cli\n"
            "assert 'numpy' in sys.modules and dict(os.environ) == before\n")])
        assert proc.returncode == 0, proc.stderr[-2000:]


# python -c ENTRY ARGS...: run the CLI entry in this process and print
# whether numpy.ma was loaded by exit
_ENTRY_MA = """
import atexit, runpy, sys
atexit.register(lambda: print("numpy.ma", "numpy.ma" in sys.modules))
sys.argv = ["bergman", *sys.argv[1:]]
runpy.run_module("bergman", run_name="__main__", alter_sys=True)
"""


class TestNoMaskedArrays:
    """A run never loads numpy.ma, which costs a process about 15 ms of CPU
    and 1.3 MB: np.unique without return_index, return_inverse or
    return_counts imports it to ask np.ma.is_masked.  Each case runs through
    the entry in a fresh child."""

    @pytest.mark.parametrize("argv,extra", [
        (["verify", "gamma"], {"gamma": 3.0}),
        (["criterion", "hinf"], {"operator": {"phi": {"kind": "scale", "r": 0.5},
                                               "u": {"kind": "poly", "coeffs": [[1, 0]]},
                                               "n": 1}}),
    ], ids=["verify-gamma", "criterion-hinf"])
    def test_entry_leaves_numpy_ma_unloaded(self, tmp_path, argv, extra):
        cfg = write_config(tmp_path, extra)
        proc = TestEntry.child(["-c", _ENTRY_MA, *argv, "--config", cfg,
                                "--out", str(tmp_path / "o"), "--deterministic"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "numpy.ma False"


_DROP = object()  # mutation that deletes the field instead of replacing it


def _is_deep_level(value):
    """A grid level above 6: valid, but too slow a grid for a fuzz example."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and value > 6)


def _strict_json(text):
    """json.loads that refuses NaN and +-Infinity, as a strict JSON reader does."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestCliFuzz:
    """One field of a small valid config replaced by an arbitrary JSON value
    (or dropped): every run ends in an exit code, never a traceback, every
    error is one JSON line, and every report written is strict JSON.  The
    measure is either a three-atom CSV written next to the config or a radial
    power density."""

    BASE = {
        "schema": 1, "seed": 3, "p": 2.0, "q": 2.0, "n": 0, "grid_level": 4,
        "lattice_r": 0.3, "gamma": 3.0, "carleson_convention": "standard",
        "weight": {"kind": "power", "alpha": 0.5},
        "target_weight": {"kind": "power", "alpha": 1.0},
        "function": {"kind": "poly", "coeffs": [[1.0, 0.0], [0.5, -0.5]]},
        "measure": {"kind": "atoms_csv", "path": "atoms.csv"},
        "operator": {"phi": {"kind": "moebius", "c": [0.3, 0.1]},
                     "u": {"kind": "poly", "coeffs": [[1.0, 0.0], [0.5, 0.0]]},
                     "n": 0},
    }
    MEASURES = [BASE["measure"], {"kind": "power_density", "beta": 1.0}]
    FIELDS = [*BASE, "weight.kind", "weight.alpha", "function.kind",
              "function.coeffs", "measure.kind", "measure.path", "measure.beta",
              "operator.phi", "operator.u", "operator.n"]
    # (argv, fields set before the mutation): the q < p criteria get q = 1
    COMMANDS = [(("classify-weight", "--mesh", "64"), {}), (("norm",), {}),
                (("verify", "pseudodisc"), {}), (("criterion", "embedding-sup"), {}),
                (("criterion", "embedding-ls"), {"q": 1.0}),
                (("criterion", "carleson"), {"q": 1.0}),
                (("criterion", "berezin"), {}), (("criterion", "hinf"), {})]
    ATOMS = "re,im,mass\n0.5,0.1,1.0\n-0.9,0.2,0.01\n0.0,0.99,1e-4\n"

    @settings(max_examples=120, deadline=None)
    @given(field=st.sampled_from(FIELDS),
           value=st.just(_DROP) | TestInputValidation.json_values,
           command=st.sampled_from(COMMANDS),
           measure=st.sampled_from(MEASURES))
    def test_mutated_config_exits_cleanly(self, field, value, command, measure):
        if field == "grid_level":
            assume(not _is_deep_level(value))
        argv, preset = command
        report = None
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "atoms.csv"), "w") as fh:
                fh.write(self.ATOMS)
            cfg = json.loads(json.dumps({**self.BASE, **preset, "measure": measure}))
            if "path" in cfg["measure"]:
                cfg["measure"]["path"] = os.path.join(tmp, "atoms.csv")
            *parents, key = field.split(".")
            target = cfg
            for name in parents:
                target = target[name]
            if value is _DROP:
                target.pop(key, None)
            else:
                target[key] = value
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run([*argv, "--config", path, "--out", os.path.join(tmp, "o"),
                            "--deterministic"])
            report_path = os.path.join(tmp, "o", "report.json")
            if os.path.exists(report_path):
                with open(report_path) as fh:
                    report = fh.read()
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            lines = out.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error"}
        if report is not None:
            _strict_json(report)
