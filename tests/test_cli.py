"""CLI tests: config parsing and precedence, exit codes, per-subcommand
artifacts, and cross-mode run behavior."""

import dataclasses
import json
import shutil
import tempfile
import tracemalloc

import numpy as np
import pytest

import headsparse.cli as cli
import headsparse.workload as workload_module
from headsparse.calibration import load_partitions
from headsparse.cli import (
    DEFAULT_OUT,
    ENV_OUT,
    RunConfig,
    build_parser,
    main,
    resolve_config,
)
from headsparse.errors import ConfigError, InternalError
from headsparse.indexer import build_stage1_dataset, init_projector
from headsparse.reports import (
    TRACE_HEADER,
    read_bench,
    read_decode_trace,
    read_sparsity_report,
)
from headsparse.workload import (
    PAYLOAD,
    ModelGeometry,
    Workload,
    default_workload_geometry,
    gen_synthetic_workload,
)

BASE = {
    "geometry": {"n_q_heads": 8, "n_kv_heads": 4, "window": 192,
                 "retrieval_ratio": 0.25},
    "workload": {"seq_len": 768, "decode_len": 64, "diffuse_support": 200,
                 "planted_retrieval_heads": [1, 6], "probe_head": 1},
    "stage1": {"steps": 30, "warmup_steps": 5, "rows_per_step": 8},
    "stage2": {"steps": 12},
    "seed": 11,
}


def write_config(directory, out_dir, **patch):
    data = {k: dict(v) if isinstance(v, dict) else v for k, v in BASE.items()}
    for key, value in patch.items():
        if isinstance(value, dict) and key in data:
            data[key].update(value)
        else:
            data[key] = value
    data["output_dir"] = str(out_dir)
    path = directory / "config.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Calibrated partition plus trained projectors, built once."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "art"
    cfg = write_config(root, out)
    assert main(["calibrate", "--config", str(cfg)]) == 0
    assert main(["train-indexer", "--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def full_artifacts(artifacts, tmp_path_factory):
    """`artifacts` plus what run, distill-toy and bench write: a directory
    holding every file report reads."""
    root = tmp_path_factory.mktemp("cli-full")
    out = root / "art"
    shutil.copytree(artifacts, out)
    cfg = write_config(root, out)
    for argv in (["run"], ["distill-toy"], ["bench", "--bench-steps", "2"]):
        assert main([*argv, "--config", str(cfg)]) == 0
    return out


def clone_artifacts(artifacts, tmp_path):
    out = tmp_path / "art"
    shutil.copytree(artifacts, out)
    return out


class TestConfigParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mode == "exact"
        assert cfg.seed == 0
        assert cfg.geometry == default_workload_geometry()

    # one non-default value for every geometry field
    GEOMETRY_VALUES = {"n_layers": 2, "n_q_heads": 8, "n_kv_heads": 2, "head_dim": 32,
                       "rope_base": 1.0e4, "window": 48, "n_sinks": 0,
                       "retrieval_ratio": 0.25, "low_dim": 8, "top_p": 0.95,
                       "block_size": 32}

    def test_geometry_values_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(ModelGeometry) if f.init}
        assert set(self.GEOMETRY_VALUES) == fields

    @pytest.mark.parametrize("key", sorted(GEOMETRY_VALUES))
    def test_one_key_geometry_section_keeps_the_other_defaults(self, key):
        value = self.GEOMETRY_VALUES[key]
        cfg = RunConfig.from_dict({"geometry": {key: value}})
        assert cfg.geometry == dataclasses.replace(RunConfig().geometry, **{key: value})

    def test_round_trip(self):
        cfg = RunConfig.from_dict(BASE)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"seeed": 3})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="geometry"):
            RunConfig.from_dict({"geometry": {"n_q_headz": 8}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            RunConfig.from_dict({"stage1": 5})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="selector mode"):
            RunConfig.from_dict({"mode": "fastest"})

    def test_top_k_mode_needs_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            RunConfig.from_dict({"mode": "top_k"})

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": "eleven"})

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["report", "--config", str(bad)]) == 2

    def test_nested_value_errors_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "o",
                           geometry={"n_q_heads": 7, "n_kv_heads": 4})
        assert main(["calibrate", "--config", str(cfg)]) == 2

    def test_mistyped_value_exits_2_before_any_work(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, out, geometry={"window": 100.5})
        assert main(["calibrate", "--config", str(cfg)]) == 2
        assert not (out / "partition.csv").exists()


class TestOutputDirPrecedence:
    def parse(self, argv):
        return resolve_config(build_parser().parse_args(argv))

    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_OUT, raising=False)
        assert self.parse(["report"]).output_dir == DEFAULT_OUT

    def test_env_over_default(self, monkeypatch):
        monkeypatch.setenv(ENV_OUT, "/tmp/envout")
        assert self.parse(["report"]).output_dir == "/tmp/envout"

    def test_config_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_OUT, "/tmp/envout")
        cfg = write_config(tmp_path, tmp_path / "cfgout")
        got = self.parse(["report", "--config", str(cfg)]).output_dir
        assert got == str(tmp_path / "cfgout")

    def test_flag_over_config(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_OUT, "/tmp/envout")
        cfg = write_config(tmp_path, tmp_path / "cfgout")
        got = self.parse(["report", "--config", str(cfg),
                          "--out", "/tmp/flagout"]).output_dir
        assert got == "/tmp/flagout"

    def test_flag_overrides_scalar_keys(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "o")
        parsed = self.parse(["run", "--config", str(cfg), "--seed", "99",
                             "--mode", "histogram"])
        assert parsed.seed == 99
        assert parsed.mode == "histogram"


class TestCalibrate:
    def test_partition_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            cfg = write_config(tmp_path / sub, tmp_path / sub / "out")
            assert main(["calibrate", "--config", str(cfg)]) == 0
            outs.append((tmp_path / sub / "out" / "partition.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_planted_heads_found(self, artifacts):
        text = (artifacts / "partition.csv").read_text()
        retrieval = [line.split(",")[1] for line in text.splitlines()
                     if line.endswith("retrieval")]
        assert retrieval == ["1", "6"]

    def test_score_csv_sorted_descending(self, artifacts):
        rows = (artifacts / "head_scores.csv").read_text().splitlines()[1:]
        scores = [float(r.split(",")[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)


class TestTrainIndexer:
    def test_missing_partition_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "empty")
        assert main(["train-indexer", "--config", str(cfg)]) == 2

    def test_projector_files_exist(self, artifacts):
        for head in (1, 6):
            assert (artifacts / f"projector-L0H{head}.json").exists()
            assert (artifacts / f"projector-L0H{head}.bin").exists()
            assert (artifacts / f"stage1-loss-L0H{head}.csv").exists()

    def test_twenty_steps_print_two_different_ends(self, artifacts, tmp_path, capsys):
        """Each smoothed end averages at most half the trace, so a 20-step
        run's first and last windows are disjoint."""
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out, stage1={"steps": 20})
        capsys.readouterr()
        assert main(["train-indexer", "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "smoothed" in line]
        assert len(lines) == 2
        for line in lines:
            first, last = line.split("smoothed loss ")[1].split(" -> ")
            assert first != last

    @pytest.mark.parametrize("steps, window", [(1, 1), (3, 1), (20, 10), (39, 19),
                                               (40, 20), (600, 20)])
    def test_smoothed_ends_windows(self, steps, window):
        trace = list(np.linspace(2.0, 1.0, steps))
        first, last = cli._smoothed_ends(trace)
        assert first == pytest.approx(np.mean(trace[:window]))
        assert last == pytest.approx(np.mean(trace[-window:]))


class TestRun:
    def test_missing_projectors_exits_2(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        (out / "projector-L0H1.json").unlink()
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_rank_mismatch_exits_2(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        for head in (1, 6):
            init_projector(8, 64, 0).save(out / f"projector-L0H{head}", 0, head)
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_exact_run_artifacts(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_decode_trace(out / "decode_trace.csv")
        assert len(rows) == 64 * 8
        assert min(r["projected_mass"] for r in rows) >= 0.9 - 1e-12
        rep = read_sparsity_report(out / "sparsity_report.json")
        assert rep.memory_sparsity <= rep.compute_sparsity
        assert (out / "head_token_counts.csv").exists()
        assert (out / "mass_sweep.csv").exists()
        assert json.loads((out / "config_used.json").read_text())["seed"] == 11

    @pytest.mark.parametrize("mode", ["exact", "histogram"])
    def test_oracle_changes_only_the_true_mass_column(self, artifacts, tmp_path, mode):
        """--oracle fills every trace row's true mass after decode and
        leaves every other column and file as a plain run writes them."""
        written = {}
        for flags in ([], ["--oracle"]):
            out = clone_artifacts(artifacts, tmp_path / f"run{len(flags)}")
            cfg = write_config(tmp_path / f"run{len(flags)}", out)
            assert main(["run", "--config", str(cfg), "--mode", mode, *flags]) == 0
            rows = read_decode_trace(out / "decode_trace.csv")
            written[len(flags)] = ([[r[c] for c in TRACE_HEADER[:6]] for r in rows],
                                   read_artifacts(out, RUN_ARTIFACTS[1:]))
            masses = [r["true_mass"] for r in rows]
            if flags:
                assert all(0.0 <= m <= 1.0 + 1e-12 for m in masses)
            else:
                assert masses == [None] * len(rows)
        assert written[0] == written[1]

    def test_histogram_run_keeps_mass_floor(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg), "--mode", "histogram"]) == 0
        rows = read_decode_trace(out / "decode_trace.csv")
        assert min(r["projected_mass"] for r in rows) >= 0.9 - 1e-12

    def test_top_k_run_caps_budget(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        code = main(["run", "--config", str(cfg), "--mode", "top_k",
                     "--top-k", "64"])
        assert code == 0
        rows = read_decode_trace(out / "decode_trace.csv")
        assert all(r["tokens_selected"] == 64 for r in rows
                   if r["head"] in (1, 6))

    def test_layer_count_mismatch_exits_2(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out, geometry={"n_layers": 2})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_head_count_mismatch_exits_2(self, artifacts, tmp_path):
        # the partition was calibrated for 8 query heads
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out, geometry={"n_q_heads": 16})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_head_dim_mismatch_exits_2(self, artifacts, tmp_path):
        # the projectors were trained at head_dim 64
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out, geometry={"head_dim": 128})
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("edit", ["non_numeric_score", "unknown_role", "missing_head_row",
                                      "duplicate_head_row"])
    def test_bad_partition_rows_exit_2(self, artifacts, tmp_path, capsys, edit):
        out = clone_artifacts(artifacts, tmp_path)
        path = out / "partition.csv"
        lines = path.read_text().splitlines()
        assert lines[4].startswith("0,3,")
        if edit == "non_numeric_score":
            lines[4] = "0,3,high,local"
        elif edit == "unknown_role":
            lines[4] = lines[4].replace(",local", ",global")
        elif edit == "missing_head_row":
            del lines[4]
        else:  # a copied row, which would otherwise load as one head
            lines.append(lines[4])
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, out)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 2
        assert "partition.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["shape", "no_tensors", "renamed_tensor"])
    def test_malformed_projector_manifest_exits_2(self, artifacts, tmp_path, edit):
        out = clone_artifacts(artifacts, tmp_path)
        path = out / "projector-L0H1.json"
        manifest = json.loads(path.read_text())
        if edit == "shape":
            manifest["tensors"][0]["shape"][0] += 1   # disagrees with nbytes
        elif edit == "no_tensors":
            del manifest["tensors"]
        else:
            manifest["tensors"][0]["name"] = "w_query"
        path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_partition_layers_not_from_zero_exit_2(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        path = out / "partition.csv"
        lines = path.read_text().splitlines()
        assert all(line.startswith("0,") for line in lines[1:])
        path.write_text("\n".join([lines[0]] + ["3," + line[2:] for line in lines[1:]]) + "\n")
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_top_k_mode_without_budget_exits_2(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg), "--mode", "top_k"]) == 2

    @pytest.mark.parametrize("mode", ["exact", "histogram", "top_k"])
    def test_budget_below_one_exits_2_under_any_mode(self, artifacts, tmp_path, mode):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg), "--mode", mode, "--top-k", "0"]) == 2

    def test_p_one_matches_local_savings_closed_form(self, artifacts, tmp_path):
        # At p = 1.0 retrieval heads cover every visible token, so the only
        # sparsity left is the local heads' sink+window rule.
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out, geometry={"top_p": 1.0})
        assert main(["run", "--config", str(cfg)]) == 0
        rep = read_sparsity_report(out / "sparsity_report.json")
        seq_len, decode_len = 768, 64
        window, sinks, n_q, n_local = 192, 4, 8, 6
        ratios = []
        for t in range(seq_len - decode_len, seq_len):
            covered = min(window + sinks, t + 1)
            ratios.extend([1.0] * (n_q - n_local) + [covered / (t + 1)] * n_local)
        assert np.isclose(rep.compute_sparsity, 1.0 - np.mean(ratios), atol=1e-9)


RUN_ARTIFACTS = ("decode_trace.csv", "sparsity_report.json",
                 "head_token_counts.csv", "mass_sweep.csv")


def read_artifacts(out, names):
    return {name: (out / name).read_bytes() for name in names}


def drop_workload(out):
    for suffix in (".json", ".bin"):
        (out / f"workload{suffix}").unlink()


class TestSavedWorkload:
    """calibrate saves the workload; train-indexer and run map it when the
    seed, geometry and spec match and regenerate it otherwise, with the same
    artifacts either way."""

    def test_calibrate_saves_the_generated_workload(self, artifacts):
        saved = Workload.load(artifacts / "workload")
        cfg = RunConfig.from_dict(BASE)
        fresh = gen_synthetic_workload(cfg.workload, cfg.seed, cfg.geometry)
        assert (saved.seed, saved.geometry, saved.spec) == (11, cfg.geometry, cfg.workload)
        for name in PAYLOAD:
            assert getattr(saved, name).tobytes() == getattr(fresh, name).tobytes()
        assert saved.annotations == fresh.annotations

    def test_saved_and_regenerated_routes_agree(self, tmp_path):
        saved, regenerated = tmp_path / "saved", tmp_path / "regenerated"
        cfg = write_config(tmp_path, saved)
        assert main(["calibrate", "--config", str(cfg)]) == 0
        shutil.copytree(saved, regenerated)
        drop_workload(regenerated)
        for out in (saved, regenerated):
            for command in ("train-indexer", "run"):
                assert main([command, "--config", str(cfg), "--out", str(out),
                             "--mode", "histogram"]) == 0
        names = RUN_ARTIFACTS + tuple(
            f"{stem}-L0H{h}.{ext}" for h in (1, 6)
            for stem, ext in (("projector", "json"), ("projector", "bin"),
                              ("stage1-loss", "csv")))
        assert read_artifacts(saved, names) == read_artifacts(regenerated, names)

    def test_seed_override_regenerates(self, artifacts, tmp_path):
        with_file = clone_artifacts(artifacts, tmp_path)
        without = tmp_path / "without"
        shutil.copytree(artifacts, without)
        drop_workload(without)
        cfg = write_config(tmp_path, with_file)
        for out in (with_file, without):
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--seed", "12"]) == 0
        assert read_artifacts(with_file, RUN_ARTIFACTS) == read_artifacts(without, RUN_ARTIFACTS)
        # the saved seed-11 workload is left as calibrate wrote it
        assert Workload.load(with_file / "workload").seed == 11

    def test_resave_leaves_mapped_arrays_intact(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        before = Workload.load(out / "workload")
        keys = before.keys_pre.copy()
        cfg = write_config(tmp_path, out)
        assert main(["calibrate", "--config", str(cfg), "--seed", "12"]) == 0
        assert Workload.load(out / "workload").seed == 12
        assert np.array_equal(before.keys_pre, keys)

    @pytest.mark.parametrize("edit", ["truncated", "reshaped", "renamed"])
    def test_malformed_workload_exits_2(self, artifacts, tmp_path, edit):
        out = clone_artifacts(artifacts, tmp_path)
        if edit == "truncated":
            payload = out / "workload.bin"
            payload.write_bytes(payload.read_bytes()[:-4])
        else:
            path = out / "workload.json"
            manifest = json.loads(path.read_text())
            entry = manifest["tensors"][0]
            if edit == "reshaped":
                shape = entry["shape"]
                shape[2], shape[3] = shape[3], shape[2]
            else:
                entry["name"] = "query"
            path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path, out)
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("edit", ["no keys_post", "misshapen keys_post"])
    def test_workload_without_turned_keys_exits_2(self, artifacts, tmp_path, capsys, edit):
        """A workload.json from before keys_post was stored, or with a
        keys_post of the wrong shape, ends run with exit 2 and a message
        that names the file and asks for calibrate again."""
        out = clone_artifacts(artifacts, tmp_path)
        path = out / "workload.json"
        manifest = json.loads(path.read_text())
        (entry,) = [e for e in manifest["tensors"] if e["name"] == "keys_post"]
        if edit == "no keys_post":
            manifest["tensors"].remove(entry)
        else:
            entry["shape"][2], entry["shape"][3] = entry["shape"][3], entry["shape"][2]
        path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path, out)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "keys_post" in err
        assert "run calibrate again" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_pre, n_post", [
        ((0, 5), (5, 6)), ((6,), (2,)), ((0,), (768,)), ((-1, 0), (700,)),
        ((), (700,)), ((8,), ()),
    ], ids=["overlapping", "late-first", "past-the-end", "negative", "no-early",
            "no-late"])
    def test_bad_needle_spans_exit_2(self, artifacts, tmp_path, capsys, n_pre, n_post):
        """The needle spans enter from workload.json, and calibration indexes
        score rows with them: spans that are empty, overlap, come out of
        order or leave the stream end any command that loads the file."""
        out = clone_artifacts(artifacts, tmp_path)
        path = out / "workload.json"
        manifest = json.loads(path.read_text())
        manifest["meta"]["annotations"].update(n_pre=list(n_pre), n_post=list(n_post))
        path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path, out)
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workload.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("top_p", 0.8), ("block_size", 32)])
    def test_decode_geometry_change_maps_the_saved_workload(self, artifacts, tmp_path,
                                                            monkeypatch, field, value):
        """A run that changes a geometry field the generator does not read
        maps calibrate's file under the run's geometry, never calls the
        generator, and writes what the regenerated route writes."""
        with_file = clone_artifacts(artifacts, tmp_path)
        without = tmp_path / "without"
        shutil.copytree(artifacts, without)
        drop_workload(without)
        cfg = write_config(tmp_path, with_file, geometry={field: value})
        assert main(["run", "--config", str(cfg), "--out", str(without)]) == 0

        def no_generation(*args, **kwargs):
            raise AssertionError("the workload was generated again")

        monkeypatch.setattr(cli, "gen_synthetic_workload", no_generation)
        assert main(["run", "--config", str(cfg)]) == 0
        assert read_artifacts(with_file, RUN_ARTIFACTS) == read_artifacts(without, RUN_ARTIFACTS)

    def test_rope_base_override_regenerates(self, artifacts, tmp_path, monkeypatch):
        """keys_post is turned at the generator's rope_base, so a run at
        another base generates the workload again instead of mapping
        calibrate's file, leaves the file as it was, and writes what a run
        over a workload calibrate wrote at that base writes (same partition
        and projectors)."""
        with_file = clone_artifacts(artifacts, tmp_path)
        saved = (with_file / "workload.bin").read_bytes()
        fresh = tmp_path / "fresh"
        cfg = write_config(tmp_path, with_file, geometry={"rope_base": 1.0e4})
        assert main(["calibrate", "--config", str(cfg), "--out", str(fresh)]) == 0
        for path in artifacts.iterdir():
            if path.name.startswith(("partition", "projector")):
                shutil.copy(path, fresh / path.name)
        assert Workload.load(fresh / "workload").geometry.rope_base == 1.0e4
        assert main(["run", "--config", str(cfg), "--out", str(fresh)]) == 0

        generated = []
        generate = cli.gen_synthetic_workload

        def counted(*args, **kwargs):
            generated.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "gen_synthetic_workload", counted)
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(generated) == 1
        assert (with_file / "workload.bin").read_bytes() == saved
        assert read_artifacts(with_file, RUN_ARTIFACTS) == read_artifacts(fresh, RUN_ARTIFACTS)


class TestStageMemory:
    """tracemalloc peaks of whole subcommands at 16K tokens on the default
    geometry (a 112 MiB workload payload).  Pages mapped from workload.bin are
    not traced, so these count what each stage allocates itself."""

    @pytest.fixture(scope="class")
    def calibrated(self, tmp_path_factory):
        """(config path, output directory, calibrate's traced peak)."""
        root = tmp_path_factory.mktemp("cli-16k")
        cfg = root / "config.json"
        cfg.write_text(json.dumps({
            "workload": {"seq_len": 16384, "decode_len": 64},
            "stage1": {"steps": 3, "warmup_steps": 1, "rows_per_step": 4},
            "output_dir": str(root / "out")}))
        tracemalloc.start()
        try:
            assert main(["calibrate", "--config", str(cfg)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return cfg, root / "out", peak

    def test_calibrate_stays_below_the_workload_payload(self, calibrated):
        """Generation streams each finished row block to workload.bin and
        calibration scores the mapped file, so no whole workload is held
        (the in-memory form peaked at 1.25 payloads).  The bound is the
        bytes of queries, keys_pre and values, the payload before keys_post
        joined it, so the larger file loosens nothing."""
        _, out, peak = calibrated
        wl = Workload.load(out / "workload")
        payload = sum(a.nbytes for a in (wl.queries, wl.keys_pre, wl.values))
        assert peak < payload, f"{peak / 2**20:.1f} MiB, payload {payload / 2**20:.0f} MiB"

    def test_train_indexer_holds_one_stage1_dataset_at_a_time(self, calibrated):
        """Each head's stage-1 dataset is released before the next is built
        (keeping it while building the next peaked at 2.66 datasets)."""
        cfg, out, _ = calibrated
        tracemalloc.start()
        try:
            assert main(["train-indexer", "--config", str(cfg)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        workload = Workload.load(out / "workload")
        (part,) = load_partitions(out / "partition.csv", workload.geometry.retrieval_ratio)
        sizes = []
        for h in part.retrieval_set:
            ds = build_stage1_dataset(workload, workload.geometry, 0, h, 0)
            sizes.append(sum(a.nbytes for a in (ds.keys_pre, ds.queries, ds.positions, ds.attn)))
        assert len(sizes) == 2
        assert peak < 2 * max(sizes), f"{peak / max(sizes):.2f} datasets"


class TestDistillToy:
    def test_artifacts_and_determinism(self, tmp_path):
        traces = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            cfg = write_config(tmp_path / sub, tmp_path / sub / "out")
            assert main(["distill-toy", "--config", str(cfg)]) == 0
            out = tmp_path / sub / "out"
            assert (out / "teacher-cache.json").exists()
            assert (out / "distill_summary.json").exists()
            traces.append((out / "distill_loss.csv").read_bytes())
        assert traces[0] == traces[1]


    def test_bad_schedule_exits_2_before_any_work(self, tmp_path):
        """stage2.schedule is checked with the config, so a bad one ends the
        command before the teacher cache is built or saved."""
        out = tmp_path / "out"
        cfg = write_config(tmp_path, out, stage2={"schedule": "bogus"})
        assert main(["distill-toy", "--config", str(cfg)]) == 2
        assert not out.exists() or sorted(p.name for p in out.iterdir()) == ["config_used.json"]


class TestBench:
    def test_csv_and_metadata(self, artifacts, tmp_path):
        """bench times requests on the saved workload, partition and
        projectors: one row a mode at the workload's length."""
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        assert main(["bench", "--config", str(cfg), "--bench-steps", "2"]) == 0
        rows = read_bench(out / "bench.csv")
        assert [(r.length, r.mode) for r in rows] == [
            (768, "dense"), (768, "sparse_exact"), (768, "sparse_histogram")]
        meta = json.loads((out / "bench_meta.json").read_text())
        assert (meta["seed"], meta["seq_len"], meta["requests_per_mode"]) == (11, 768, 2)
        assert meta["numpy"] == np.__version__

    def test_missing_partition_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "out")
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "partition.csv" in capsys.readouterr().err

    def test_bench_lengths_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "out", bench_lengths=[4096])
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_zero_steps_exits_2(self, artifacts, tmp_path):
        out = clone_artifacts(artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        assert main(["bench", "--config", str(cfg), "--bench-steps", "0"]) == 2


class TestReportAndDispatch:
    def test_empty_dir_exits_2(self, tmp_path):
        (tmp_path / "out").mkdir()
        cfg = write_config(tmp_path, tmp_path / "out")
        assert main(["report", "--config", str(cfg)]) == 2

    def test_report_reads_run_artifacts(self, artifacts, capsys):
        cfg_dir = artifacts.parent
        cfg = cfg_dir / "config.json"
        assert main(["report", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "partition layer 0" in printed
        # every tensor of the manifest, keys_post among them: the whole file
        mib = (artifacts / "workload.bin").stat().st_size / 2**20
        assert mib == (8 + 4 + 4 + 4) * 768 * 64 * 4 / 2**20
        assert f"workload: seq_len 768, seed 11, payload {mib:.1f} MiB" in printed

    def test_report_prints_bench_shares_of_dense(self, tmp_path, capsys):
        """Each sparse bench row prints its median as a fraction of the
        dense median at the same length; a length without a dense row
        prints none."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "bench.csv").write_text("length,mode,median_ms,p95_ms\n"
                                       "4096,dense,10.0,11.0\n4096,sparse_exact,2.5,3.0\n"
                                       "4096,sparse_histogram,2.0,2.0\n8192,sparse_exact,4.0,4.0\n")
        cfg = write_config(tmp_path, out)
        assert main(["report", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in printed if line.startswith("bench")] == [
            "bench L=4096 dense: median 10.000 ms",
            "bench L=4096 sparse_exact: median 2.500 ms (0.250 of dense)",
            "bench L=4096 sparse_histogram: median 2.000 ms (0.200 of dense)",
            "bench L=8192 sparse_exact: median 4.000 ms"]

    def test_report_prints_true_mass_floor(self, tmp_path, capsys):
        """A floor line per role appears when the trace carries --oracle
        masses of that role's rows."""
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path, out)
        header = "layer,head,role,position,tokens_selected,projected_mass,true_mass\n"
        trace = out / "decode_trace.csv"
        trace.write_text(header + "0,0,local,100,5,0.95,0.5\n"
                         "0,1,retrieval,100,7,0.92,0.0125\n"
                         "0,1,retrieval,101,9,0.93,0.25\n"
                         "0,2,local,100,5,0.96,0.75\n")
        assert main(["report", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "true mass floor retrieval 0.0125 over 2 rows" in printed
        assert "true mass floor local 0.5 over 2 rows" in printed
        trace.write_text(header + "0,0,local,100,5,0.95,\n0,1,retrieval,100,7,0.92,0.25\n")
        assert main(["report", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "true mass floor retrieval 0.25 over 1 rows" in printed
        assert "true mass floor local" not in printed
        trace.write_text(header + "0,0,local,100,5,0.95,\n")
        assert main(["report", "--config", str(cfg)]) == 0
        assert "true mass floor" not in capsys.readouterr().out

    @pytest.mark.parametrize("name, text", [
        ("decode_trace.csv",
         "layer,head,role,position,tokens_selected,projected_mass,true_mass\n"),
        ("decode_trace.csv",
         "layer,head,role,position,tokens_selected,projected_mass,true_mass\n"
         "0,x,local,100,5,0.95,\n"),
        ("decode_trace.csv",
         "layer,head,role,position,tokens_selected,projected_mass,true_mass\n"
         "0,1,global,100,5,0.95,\n"),
        ("decode_trace.csv",
         "layer,head,position,tokens_selected,projected_mass,true_mass\n"
         "0,1,100,5,0.95,\n"),
        ("sparsity_report.json",
         '{"compute_sparsity": 0.5, "per_head_active": [[1.0]]}\n'),
        ("sparsity_report.json", '{"compute_sparsity": 0.5, '
         '"memory_sparsity": "high", "per_head_active": [[1.0]]}\n'),
        ("sparsity_report.json", '{"compute_sparsity": 0.5, '
         '"memory_sparsity": 1.5, "per_head_active": [[1.0]]}\n'),
        ("distill_summary.json", "{nope"),
        ("distill_summary.json", '{"steps": 5}\n'),
        ("bench.csv", "length,mode,median_ms,p95_ms\n4096,dense,abc,1\n"),
        ("bench.csv", "length,mode,median_ms,p95_ms\n4096,dense\n"),
    ], ids=["header-only-trace", "non-numeric-trace", "unknown-role-trace",
            "roleless-trace", "report-missing-key",
            "report-non-numeric", "report-out-of-range", "summary-not-json",
            "summary-missing-keys", "bench-non-numeric", "bench-short-row"])
    def test_bad_artifact_exits_2(self, tmp_path, name, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text(text)
        cfg = write_config(tmp_path, out)
        assert main(["report", "--config", str(cfg)]) == 2

    def test_internal_error_exits_3(self, monkeypatch, tmp_path):
        def boom(cfg, args):
            raise InternalError("synthetic failure")
        monkeypatch.setitem(cli._COMMANDS, "report", boom)
        cfg = write_config(tmp_path, tmp_path / "out")
        assert main(["report", "--config", str(cfg)]) == 3

    def test_generator_task_error_exits_3(self, monkeypatch, tmp_path):
        """An InternalError raised on one of the generator's pool threads
        reaches main as it would from the calling thread."""
        derive_rng = workload_module.derive_rng

        def failing(seed, name):
            if name == "workload-L0-q6":
                raise InternalError("synthetic failure")
            return derive_rng(seed, name)

        monkeypatch.setattr(workload_module, "derive_rng", failing)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, out)
        assert main(["calibrate", "--config", str(cfg)]) == 3
        # the streamed payload and its manifest were never renamed into place
        assert sorted(p.name for p in out.iterdir()) == ["config_used.json"]

    @pytest.mark.parametrize("name", ["workload.bin.tmp", "workload.json.tmp",
                                      "workload.bin", "workload.json"])
    def test_unwritable_container_exits_2_naming_the_file(self, tmp_path, capsys, name):
        """A directory where the workload's payload or manifest is written,
        or renamed into place, ends calibrate with exit 2 naming it."""
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path, out)
        capsys.readouterr()
        assert main(["calibrate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_unusable_temp_dir_exits_2_naming_it(self, artifacts, tmp_path, monkeypatch,
                                                 capsys, kind):
        """A run whose seed is not calibrate's generates its workload again,
        through a temporary directory: a temp directory that is missing or
        is a file ends the run with exit 2 naming it."""
        out = clone_artifacts(artifacts, tmp_path)
        scratch = tmp_path / "tmp"
        if kind == "file":
            scratch.write_text("")
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        cfg = write_config(tmp_path, out)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(scratch) in err
        assert "Traceback" not in err

    def test_unusable_tmpdir_variable_exits_2_naming_it(self, artifacts, tmp_path,
                                                         monkeypatch, capsys):
        """A $TMPDIR that is a regular file ends a regenerating run with exit
        2 naming it, rather than falling back to another directory."""
        out = clone_artifacts(artifacts, tmp_path)
        scratch = tmp_path / "tmpfile"
        scratch.write_text("")
        monkeypatch.setattr(tempfile, "tempdir", None)
        monkeypatch.setenv("TMPDIR", str(scratch))
        cfg = write_config(tmp_path, out)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(scratch) in err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# a quoted field over the csv module's 131,072-character limit
OVERSIZED_ROW = '"' + "x" * 200_000 + '"\r\n'


class TestCorruptFiles:
    """A file that cannot be decoded or parsed, or an --out that names a
    file, exits 2 with one line naming the file, never a traceback."""

    @pytest.mark.parametrize("command, name, corruption", [
        ("report", "config.json", "bad_bytes"),
        ("run", "partition.csv", "bad_bytes"),
        ("run", "projector-L0H1.json", "bad_bytes"),
        ("report", "workload.json", "bad_bytes"),
        ("report", "sparsity_report.json", "bad_bytes"),
        ("report", "decode_trace.csv", "bad_bytes"),
        ("report", "head_token_counts.csv", "bad_bytes"),
        ("report", "mass_sweep.csv", "bad_bytes"),
        ("report", "bench.csv", "bad_bytes"),
        ("report", "distill_summary.json", "bad_bytes"),
        ("run", "partition.csv", "oversized_field"),
        ("report", "decode_trace.csv", "oversized_field"),
        ("report", "bench.csv", "oversized_field"),
        ("distill-toy", "afile", "out_is_a_file"),
    ])
    def test_exits_2_naming_the_file(self, full_artifacts, tmp_path, capsys,
                                     command, name, corruption):
        out = clone_artifacts(full_artifacts, tmp_path)
        cfg = write_config(tmp_path, out)
        argv = [command, "--config", str(cfg)]
        path = tmp_path / name if name in ("config.json", "afile") else out / name
        if corruption == "bad_bytes":
            path.write_bytes(b"\xff" + path.read_bytes())
        elif corruption == "oversized_field":
            with open(path, "a", newline="") as fh:
                fh.write(OVERSIZED_ROW)
        else:
            path.write_text("not a directory\n")
            argv += ["--out", str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err
