import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from offloadlab.agent import QNetwork, load_checkpoint, save_checkpoint
from offloadlab.cli import main
from offloadlab.config import DEFAULTS
from offloadlab.env import OffloadEnv
from offloadlab.scenario import load_trace

TINY = [
    "--set", "scenario.n_frames=120",
    "--set", "scenario.k=6",
    "--set", "train.episodes=1",
    "--set", "train.eps_decay_steps=60",
    "--set", "train.batch_size=16",
    "--set", "train.buffer_capacity=400",
    "--set", "train.ctx_hidden=8",
    "--set", "train.ctx_out=4",
    "--set", "train.state_hidden=16",
]


def _gen(tmp_path, name="trace.csv"):
    out = tmp_path / name
    assert main(["generate", "--out", str(out), *TINY]) == 0
    return out


def test_generate_round_trip(tmp_path, capsys):
    out = _gen(tmp_path)
    trace = load_trace(out)
    assert len(trace) == 120
    assert trace.k == 6
    assert "wrote 120 frames" in capsys.readouterr().out


def test_generate_writes_manifest(tmp_path):
    out = _gen(tmp_path)
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seeds"] == [7]
    assert manifest["config"]["scenario.n_frames"] == 120
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][str(out)] == digest


def test_generate_reruns_are_byte_identical(tmp_path):
    a = _gen(tmp_path, "a.csv")
    b = _gen(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_generate_seed_changes_output(tmp_path):
    a = _gen(tmp_path, "a.csv")
    out = tmp_path / "c.csv"
    assert main(["generate", "--out", str(out), "--seed", "9", *TINY]) == 0
    assert a.read_bytes() != out.read_bytes()


def test_generate_rejects_bad_generator(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["generate", "--out", str(out), "--set", "scenario.alpha=1.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: generate:")
    assert err.count("\n") == 1


def test_fit_channel(tmp_path, capsys):
    p = tmp_path / "rates.txt"
    p.write_text("1.0\n2.0\n3.0\n1.0\n2.0\n3.0\n")
    assert main(["fit-channel", str(p)]) == 0
    out = capsys.readouterr().out
    assert "samples 6" in out
    assert "sigma 1.5275252316519468" in out


def test_fit_channel_missing_file(tmp_path, capsys):
    rc = main(["fit-channel", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: fit-channel:")


def _train(tmp_path, trace, name="net.txt"):
    ckpt = tmp_path / name
    assert main(["train", "--trace", str(trace), "--out", str(ckpt), *TINY]) == 0
    return ckpt


def test_train_writes_checkpoint_log_and_manifest(tmp_path):
    trace = _gen(tmp_path)
    ckpt = _train(tmp_path, trace)
    net = load_checkpoint(ckpt)
    assert net.k == 6
    log = tmp_path / "net.txt.log.csv"
    lines = log.read_text().splitlines()
    assert lines[0] == "episode,mean_reward,mean_loss,epsilon"
    assert len(lines) == 2
    manifest = json.loads((tmp_path / "net.txt.manifest.json").read_text())
    assert set(manifest["outputs"]) == {str(ckpt), str(log)}


def test_train_reruns_are_byte_identical(tmp_path):
    trace = _gen(tmp_path)
    a = _train(tmp_path, trace, "a.txt")
    b = _train(tmp_path, trace, "b.txt")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.log.csv").read_bytes() == (tmp_path / "b.txt.log.csv").read_bytes()


# sha256 of the TINY run's checkpoint and training log; they pin the training
# arithmetic (forward, backward, optimizer) bit for bit
TRAIN_SHA256 = {
    "adam": ("f8da336a9717affa615b8d2679e8ed42e213c3169f53591799342ad3c13ddfe0",
             "1f8a44f4211f2199bb3173d6409b6222629ef92205faa14942e521c40caba588"),
    "sgd": ("e1d83028bbd1264b87cc5713129ec5a5be62aacc9a823673b1ea4950f02821fa",
            "6081a5ac31ae02f8744c7f65e0668a940fb3ab67fbff9541e440e66aa9a07801"),
}


@pytest.mark.parametrize("optimizer", sorted(TRAIN_SHA256))
def test_train_outputs_match_pinned_sha256(tmp_path, capsys, optimizer):
    trace = _gen(tmp_path)
    ckpt = tmp_path / "net.txt"
    assert main(["train", "--trace", str(trace), "--out", str(ckpt), *TINY,
                 "--set", f"train.optimizer={optimizer}"]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (ckpt, tmp_path / "net.txt.log.csv"))
    assert got == TRAIN_SHA256[optimizer]
    capsys.readouterr()


# sha256 of the TINY trace and of the channel and queue sweeps of
# test_sweep_channel_and_queue; they pin the trace and sweep CSV bytes
GENERATE_SHA256 = "1802287c656b0115514e6c16b0b847611a1871dab82145d4f0845657bfd8549d"
SWEEP_SHA256 = {
    "channel": "811d20bb2d9e2cd2b86aaa9f994a635cdbc5d82f01aa00c9756795fb9adb1564",
    "queue": "4f2d306c0f3abf7942b1204f89545e23160cc65f0f3b982366ffe9eb65219d53",
}


def test_generate_output_matches_pinned_sha256(tmp_path, capsys):
    assert hashlib.sha256(_gen(tmp_path).read_bytes()).hexdigest() == GENERATE_SHA256
    capsys.readouterr()


@pytest.mark.parametrize("kind, flag", [("channel", "--fixed-q"), ("queue", "--fixed-phi")])
def test_sweep_output_matches_pinned_sha256(tmp_path, capsys, kind, flag):
    out = tmp_path / f"sweep_{kind}.csv"
    assert main(["sweep", kind, "--grid", "2:12:2", flag, "15", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[kind]
    capsys.readouterr()


def test_train_missing_trace(tmp_path, capsys):
    rc = main(["train", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "n.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: train:")


def test_eval_each_policy(tmp_path, capsys):
    trace = _gen(tmp_path)
    ckpt = _train(tmp_path, trace)
    for policy, extra in [
        ("local", []),
        ("ragnostic", []),
        ("oracle", []),
        ("drl", ["--checkpoint", str(ckpt)]),
    ]:
        out = tmp_path / f"eval_{policy}.csv"
        rc = main(
            ["eval", "--trace", str(trace), "--policy", policy, "--out", str(out),
             "--seeds", "0,1", *extra]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith(policy + ",")
    capsys.readouterr()


def test_eval_reruns_are_byte_identical(tmp_path, capsys):
    trace = _gen(tmp_path)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["eval", "--trace", str(trace), "--policy", "ragnostic", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_eval_energy_reduction_is_nan_when_local_spends_nothing(tmp_path, capsys):
    # p_local_w = 0 makes the all-local baseline energy 0: no reduction to report
    trace = _gen(tmp_path)
    out = tmp_path / "r.csv"
    assert main(["eval", "--trace", str(trace), "--policy", "local", "--out", str(out),
                 "--seeds", "0", "--set", "p_local_w=0"]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["total_energy_j"] == "0.0"
    assert cells["energy_reduction_pct"] == "nan"
    assert capsys.readouterr().err == ""


def test_eval_drl_requires_checkpoint(tmp_path, capsys):
    trace = _gen(tmp_path)
    rc = main(["eval", "--trace", str(trace), "--policy", "drl", "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: eval:")


@pytest.mark.parametrize(
    "mismatch,kw",
    [
        ("features", {"k": 5}),
        ("action set", {"actions": (0, 3)}),
        ("q_norm", {"q_norm": 50.0}),
    ],
)
def test_eval_drl_rejects_checkpoint_that_disagrees_with_run(tmp_path, capsys, mismatch, kw):
    trace = _gen(tmp_path)
    net_kw = {"k": 6, "actions": (0, 2, 3), "q_norm": 68.12, **kw}
    ckpt = tmp_path / "other.txt"
    save_checkpoint(QNetwork(rng=np.random.default_rng(0), **net_kw), ckpt)
    out = tmp_path / "r.csv"
    rc = main(["eval", "--trace", str(trace), "--policy", "drl", "--checkpoint", str(ckpt),
               "--out", str(out), "--seeds", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eval: checkpoint")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("lineno, cell, what", [
    (7, 2, "layer index must be an integer"),
    (7, 3, "layer rows must be an integer"),
    (7, 4, "layer cols must be an integer"),
    (9, 1, "weights must be numbers"),
    (12, 2, "biases must be numbers"),
])
def test_checkpoint_with_non_numeric_cell_names_its_line(tmp_path, capsys, lineno, cell, what):
    # header on lines 1-6, then "layer ctx 0 4 6", four weight rows, biases
    trace = _gen(tmp_path)
    ckpt = tmp_path / "net.txt"
    save_checkpoint(QNetwork(6, (0, 2, 3), ctx_hidden=(4,), ctx_out=2, state_hidden=(8,),
                             rng=np.random.default_rng(0)), ckpt)
    lines = ckpt.read_text().split("\n")
    cells = lines[lineno - 1].split(" ")
    cells[cell] = "x"
    lines[lineno - 1] = " ".join(cells)
    ckpt.write_text("\n".join(lines))
    want = f"{ckpt}: line {lineno}: {what}, got 'x'"
    with pytest.raises(ValueError, match=re.escape(want)):
        load_checkpoint(ckpt)
    rc = main(["eval", "--trace", str(trace), "--policy", "drl", "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "r.csv"), "--seeds", "0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: eval: {want}\n"


def test_train_divergence_is_a_one_line_error(tmp_path, capsys):
    trace = _gen(tmp_path)
    ckpt = tmp_path / "net.txt"
    rc = main(["train", "--trace", str(trace), "--out", str(ckpt), *TINY,
               "--set", "train.loss_ceiling=1e-9", "--set", "train.loss_patience=1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: train: loss above 1e-09 for 1 consecutive steps")
    assert err.count("\n") == 1
    # the message ends with the last losses, as a list of float reprs
    losses = re.search(r"; last losses \[(.*)\]$", err.rstrip("\n")).group(1).split(", ")
    assert 1 <= len(losses) <= 5
    assert all(float(v) > 1e-9 for v in losses)
    assert not ckpt.exists()


def test_bad_rho_cycle_load_fails_before_any_step(tmp_path, capsys, monkeypatch):
    trace = _gen(tmp_path)
    steps = []
    real_step = OffloadEnv.step

    def counting_step(self, action):
        steps.append(action)
        return real_step(self, action)

    monkeypatch.setattr(OffloadEnv, "step", counting_step)
    ckpt = tmp_path / "net.txt"
    rc = main(["train", "--trace", str(trace), "--out", str(ckpt), *TINY,
               "--set", "train.rho_cycle=0.9,1.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: train: train.rho_cycle: rho must lie in (0, 1), got 1.5\n"
    assert steps == []
    assert not ckpt.exists()


# every float-valued config key, and the subcommand that builds its object
NAN_KEYS = [key for key, (kind, _, _) in DEFAULTS.items() if kind in ("float", "floats")]


def _nan_command(tmp_path, key):
    if key.startswith("scenario."):
        return "generate", ["generate", "--out", str(tmp_path / "out.csv")]
    trace = str(_gen(tmp_path, "in.csv"))
    if key.startswith("train."):
        return "train", ["train", "--trace", trace, "--out", str(tmp_path / "out.csv"), *TINY]
    return "eval", ["eval", "--trace", trace, "--policy", "local",
                    "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("key", NAN_KEYS)
def test_nan_config_value_is_a_one_line_error(tmp_path, capsys, key):
    cmd, argv = _nan_command(tmp_path, key)
    capsys.readouterr()
    rc = main([*argv, "--set", f"{key}=nan"])
    err = capsys.readouterr().err
    assert rc == 1, key
    assert err.startswith(f"error: {cmd}: ") and err.count("\n") == 1, err
    assert key.split(".")[-1] in err  # the message names the bad field
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("kind, flag, value, message", [
    ("channel", "--grid", "nan,5", "channel rates must be positive"),
    ("channel", "--fixed-q", "nan", "server delay must be non-negative"),
    ("queue", "--grid", "nan,5", "server delay must be non-negative"),
    ("queue", "--fixed-phi", "nan", "channel rates must be positive"),
])
def test_sweep_rejects_nan_draws(tmp_path, capsys, kind, flag, value, message):
    out = tmp_path / "s.csv"
    grid = [] if flag == "--grid" else ["--grid", "2,5"]
    assert main(["sweep", kind, *grid, flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: sweep: {message}\n"
    assert not out.exists()


def test_eval_rejects_bad_seed_list(tmp_path, capsys):
    trace = _gen(tmp_path)
    rc = main(
        ["eval", "--trace", str(trace), "--policy", "local", "--out",
         str(tmp_path / "r.csv"), "--seeds", "0,x"]
    )
    assert rc == 1
    capsys.readouterr()


def test_sweep_channel_and_queue(tmp_path, capsys):
    for kind, flag in (("channel", "--fixed-q"), ("queue", "--fixed-phi")):
        out = tmp_path / f"sweep_{kind}.csv"
        rc = main(["sweep", kind, "--grid", "2:12:2", flag, "15", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 7
    capsys.readouterr()


def test_sweep_grid_comma_form(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "channel", "--grid", "2,8,12", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    capsys.readouterr()


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    rc = main(["sweep", "channel", "--grid", "12:2:1", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: sweep:")


@pytest.mark.parametrize("grid", ["nan:5:1", "0:nan:1", "0:inf:1", "inf:inf:1"])
def test_sweep_rejects_non_finite_grid_range(tmp_path, capsys, grid):
    rc = main(["sweep", "channel", "--grid", grid, "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: sweep: bad grid range {grid!r}\n"


def test_dump_config_subcommand(capsys):
    assert main(["dump-config", "--set", "rho=0.97"]) == 0
    out = capsys.readouterr().out
    assert "rho = 0.97" in out
    assert "l_th_ms = 68.12" in out


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path / "t.csv"), "--set", "nope=1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nope" in err


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "offloadlab", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "offloadlab 0.1.0" in out.stdout
