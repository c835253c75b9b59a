"""The obs CLI's exports are byte-identical across runs and hash seeds.

Every rendering path the CLI exposes — the metrics registry dump, the
timeline JSON, the attribution export and the SLO report — must not
depend on dict iteration order, so the tests drive real subprocesses
with *different* ``PYTHONHASHSEED`` values and compare bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent


def run_obs(tmp_path, name, hashseed, *extra):
    out = tmp_path / name
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "obs",
            "--episode", "0", "--seed", "7", "--profile", "gray",
            "--users", "4", "--ops", "10", "--duration", "40",
            "--out", str(out), *extra,
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        check=True,
    )
    return out, proc.stdout


class TestHashSeedIndependence:
    def test_metrics_and_slo_output_identical_across_hash_seeds(self, tmp_path):
        _, stdout_a = run_obs(tmp_path, "a", 1, "--metrics", "--slo")
        _, stdout_b = run_obs(tmp_path, "b", 4242, "--metrics", "--slo")

        def stable(text):
            # Drop the one line that names the per-run output directory.
            return [l for l in text.splitlines() if not l.startswith("timeline:")]

        assert stable(stdout_a) == stable(stdout_b)
        assert "slo cal.schedule" in stdout_a
        assert "digest  " in stdout_a

    def test_attribution_and_timeline_files_identical_across_hash_seeds(
        self, tmp_path
    ):
        out_a, _ = run_obs(tmp_path, "a", 7, "--attribute")
        out_b, _ = run_obs(tmp_path, "b", 99, "--attribute")
        assert (out_a / "attribution.json").read_bytes() == (
            out_b / "attribution.json"
        ).read_bytes()
        assert (out_a / "timeline.trace.json").read_bytes() == (
            out_b / "timeline.trace.json"
        ).read_bytes()
