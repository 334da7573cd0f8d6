"""tools/report_digests.py: the sha256 of a config's deterministic report
text, the report of run_suite without its generated_at timestamp."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from galiray.harness import config_to_dict, default_config, run_suite

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def test_report_digests_hashes_the_report_without_its_timestamp(tmp_path):
    cfg = default_config(seed=3, n_triples=6, n_pairs=3, n_time_cases=3,
                         n_unitarity_cases=2, n_time_zero_cases=2,
                         n_exponent_triples=1)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    done = subprocess.run([sys.executable, str(TOOL), "--config", str(path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = run_suite(cfg)
    del report["generated_at"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert done.stdout.split() == [str(path),
                                   hashlib.sha256(text.encode()).hexdigest()]

