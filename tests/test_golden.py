"""Golden corpus: the exact stdout bytes and exit code of representative
command-line calls.

The stored outputs in tests/golden/ were produced before the matching-object
routine replaced its six hand-written copies; every refactor must keep them
byte for byte.  merge_p_p.stdout was regenerated on purpose when `merge`
began writing its result's `phi` entries as plain assignments, the shape
`check pm-valid` reads.  The suite call pins the random generators' draws, since
any change in what they draw changes its report.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from conftest import invoke

GOLDEN = Path(__file__).parent / "golden"


def fixture(name):
    return str(resources.files("profact").joinpath("fixtures", name))


TOWERS = ["-F", fixture("merge_tower_F.json"), "-G", fixture("merge_tower_G.json")]

CASES = {
    "reedy_identity_over_v": ["reedy", fixture("identity_over_v.json")],
    "reedy_broken_naturality": ["reedy", fixture("broken_naturality.json")],
    "lift_lift_over_v": ["lift", fixture("lift_over_v.json")],
    "chi": ["chi", "-f", fixture("chi_f.json"), "-t", fixture("chi_t.json"), "-p", fixture("chi_pm.json")],
    "cofinalize_chain2": ["cofinalize", fixture("chain2.json"), "--levels", "2", "--reysha-cap", "2"],
    "cofinalize_chain3": ["cofinalize", fixture("chain3.json"), "--reysha-cap", "3"],
    "merge_p_p": ["merge", *TOWERS, "-p", fixture("merge_p.json"), "-q", fixture("merge_p.json")],
    "merge_p_q": ["merge", *TOWERS, "-p", fixture("merge_p.json"), "-q", fixture("merge_q.json")],
    "check_special_identity_over_v": ["check", "special", fixture("identity_over_v.json")],
    "check_special_cls_n_identity_over_v": ["check", "special", "--cls", "N", fixture("identity_over_v.json")],
    "check_pm_valid": ["check", "pm-valid", fixture("merge_p.json"), *TOWERS],
    "suite_seed7": ["suite", "--seed", "7", "--cases", "50"],
}


def run(args):
    """The stdout bytes and exit code of one in-process call."""
    result = invoke(args)
    return result.stdout_bytes, result.exit_code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    stdout, code = run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
