"""Output checks for CLI calls, in pure Python.

Each check re-derives what the report must say from the parts of it that
carry the evidence: the p-value bound from the statistic, the battery
combination from its components, the decision from the p-value, the exit
status from the decision, and the scan's grid and first rejection from its
steps.  ``check_cli_cycle`` adds the checks across calls of one cycle.
"""

from __future__ import annotations

import json
import math
import re

P_VALUE_FLOOR = 2.0 ** -1024
TEST_ALPHA = 0.01
SCAN_START_BITS = 1024

_TEXT_LINE = re.compile(r"^  lz77: statistic (\S+) bits, p-value (\S+) \((\w+)\)$")
_INPUT_LINE = re.compile(r"^input: (.*) \((\d+) bits\)$")


def bound_from_bits(saved: float) -> float:
    """p-value bound ``2**-saved`` clamped into (0, 1], as the package reports it."""
    if saved <= 0.0:
        return 1.0
    return min(1.0, max(2.0 ** -min(saved, 1100.0), P_VALUE_FLOOR))


def _decision(p: float, alpha: float) -> str:
    return "reject" if p <= alpha else "accept"


def check_text_test(stdout: str, n_bits: int) -> tuple[dict, list[str]]:
    lines = stdout.splitlines()
    problems = []
    if len(lines) != 4:
        return {}, [f"expected 4 report lines, got {len(lines)}"]
    head, body = _INPUT_LINE.match(lines[0]), _TEXT_LINE.match(lines[1])
    if head is None or body is None:
        return {}, ["unparsable text report"]
    if int(head.group(2)) != n_bits:
        problems.append(f"report says {head.group(2)} bits, input has {n_bits}")
    stat = float(body.group(1))
    if stat != int(stat):
        problems.append(f"lz77 statistic {stat} is not a whole number of bits")
    p = bound_from_bits(stat)
    if body.group(2) != format(p, ".6g") or body.group(3) != "upper_bound":
        problems.append(f"p-value {body.group(2)} ({body.group(3)}) does not match "
                        f"statistic {stat}")
    if lines[2] != f"alpha: {TEST_ALPHA:g}":
        problems.append(f"unexpected alpha line {lines[2]!r}")
    decision = _decision(p, TEST_ALPHA)
    if lines[3] != f"decision: {decision.upper()}":
        problems.append(f"decision line {lines[3]!r}, expected {decision.upper()}")
    return {"decision": decision, "statistic_bits": stat}, problems


def check_battery(stdout: str, n_bits: int) -> tuple[dict, list[str]]:
    doc = json.loads(stdout)
    problems = []
    comps = doc["components"]
    if [c["test_id"] for c in comps] != ["lz77", "tauk"]:
        return {}, [f"unexpected components {comps!r}"]
    ratios = []
    for i, c in enumerate(comps, start=1):
        if c["p_value"] != bound_from_bits(c["statistic_bits"]):
            problems.append(f"{c['test_id']} p-value {c['p_value']} does not match its statistic")
        ratios.append(c["p_value"] / (1.0 / (i * (i + 1))))  # omega_star weights
    combined = min(1.0, max(min(ratios), P_VALUE_FLOOR))
    lz77, tauk = comps[0]["statistic_bits"], comps[1]["statistic_bits"]
    if doc["p_value"] != combined or doc["statistic_bits"] != -math.log2(combined):
        problems.append(f"battery p-value {doc['p_value']} is not min(1, p_i / w_i) = {combined}")
    if doc["decision"] != _decision(doc["p_value"], TEST_ALPHA) or doc["alpha"] != TEST_ALPHA:
        problems.append(f"decision {doc['decision']} does not follow from p-value {doc['p_value']}")
    if lz77 != int(lz77):
        problems.append(f"lz77 statistic {lz77} is not a whole number of bits")
    # tau_k scores the full length too, where its evidence is the lz77
    # statistic less log2(k) = 1 bit and the scale's weight 1/(n(n+1)); its
    # first scale alone guarantees -2.
    floor = max(-2.0, lz77 - 1.0 - math.log2(n_bits * (n_bits + 1.0)))
    if tauk < floor - 1e-6:
        problems.append(f"tau_k statistic {tauk} is below its floor {floor}")
    if doc["config"]["tests"] != ["lz77", "tauk"]:
        problems.append(f"config lists tests {doc['config']['tests']}")
    return {"decision": doc["decision"], "statistic_bits": doc["statistic_bits"],
            "components": {"lz77": lz77, "tauk": tauk}}, problems


def check_scan(stdout: str, n_bits: int, alpha: float) -> tuple[dict, list[str]]:
    """The scans' budget is their file's length, ``n_bits``."""
    doc = json.loads(stdout)
    problems = []
    steps = doc["steps"]
    first = None
    for k, step in enumerate(steps):
        if step["bits"] != SCAN_START_BITS << k:
            problems.append(f"step {k} at {step['bits']} bits is off the doubling grid")
        if step["p_value"] != bound_from_bits(step["statistic_bits"]):
            problems.append(f"step {step['bits']}: p-value does not match statistic")
        if step["decision"] != _decision(step["p_value"], alpha):
            problems.append(f"step {step['bits']}: decision does not follow from p-value")
        if step["decision"] == "reject" and first is None:
            first = step["bits"]
    last_grid = SCAN_START_BITS << (len(steps) - 1) if steps else 0
    if first is None and last_grid * 2 <= n_bits:
        problems.append(f"scan stopped at {last_grid} bits without rejecting")
    if first is not None and first != last_grid:
        problems.append(f"scan went on after rejecting at {first} bits")
    if doc["first_rejection_bits"] != first:
        problems.append(f"first_rejection_bits {doc['first_rejection_bits']}, steps say {first}")
    return {"first_rejection_bits": doc["first_rejection_bits"],
            "statistic_bits": [s["statistic_bits"] for s in steps]}, problems


def check_cli_call(mode: str, exit_code: int | None, stdout: str, n_bits: int,
                   scan_alpha: float) -> tuple[dict, list[str]]:
    """Observed values of one CLI call and the problems found in them."""
    if exit_code not in (0, 1):
        return {"exit": exit_code}, [f"exit status {exit_code}"]
    try:
        if mode == "lz77":
            observed, problems = check_text_test(stdout, n_bits)
            rejected = observed.get("decision") == "reject"
        elif mode == "battery":
            observed, problems = check_battery(stdout, n_bits)
            rejected = observed.get("decision") == "reject"
        else:
            observed, problems = check_scan(stdout, n_bits, scan_alpha)
            rejected = observed["first_rejection_bits"] is not None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return {"exit": exit_code}, [f"malformed report: {exc!r}"]
    if exit_code != (1 if rejected else 0):
        problems.append(f"exit status {exit_code} does not match the decision")
    return {"exit": exit_code, **observed}, problems


def check_cli_cycle(calls, observed: dict[str, dict], problems: dict[str, list[str]]) -> None:
    """Cross-call checks: an input's lz77 statistic is the same in its text
    report and in its battery's lz77 component.  Adds to ``problems``."""
    by_input: dict[str, dict[str, dict]] = {}
    for call in calls:
        by_input.setdefault(call.input, {})[call.mode] = observed.get(call.key, {})
    for name, modes in by_input.items():
        text, battery = modes.get("lz77"), modes.get("battery")
        if not text or not battery or "components" not in battery or "statistic_bits" not in text:
            continue
        if float(format(battery["components"]["lz77"], "g")) != text["statistic_bits"]:
            problems[f"{name}/battery"].append(
                f"lz77 statistic {battery['components']['lz77']} in the battery differs from "
                f"{text['statistic_bits']} in the text report")


def check_expected(expected: dict, observed: dict[str, dict],
                   problems: dict[str, list[str]]) -> None:
    """Seed-independent outcomes at full scale (see ``workloads.EXPECTED_FULL``)."""
    for key, (exit_code, first) in expected.items():
        got = observed.get(key, {})
        if got.get("exit") != exit_code:
            problems[key].append(f"exit {got.get('exit')}, expected {exit_code} at full scale")
        if "first_rejection_bits" in got and got["first_rejection_bits"] != first:
            problems[key].append(f"first rejection at {got['first_rejection_bits']} bits, "
                                 f"expected {first}")


def check_pins(pins: dict, observed: dict[str, dict], problems: dict[str, list[str]]) -> None:
    """Exact outputs pinned for the default seed at full scale."""
    for key, pinned in pins.items():
        if observed.get(key) != pinned:
            problems[key].append(f"output {observed.get(key)} differs from pinned {pinned}")
