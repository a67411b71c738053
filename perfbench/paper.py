"""The paper's reference numbers and the gap between them and a report set.

The references are copied from the notes the reports print (Monreal et
al., ICPP'02): Figure 3 is the *fit* set, the one a calibration may tune
against; Figure 10, Section 3.3 and Table 4 are *held out*, so a
calibration cannot be tuned to them.  Section 3.3 at 48 registers is left
out because it is the same points as Figure 10's basic/conv comparison.

Every value is in percent, and the gap of a set is the mean absolute
difference between paper and measured values, in percentage points.
"""

# (set, metric, paper %)
REFERENCES = [
    ("fit", "fig03 idle inflation int", 45.8),
    ("fit", "fig03 idle inflation fp", 16.8),
    ("heldout", "fig10 Hm basic/conv fp @48", 6.0),
    ("heldout", "fig10 Hm extended/conv fp @48", 8.0),
    ("heldout", "fig10 Hm basic/conv int @48", 0.0),
    ("heldout", "fig10 Hm extended/conv int @48", 5.0),
    ("heldout", "sec33 basic/conv fp @40", 9.0),
    ("heldout", "sec33 basic/conv fp @64", 3.0),
    ("heldout", "sec33 basic/conv int @40", 5.0),
    ("heldout", "sec33 basic/conv int @64", 0.0),
    ("heldout", "table4 saved fp 69", 7.2),
    ("heldout", "table4 saved fp 79", 8.9),
    ("heldout", "table4 saved int 64", 12.5),
    ("heldout", "table4 saved int 72", 11.1),
]

# The experiments whose reports the references come from.
EXPERIMENTS = ("fig03", "sec33", "fig10", "table4")

CLASSES = {"int": "Int", "fp": "Fp"}


def harmonic_mean(values):
    values = [v for v in values if v > 0]
    return len(values) / sum(1.0 / v for v in values) if values else 0.0


def speedup_pct(new, baseline):
    return (new / baseline - 1.0) * 100.0 if baseline > 0 else 0.0


def measured_values(reports):
    """Measured value of every reference, from the report ``data`` objects
    keyed by experiment id (the ``data`` field of ``<id>.json``)."""
    fig03, fig10 = reports["fig03"], reports["fig10"]
    sec33, table4 = reports["sec33"], reports["table4"]
    values = {
        "fig03 idle inflation int": fig03["int_idle_overhead"] * 100.0,
        "fig03 idle inflation fp": fig03["fp_idle_overhead"] * 100.0,
    }
    policies = fig10["policies"]
    for cls, label in CLASSES.items():
        rows = [r for r in fig10["rows"] if r["class"] == label]

        def hmean(policy):
            column = policies.index(policy)
            return harmonic_mean([r["ipc"][column] for r in rows])

        for policy in ("basic", "extended"):
            values[f"fig10 Hm {policy}/conv {cls} @48"] = speedup_pct(hmean(policy), hmean("conv"))
        for point in sec33["points"]:
            if point["class"] == label and point["size"] in (40, 64):
                values[f"sec33 basic/conv {cls} @{point['size']}"] = speedup_pct(
                    point["basic_ipc"], point["conv_ipc"])
        for row in table4["rows"]:
            if row["class"] == label:
                extended = row["extended_size"]
                # A conventional IPC the extended curve never reaches saves
                # nothing measurable; count it as 0 % saved.
                saved = 0.0 if extended is None else (
                    (row["conv_size"] - extended) / row["conv_size"] * 100.0)
                values[f"table4 saved {cls} {row['conv_size']}"] = saved
    return values


def gap_table(reports):
    """Rows of (set, metric, paper, measured, |diff|) and the mean |diff| per
    set, in percentage points."""
    measured = measured_values(reports)
    rows, gaps = [], {}
    for group, metric, paper in REFERENCES:
        if metric not in measured:
            raise KeyError(f"report set has no value for '{metric}'")
        diff = abs(measured[metric] - paper)
        rows.append((group, metric, paper, measured[metric], diff))
        gaps.setdefault(group, []).append(diff)
    return rows, {group: sum(d) / len(d) for group, d in gaps.items()}


def format_table(rows, gaps):
    lines = [f"  {'set':<8} {'metric':<32} {'paper %':>8} {'measured %':>11} {'|diff| pp':>10}"]
    for group, metric, paper, measured, diff in rows:
        lines.append(f"  {group:<8} {metric:<32} {paper:>8.1f} {measured:>11.2f} {diff:>10.2f}")
    lines.append(f"  paper_gap_fit_pp={gaps['fit']:.4f} paper_gap_heldout_pp={gaps['heldout']:.4f}")
    return "\n".join(lines)
